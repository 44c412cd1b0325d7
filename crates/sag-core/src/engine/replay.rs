//! Batch replay drivers: thin wrappers that stream recorded [`DayLog`]s
//! through [`DaySession`](super::DaySession)s, sequentially or sharded over
//! threads.
//!
//! Every driver here is a convenience over the streaming core: a job's test
//! day is replayed by opening a session and pushing its alerts one at a
//! time, so batch and streaming callers are guaranteed to agree bitwise.

use super::outcome::CycleResult;
use super::session::{AuditCycleEngine, SessionBackends};
use crate::{ConfigError, Result};
use sag_sim::{AlertLog, DayLog};

/// One unit of replay work: a history window, the test day replayed against
/// it, and an optional per-cycle budget override (budget schedules).
#[derive(Debug, Clone, Copy)]
pub struct ReplayJob<'a> {
    /// Historical days the forecaster is fitted on.
    pub history: &'a [DayLog],
    /// The day whose alerts are replayed.
    pub test_day: &'a DayLog,
    /// Budget for this cycle; `None` uses the game's configured budget.
    pub budget: Option<f64>,
}

/// Check a per-cycle budget override before any session (or shard thread)
/// picks it up.
pub(super) fn validate_budget(budget: f64) -> Result<()> {
    if !budget.is_finite() || budget < 0.0 {
        return Err(ConfigError::InvalidBudget { value: budget }.into());
    }
    Ok(())
}

impl<'a> ReplayJob<'a> {
    /// A job with the game's default budget.
    #[must_use]
    pub fn new(history: &'a [DayLog], test_day: &'a DayLog) -> Self {
        ReplayJob {
            history,
            test_day,
            budget: None,
        }
    }

    /// A job with an explicit cycle budget (budget-schedule scenarios).
    /// Validated at construction so a malformed budget fails here, long
    /// before a shard thread would pick the job up.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for a non-finite or negative
    /// budget.
    pub fn with_budget(history: &'a [DayLog], test_day: &'a DayLog, budget: f64) -> Result<Self> {
        validate_budget(budget)?;
        Ok(ReplayJob {
            history,
            test_day,
            budget: Some(budget),
        })
    }
}

/// The shard count [`AuditCycleEngine::replay_batch`] picks for a batch of
/// `num_jobs` day jobs: one shard per available core under the `parallel`
/// feature (capped at the job count), a single shard otherwise.
#[must_use]
pub fn recommended_shards(num_jobs: usize) -> usize {
    #[cfg(feature = "parallel")]
    {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(num_jobs.max(1))
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = num_jobs;
        1
    }
}

impl AuditCycleEngine {
    /// Replay one audit cycle: fit the forecaster on `history`, then stream
    /// the alerts of `test_day` through a [`super::DaySession`] one at a
    /// time.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (which do not occur for valid configurations).
    pub fn run_day(&self, history: &[DayLog], test_day: &DayLog) -> Result<CycleResult> {
        let mut backends = Some(SessionBackends::for_engine(self));
        self.stream_job(&ReplayJob::new(history, test_day), &mut backends)
    }

    /// Replay many `(history, test-day)` jobs, sharded over
    /// [`recommended_shards`] shards. Equivalent to
    /// [`replay_sharded`](Self::replay_sharded) with the default shard
    /// count; every day replays bitwise-identically regardless of sharding.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (which do not occur for valid
    /// configurations).
    pub fn replay_batch(&self, jobs: &[(&[DayLog], &DayLog)]) -> Result<Vec<CycleResult>> {
        let jobs: Vec<ReplayJob<'_>> = jobs
            .iter()
            .map(|&(history, test_day)| ReplayJob::new(history, test_day))
            .collect();
        self.replay_sharded(&jobs, recommended_shards(jobs.len()))
    }

    /// Replay a batch of day jobs partitioned into `shards` contiguous
    /// shards. Each shard owns its own solver backends (and their scratch
    /// buffers), streams its jobs' days sequentially, and —
    /// with the `parallel` feature, on a multi-core host — runs as a task
    /// on the engine's persistent [`sag_pool::WorkerPool`] (spawned once at
    /// engine construction, never per call).
    ///
    /// Backends keep no state between solves, which makes each
    /// [`CycleResult`] a pure function of its job: the output is **bitwise
    /// identical** for every shard count, with or without the `parallel`
    /// feature. Sharding therefore only changes wall-clock time, never
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] if any job carries a malformed
    /// budget override (checked up front, before any shard thread starts),
    /// and propagates solver errors (which do not occur for valid
    /// configurations).
    pub fn replay_sharded(
        &self,
        jobs: &[ReplayJob<'_>],
        shards: usize,
    ) -> Result<Vec<CycleResult>> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Fail fast on malformed budgets: jobs built with struct literals
        // bypass the `with_budget` check, so re-validate the whole batch
        // here before a shard thread picks anything up.
        for job in jobs {
            if let Some(budget) = job.budget {
                validate_budget(budget)?;
            }
        }
        let shards = shards.clamp(1, jobs.len());
        let chunk_size = jobs.len().div_ceil(shards);

        if shards > 1 {
            if let Some(pool) = self.pool() {
                let mut results: Vec<Option<Result<CycleResult>>> =
                    (0..jobs.len()).map(|_| None).collect();
                let tasks: Vec<sag_pool::Task<'_>> = jobs
                    .chunks(chunk_size)
                    .zip(results.chunks_mut(chunk_size))
                    .map(|(job_chunk, result_chunk)| {
                        Box::new(move || {
                            let mut backends = None;
                            for (job, out) in job_chunk.iter().zip(result_chunk.iter_mut()) {
                                *out = Some(self.stream_job(job, &mut backends));
                            }
                        }) as sag_pool::Task<'_>
                    })
                    .collect();
                pool.run(tasks);
                return results
                    .into_iter()
                    .map(|r| r.expect("every job replayed"))
                    .collect();
            }
        }

        let mut results = Vec::with_capacity(jobs.len());
        for job_chunk in jobs.chunks(chunk_size) {
            let mut backends = None;
            for job in job_chunk {
                results.push(self.stream_job(job, &mut backends)?);
            }
        }
        Ok(results)
    }

    /// Replay every rolling `(history, test-day)` group of a multi-day log,
    /// as in the paper's 15-group evaluation.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`run_day`](Self::run_day).
    pub fn run_groups(&self, log: &AlertLog, history_len: usize) -> Result<Vec<CycleResult>> {
        self.replay_batch(&log.rolling_groups(history_len))
    }

    /// Stream one job's test day through a [`super::DaySession`], reusing
    /// the shard's backend pair (`None` on first use allocates a fresh
    /// pair).
    fn stream_job(
        &self,
        job: &ReplayJob<'_>,
        pool: &mut Option<SessionBackends>,
    ) -> Result<CycleResult> {
        let backends = pool
            .take()
            .unwrap_or_else(|| SessionBackends::for_engine(self));
        let mut session = self.open_day_with(job.history, job.budget, backends)?;
        session.set_day(job.test_day.day());
        for alert in job.test_day.alerts() {
            session.push_alert(alert)?;
        }
        let (result, backends) = session.finish_with_backends();
        *pool = Some(backends);
        Ok(result)
    }
}
