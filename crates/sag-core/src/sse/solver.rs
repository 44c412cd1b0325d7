//! The multiple-LP method over [`sag_lp`], with per-candidate warm starts
//! and incremental candidate pruning.
//!
//! ## Incremental pruning
//!
//! Between consecutive alerts only the remaining budget and the per-type
//! estimates drift slightly, so the winning candidate (and every candidate
//! LP's optimal basis) almost never changes. The cached solve path exploits
//! that instead of hoping for a better worst case:
//!
//! 1. solve the **incumbent** (the previous winner) first, with its warm
//!    basis — this is usually the optimum already;
//! 2. for every other candidate, re-price the duals of its *previous*
//!    optimal basis against the updated coefficients
//!    ([`sag_lp::LpProblem::lagrangian_bound`]) — an `O(n)` certified upper
//!    bound on that candidate's objective;
//! 3. skip the candidate's LP entirely when the bound (minus a safety
//!    margin) cannot beat the incumbent; fall back to a full warm-started
//!    solve when it can't certify exclusion (or no duals exist yet).
//!
//! The selection rule is the exact lexicographic argmax (highest auditor
//! utility, ties to the lowest candidate index), which is order-independent,
//! so pruned and exhaustive solves return the **same winner and solution**
//! — the invariant the scenario-registry equivalence tests enforce.

use super::cache::{CandidateSlot, SseCache};
use super::input::SseInput;
use super::solution::{SseSolution, SseSolveStats};
use super::EPS;
use crate::{Result, SagError};
use sag_lp::{LpError, LpProblem, Objective, Relation, SimplexWorkspace, VarId};
use sag_pool::{Task, WorkerPool};
use sag_sim::AlertTypeId;

/// Minimum number of candidate types before an engine-provided
/// [`WorkerPool`] fans the exhaustive candidate solves out over threads;
/// below this, batch dispatch overhead exceeds the LP solve cost.
///
/// Tuned against the `bench_pruning` criterion data: one pool batch
/// dispatch floors at ~1–2 µs (`pool_dispatch/*_noop_tasks`) and grows with
/// scheduler wake-up latency on real multi-core hosts, while a warm
/// candidate solve costs ~2.1 µs on the 7-type paper game
/// (`sse_pruning/exhaustive/7_types_paper` ÷ 7) and more on the federated
/// games. Break-even therefore sits around 4–6 candidates per extra
/// worker; 8 adds slack because fan-out only runs on *exhaustive* solves —
/// the cold first solve of each day — while the pruned steady state solves
/// ~1 LP per alert and has nothing worth fanning out.
pub(crate) const PARALLEL_MIN_TYPES: usize = 8;

/// Safety margin (in auditor-utility units) the pruning bound must clear
/// before a candidate LP is skipped. Utilities in the SAG workloads are
/// `O(10²..10⁴)`, so float noise in the re-priced bound is below `1e-8`;
/// `1e-6` keeps exclusion certificates sound with two orders of slack while
/// still pruning every realistically separated candidate.
const PRUNE_MARGIN: f64 = 1e-6;

/// The largest payoff magnitude of the game. The candidate LPs divide their
/// payoff-derived rows and objective by it, so the simplex's absolute
/// tolerances ([`sag_lp::EPS`]) mean the same at payoffs of 1e-6 and of 1e9:
/// the programs are scale-free up to rounding.
pub(super) fn payoff_scale(input: &SseInput<'_>) -> f64 {
    input.payoffs.magnitude().max(f64::MIN_POSITIVE)
}

/// A cached candidate LP: the problem plus its variable handles.
#[derive(Debug, Clone)]
pub(super) struct CandidateProgram {
    pub(super) lp: LpProblem,
    pub(super) vars: Vec<VarId>,
}

/// The scalar outcome of one candidate LP solve; the full solution stays in
/// the slot. Infeasible candidates produce an outcome too (with
/// `feasible: false`) so the pivots spent proving infeasibility still count
/// toward the solver-work statistics.
#[derive(Debug, Clone, Copy)]
pub(super) struct CandidateOutcome {
    feasible: bool,
    auditor_utility: f64,
    attacker_utility: f64,
    warm_attempted: bool,
    warm_hit: bool,
    pivots: u32,
}

/// Solver for the online SSE (the multiple-LP method over [`sag_lp`]).
#[derive(Debug, Clone)]
pub struct SseSolver {
    pruning: bool,
    /// ε-approximate mode tolerance. When positive, the pruned path also
    /// skips candidates whose re-priced bound exceeds the incumbent by at
    /// most ε, and certifies the per-solve utility loss (≤ ε) on the cache.
    epsilon: f64,
}

impl Default for SseSolver {
    fn default() -> Self {
        SseSolver::new()
    }
}

impl SseSolver {
    /// Create a solver with incremental candidate pruning enabled (the
    /// default: cached solves skip candidate LPs that provably cannot win).
    #[must_use]
    pub fn new() -> Self {
        SseSolver::with_options(true, 0.0)
    }

    /// Create a solver that always solves every candidate LP. Same results
    /// as [`new`](Self::new) — only the work counters differ; this is the
    /// reference arm of the pruning-equivalence tests and benchmarks.
    #[must_use]
    pub fn exhaustive() -> Self {
        SseSolver::with_options(false, 0.0)
    }

    /// [`new`](Self::new) or [`exhaustive`](Self::exhaustive), selected by
    /// flag — the single construction point for callers that thread
    /// [`crate::engine::EngineConfig::pruning`] through.
    #[must_use]
    pub fn with_pruning(pruning: bool) -> Self {
        SseSolver::with_options(pruning, 0.0)
    }

    /// Full construction point: pruning flag plus the ε-approximate
    /// tolerance. With `epsilon > 0.0`, cached *pruned* solves also skip
    /// candidate LPs whose certified upper bound exceeds the incumbent by
    /// at most ε; the accumulated per-solve utility-loss bound is reported
    /// through [`SseCache::certified_eps_loss`]. `epsilon = 0.0` is exactly
    /// [`with_pruning`](Self::with_pruning): the extra branch never fires,
    /// results and counters stay bitwise identical to the exact path. The
    /// tolerance has no effect on exhaustive solvers (`pruning = false`) —
    /// the ε guard lives on the incremental (pruned) path.
    #[must_use]
    pub fn with_options(pruning: bool, epsilon: f64) -> Self {
        SseSolver { pruning, epsilon }
    }

    /// Whether cached solves use incremental candidate pruning.
    #[must_use]
    pub fn pruning_enabled(&self) -> bool {
        self.pruning
    }

    /// The ε-approximate mode tolerance (0.0 = exact).
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Per-unit-budget coverage rates `ρ^t` for the given input.
    pub(super) fn coverage_rates_into(input: &SseInput<'_>, rates: &mut Vec<f64>) {
        rates.clear();
        rates.extend(
            input
                .future_estimates
                .iter()
                .zip(input.audit_costs)
                .map(|(&lambda, &cost)| sag_forecast::expected_inverse_positive(lambda) / cost),
        );
    }

    /// Solve the online SSE cold: no warm-start state, one fresh workspace
    /// shared by the candidate LPs. This is the reference implementation;
    /// the hot path is [`solve_cached`](Self::solve_cached).
    ///
    /// # Errors
    ///
    /// Returns [`SagError::InvalidConfig`] for malformed inputs and
    /// [`SagError::NoFeasibleType`] if no candidate best-response LP is
    /// feasible (which cannot happen for valid inputs).
    pub fn solve(&self, input: &SseInput<'_>) -> Result<SseSolution> {
        input.validate()?;
        let mut rates = Vec::new();
        Self::coverage_rates_into(input, &mut rates);
        if input.payoffs.len() == 1 {
            return Ok(Self::solve_single_type(input, &rates, Default::default()));
        }

        let n = input.payoffs.len();
        let mut best: Option<SseSolution> = None;
        let mut ws = SimplexWorkspace::new();
        // The cold path never re-prices a pruning bound, so the duals of
        // these one-shot solves would go straight to the recycler.
        ws.set_collect_duals(false);
        for candidate in 0..n {
            match Self::solve_for_candidate(input, &rates, candidate, &mut ws) {
                Ok(solution) => keep_better(&mut best, solution),
                Err(SagError::Lp(LpError::Infeasible)) => continue,
                Err(other) => return Err(other),
            }
        }
        best.ok_or(SagError::NoFeasibleType)
    }

    /// Solve the online SSE warm: seed every candidate LP from the optimal
    /// basis of the previous solve recorded in `cache`, prune candidate LPs
    /// the incremental bound excludes, and answer single-type games with the
    /// exact closed form. The returned optimum agrees with
    /// [`solve`](Self::solve) on the objective to ~1e-9 (warm and cold both
    /// terminate at an optimal basis of the same LP; pruning only skips
    /// provably losing candidates).
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_cached(&self, input: &SseInput<'_>, cache: &mut SseCache) -> Result<SseSolution> {
        self.solve_cached_with(input, cache, true, None)
    }

    /// [`solve_cached`](Self::solve_cached) with the single-type closed-form
    /// fast path made optional (the simplex-LP backend disables it so that
    /// *every* game, single-type included, runs through the multiple-LP
    /// method — see [`super::SimplexLpBackend::lp_only`]) and an optional
    /// [`WorkerPool`] for the exhaustive candidate fan-out.
    pub(super) fn solve_cached_with(
        &self,
        input: &SseInput<'_>,
        cache: &mut SseCache,
        allow_fast_path: bool,
        pool: Option<&WorkerPool>,
    ) -> Result<SseSolution> {
        input.validate()?;
        let n = input.payoffs.len();
        cache.ensure_shape(n);
        let mut rates = std::mem::take(&mut cache.rates);
        Self::coverage_rates_into(input, &mut rates);

        let result = if n == 1 && allow_fast_path {
            // Reuse a recycled buffer pair: without the pop, the session's
            // per-alert recycle would grow `spare_solutions` by one entry
            // per fast-path solve, unbounded across a replay.
            let buffers = cache.spare_solutions.pop().unwrap_or_default();
            let solution = Self::solve_single_type(input, &rates, buffers);
            cache.totals.solves += 1;
            cache.totals.fast_path_solves += 1;
            Ok(solution)
        } else {
            self.solve_multi_cached(input, &rates, cache, pool)
        };
        cache.rates = rates;
        result
    }

    /// The multiple-LP method with per-candidate warm starts and (by
    /// default) incremental pruning. Allocation-free in the steady state:
    /// each slot keeps its LP (coefficients rewritten in place), its simplex
    /// workspace and its previous optimal basis; the per-solve outcome
    /// buffer and the returned solution's vectors are recycled through the
    /// cache.
    fn solve_multi_cached(
        &self,
        input: &SseInput<'_>,
        rates: &[f64],
        cache: &mut SseCache,
        pool: Option<&WorkerPool>,
    ) -> Result<SseSolution> {
        let n = input.payoffs.len();
        let incumbent = cache.last_winner.filter(|&w| w < n && self.pruning);
        // Duals are only worth extracting when this solver will price the
        // pruning bound from them on a later solve.
        let (winner, outcome, stats, max_skipped_ub) = match incumbent {
            Some(w) => Self::candidates_pruned(input, rates, cache, w, self.epsilon)?,
            None => {
                let (w, o, s) =
                    Self::candidates_exhaustive(input, rates, cache, pool, self.pruning)?;
                (w, o, s, f64::NEG_INFINITY)
            }
        };

        cache.totals.solves += 1;
        cache.totals.lp_solves += u64::from(stats.lp_solves);
        cache.totals.warm_attempts += u64::from(stats.warm_attempts);
        cache.totals.warm_hits += u64::from(stats.warm_hits);
        cache.totals.pivots += u64::from(stats.pivots);
        cache.totals.pruned_lps += u64::from(stats.pruned_lps);
        cache.totals.eps_skipped_lps += u64::from(stats.eps_skipped_lps);
        if stats.eps_skipped_lps > 0 {
            // Certified per-solve loss: every ε-skipped candidate's true
            // utility is at most its re-priced bound, so the optimum can
            // exceed the returned winner by at most this delta (≤ ε, since
            // each skip required `ub ≤ running best + ε` and the running
            // best never decreases).
            cache.eps_loss += (max_skipped_ub - outcome.auditor_utility).max(0.0);
        }
        cache.last_winner = Some(winner);

        let slot = &cache.slots[winner];
        let solution = slot
            .last
            .as_ref()
            .expect("winning candidate was just solved");
        let program = slot
            .program
            .as_ref()
            .expect("winning candidate has a program");
        let (mut coverage, mut budget_split) = cache.spare_solutions.pop().unwrap_or_default();
        budget_split.clear();
        budget_split.extend(program.vars.iter().map(|&v| solution.value(v)));
        coverage.clear();
        coverage.extend(
            budget_split
                .iter()
                .zip(rates)
                .map(|(b, r)| (b * r).clamp(0.0, 1.0)),
        );
        Ok(SseSolution {
            coverage,
            budget_split,
            best_response: AlertTypeId(winner as u16),
            auditor_utility: outcome.auditor_utility,
            attacker_utility: outcome.attacker_utility,
            stats,
        })
    }

    /// Solve every candidate LP — sequentially, or fanned out over an
    /// engine-provided [`WorkerPool`] for games with many types — and reduce
    /// to the winner in candidate order.
    fn candidates_exhaustive(
        input: &SseInput<'_>,
        rates: &[f64],
        cache: &mut SseCache,
        pool: Option<&WorkerPool>,
        collect_duals: bool,
    ) -> Result<(usize, CandidateOutcome, SseSolveStats)> {
        let SseCache {
            slots, outcomes, ..
        } = cache;
        let n = slots.len();
        outcomes.clear();
        outcomes.resize_with(n, || None);

        let pooled = match pool {
            Some(pool) if n >= PARALLEL_MIN_TYPES => {
                Self::fan_out_pooled(input, rates, slots, outcomes, pool, collect_duals);
                true
            }
            _ => false,
        };
        if !pooled {
            for (candidate, (slot, out)) in slots.iter_mut().zip(outcomes.iter_mut()).enumerate() {
                *out = Some(slot.solve(input, rates, candidate, collect_duals));
            }
        }

        let mut stats = SseSolveStats::default();
        let mut best: Option<(usize, CandidateOutcome)> = None;
        for (candidate, out) in outcomes.iter_mut().enumerate() {
            let outcome = out.take().expect("every candidate solved")?;
            record(&mut stats, &outcome);
            if outcome.feasible && is_better(candidate, &outcome, best.as_ref()) {
                best = Some((candidate, outcome));
            }
        }
        let (winner, outcome) = best.ok_or(SagError::NoFeasibleType)?;
        Ok((winner, outcome, stats))
    }

    /// The incremental path: solve the incumbent winner `w` first, then
    /// skip every candidate whose re-priced dual bound proves it cannot
    /// beat the running best, solving the rest in candidate order. With
    /// `epsilon > 0.0` also skips candidates the bound places at most ε
    /// above the running best, returning the largest such skipped bound
    /// (−∞ when nothing was ε-skipped) so the caller can certify the loss.
    fn candidates_pruned(
        input: &SseInput<'_>,
        rates: &[f64],
        cache: &mut SseCache,
        w: usize,
        epsilon: f64,
    ) -> Result<(usize, CandidateOutcome, SseSolveStats, f64)> {
        let SseCache {
            slots,
            bound_scratch,
            ..
        } = cache;
        let mut stats = SseSolveStats::default();
        let mut best: Option<(usize, CandidateOutcome)> = None;
        let mut max_skipped_ub = f64::NEG_INFINITY;
        let scale = payoff_scale(input);

        let inc_outcome = slots[w].solve(input, rates, w, true)?;
        record(&mut stats, &inc_outcome);
        if inc_outcome.feasible {
            best = Some((w, inc_outcome));
        }

        for (candidate, slot) in slots.iter_mut().enumerate() {
            if candidate == w {
                continue;
            }
            slot.prepare(input, rates, candidate);
            if let (Some((_, inc)), Some(last)) = (best.as_ref(), slot.last.as_ref()) {
                // An empty duals slice means the slot was last solved by a
                // dual-skipping (exhaustive) solver — no certificate, solve
                // in full.
                if !last.duals().is_empty() {
                    let program = slot.program.as_ref().expect("program just prepared");
                    let bound = program.lp.lagrangian_bound(last.duals(), bound_scratch);
                    // The LP objective is the coverage gain
                    // `θ_c (Ud,c − Ud,u)` over the payoff scale, so the
                    // candidate's auditor utility is bounded by
                    // `Ud,u + scale · bound`. A candidate strictly
                    // below the incumbent (by more than the float-safety
                    // margin) can neither win nor tie, whatever its index —
                    // skip its LP.
                    let payoffs = input.payoffs.get(AlertTypeId(candidate as u16));
                    let ub = payoffs.auditor_uncovered + scale * bound;
                    if ub <= inc.auditor_utility - PRUNE_MARGIN {
                        stats.pruned_lps += 1;
                        continue;
                    }
                    // ε-approximate mode: the candidate might beat the
                    // running best, but by at most ε — skip its LP and let
                    // the caller certify the (≤ ε) loss from the recorded
                    // bound. Guarded on `epsilon > 0.0` so the ε = 0
                    // configuration keeps the exact path's branch structure
                    // (results *and* counters stay bitwise identical).
                    if epsilon > 0.0 && ub <= inc.auditor_utility + epsilon - PRUNE_MARGIN {
                        stats.eps_skipped_lps += 1;
                        max_skipped_ub = max_skipped_ub.max(ub);
                        continue;
                    }
                }
            }
            let outcome = slot.solve_prepared(input, rates, candidate, true)?;
            record(&mut stats, &outcome);
            if outcome.feasible && is_better(candidate, &outcome, best.as_ref()) {
                best = Some((candidate, outcome));
            }
        }
        let (winner, outcome) = best.ok_or(SagError::NoFeasibleType)?;
        Ok((winner, outcome, stats, max_skipped_ub))
    }

    /// Fan the candidate LPs out over the worker pool. Each task owns a
    /// disjoint slice of cache slots, so warm-start state stays per
    /// candidate; the caller reduces the ordered outcomes exactly like the
    /// sequential path, preserving the selection semantics bitwise.
    fn fan_out_pooled(
        input: &SseInput<'_>,
        rates: &[f64],
        slots: &mut [CandidateSlot],
        outcomes: &mut [Option<Result<CandidateOutcome>>],
        pool: &WorkerPool,
        collect_duals: bool,
    ) {
        let n = slots.len();
        // The submitting thread helps execute, so it counts as a worker.
        let parts = (pool.threads() + 1).min(n);
        let chunk_size = n.div_ceil(parts);
        let tasks: Vec<Task<'_>> = slots
            .chunks_mut(chunk_size)
            .enumerate()
            .zip(outcomes.chunks_mut(chunk_size))
            .map(|((chunk_index, slot_chunk), outcome_chunk)| {
                let base = chunk_index * chunk_size;
                Box::new(move || {
                    for (offset, (slot, out)) in slot_chunk
                        .iter_mut()
                        .zip(outcome_chunk.iter_mut())
                        .enumerate()
                    {
                        *out = Some(slot.solve(input, rates, base + offset, collect_duals));
                    }
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
    }

    /// Exact closed form for the single-type game: LP (2) with one variable
    /// `B ∈ [0, min(budget, 1/ρ)]` and objective slope `ρ·(Ud,c − Ud,u)`
    /// attains its optimum at the upper bound when the slope is positive and
    /// at zero otherwise — exactly what the simplex returns on this program.
    ///
    /// `buffers` is a recycled `(coverage, budget_split)` pair the solution
    /// is built into — pass a spare from the caller's recycler (or
    /// `Default::default()`) so repeated fast-path solves stay
    /// allocation-free.
    pub(super) fn solve_single_type(
        input: &SseInput<'_>,
        rates: &[f64],
        buffers: (Vec<f64>, Vec<f64>),
    ) -> SseSolution {
        let payoffs = input.payoffs.get(AlertTypeId(0));
        let rate = rates[0];
        let upper = if rate > 0.0 {
            input.budget.min(1.0 / rate)
        } else {
            input.budget
        };
        let slope = rate * (payoffs.auditor_covered - payoffs.auditor_uncovered);
        let split = if slope > EPS { upper } else { 0.0 };
        let coverage = (split * rate).clamp(0.0, 1.0);
        let (mut coverage_buf, mut split_buf) = buffers;
        coverage_buf.clear();
        coverage_buf.push(coverage);
        split_buf.clear();
        split_buf.push(split);
        SseSolution {
            coverage: coverage_buf,
            budget_split: split_buf,
            best_response: AlertTypeId(0),
            auditor_utility: payoffs.auditor_expected(coverage),
            attacker_utility: payoffs.attacker_expected(coverage),
            stats: SseSolveStats {
                fast_path: true,
                ..SseSolveStats::default()
            },
        }
    }

    /// Solve LP (2) cold under the assumption that `candidate` is the
    /// attacker's best response (reference path; the cached path lives on
    /// [`CandidateSlot::solve`]).
    fn solve_for_candidate(
        input: &SseInput<'_>,
        rates: &[f64],
        candidate: usize,
        workspace: &mut SimplexWorkspace,
    ) -> Result<SseSolution> {
        let program = CandidateProgram::build(input, rates, candidate);
        let solution = program.lp.solve_with(workspace).map_err(SagError::from)?;

        let cand = input.payoffs.get(AlertTypeId(candidate as u16));
        let budget_split: Vec<f64> = program.vars.iter().map(|&v| solution.value(v)).collect();
        let coverage: Vec<f64> = budget_split
            .iter()
            .zip(rates)
            .map(|(b, r)| (b * r).clamp(0.0, 1.0))
            .collect();
        let auditor_utility = cand.auditor_expected(coverage[candidate]);
        let attacker_utility = cand.attacker_expected(coverage[candidate]);
        let lp_stats = solution.stats();
        workspace.recycle(solution);

        Ok(SseSolution {
            coverage,
            budget_split,
            best_response: AlertTypeId(candidate as u16),
            auditor_utility,
            attacker_utility,
            stats: SseSolveStats {
                lp_solves: 1,
                pivots: lp_stats.pivots as u32,
                ..SseSolveStats::default()
            },
        })
    }
}

/// Fold one candidate outcome into the per-solve stats. Only the stats are
/// touched — they reach the cumulative cache totals in one batch after the
/// whole sweep succeeds, so an `Err` mid-sweep cannot leave the totals
/// counting attempts whose matching solves were never recorded.
fn record(stats: &mut SseSolveStats, outcome: &CandidateOutcome) {
    stats.lp_solves += 1;
    stats.warm_attempts += u32::from(outcome.warm_attempted);
    stats.warm_hits += u32::from(outcome.warm_hit);
    stats.pivots += outcome.pivots;
}

/// The selection rule shared by the exhaustive and pruned paths: the exact
/// lexicographic argmax — strictly higher auditor utility wins, exact ties
/// go to the lower candidate index. Order-independent, which is what makes
/// incumbent-first processing return the same winner as an in-order sweep.
fn is_better(
    candidate: usize,
    outcome: &CandidateOutcome,
    best: Option<&(usize, CandidateOutcome)>,
) -> bool {
    match best {
        None => true,
        Some(&(best_candidate, ref best_outcome)) => {
            outcome.auditor_utility > best_outcome.auditor_utility
                || (outcome.auditor_utility == best_outcome.auditor_utility
                    && candidate < best_candidate)
        }
    }
}

impl CandidateProgram {
    /// Build the candidate LP from scratch.
    ///
    /// Variables: the budget split `B^t`, bounded so that `θ^t = ρ^t B^t ≤ 1`.
    /// Objective: the auditor's utility against an attack on the candidate
    /// type (`auditor = Ud,u + θ·(Ud,c − Ud,u)`, `θ = ρ·B`). Constraints: one
    /// best-response row per other type, then the budget row. The objective
    /// and the best-response rows are divided by [`payoff_scale`].
    fn build(input: &SseInput<'_>, rates: &[f64], candidate: usize) -> Self {
        let n = input.payoffs.len();
        let payoff_of = |t: usize| input.payoffs.get(AlertTypeId(t as u16));
        let scale = payoff_scale(input);

        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<VarId> = (0..n)
            .map(|t| {
                let max_useful = if rates[t] > 0.0 {
                    1.0 / rates[t]
                } else {
                    input.budget
                };
                lp.add_var(format!("B{t}"), 0.0, input.budget.min(max_useful))
            })
            .collect();

        let cand = payoff_of(candidate);
        lp.set_objective(
            vars[candidate],
            rates[candidate] * (cand.auditor_covered - cand.auditor_uncovered) / scale,
        );

        // Best-response constraints: attacker prefers the candidate type.
        // Ua,u[c] + θ_c (Ua,c[c] − Ua,u[c]) ≥ Ua,u[t] + θ_t (Ua,c[t] − Ua,u[t])
        let cand_slope =
            rates[candidate] * (cand.attacker_covered - cand.attacker_uncovered) / scale;
        for t in 0..n {
            if t == candidate {
                continue;
            }
            let other = payoff_of(t);
            let other_slope =
                rates[t] * (other.attacker_covered - other.attacker_uncovered) / scale;
            // other_slope·B_t − cand_slope·B_c ≤ (Ua,u[c] − Ua,u[t]) / scale
            lp.add_constraint(
                &[(vars[t], other_slope), (vars[candidate], -cand_slope)],
                Relation::Le,
                (cand.attacker_uncovered - other.attacker_uncovered) / scale,
            );
        }

        // Budget constraint.
        let budget_terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&budget_terms, Relation::Le, input.budget);

        CandidateProgram { lp, vars }
    }

    /// Rewrite the program's numbers in place for new input data. The
    /// structure (variables, constraint rows, relations) is unchanged, which
    /// is exactly what keeps the previous optimal basis a valid warm start
    /// (and the previous duals a valid bound certificate).
    fn update(&mut self, input: &SseInput<'_>, rates: &[f64], candidate: usize) {
        let n = self.vars.len();
        let payoff_of = |t: usize| input.payoffs.get(AlertTypeId(t as u16));
        let scale = payoff_scale(input);

        for (t, &var) in self.vars.iter().enumerate() {
            let max_useful = if rates[t] > 0.0 {
                1.0 / rates[t]
            } else {
                input.budget
            };
            self.lp.set_bounds(var, 0.0, input.budget.min(max_useful));
        }

        let cand = payoff_of(candidate);
        self.lp.set_objective(
            self.vars[candidate],
            rates[candidate] * (cand.auditor_covered - cand.auditor_uncovered) / scale,
        );

        let cand_slope =
            rates[candidate] * (cand.attacker_covered - cand.attacker_uncovered) / scale;
        let mut row = 0;
        for (t, &rate) in rates.iter().enumerate().take(n) {
            if t == candidate {
                continue;
            }
            let other = payoff_of(t);
            let other_slope = rate * (other.attacker_covered - other.attacker_uncovered) / scale;
            self.lp.set_constraint_term(row, 0, other_slope);
            self.lp.set_constraint_term(row, 1, -cand_slope);
            self.lp.set_constraint_rhs(
                row,
                (cand.attacker_uncovered - other.attacker_uncovered) / scale,
            );
            row += 1;
        }
        // Budget row is last; only its right-hand side moves.
        self.lp.set_constraint_rhs(n - 1, input.budget);
    }
}

impl CandidateSlot {
    /// Rewrite (or build) this slot's candidate LP for new input data,
    /// without solving — the pruning bound prices against the updated
    /// coefficients.
    fn prepare(&mut self, input: &SseInput<'_>, rates: &[f64], candidate: usize) {
        match self.program.as_mut() {
            Some(program) => program.update(input, rates, candidate),
            None => self.program = Some(CandidateProgram::build(input, rates, candidate)),
        }
    }

    /// [`prepare`](Self::prepare) + [`solve_prepared`](Self::solve_prepared).
    fn solve(
        &mut self,
        input: &SseInput<'_>,
        rates: &[f64],
        candidate: usize,
        collect_duals: bool,
    ) -> Result<CandidateOutcome> {
        self.prepare(input, rates, candidate);
        self.solve_prepared(input, rates, candidate, collect_duals)
    }

    /// Solve this slot's already-prepared candidate LP, warm-starting from
    /// the previous optimal basis when one is recorded. The optimal solution
    /// is parked on the slot (`last`) so the caller can extract the winner's
    /// budget split — and, when `collect_duals` is set (a pruning solver
    /// will re-price this slot later), the next solve can price the pruning
    /// bound from its duals — without re-solving.
    fn solve_prepared(
        &mut self,
        input: &SseInput<'_>,
        rates: &[f64],
        candidate: usize,
        collect_duals: bool,
    ) -> Result<CandidateOutcome> {
        self.workspace.set_collect_duals(collect_duals);
        let program = self.program.as_ref().expect("program prepared");
        let warm_attempted = !self.basis.is_empty();

        let result = if warm_attempted {
            program
                .lp
                .solve_from_basis(&mut self.workspace, &self.basis)
        } else {
            program.lp.solve_with(&mut self.workspace)
        };
        let solution = match result {
            Ok(solution) => solution,
            Err(LpError::Infeasible) => {
                // A stale basis from before the candidate became infeasible
                // can never warm-start successfully; drop it so subsequent
                // solves skip straight to the cold path.
                self.basis.clear();
                return Ok(CandidateOutcome {
                    feasible: false,
                    auditor_utility: f64::NEG_INFINITY,
                    attacker_utility: 0.0,
                    warm_attempted,
                    warm_hit: false,
                    pivots: self.workspace.last_pivots() as u32,
                });
            }
            Err(other) => return Err(SagError::from(other)),
        };
        self.basis.clear();
        self.basis.extend_from_slice(solution.basis());

        let stats = solution.stats();
        let cand = input.payoffs.get(AlertTypeId(candidate as u16));
        let coverage_c =
            (solution.value(program.vars[candidate]) * rates[candidate]).clamp(0.0, 1.0);
        let outcome = CandidateOutcome {
            feasible: true,
            auditor_utility: cand.auditor_expected(coverage_c),
            attacker_utility: cand.attacker_expected(coverage_c),
            warm_attempted,
            warm_hit: stats.warm_started,
            pivots: stats.pivots as u32,
        };
        if let Some(previous) = self.last.replace(solution) {
            self.workspace.recycle(previous);
        }
        Ok(outcome)
    }
}

/// Sequential best-response selection for the cold reference path: keep
/// `solution` if it strictly beats the incumbent (exact comparison — in
/// index order this is the same lexicographic argmax as [`is_better`]).
fn keep_better(best: &mut Option<SseSolution>, solution: SseSolution) {
    let better = best
        .as_ref()
        .is_none_or(|b| solution.auditor_utility > b.auditor_utility);
    if better {
        *best = Some(solution);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PayoffTable, Payoffs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn single_type_input<'a>(
        payoffs: &'a PayoffTable,
        costs: &'a [f64],
        estimates: &'a [f64],
        budget: f64,
    ) -> SseInput<'a> {
        SseInput {
            payoffs,
            audit_costs: costs,
            future_estimates: estimates,
            budget,
        }
    }

    #[test]
    fn single_type_coverage_is_budget_over_expected_alerts() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        // Large future-alert estimate: E[1/max(d,1)] ≈ 1/λ.
        let estimates = [100.0];
        let input = single_type_input(&payoffs, &costs, &estimates, 10.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert_eq!(sol.best_response, AlertTypeId(0));
        assert!(sol.stats.fast_path);
        // Coverage should be close to B/λ = 0.1.
        assert!(
            (sol.coverage[0] - 0.1).abs() < 0.02,
            "coverage {}",
            sol.coverage[0]
        );
        // Utilities follow the linear payoff forms.
        let p = payoffs.get(AlertTypeId(0));
        assert!((sol.auditor_utility - p.auditor_expected(sol.coverage[0])).abs() < 1e-9);
        assert!((sol.attacker_utility - p.attacker_expected(sol.coverage[0])).abs() < 1e-9);
        assert!(sol.attacker_utility > 0.0);
        assert_eq!(sol.effective_auditor_utility(), sol.auditor_utility);
    }

    #[test]
    fn single_type_closed_form_matches_explicit_lp() {
        // The closed form must reproduce what the generic multiple-LP method
        // (forced through the LP by a two-type game whose second type is
        // irrelevant) computes for the same type.
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let solver = SseSolver::new();
        for budget in [0.0, 3.0, 10.0, 17.5, 40.0, 500.0] {
            for estimate in [0.0, 1.0, 20.0, 150.0] {
                let estimates = [estimate];
                let input = single_type_input(&payoffs, &costs, &estimates, budget);
                let fast = solver.solve(&input).unwrap();
                assert!(fast.stats.fast_path);

                // Reference: solve the same one-variable LP explicitly.
                let rate = sag_forecast::expected_inverse_positive(estimate) / costs[0];
                let p = payoffs.get(AlertTypeId(0));
                let mut lp = LpProblem::new(Objective::Maximize);
                let upper = if rate > 0.0 {
                    budget.min(1.0 / rate)
                } else {
                    budget
                };
                let b = lp.add_var("B0", 0.0, upper);
                lp.set_objective(b, rate * (p.auditor_covered - p.auditor_uncovered));
                lp.add_constraint(&[(b, 1.0)], Relation::Le, budget);
                let reference = lp.solve().unwrap();
                let ref_coverage = (reference.value(b) * rate).clamp(0.0, 1.0);

                assert!(
                    (fast.coverage[0] - ref_coverage).abs() < 1e-12,
                    "budget {budget}, estimate {estimate}: fast {} vs lp {}",
                    fast.coverage[0],
                    ref_coverage
                );
                assert!((fast.auditor_utility - p.auditor_expected(ref_coverage)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ample_budget_caps_coverage_at_one_and_deters() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let estimates = [2.0];
        // Budget far exceeding expected alerts: full coverage.
        let input = single_type_input(&payoffs, &costs, &estimates, 1000.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert!((sol.coverage[0] - 1.0).abs() < 1e-6);
        assert!(sol.attacker_utility < 0.0);
        // Deterrence: effective utility is 0 even though the raw LP value is
        // the "covered" payoff.
        assert_eq!(sol.effective_auditor_utility(), 0.0);
        assert!((sol.auditor_utility - 100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_budget_gives_zero_coverage_everywhere() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![50.0; 7];
        let input = single_type_input(&payoffs, &costs, &estimates, 0.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert!(sol.coverage.iter().all(|&c| c.abs() < 1e-9));
        // With no coverage anywhere, the attacker picks the type with the
        // highest uncovered payoff (type 7: 800).
        assert_eq!(sol.best_response, AlertTypeId(6));
        assert!((sol.attacker_utility - 800.0).abs() < 1e-9);
        assert!((sol.auditor_utility - (-2000.0)).abs() < 1e-9);
    }

    #[test]
    fn multi_type_equilibrium_equalizes_attractive_types() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        // Table 1 daily volumes as the future estimates at start of day.
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let input = single_type_input(&payoffs, &costs, &estimates, 50.0);
        let sol = SseSolver::new().solve(&input).unwrap();

        // The attacker's utility on the best-response type must be at least
        // his utility on every other type (the best-response constraints).
        let best = sol.attacker_utility;
        for t in 0..7u16 {
            let p = payoffs.get(AlertTypeId(t));
            let alt = p.attacker_expected(sol.coverage[t as usize]);
            assert!(best >= alt - 1e-6, "type {t}: {alt} exceeds best {best}");
        }
        // Budget is respected.
        let spent: f64 = sol.budget_split.iter().sum();
        assert!(spent <= 50.0 + 1e-6);
        // Coverage is a probability vector.
        assert!(sol
            .coverage
            .iter()
            .all(|&c| (0.0..=1.0 + 1e-9).contains(&c)));
    }

    #[test]
    fn cached_solver_matches_cold_solver_across_a_budget_trajectory() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let solver = SseSolver::new();
        let mut cache = SseCache::new();
        let mut budget = 50.0;
        let mut estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        for step in 0..60 {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let warm = solver.solve_cached(&input, &mut cache).unwrap();
            let cold = solver.solve(&input).unwrap();
            assert!(
                (warm.auditor_utility - cold.auditor_utility).abs() < 1e-9,
                "step {step}: warm {} vs cold {}",
                warm.auditor_utility,
                cold.auditor_utility
            );
            assert_eq!(warm.best_response, cold.best_response);
            // Mimic one alert being processed: the budget shrinks a little
            // and the estimates drift down.
            budget = (budget - 0.35).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.9).max(0.0);
            }
        }
        assert_eq!(cache.totals.solves, 60);
        // Every candidate is either solved or pruned, on every solve.
        assert_eq!(cache.totals.lp_solves + cache.totals.pruned_lps, 60 * 7);
        // The pruning bound should retire the vast majority of the LPs
        // (every solve after the first runs incumbent-first).
        assert!(
            cache.totals.pruned_lp_fraction() > 0.5,
            "pruned fraction {:.3} unexpectedly low",
            cache.totals.pruned_lp_fraction()
        );
        // Every LP that was solved with a recorded basis warm-started.
        assert!(cache.totals.warm_attempts >= cache.totals.lp_solves - 7);
        assert!(
            cache.totals.warm_hit_rate() > 0.8,
            "warm-start hit rate {:.3} unexpectedly low",
            cache.totals.warm_hit_rate()
        );
        // Warm-started solves should spend far fewer pivots than phase 1 +
        // phase 2 cold solves would.
        assert!(cache.totals.pivots_per_lp() < 10.0);
    }

    #[test]
    fn pruned_and_exhaustive_solvers_agree_bitwise_on_trajectories() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let pruned = SseSolver::new();
        let exhaustive = SseSolver::exhaustive();
        assert!(pruned.pruning_enabled());
        assert!(!exhaustive.pruning_enabled());
        let mut pruned_cache = SseCache::new();
        let mut exhaustive_cache = SseCache::new();
        let mut budget = 50.0;
        let mut estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        for step in 0..80 {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let a = pruned.solve_cached(&input, &mut pruned_cache).unwrap();
            let b = exhaustive
                .solve_cached(&input, &mut exhaustive_cache)
                .unwrap();
            // Winner and solution are bitwise identical; only the work
            // counters (stats) may differ.
            assert_eq!(a.best_response, b.best_response, "step {step}");
            assert_eq!(a.coverage, b.coverage, "step {step}");
            assert_eq!(a.budget_split, b.budget_split, "step {step}");
            assert_eq!(a.auditor_utility.to_bits(), b.auditor_utility.to_bits());
            assert_eq!(a.attacker_utility.to_bits(), b.attacker_utility.to_bits());
            budget = (budget - 0.3).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.7).max(0.0);
            }
        }
        assert_eq!(exhaustive_cache.totals.pruned_lps, 0);
        assert_eq!(exhaustive_cache.totals.lp_solves, 80 * 7);
        assert!(pruned_cache.totals.pruned_lps > 0);
        assert!(pruned_cache.totals.lp_solves < exhaustive_cache.totals.lp_solves);
    }

    #[test]
    fn pruning_solver_copes_with_a_cache_warmed_by_an_exhaustive_solver() {
        // An exhaustive solver skips dual extraction, so its cache carries
        // solutions with empty duals. A pruning solver handed that cache
        // must treat them as "no certificate" (solve in full, no panic) and
        // still agree with a fresh pruning solve.
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let input = single_type_input(&payoffs, &costs, &estimates, 50.0);

        let mut mixed_cache = SseCache::new();
        SseSolver::exhaustive()
            .solve_cached(&input, &mut mixed_cache)
            .unwrap();
        assert!(mixed_cache
            .slots
            .iter()
            .all(|s| s.last.as_ref().is_some_and(|l| l.duals().is_empty())));

        let pruning = SseSolver::new();
        let mixed = pruning.solve_cached(&input, &mut mixed_cache).unwrap();
        // No certificates were available, so nothing may have been pruned.
        assert_eq!(mixed_cache.totals.pruned_lps, 0);

        // The reference arm: the same two-solve trajectory, all-exhaustive.
        // Both second solves warm-start from identical bases, so the usual
        // pruned-vs-exhaustive bitwise equivalence applies.
        let mut reference_cache = SseCache::new();
        let exhaustive = SseSolver::exhaustive();
        exhaustive
            .solve_cached(&input, &mut reference_cache)
            .unwrap();
        let reference = exhaustive
            .solve_cached(&input, &mut reference_cache)
            .unwrap();
        assert_eq!(mixed.best_response, reference.best_response);
        assert_eq!(mixed.budget_split, reference.budget_split);
        assert_eq!(mixed.coverage, reference.coverage);

        // The pruning solver re-collected duals, so the next solve prunes.
        pruning.solve_cached(&input, &mut mixed_cache).unwrap();
        assert!(mixed_cache.totals.pruned_lps > 0);
    }

    #[test]
    fn pruning_bound_is_never_violated_by_the_exhaustive_objective() {
        // Randomized drifting games: after every solve, re-price each
        // candidate's previous duals against the next input and check the
        // bound upper-bounds that candidate's true (exhaustively solved)
        // auditor utility. This is the soundness invariant the pruned path
        // relies on to skip LPs.
        let mut rng = StdRng::seed_from_u64(2019);
        let mut scratch = Vec::new();
        for game in 0..40 {
            let n = rng.gen_range(2..6);
            let payoffs = PayoffTable::new(
                (0..n)
                    .map(|_| {
                        Payoffs::new(
                            rng.gen_range(50.0..300.0),
                            -rng.gen_range(100.0..900.0),
                            -rng.gen_range(500.0..4000.0),
                            rng.gen_range(100.0..900.0),
                        )
                    })
                    .collect(),
            );
            let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..3.0)).collect();
            let mut estimates: Vec<f64> = (0..n).map(|_| rng.gen_range(5.0..200.0)).collect();
            let mut budget = rng.gen_range(5.0..120.0);

            // The pruning solver populates the per-candidate duals exactly
            // as production does: solved candidates carry fresh duals,
            // pruned candidates keep stale ones from an earlier step — and
            // the bound must upper-bound the truth in both cases.
            let mut cache = SseCache::new();
            let solver = SseSolver::new();
            for step in 0..12 {
                let input = SseInput {
                    payoffs: &payoffs,
                    audit_costs: &costs,
                    future_estimates: &estimates,
                    budget,
                };
                solver.solve_cached(&input, &mut cache).unwrap();

                // Drift, then bound-vs-truth for every candidate.
                budget = (budget - rng.gen_range(0.0..1.0)).max(0.0);
                for e in &mut estimates {
                    *e = (*e - rng.gen_range(0.0..2.0)).max(0.0);
                }
                let next = SseInput {
                    payoffs: &payoffs,
                    audit_costs: &costs,
                    future_estimates: &estimates,
                    budget,
                };
                let mut rates = Vec::new();
                SseSolver::coverage_rates_into(&next, &mut rates);
                for candidate in 0..n {
                    let slot = &mut cache.slots[candidate];
                    let Some(duals) = slot.last.as_ref().map(|l| l.duals().to_vec()) else {
                        continue;
                    };
                    slot.prepare(&next, &rates, candidate);
                    let program = slot.program.as_ref().unwrap();
                    let bound = program.lp.lagrangian_bound(&duals, &mut scratch);
                    let ub_utility = payoffs.get(AlertTypeId(candidate as u16)).auditor_uncovered
                        + payoff_scale(&next) * bound;
                    // Truth: solve this candidate's LP cold on the new data.
                    let mut ws = SimplexWorkspace::new();
                    match SseSolver::solve_for_candidate(&next, &rates, candidate, &mut ws) {
                        Ok(truth) => assert!(
                            ub_utility >= truth.auditor_utility - PRUNE_MARGIN,
                            "game {game} step {step} candidate {candidate}: \
                             bound {ub_utility} below exhaustive objective {}",
                            truth.auditor_utility
                        ),
                        Err(SagError::Lp(LpError::Infeasible)) => {}
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            }
        }
    }

    #[test]
    fn cache_reshapes_when_the_game_changes() {
        let solver = SseSolver::new();
        let mut cache = SseCache::new();

        let payoffs7 = PayoffTable::paper_table2();
        let costs7 = vec![1.0; 7];
        let estimates7 = vec![50.0; 7];
        let input7 = single_type_input(&payoffs7, &costs7, &estimates7, 20.0);
        let first = solver.solve_cached(&input7, &mut cache).unwrap();

        let payoffs2 = PayoffTable::new(vec![
            Payoffs::new(100.0, -400.0, -2000.0, 400.0),
            Payoffs::new(50.0, -300.0, -1500.0, 300.0),
        ]);
        let costs2 = [1.0, 2.0];
        let estimates2 = [30.0, 10.0];
        let input2 = single_type_input(&payoffs2, &costs2, &estimates2, 15.0);
        let second = solver.solve_cached(&input2, &mut cache).unwrap();
        let cold = solver.solve(&input2).unwrap();
        assert!((second.auditor_utility - cold.auditor_utility).abs() < 1e-9);

        // And back to the 7-type game.
        let third = solver.solve_cached(&input7, &mut cache).unwrap();
        assert!((third.auditor_utility - first.auditor_utility).abs() < 1e-9);
    }

    #[test]
    fn auditor_utility_improves_with_budget() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let mut last = f64::NEG_INFINITY;
        for budget in [0.0, 10.0, 25.0, 50.0, 100.0, 200.0] {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let sol = SseSolver::new().solve(&input).unwrap();
            assert!(
                sol.auditor_utility >= last - 1e-6,
                "budget {budget}: utility {} dropped below {last}",
                sol.auditor_utility
            );
            last = sol.auditor_utility;
        }
    }

    #[test]
    fn attacker_utility_decreases_with_budget() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let mut last = f64::INFINITY;
        for budget in [0.0, 10.0, 25.0, 50.0, 100.0, 200.0] {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let sol = SseSolver::new().solve(&input).unwrap();
            assert!(sol.attacker_utility <= last + 1e-6);
            last = sol.attacker_utility;
        }
    }

    #[test]
    fn heterogeneous_audit_costs_shift_coverage() {
        // Two identical types except type 1 is 10x more expensive to audit:
        // with the same payoffs, coverage of the cheap type should not be
        // lower than coverage of the expensive one.
        let payoffs = PayoffTable::new(vec![
            Payoffs::new(100.0, -400.0, -2000.0, 400.0),
            Payoffs::new(100.0, -400.0, -2000.0, 400.0),
        ]);
        let costs = [1.0, 10.0];
        let estimates = [50.0, 50.0];
        let input = single_type_input(&payoffs, &costs, &estimates, 30.0);
        let sol = SseSolver::new().solve(&input).unwrap();
        assert!(
            sol.coverage[0] >= sol.coverage[1] - 1e-9,
            "coverage {:?} should favour the cheaper type",
            sol.coverage
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let payoffs = PayoffTable::paper_single_type();
        let costs = [1.0];
        let estimates = [10.0];
        let solver = SseSolver::new();

        let bad_budget = SseInput {
            payoffs: &payoffs,
            audit_costs: &costs,
            future_estimates: &estimates,
            budget: -1.0,
        };
        assert!(matches!(
            solver.solve(&bad_budget),
            Err(SagError::InvalidConfig(_))
        ));
        let mut cache = SseCache::new();
        assert!(matches!(
            solver.solve_cached(&bad_budget, &mut cache),
            Err(SagError::InvalidConfig(_))
        ));

        let bad_lengths = SseInput {
            payoffs: &payoffs,
            audit_costs: &[1.0, 2.0],
            future_estimates: &estimates,
            budget: 5.0,
        };
        assert!(matches!(
            solver.solve(&bad_lengths),
            Err(SagError::InvalidConfig(_))
        ));

        let bad_cost = SseInput {
            payoffs: &payoffs,
            audit_costs: &[0.0],
            future_estimates: &estimates,
            budget: 5.0,
        };
        assert!(matches!(
            solver.solve(&bad_cost),
            Err(SagError::InvalidConfig(_))
        ));

        let bad_estimate = SseInput {
            payoffs: &payoffs,
            audit_costs: &costs,
            future_estimates: &[-2.0],
            budget: 5.0,
        };
        assert!(matches!(
            solver.solve(&bad_estimate),
            Err(SagError::InvalidConfig(_))
        ));
    }

    #[test]
    fn many_type_games_solve_identically_cached_and_cold() {
        // 10 types: above PARALLEL_MIN_TYPES, so with an explicit pool this
        // also exercises the pooled candidate fan-out and checks it agrees
        // with the sequential reference to 1e-9.
        let payoffs = PayoffTable::new(
            (0..10)
                .map(|i| {
                    Payoffs::new(
                        100.0 + 40.0 * i as f64,
                        -400.0 - 90.0 * i as f64,
                        -2000.0 - 250.0 * i as f64,
                        400.0 + 35.0 * i as f64,
                    )
                })
                .collect(),
        );
        let costs: Vec<f64> = (0..10).map(|i| 1.0 + 0.3 * i as f64).collect();
        let pool = WorkerPool::new(3);
        // Exhaustive + pooled so the fan-out actually runs every step.
        let solver = SseSolver::exhaustive();
        let mut cache = SseCache::new();
        let mut estimates: Vec<f64> = (0..10).map(|i| 15.0 + 20.0 * i as f64).collect();
        let mut budget = 80.0;
        for _ in 0..25 {
            let input = SseInput {
                payoffs: &payoffs,
                audit_costs: &costs,
                future_estimates: &estimates,
                budget,
            };
            let warm = solver
                .solve_cached_with(&input, &mut cache, true, Some(&pool))
                .unwrap();
            let cold = solver.solve(&input).unwrap();
            assert!((warm.auditor_utility - cold.auditor_utility).abs() < 1e-9);
            assert_eq!(warm.best_response, cold.best_response);
            budget = (budget - 0.7).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.4).max(0.0);
            }
        }
    }

    #[test]
    fn pooled_fan_out_is_bitwise_identical_to_sequential() {
        let payoffs = PayoffTable::new(
            (0..12)
                .map(|i| {
                    Payoffs::new(
                        120.0 + 30.0 * i as f64,
                        -350.0 - 80.0 * i as f64,
                        -1800.0 - 200.0 * i as f64,
                        380.0 + 40.0 * i as f64,
                    )
                })
                .collect(),
        );
        let costs: Vec<f64> = (0..12).map(|i| 1.0 + 0.2 * i as f64).collect();
        let pool = WorkerPool::new(4);
        let solver = SseSolver::exhaustive();
        let mut pooled_cache = SseCache::new();
        let mut seq_cache = SseCache::new();
        let mut estimates: Vec<f64> = (0..12).map(|i| 25.0 + 12.0 * i as f64).collect();
        let mut budget = 70.0;
        for step in 0..20 {
            let input = SseInput {
                payoffs: &payoffs,
                audit_costs: &costs,
                future_estimates: &estimates,
                budget,
            };
            let pooled = solver
                .solve_cached_with(&input, &mut pooled_cache, true, Some(&pool))
                .unwrap();
            let sequential = solver.solve_cached(&input, &mut seq_cache).unwrap();
            assert_eq!(pooled, sequential, "step {step}");
            budget = (budget - 0.5).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.3).max(0.0);
            }
        }
    }

    #[test]
    fn zero_epsilon_mode_is_bitwise_identical_to_exact_including_counters() {
        // ε = 0 must not merely produce the same answers — the ε guard may
        // not fire at all, so the solutions, the per-solve stats and the
        // cumulative totals all stay bitwise identical to the exact path.
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let exact = SseSolver::new();
        let approx = SseSolver::with_options(true, 0.0);
        assert_eq!(approx.epsilon(), 0.0);
        let mut exact_cache = SseCache::new();
        let mut approx_cache = SseCache::new();
        let mut budget = 50.0;
        let mut estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        for step in 0..60 {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let a = exact.solve_cached(&input, &mut exact_cache).unwrap();
            let b = approx.solve_cached(&input, &mut approx_cache).unwrap();
            assert_eq!(a, b, "step {step}");
            budget = (budget - 0.35).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.9).max(0.0);
            }
        }
        assert_eq!(exact_cache.totals, approx_cache.totals);
        assert_eq!(approx_cache.totals.eps_skipped_lps, 0);
        assert_eq!(approx_cache.certified_eps_loss(), 0.0);
        assert_eq!(exact_cache.certified_eps_loss(), 0.0);
    }

    #[test]
    fn epsilon_mode_certificate_bounds_the_true_utility_loss() {
        // With a large ε the approximate solver skips candidate LPs the
        // exact path would have solved; the accumulated certified loss must
        // (a) upper-bound the true utility gap against step-matched exact
        // solves and (b) stay within ε per solve.
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let epsilon = 5.0;
        let exact = SseSolver::new();
        let approx = SseSolver::with_options(true, epsilon);
        let mut exact_cache = SseCache::new();
        let mut approx_cache = SseCache::new();
        let mut budget = 50.0;
        let mut estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let mut true_gap = 0.0;
        for _ in 0..60 {
            let input = single_type_input(&payoffs, &costs, &estimates, budget);
            let truth = exact.solve_cached(&input, &mut exact_cache).unwrap();
            let loss_before = approx_cache.certified_eps_loss();
            let skipped_before = approx_cache.totals.eps_skipped_lps;
            let got = approx.solve_cached(&input, &mut approx_cache).unwrap();
            let solve_loss = approx_cache.certified_eps_loss() - loss_before;
            assert!(
                solve_loss >= 0.0 && solve_loss <= epsilon,
                "per-solve certified loss {solve_loss} outside [0, ε]"
            );
            if approx_cache.totals.eps_skipped_lps == skipped_before {
                assert_eq!(solve_loss, 0.0, "loss may only accrue on skips");
            }
            // The approximate trajectory diverges from the exact one (it
            // keeps different incumbents), so compare per-step: the exact
            // optimum of *this* input never beats the approximate answer by
            // more than ε.
            let step_gap = truth.auditor_utility - got.auditor_utility;
            assert!(
                step_gap <= epsilon + 1e-9,
                "exact beats approximate by {step_gap} > ε"
            );
            true_gap += step_gap.max(0.0);
            budget = (budget - 0.35).max(0.0);
            for e in &mut estimates {
                *e = (*e - 0.9).max(0.0);
            }
        }
        assert!(
            approx_cache.totals.eps_skipped_lps > 0,
            "ε = {epsilon} should have skipped at least one candidate LP"
        );
        let certified = approx_cache.certified_eps_loss();
        assert!(certified <= epsilon * approx_cache.totals.solves as f64);
        // The certificate covers the per-step loss of every ε-skip against
        // that step's running best; summed, it bounds each step's gap to
        // the incumbent it actually kept. (The cross-trajectory true gap is
        // itself ≤ ε per step, asserted above.)
        assert!(certified >= 0.0);
        assert!(true_gap <= epsilon * 60.0);
    }

    #[test]
    fn coverage_of_out_of_range_type_is_zero() {
        let sol = SseSolution {
            coverage: vec![0.5],
            budget_split: vec![1.0],
            best_response: AlertTypeId(0),
            auditor_utility: 0.0,
            attacker_utility: 0.0,
            stats: SseSolveStats::default(),
        };
        assert_eq!(sol.coverage_of(AlertTypeId(0)), 0.5);
        assert_eq!(sol.coverage_of(AlertTypeId(3)), 0.0);
    }
}
