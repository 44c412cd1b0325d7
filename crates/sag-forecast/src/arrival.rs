//! Arrival model fitted from historical alert logs.
//!
//! For each alert type the model stores the pooled, sorted arrival times of
//! all historical days. The expected number of *remaining* alerts of a type
//! after time `τ` on a typical day is then simply the number of pooled
//! arrivals strictly later than `τ` divided by the number of historical days —
//! the empirical mean the paper estimates from its 41-day history windows.
//!
//! Non-stationary workloads (per-type volumes drifting day over day) break
//! the uniform pooling: the estimate lags the trend by half the history
//! window. [`ArrivalModel::fit_weighted`] therefore supports exponential
//! *day decay*: a history day aged `a` days contributes weight `decay^a`, so
//! recent days dominate the estimate. `decay = 1` recovers the paper's
//! uniform pooling exactly.
//!
//! A fit runs on every opened day, so it sorts without comparisons, in
//! O(alerts): one pass over the history gathers the arrivals and sizes each
//! type's pool, and two stable counting sorts on the low 9 and the high 8
//! bits of the second of day (below 86,400, so 17 bits) put them in time
//! order, and arrivals in the same second in history order. That is the
//! order a stable sort by time gives, so the day-weight suffix sums come out
//! the same to the bit.

use sag_sim::{AlertTypeId, DayLog, TimeOfDay, SECONDS_PER_DAY};

/// Pooled arrival times of one alert type with day-weight suffix sums,
/// built by [`ArrivalModel::fit_weighted`].
#[derive(Debug, Clone, PartialEq)]
struct TypePool {
    /// Arrival seconds in time order; arrivals in the same second keep
    /// history order (older days first).
    times: Vec<u32>,
    /// `suffix_weight[i]` = total day weight of arrivals `times[i..]`;
    /// one element longer than `times` so the empty suffix is representable.
    suffix_weight: Vec<f64>,
}

impl TypePool {
    /// Total weight of arrivals strictly after `time`.
    fn weight_after(&self, time: TimeOfDay) -> f64 {
        let idx = self.times.partition_point(|&s| s <= time.seconds());
        self.suffix_weight[idx]
    }
}

/// One historical arrival of a modelled type, packed into 8 bytes so the
/// sorting passes move little: its second of day in the low `TIME_BITS`
/// bits, its type index in the next `TYPE_BITS` and the position of its day
/// in the history above them.
#[derive(Clone, Copy, Default)]
struct Arrival(u64);

const TIME_BITS: u32 = 17;
const TYPE_BITS: u32 = 16;
const _: () = assert!(SECONDS_PER_DAY <= 1 << TIME_BITS);
/// The longest history the packing can index.
const MAX_DAYS: usize = 1 << (64 - TIME_BITS - TYPE_BITS);
/// A second of day is sorted on two radix digits: its low `LOW_BITS` bits,
/// then the rest, below `HIGH_DIGITS` (`86_399 >> 9 = 168`).
const LOW_BITS: u32 = 9;
const HIGH_DIGITS: usize = ((SECONDS_PER_DAY - 1) >> LOW_BITS) as usize + 1;

impl Arrival {
    fn new(time: TimeOfDay, type_id: AlertTypeId, day: usize) -> Self {
        Arrival(
            u64::from(time.seconds())
                | u64::from(type_id.0) << TIME_BITS
                | (day as u64) << (TIME_BITS + TYPE_BITS),
        )
    }

    fn time(self) -> u32 {
        (self.0 & ((1 << TIME_BITS) - 1)) as u32
    }

    fn type_index(self) -> usize {
        (self.0 >> TIME_BITS) as u16 as usize
    }

    fn day(self) -> usize {
        (self.0 >> (TIME_BITS + TYPE_BITS)) as usize
    }

    fn low_digit(self) -> usize {
        (self.0 & ((1 << LOW_BITS) - 1)) as usize
    }

    fn high_digit(self) -> usize {
        (self.time() >> LOW_BITS) as usize
    }
}

/// One stable counting sort: move `from` into `to` ordered by `digit`, whose
/// histogram over `from` is `counts`.
fn counting_sort(
    from: &[Arrival],
    to: &mut [Arrival],
    counts: &mut [usize],
    digit: fn(Arrival) -> usize,
) {
    let mut start = 0;
    for count in counts.iter_mut() {
        (*count, start) = (start, start + *count);
    }
    for &arrival in from {
        let slot = &mut counts[digit(arrival)];
        to[*slot] = arrival;
        *slot += 1;
    }
}

/// Empirical arrival model: expected remaining alerts per type vs. time.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalModel {
    /// Pooled sorted arrival times per type, with day-weight suffix sums.
    pools: Vec<TypePool>,
    /// Number of historical days the model was fitted on.
    num_days: usize,
    /// Total day weight (equals `num_days` for uniform pooling).
    total_weight: f64,
}

impl ArrivalModel {
    /// Fit the model on historical day logs for `num_types` alert types,
    /// weighting every day equally (the paper's estimator).
    ///
    /// Days may contain types outside `0..num_types`; those alerts are
    /// ignored. An empty history yields a model that predicts zero arrivals.
    #[must_use]
    pub fn fit(history: &[DayLog], num_types: usize) -> Self {
        Self::fit_weighted(history, num_types, 1.0)
    }

    /// Fit the model with exponential day decay: the most recent history day
    /// has weight 1, the day before `day_decay`, the one before that
    /// `day_decay²`, and so on. `day_decay = 1` is the uniform fit; values
    /// below 1 track non-stationary (drifting) arrival volumes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < day_decay <= 1`, or if the history holds more than
    /// 2^31 days.
    #[must_use]
    pub fn fit_weighted(history: &[DayLog], num_types: usize, day_decay: f64) -> Self {
        assert!(
            day_decay > 0.0 && day_decay <= 1.0,
            "day_decay must be in (0, 1], got {day_decay}"
        );
        assert!(
            history.len() <= MAX_DAYS,
            "a history of {} days is longer than {MAX_DAYS}",
            history.len()
        );
        let day_weights: Vec<f64> = (0..history.len())
            .map(|pos| day_decay.powi((history.len() - 1 - pos) as i32))
            .collect();
        let mut total_weight = 0.0;
        for &weight in &day_weights {
            total_weight += weight;
        }
        // One pass over the history gathers the arrivals of modelled types,
        // sizes each type's pool and counts both radix digits.
        let mut pool_sizes = vec![0; num_types];
        let mut low = [0; 1 << LOW_BITS];
        let mut high = [0; HIGH_DIGITS];
        let mut arrivals = Vec::with_capacity(history.iter().map(DayLog::len).sum());
        for (day, log) in history.iter().enumerate() {
            for alert in log.alerts() {
                if let Some(size) = pool_sizes.get_mut(alert.type_id.index()) {
                    *size += 1;
                    let arrival = Arrival::new(alert.time, alert.type_id, day);
                    low[arrival.low_digit()] += 1;
                    high[arrival.high_digit()] += 1;
                    arrivals.push(arrival);
                }
            }
        }
        // Two stable counting sorts, on the low digit and then the high one,
        // leave the arrivals in time order, and those in the same second in
        // history order.
        let mut by_low = vec![Arrival::default(); arrivals.len()];
        counting_sort(&arrivals, &mut by_low, &mut low, Arrival::low_digit);
        counting_sort(&by_low, &mut arrivals, &mut high, Arrival::high_digit);
        // Deal the arrivals into their pools back to front, summing each
        // pool's suffix weights on the way.
        let mut pools: Vec<TypePool> = pool_sizes
            .iter()
            .map(|&size| TypePool {
                times: vec![0; size],
                suffix_weight: vec![0.0; size + 1],
            })
            .collect();
        let mut ends = pool_sizes;
        for arrival in arrivals.iter().rev() {
            let type_index = arrival.type_index();
            ends[type_index] -= 1;
            let i = ends[type_index];
            let pool = &mut pools[type_index];
            pool.times[i] = arrival.time();
            pool.suffix_weight[i] = pool.suffix_weight[i + 1] + day_weights[arrival.day()];
        }
        ArrivalModel {
            pools,
            num_days: history.len(),
            total_weight,
        }
    }

    /// Number of alert types the model covers.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.pools.len()
    }

    /// Number of historical days the model was fitted on.
    #[must_use]
    pub fn num_days(&self) -> usize {
        self.num_days
    }

    /// Expected number of alerts of `type_id` arriving strictly after `time`
    /// on a typical day (day-weighted when fitted with
    /// [`fit_weighted`](Self::fit_weighted)).
    #[must_use]
    pub fn expected_remaining(&self, type_id: AlertTypeId, time: TimeOfDay) -> f64 {
        if self.num_days == 0 {
            return 0.0;
        }
        let pool = match self.pools.get(type_id.index()) {
            Some(p) => p,
            None => return 0.0,
        };
        pool.weight_after(time) / self.total_weight
    }

    /// Expected remaining alerts after `time` for every type, ordered by type.
    #[must_use]
    pub fn expected_remaining_all(&self, time: TimeOfDay) -> Vec<f64> {
        (0..self.num_types())
            .map(|t| self.expected_remaining(AlertTypeId(t as u16), time))
            .collect()
    }

    /// Expected total number of alerts of `type_id` over a whole day — what
    /// the offline SSE baseline plans against.
    #[must_use]
    pub fn expected_daily_total(&self, type_id: AlertTypeId) -> f64 {
        self.expected_remaining(type_id, TimeOfDay::MIDNIGHT)
    }

    /// Expected daily totals for all types.
    #[must_use]
    pub fn expected_daily_totals(&self) -> Vec<f64> {
        self.expected_remaining_all(TimeOfDay::MIDNIGHT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_sim::{Alert, AlertCatalog, StreamConfig, StreamGenerator};

    fn alert(day: u32, h: u32, m: u32, ty: u16) -> Alert {
        Alert::benign(day, TimeOfDay::from_hms(h, m, 0), AlertTypeId(ty))
    }

    /// The fit as it was before the radix passes: each type's
    /// `(time, day weight)` pairs pooled in history order and stable-sorted
    /// by time.
    fn sorted_fit(history: &[DayLog], num_types: usize, day_decay: f64) -> ArrivalModel {
        let mut pooled: Vec<Vec<(u32, f64)>> = vec![Vec::new(); num_types];
        let mut total_weight = 0.0;
        for (pos, day) in history.iter().enumerate() {
            let weight = day_decay.powi((history.len() - 1 - pos) as i32);
            total_weight += weight;
            for alert in day.alerts() {
                if alert.type_id.index() < num_types {
                    pooled[alert.type_id.index()].push((alert.time.seconds(), weight));
                }
            }
        }
        let pools = pooled
            .into_iter()
            .map(|mut arrivals| {
                arrivals.sort_by_key(|&(time, _)| time);
                let mut suffix_weight = vec![0.0; arrivals.len() + 1];
                for (i, &(_, w)) in arrivals.iter().enumerate().rev() {
                    suffix_weight[i] = suffix_weight[i + 1] + w;
                }
                TypePool {
                    times: arrivals.into_iter().map(|(time, _)| time).collect(),
                    suffix_weight,
                }
            })
            .collect();
        ArrivalModel {
            pools,
            num_days: history.len(),
            total_weight,
        }
    }

    fn assert_matches_sorted_fit(history: &[DayLog], num_types: usize, day_decay: f64) {
        let fitted = ArrivalModel::fit_weighted(history, num_types, day_decay);
        let oracle = sorted_fit(history, num_types, day_decay);
        assert_eq!(fitted, oracle, "decay {day_decay}");
        let bits = |model: &ArrivalModel| -> Vec<Vec<u64>> {
            let mut bits: Vec<Vec<u64>> = model
                .pools
                .iter()
                .map(|pool| pool.suffix_weight.iter().map(|w| w.to_bits()).collect())
                .collect();
            bits.push(vec![model.total_weight.to_bits()]);
            bits
        };
        assert_eq!(bits(&fitted), bits(&oracle), "decay {day_decay}");
    }

    #[test]
    fn fit_matches_the_stable_sort_bit_for_bit() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(23));
        let history = gen.generate_days(12);
        for decay in [1.0, 0.8, 0.25] {
            assert_matches_sorted_fit(&history, 7, decay);
            // Types at or beyond `num_types` are left out.
            assert_matches_sorted_fit(&history, 3, decay);
        }
        // One type firing in the same second on several days, and twice in
        // one day: under decay < 1 the tie order decides the suffix sums.
        let same_second = |day: u32, ty: u16| alert(day, 9, 0, ty);
        let ties = vec![
            DayLog::new(
                0,
                vec![same_second(0, 0), same_second(0, 1), alert(0, 23, 59, 0)],
            ),
            DayLog::new(1, vec![]),
            DayLog::new(
                2,
                vec![same_second(2, 0), same_second(2, 0), alert(2, 0, 0, 0)],
            ),
            DayLog::new(
                3,
                vec![same_second(3, 9), same_second(3, 0), alert(3, 8, 59, 1)],
            ),
            DayLog::new(4, vec![]),
        ];
        for decay in [1.0, 0.8, 0.25, 0.01] {
            assert_matches_sorted_fit(&ties, 2, decay);
            assert_matches_sorted_fit(&ties, 12, decay);
            assert_matches_sorted_fit(&ties[1..2], 2, decay);
            assert_matches_sorted_fit(&[], 2, decay);
        }
        assert_matches_sorted_fit(&ties, 0, 0.5);
    }

    #[test]
    fn fit_on_hand_built_history() {
        let history = vec![
            DayLog::new(
                0,
                vec![alert(0, 9, 0, 0), alert(0, 14, 0, 0), alert(0, 10, 0, 1)],
            ),
            DayLog::new(1, vec![alert(1, 9, 30, 0), alert(1, 16, 0, 1)]),
        ];
        let model = ArrivalModel::fit(&history, 2);
        assert_eq!(model.num_days(), 2);
        assert_eq!(model.num_types(), 2);
        // Type 0: 3 alerts over 2 days => 1.5 expected per day from midnight.
        assert!((model.expected_daily_total(AlertTypeId(0)) - 1.5).abs() < 1e-12);
        // After 09:15 only the 09:30 and 14:00 alerts remain => 1.0 per day.
        let after = model.expected_remaining(AlertTypeId(0), TimeOfDay::from_hms(9, 15, 0));
        assert!((after - 1.0).abs() < 1e-12);
        // After 23:00 nothing remains.
        assert_eq!(
            model.expected_remaining(AlertTypeId(0), TimeOfDay::from_hms(23, 0, 0)),
            0.0
        );
    }

    #[test]
    fn remaining_is_exclusive_of_the_query_time() {
        let history = vec![DayLog::new(0, vec![alert(0, 12, 0, 0)])];
        let model = ArrivalModel::fit(&history, 1);
        // An alert exactly at the query time does not count as "future".
        assert_eq!(
            model.expected_remaining(AlertTypeId(0), TimeOfDay::from_hms(12, 0, 0)),
            0.0
        );
        assert_eq!(
            model.expected_remaining(AlertTypeId(0), TimeOfDay::from_hms(11, 59, 59)),
            1.0
        );
    }

    #[test]
    fn empty_history_and_unknown_types_predict_zero() {
        let model = ArrivalModel::fit(&[], 3);
        assert_eq!(
            model.expected_remaining(AlertTypeId(0), TimeOfDay::MIDNIGHT),
            0.0
        );
        let history = vec![DayLog::new(0, vec![alert(0, 9, 0, 0)])];
        let model = ArrivalModel::fit(&history, 1);
        assert_eq!(
            model.expected_remaining(AlertTypeId(5), TimeOfDay::MIDNIGHT),
            0.0
        );
    }

    #[test]
    fn daily_totals_track_table1_on_calibrated_streams() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(11));
        let history = gen.generate_days(41);
        let catalog = AlertCatalog::paper_table1();
        let model = ArrivalModel::fit(&history, catalog.len());
        for info in catalog.types() {
            let estimate = model.expected_daily_total(info.id);
            let tolerance = 4.0 * info.daily_std / (history.len() as f64).sqrt() + 1.0;
            assert!(
                (estimate - info.daily_mean).abs() < tolerance,
                "type {}: estimated {estimate}, expected {}",
                info.id,
                info.daily_mean
            );
        }
    }

    #[test]
    fn weighted_fit_with_unit_decay_matches_uniform_fit() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(19));
        let history = gen.generate_days(12);
        let uniform = ArrivalModel::fit(&history, 7);
        let weighted = ArrivalModel::fit_weighted(&history, 7, 1.0);
        for t in 0..7u16 {
            for hour in 0..24 {
                let now = TimeOfDay::from_hms(hour, 17, 0);
                assert_eq!(
                    uniform.expected_remaining(AlertTypeId(t), now),
                    weighted.expected_remaining(AlertTypeId(t), now),
                    "type {t} hour {hour}"
                );
            }
        }
    }

    #[test]
    fn day_decay_favours_recent_days() {
        // Old day: 8 alerts; recent day: 2 alerts. The uniform estimate is 5;
        // with strong decay the estimate approaches the recent day's 2.
        let old_day = DayLog::new(0, (0..8).map(|i| alert(0, 9 + i % 8, 0, 0)).collect());
        let new_day = DayLog::new(1, (0..2).map(|i| alert(1, 9 + i, 0, 0)).collect());
        let history = vec![old_day, new_day];
        let uniform = ArrivalModel::fit(&history, 1);
        assert!((uniform.expected_daily_total(AlertTypeId(0)) - 5.0).abs() < 1e-12);
        let decayed = ArrivalModel::fit_weighted(&history, 1, 0.25);
        // (8*0.25 + 2*1.0) / (0.25 + 1.0) = 3.2
        assert!((decayed.expected_daily_total(AlertTypeId(0)) - 3.2).abs() < 1e-12);
        let strongly = ArrivalModel::fit_weighted(&history, 1, 0.01);
        assert!(strongly.expected_daily_total(AlertTypeId(0)) < 2.1);
    }

    #[test]
    #[should_panic(expected = "day_decay")]
    fn out_of_range_decay_is_rejected() {
        let _ = ArrivalModel::fit_weighted(&[], 1, 0.0);
    }

    #[test]
    fn remaining_decreases_monotonically_over_the_day() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_single_type(4));
        let history = gen.generate_days(20);
        let model = ArrivalModel::fit(&history, 1);
        let mut prev = f64::INFINITY;
        for hour in 0..24 {
            let v = model.expected_remaining(AlertTypeId(0), TimeOfDay::from_hms(hour, 0, 0));
            assert!(v <= prev + 1e-12);
            prev = v;
        }
    }
}
