//! Simulation statistics: latency percentiles and the Figure 8 cycle
//! breakdown.

use std::sync::{Arc, OnceLock};

/// Latency distribution summary over completed requests: the sorted
/// samples, kept as sorted runs.
///
/// [`LatencyStats::from_samples`] sorts its samples into one run;
/// [`LatencyStats::merged`] shares its parts' runs instead of copying
/// them. Every statistic is that of the pooled, sorted samples: the
/// nearest-rank quantiles select across the runs, and the counts are
/// partition points within them, so a merged fleet-wide tail never
/// materializes its samples. Equality is equality of the pooled sorted
/// samples.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Non-empty runs, each sorted by `f64::total_cmp`; a run keeps the
    /// buffer its samples arrived in.
    runs: Vec<Arc<Vec<f64>>>,
    /// The pooled samples of a summary with several runs, sorted on the
    /// first call to [`LatencyStats::samples`].
    pooled: OnceLock<Vec<f64>>,
}

/// An unsigned key with the order of `f64::total_cmp`.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The sample an [`order_key`] belongs to.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

impl LatencyStats {
    /// Builds the summary from raw latency samples (seconds). The
    /// samples are sorted internally.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let runs = if samples.is_empty() { Vec::new() } else { vec![Arc::new(samples)] };
        LatencyStats { runs, pooled: OnceLock::new() }
    }

    /// Merges several summaries into one distribution — e.g. per-device
    /// latencies into a fleet-wide tail. Its statistics are those of
    /// [`LatencyStats::from_samples`] on the concatenated sample sets;
    /// it shares the parts' sorted runs and copies no sample.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a LatencyStats>) -> LatencyStats {
        let runs = parts.into_iter().flat_map(|p| p.runs.iter().cloned()).collect();
        LatencyStats { runs, pooled: OnceLock::new() }
    }

    /// The sorted samples (seconds) backing this summary. A merged
    /// summary pools and sorts its runs on the first call and keeps the
    /// result; no statistic of this type needs it.
    pub fn samples(&self) -> &[f64] {
        match self.runs.as_slice() {
            [] => &[],
            [run] => run,
            runs => self.pooled.get_or_init(|| {
                let mut pooled: Vec<f64> = runs.iter().flat_map(|r| r.iter().copied()).collect();
                pooled.sort_by(f64::total_cmp);
                pooled
            }),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, or 0 for
    /// an empty set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if let [run] = self.runs.as_slice() {
            return run[rank - 1];
        }
        // The smallest key with at least `rank` samples at or below it
        // is the key of the rank-th sample: bisect the key space,
        // counting each run's samples at or below the probe.
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let probe = lo + (hi - lo) / 2;
            let at_or_below: usize = self
                .runs
                .iter()
                .map(|r| r.partition_point(|&x| order_key(x) <= probe))
                .sum();
            if at_or_below >= rank {
                hi = probe;
            } else {
                lo = probe + 1;
            }
        }
        from_order_key(lo)
    }

    /// 99th-percentile latency — the paper's service-level metric.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency — the tail the SLO monitor watches
    /// under fault injection, where violations concentrate.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Largest observed latency.
    pub fn max(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r[r.len() - 1])
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Samples within `deadline_s` that a further `delay_s` pushes past
    /// it: `s ≤ deadline_s < s + delay_s`. Both conditions are monotone
    /// in `s` over latency samples, which are never NaN, so each run
    /// contributes the difference of two partition points.
    ///
    /// # Panics
    ///
    /// Panics unless `delay_s` is finite and non-negative.
    pub fn count_pushed_past(&self, deadline_s: f64, delay_s: f64) -> usize {
        assert!(
            delay_s.is_finite() && delay_s >= 0.0,
            "the delay must be finite and non-negative, got {delay_s}"
        );
        self.runs
            .iter()
            .map(|r| {
                r.partition_point(|&s| s <= deadline_s)
                    - r.partition_point(|&s| s + delay_s <= deadline_s)
            })
            .sum()
    }
}

impl PartialEq for LatencyStats {
    fn eq(&self, other: &Self) -> bool {
        self.samples() == other.samples()
    }
}

/// MMU cycle usage breakdown — the four categories of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleBreakdown {
    /// Cycles doing useful work for real requests (inference or
    /// training).
    pub working: f64,
    /// Cycles spent computing dummy requests that pad incomplete
    /// batches.
    pub dummy: f64,
    /// Cycles with no work scheduled.
    pub idle: f64,
    /// Wasted cycles: pipeline-fill and dependence stalls, ALU-array/
    /// matrix dimension mismatches, and the service of corrupted batches.
    pub other: f64,
}

impl CycleBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.working + self.dummy + self.idle + self.other
    }

    /// The breakdown normalized to fractions of the total.
    ///
    /// Returns all-zero for an empty breakdown.
    pub fn fractions(&self) -> CycleBreakdown {
        let t = self.total();
        if t <= 0.0 {
            return CycleBreakdown::default();
        }
        CycleBreakdown {
            working: self.working / t,
            dummy: self.dummy / t,
            idle: self.idle / t,
            other: self.other / t,
        }
    }

    /// Adds another breakdown element-wise.
    pub fn accumulate(&mut self, other: &CycleBreakdown) {
        self.working += other.working;
        self.dummy += other.dummy;
        self.idle += other.idle;
        self.other += other.other;
    }
}

impl std::fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fr = self.fractions();
        write!(
            f,
            "working {:.1}% | dummy {:.1}% | idle {:.1}% | other {:.1}%",
            fr.working * 100.0,
            fr.dummy * 100.0,
            fr.idle * 100.0,
            fr.other * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::check;

    #[test]
    fn empty_stats() {
        let s = LatencyStats::from_samples(vec![]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn quantiles_of_known_set() {
        let s = LatencyStats::from_samples((1..=100).map(|v| v as f64).collect());
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.p999(), 100.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn unsorted_input_handled() {
        let s = LatencyStats::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn out_of_range_quantile_panics() {
        LatencyStats::from_samples(vec![1.0]).quantile(1.5);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = CycleBreakdown { working: 10.0, dummy: 20.0, idle: 30.0, other: 40.0 };
        let f = b.fractions();
        assert!((f.total() - 1.0).abs() < 1e-12);
        assert!((f.dummy - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_fractions_zero() {
        assert_eq!(CycleBreakdown::default().fractions().total(), 0.0);
    }

    #[test]
    fn accumulate_adds() {
        let mut a = CycleBreakdown { working: 1.0, dummy: 2.0, idle: 3.0, other: 4.0 };
        a.accumulate(&CycleBreakdown { working: 1.0, dummy: 1.0, idle: 1.0, other: 1.0 });
        assert_eq!(a.working, 2.0);
        assert_eq!(a.total(), 14.0);
    }

    #[test]
    fn display_percentages() {
        let b = CycleBreakdown { working: 1.0, dummy: 1.0, idle: 1.0, other: 1.0 };
        assert!(b.to_string().contains("25.0%"));
    }

    /// The statistics the fleet reads from a summary, bit for bit: the
    /// quantiles, count, max and a window count.
    fn fingerprint(s: &LatencyStats, deadline: f64, delay: f64) -> Vec<u64> {
        let quantiles = [0.0, 1e-12, 0.5, 0.99, 0.999, 1.0].map(|q| s.quantile(q).to_bits());
        let window = s.count_pushed_past(deadline, delay) as u64;
        [s.count() as u64, s.max().to_bits(), window].into_iter().chain(quantiles).collect()
    }

    #[test]
    fn merged_summaries_answer_as_the_pooled_samples_do() {
        // 0–70 runs of 0–50 samples each, often drawn from a few values
        // (±0 among them), so that runs are empty, samples repeat across
        // runs and the rank falls inside a tie. Nested merges share
        // runs the same way.
        check::check(0x4D47, |g| {
            let few = g.next_bool();
            let parts: Vec<LatencyStats> = (0..g.usize_in(0, 71))
                .map(|_| {
                    let samples = (0..g.usize_in(0, 51))
                        .map(|_| {
                            if few {
                                [-0.0, 0.0, 1e-3, 2e-3, 2e-3 + 1e-18, 5e-3][g.usize_in(0, 6)]
                            } else {
                                g.f64_in(0.0, 1e-2)
                            }
                        })
                        .collect();
                    LatencyStats::from_samples(samples)
                })
                .collect();
            let pooled: Vec<f64> =
                parts.iter().flat_map(|p| p.samples().iter().copied()).collect();
            let reference = LatencyStats::from_samples(pooled.clone());
            let merged = LatencyStats::merged(parts.iter());
            let (halves, rest) = parts.split_at(parts.len() / 2);
            let nested = LatencyStats::merged([
                &LatencyStats::merged(halves.iter()),
                &LatencyStats::merged(rest.iter()),
            ]);
            for _ in 0..4 {
                let deadline = if few { 2e-3 } else { g.f64_in(0.0, 1e-2) };
                let delay = g.f64_in(0.0, 4e-3);
                let want = fingerprint(&reference, deadline, delay);
                let window = pooled.iter().filter(|&&s| s <= deadline && s + delay > deadline);
                assert_eq!(want[2], window.count() as u64, "the reference window count");
                assert_eq!(fingerprint(&merged, deadline, delay), want);
                assert_eq!(fingerprint(&nested, deadline, delay), want);
            }
            assert_eq!(merged, reference);
            assert_eq!(nested, reference);
            assert_eq!(merged.samples(), reference.samples());
        });
    }

    #[test]
    fn order_keys_follow_total_order() {
        let values = [f64::NEG_INFINITY, -1.0, -f64::MIN_POSITIVE, -0.0, 0.0, 1e-300, 2.5, f64::INFINITY];
        for w in values.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} < {}", w[0], w[1]);
        }
        for v in values.into_iter().chain([f64::NAN, -f64::NAN]) {
            assert_eq!(from_order_key(order_key(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn a_negative_delay_panics() {
        LatencyStats::from_samples(vec![1.0]).count_pushed_past(1.0, -1.0);
    }

    #[test]
    fn quantile_monotone() {
        check::check(0x737401, |g| {
            let len = g.usize_in(1, 50);
            let samples: Vec<f64> = (0..len).map(|_| g.f64_in(0.0, 100.0)).collect();
            let s = LatencyStats::from_samples(samples);
            let mut prev = 0.0;
            for i in 0..=10 {
                let q = s.quantile(i as f64 / 10.0);
                assert!(q >= prev - 1e-12);
                prev = q;
            }
        });
    }
}
