//! Simulation statistics: latency percentiles and the Figure 8 cycle
//! breakdown.

/// Latency distribution summary over completed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    samples: Vec<f64>,
}

impl LatencyStats {
    /// Builds the summary from raw latency samples (seconds). The
    /// samples are sorted internally.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        LatencyStats { samples }
    }

    /// Merges several summaries into one distribution — e.g. per-device
    /// latencies into a fleet-wide tail. Equivalent to
    /// [`LatencyStats::from_samples`] on the concatenated sample sets,
    /// but O(N log k) instead of O(N log N): every part is already
    /// sorted (the only constructors are [`LatencyStats::from_samples`]
    /// and this), so a tournament over the k part heads suffices. At
    /// fleet scale this is the difference between re-sorting tens of
    /// millions of samples per merge and a single linear pass.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a LatencyStats>) -> LatencyStats {
        let mut runs: Vec<&[f64]> = parts
            .into_iter()
            .map(|p| p.samples.as_slice())
            .filter(|s| !s.is_empty())
            .collect();
        match runs.len() {
            0 => return LatencyStats { samples: Vec::new() },
            1 => return LatencyStats { samples: runs[0].to_vec() },
            _ => {}
        }
        let total = runs.iter().map(|s| s.len()).sum();
        let mut samples = Vec::with_capacity(total);
        // Min-heap over the run heads: each output element costs
        // O(log k) comparisons with no shifting; ties pop in arbitrary
        // heap order, which cannot matter — equal heads contribute
        // equal values, so the output sequence is the sorted multiset
        // either way.
        struct Run<'s>(&'s [f64]);
        impl Ord for Run<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: BinaryHeap is a max-heap.
                other.0[0].total_cmp(&self.0[0])
            }
        }
        impl PartialOrd for Run<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl PartialEq for Run<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for Run<'_> {}
        let mut heap: std::collections::BinaryHeap<Run<'_>> =
            runs.drain(..).map(Run).collect();
        while let Some(Run(run)) = heap.pop() {
            let (&head, rest) = run.split_first().expect("empty runs were filtered");
            samples.push(head);
            if !rest.is_empty() {
                heap.push(Run(rest));
            }
        }
        LatencyStats { samples }
    }

    /// The sorted samples (seconds) backing this summary, exposed so
    /// higher layers can re-aggregate distributions (see
    /// [`LatencyStats::merged`]) without losing tail resolution.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, or 0 for
    /// an empty set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize)
            .clamp(1, self.samples.len());
        self.samples[rank - 1]
    }

    /// Median latency.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
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
        self.samples.last().copied().unwrap_or(0.0)
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
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn quantiles_of_known_set() {
        let s = LatencyStats::from_samples((1..=100).map(|v| v as f64).collect());
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.p999(), 100.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_handled() {
        let s = LatencyStats::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.p50(), 2.0);
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

    #[test]
    fn merged_equals_from_concatenated_samples() {
        check::check(0x4D47, |g| {
            let parts: Vec<LatencyStats> = (0..g.usize_in(1, 5))
                .map(|_| {
                    let len = g.usize_in(0, 20);
                    LatencyStats::from_samples((0..len).map(|_| g.f64_in(0.0, 1.0)).collect())
                })
                .collect();
            let all: Vec<f64> =
                parts.iter().flat_map(|p| p.samples().iter().copied()).collect();
            let merged = LatencyStats::merged(parts.iter());
            assert_eq!(merged, LatencyStats::from_samples(all));
        });
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
