//! Fitted distributional surrogate tables.
//!
//! [`FittedTable`] is the fleet's one surrogate service model, the
//! fast tier beside the full discrete-event engine: a per-(model,
//! batch) family of service-time and energy *quantile grids*, one grid
//! per queue-depth ("contention") bucket. [`FittedTable::fit`] builds
//! it offline from [`equinox_sim::Simulation::run_sampled`] traces (the
//! `fitted` regen driver); [`FittedTable::fixed`] is the degenerate
//! one-point table that charges every batch the same service time, the
//! conservative static-bound surrogate. A surrogate device draws each
//! batch's occupancy, contention stretch, and energy from the grid
//! matching the queue depth at service start, by deterministic
//! inverse-CDF interpolation on a seeded uniform.
//!
//! ## Soundness: the clamp contract
//!
//! Every number a table can ever return is clamped — at fit time, at
//! construction (validated), and defensively again at draw time — into
//! the calibrated static envelope of the served program:
//!
//! - occupancy ∈ `[lower_cycles, upper_cycles]` (the
//!   `equinox_check::bounds` cycle envelope, calibrated by the `bounds`
//!   regen gate);
//! - stretch ∈ `[1, MAX_STRETCH]` — the engine's fair-share floor
//!   guarantees inference at least half the MMU while training co-runs
//!   (`r_train ≤ 0.5`), so wall-clock duration never exceeds
//!   `2 × occupancy`;
//! - energy ∈ `[energy_lower_j, energy_upper_j]` (the static energy
//!   envelope).
//!
//! So a fitted sample can never leave the `[lower, upper]` interval the
//! bounds gate validated, whatever the fitting data looked like.
//! Bucket selection is a partition point over the sorted
//! `bucket_edges`, the same rule at fit time and at draw time.

use equinox_isa::EquinoxError;
use equinox_sim::BatchSample;

/// Number of quantile points per grid: `q_i = i / (GRID_POINTS − 1)`
/// for `i = 0..GRID_POINTS`, i.e. the min, the octiles, and the max.
pub const GRID_POINTS: usize = 9;

/// Upper clamp on the contention stretch (wall-clock duration over
/// occupancy). The engine's schedulers cap the training MMU share at
/// the fair half (`r_train ≤ 0.5`, further reduced by DRAM starvation
/// and priority preemption), so `r_inf ≥ 0.5` whenever inference is in
/// flight and no batch can stretch beyond 2×.
pub const MAX_STRETCH: f64 = 2.0;

/// One batch drawn from a fitted table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedDraw {
    /// MMU cycles of actual inference work (inside the static cycle
    /// envelope).
    pub occupancy_cycles: f64,
    /// Wall-clock cycles from service start to completion:
    /// `occupancy × stretch`, the stretch covering training co-run
    /// contention.
    pub duration_cycles: f64,
    /// Inference energy of the batch, joules (inside the static energy
    /// envelope).
    pub energy_j: f64,
}

/// The quantile grid of one contention bucket: empirical quantiles of
/// the batch occupancy, stretch, and energy at [`GRID_POINTS`] evenly
/// spaced probabilities. All three vectors are non-decreasing, so
/// drawing them comonotonically (one uniform drives all three) yields
/// valid marginals with the physically sensible "slow batches cost
/// more" coupling.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileGrid {
    /// Number of fitting samples that landed in this bucket (0 for an
    /// unobserved bucket, which serves conservatively at the envelope
    /// ceiling, and for the bucket of a [`FittedTable::fixed`] table).
    pub count: usize,
    /// Occupancy-cycle quantiles, non-decreasing, inside the cycle
    /// envelope.
    pub occupancy_cycles: Vec<f64>,
    /// Stretch quantiles, non-decreasing, in `[1, MAX_STRETCH]`.
    pub stretch: Vec<f64>,
    /// Energy quantiles in joules, non-decreasing, inside the energy
    /// envelope.
    pub energy_j: Vec<f64>,
}

impl QuantileGrid {
    /// The conservative grid for a bucket with no fitting samples:
    /// every draw serves at the envelope ceiling (occupancy and energy
    /// at the upper bound, maximally stretched), which is the
    /// upper-bound [`FittedTable::fixed`] table made pessimistic about
    /// contention too.
    fn ceiling(upper_cycles: u64, energy_upper_j: f64) -> QuantileGrid {
        QuantileGrid {
            count: 0,
            occupancy_cycles: vec![upper_cycles as f64; GRID_POINTS],
            stretch: vec![MAX_STRETCH; GRID_POINTS],
            energy_j: vec![energy_upper_j; GRID_POINTS],
        }
    }
}

/// A fitted distributional surrogate table for one (model, batch) cell.
///
/// Shared across devices via `Arc` (256 fitted devices reference one
/// table).
#[derive(Debug, PartialEq)]
pub struct FittedTable {
    /// Name of the served model (matches `ModelSpec::name`).
    pub model: String,
    /// Batch size the table was fitted at; must equal the device
    /// timing's batch ([`crate::Fleet::new`] enforces this).
    pub batch: usize,
    /// Static lower cycle bound of the served program.
    pub lower_cycles: u64,
    /// Static upper cycle bound of the served program.
    pub upper_cycles: u64,
    /// Static lower energy bound per batch, joules.
    pub energy_lower_j: f64,
    /// Static upper energy bound per batch, joules.
    pub energy_upper_j: f64,
    /// Sorted, strictly increasing queue-depth bucket boundaries:
    /// depth `< edges[0]` is bucket 0, `edges[i-1] ≤ depth < edges[i]`
    /// is bucket `i`, and `depth ≥ edges.last()` is the last bucket.
    bucket_edges: Vec<usize>,
    /// One grid per bucket; `len == bucket_edges.len() + 1`.
    buckets: Vec<QuantileGrid>,
}

/// Linear-interpolation quantile of an ascending-sorted slice — the
/// estimator [`FittedTable::fit`] builds its grids with, exported so
/// the calibration gate can hold held-out sim runs against the fitted
/// grids with the *same* estimator (any mismatch would show up as
/// calibration error that is really just estimator skew).
pub fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q * (sorted.len() - 1) as f64;
    let k = (pos.floor() as usize).min(sorted.len() - 1);
    let frac = pos - k as f64;
    if frac <= 0.0 || k + 1 >= sorted.len() {
        sorted[k]
    } else {
        sorted[k] + (sorted[k + 1] - sorted[k]) * frac
    }
}

impl FittedTable {
    /// Builds a table from already-computed grids, validating every
    /// invariant the sampler relies on.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] when the envelope is
    /// degenerate, the edges are not strictly increasing, the bucket
    /// count does not match, or any grid value is non-finite, out of
    /// its envelope, or not non-decreasing.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: impl Into<String>,
        batch: usize,
        lower_cycles: u64,
        upper_cycles: u64,
        energy_lower_j: f64,
        energy_upper_j: f64,
        bucket_edges: Vec<usize>,
        buckets: Vec<QuantileGrid>,
    ) -> Result<FittedTable, EquinoxError> {
        const API: &str = "FittedTable::new";
        let err = |message: String| Err(EquinoxError::invalid_argument(API, message));
        if batch == 0 {
            return err("batch must be >= 1".into());
        }
        if lower_cycles == 0 || lower_cycles > upper_cycles {
            return err(format!(
                "cycle envelope must satisfy 0 < lower <= upper, got [{lower_cycles}, {upper_cycles}]"
            ));
        }
        if !(energy_lower_j.is_finite()
            && energy_upper_j.is_finite()
            && 0.0 <= energy_lower_j
            && energy_lower_j <= energy_upper_j)
        {
            return err(format!(
                "energy envelope must satisfy 0 <= lower <= upper (finite), got [{energy_lower_j}, {energy_upper_j}]"
            ));
        }
        if bucket_edges.windows(2).any(|w| w[0] >= w[1]) {
            return err("bucket_edges must be strictly increasing".into());
        }
        if buckets.len() != bucket_edges.len() + 1 {
            return err(format!(
                "need {} buckets for {} edges, got {}",
                bucket_edges.len() + 1,
                bucket_edges.len(),
                buckets.len()
            ));
        }
        for (b, grid) in buckets.iter().enumerate() {
            let lanes: [(&str, &[f64], f64, f64); 3] = [
                ("occupancy_cycles", &grid.occupancy_cycles, lower_cycles as f64, upper_cycles as f64),
                ("stretch", &grid.stretch, 1.0, MAX_STRETCH),
                ("energy_j", &grid.energy_j, energy_lower_j, energy_upper_j),
            ];
            for (lane, values, lo, hi) in lanes {
                if values.len() != GRID_POINTS {
                    return err(format!(
                        "bucket {b} {lane}: need {GRID_POINTS} grid points, got {}",
                        values.len()
                    ));
                }
                if values.iter().any(|v| !v.is_finite() || *v < lo || *v > hi) {
                    return err(format!(
                        "bucket {b} {lane}: values must lie in [{lo}, {hi}]"
                    ));
                }
                if values.windows(2).any(|w| w[0] > w[1]) {
                    return err(format!("bucket {b} {lane}: quantiles must be non-decreasing"));
                }
            }
        }
        Ok(FittedTable {
            model: model.into(),
            batch,
            lower_cycles,
            upper_cycles,
            energy_lower_j,
            energy_upper_j,
            bucket_edges,
            buckets,
        })
    }

    /// The one-point table: a single bucket whose every draw is
    /// `service_cycles` of occupancy at stretch 1 and 0 J. A device
    /// served by it charges every batch exactly that service time on
    /// one serial server — the conservative static-bound surrogate when
    /// `service_cycles` is the upper static bound, the engine's own
    /// queue when it is the nominal service time.
    ///
    /// # Errors
    ///
    /// The [`FittedTable::new`] validation errors (`batch` or
    /// `service_cycles` zero).
    pub fn fixed(
        model: impl Into<String>,
        batch: usize,
        service_cycles: u64,
    ) -> Result<FittedTable, EquinoxError> {
        let grid = QuantileGrid {
            count: 0,
            occupancy_cycles: vec![service_cycles as f64; GRID_POINTS],
            stretch: vec![1.0; GRID_POINTS],
            energy_j: vec![0.0; GRID_POINTS],
        };
        FittedTable::new(
            model,
            batch,
            service_cycles,
            service_cycles,
            0.0,
            0.0,
            vec![],
            vec![grid],
        )
    }

    /// Fits a table from engine batch samples: each sample is bucketed
    /// by its queue depth at service start, each bucket's occupancy /
    /// stretch / energy quantiles are taken independently, and
    /// everything is clamped into the envelope. Energy is priced per
    /// sample by interpolating the static energy envelope at the
    /// sample's position inside the cycle envelope (a modelling choice:
    /// the envelope ties energy to work done, and a batch's occupancy
    /// *is* its work). Buckets with no samples serve conservatively at
    /// the envelope ceiling.
    ///
    /// # Errors
    ///
    /// The [`FittedTable::new`] validation errors (degenerate
    /// envelopes, non-increasing edges).
    #[allow(clippy::too_many_arguments)]
    pub fn fit(
        model: impl Into<String>,
        batch: usize,
        lower_cycles: u64,
        upper_cycles: u64,
        energy_lower_j: f64,
        energy_upper_j: f64,
        bucket_edges: Vec<usize>,
        samples: &[BatchSample],
    ) -> Result<FittedTable, EquinoxError> {
        let (c_lo, c_hi) = (lower_cycles as f64, upper_cycles as f64);
        let price = |occ: f64| -> f64 {
            let span = c_hi - c_lo;
            let frac = if span > 0.0 { (occ - c_lo) / span } else { 0.0 };
            energy_lower_j + (energy_upper_j - energy_lower_j) * frac
        };
        let n_buckets = bucket_edges.len() + 1;
        let mut binned: Vec<Vec<&BatchSample>> = vec![Vec::new(); n_buckets];
        for s in samples {
            binned[bucket_index(&bucket_edges, s.queue_depth)].push(s);
        }
        let buckets = binned
            .into_iter()
            .map(|bin| {
                if bin.is_empty() {
                    return QuantileGrid::ceiling(upper_cycles, energy_upper_j);
                }
                let mut occ: Vec<f64> =
                    bin.iter().map(|s| s.occupancy_cycles.clamp(c_lo, c_hi)).collect();
                let mut stretch: Vec<f64> =
                    bin.iter().map(|s| s.stretch().clamp(1.0, MAX_STRETCH)).collect();
                let mut energy: Vec<f64> = occ
                    .iter()
                    .map(|&o| price(o).clamp(energy_lower_j, energy_upper_j))
                    .collect();
                occ.sort_by(f64::total_cmp);
                stretch.sort_by(f64::total_cmp);
                energy.sort_by(f64::total_cmp);
                let grid = |sorted: &[f64]| -> Vec<f64> {
                    (0..GRID_POINTS)
                        .map(|i| sorted_quantile(sorted, i as f64 / (GRID_POINTS - 1) as f64))
                        .collect()
                };
                QuantileGrid {
                    count: bin.len(),
                    occupancy_cycles: grid(&occ),
                    stretch: grid(&stretch),
                    energy_j: grid(&energy),
                }
            })
            .collect();
        FittedTable::new(
            model,
            batch,
            lower_cycles,
            upper_cycles,
            energy_lower_j,
            energy_upper_j,
            bucket_edges,
            buckets,
        )
    }

    /// Draws one batch: selects the contention bucket for
    /// `queue_depth`, then inverse-CDF-interpolates all three lanes
    /// comonotonically at the uniform `u ∈ [0, 1]`. Every returned
    /// value is defensively clamped into the envelope, so the draw is
    /// inside `[lower, upper]` whatever the table contents.
    pub fn sample(&self, queue_depth: usize, u: f64) -> FittedDraw {
        let grid = &self.buckets[bucket_index(&self.bucket_edges, queue_depth)];
        let u = if u.is_finite() { u.clamp(0.0, 1.0) } else { 0.0 };
        let pos = u * (GRID_POINTS - 1) as f64;
        let k = (pos.floor() as usize).min(GRID_POINTS - 2);
        let frac = pos - k as f64;
        let lerp = |v: &[f64]| v[k] + (v[k + 1] - v[k]) * frac;
        let occupancy_cycles =
            lerp(&grid.occupancy_cycles).clamp(self.lower_cycles as f64, self.upper_cycles as f64);
        let stretch = lerp(&grid.stretch).clamp(1.0, MAX_STRETCH);
        let energy_j = lerp(&grid.energy_j).clamp(self.energy_lower_j, self.energy_upper_j);
        FittedDraw {
            occupancy_cycles,
            duration_cycles: occupancy_cycles * stretch,
            energy_j,
        }
    }

    /// The bucket boundaries (sorted, strictly increasing).
    pub fn bucket_edges(&self) -> &[usize] {
        &self.bucket_edges
    }

    /// The per-bucket quantile grids (`bucket_edges().len() + 1` of
    /// them).
    pub fn buckets(&self) -> &[QuantileGrid] {
        &self.buckets
    }
}

/// The contention bucket of a queue depth, the one rule fitting and
/// drawing share: depth `< edges[0]` is bucket 0, `edges[i-1] ≤ depth <
/// edges[i]` is bucket `i`, and `depth ≥ edges.last()` is the last
/// bucket (a partition point over the sorted edges).
fn bucket_index(edges: &[usize], queue_depth: usize) -> usize {
    edges.partition_point(|&e| e <= queue_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::check;

    /// A small handmade table: envelope [1000, 2000] cycles,
    /// [1.0, 3.0] J, edges at depths 8 and 32.
    fn toy_table() -> FittedTable {
        let grid = |lo: f64, hi: f64| -> Vec<f64> {
            (0..GRID_POINTS)
                .map(|i| lo + (hi - lo) * i as f64 / (GRID_POINTS - 1) as f64)
                .collect()
        };
        let bucket = |c_lo: f64, c_hi: f64, s_hi: f64| QuantileGrid {
            count: 100,
            occupancy_cycles: grid(c_lo, c_hi),
            stretch: grid(1.0, s_hi),
            energy_j: grid(1.0, 3.0),
        };
        FittedTable::new(
            "toy",
            16,
            1000,
            2000,
            1.0,
            3.0,
            vec![8, 32],
            vec![
                bucket(1000.0, 1200.0, 1.1),
                bucket(1100.0, 1600.0, 1.5),
                bucket(1400.0, 2000.0, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_bad_tables() {
        let t = toy_table();
        let cases: Vec<(&str, Result<FittedTable, EquinoxError>)> = vec![
            (
                "inverted cycle envelope",
                FittedTable::new("m", 16, 2000, 1000, 1.0, 3.0, vec![], vec![
                    QuantileGrid::ceiling(1000, 3.0),
                ]),
            ),
            (
                "zero lower cycle bound",
                FittedTable::new("m", 16, 0, 100, 1.0, 3.0, vec![], vec![
                    QuantileGrid::ceiling(100, 3.0),
                ]),
            ),
            ("zero fixed service time", FittedTable::fixed("m", 16, 0)),
            ("zero fixed batch", FittedTable::fixed("m", 0, 1000)),
            (
                "edges not strictly increasing",
                FittedTable::new("m", 16, 1000, 2000, 1.0, 3.0, vec![8, 8], vec![
                    QuantileGrid::ceiling(2000, 3.0),
                    QuantileGrid::ceiling(2000, 3.0),
                    QuantileGrid::ceiling(2000, 3.0),
                ]),
            ),
            (
                "bucket count mismatch",
                FittedTable::new("m", 16, 1000, 2000, 1.0, 3.0, vec![8], vec![
                    QuantileGrid::ceiling(2000, 3.0),
                ]),
            ),
            (
                "occupancy outside envelope",
                FittedTable::new("m", 16, 1000, 2000, 1.0, 3.0, vec![], vec![QuantileGrid {
                    count: 1,
                    occupancy_cycles: vec![900.0; GRID_POINTS],
                    stretch: vec![1.0; GRID_POINTS],
                    energy_j: vec![1.0; GRID_POINTS],
                }]),
            ),
            (
                "decreasing quantiles",
                FittedTable::new("m", 16, 1000, 2000, 1.0, 3.0, vec![], vec![QuantileGrid {
                    count: 1,
                    occupancy_cycles: {
                        let mut v = vec![1500.0; GRID_POINTS];
                        v[GRID_POINTS - 1] = 1100.0;
                        v
                    },
                    stretch: vec![1.0; GRID_POINTS],
                    energy_j: vec![1.0; GRID_POINTS],
                }]),
            ),
        ];
        for (what, r) in cases {
            assert!(
                matches!(r, Err(EquinoxError::InvalidArgument { .. })),
                "expected rejection: {what}"
            );
        }
        // And the toy table itself is valid.
        assert_eq!(t.bucket_edges(), &[8, 32]);
    }

    #[test]
    fn a_fixed_table_draws_its_service_time_everywhere() {
        let t = FittedTable::fixed("m", 16, 1000).unwrap();
        assert_eq!((t.lower_cycles, t.upper_cycles), (1000, 1000));
        assert!(t.bucket_edges().is_empty());
        for depth in [0, 1, 64, usize::MAX] {
            for u in [0.0, 0.3, 1.0, f64::NAN] {
                let d = t.sample(depth, u);
                assert_eq!(
                    d,
                    FittedDraw { occupancy_cycles: 1000.0, duration_cycles: 1000.0, energy_j: 0.0 }
                );
            }
        }
    }

    #[test]
    fn bucket_index_matches_a_linear_scan() {
        let t = toy_table();
        for depth in 0..64 {
            let linear = t.bucket_edges.iter().filter(|&&e| e <= depth).count();
            assert_eq!(bucket_index(t.bucket_edges(), depth), linear, "depth {depth}");
        }
    }

    #[test]
    fn fit_buckets_samples_and_interpolates_inside_the_envelope() {
        let mk = |depth: usize, occ: f64, stretch: f64| BatchSample {
            queue_depth: depth,
            real: 16,
            start_cycle: 0.0,
            end_cycle: occ * stretch,
            occupancy_cycles: occ,
        };
        // Low-depth samples fast, high-depth samples slow; one sample
        // deliberately outside the envelope on each side (clamped).
        let samples: Vec<BatchSample> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    mk(2, 1050.0 + i as f64, 1.0)
                } else {
                    mk(40, 1500.0 + i as f64, 1.4)
                }
            })
            .chain([mk(2, 500.0, 0.5), mk(40, 9999.0, 9.0)])
            .collect();
        let t = FittedTable::fit("m", 16, 1000, 2000, 1.0, 3.0, vec![8, 32], &samples).unwrap();
        assert_eq!(t.buckets()[0].count, 101);
        assert_eq!(t.buckets()[1].count, 0, "no samples between depths 8 and 32");
        assert_eq!(t.buckets()[2].count, 101);
        // The unobserved middle bucket serves at the ceiling.
        let mid = t.sample(16, 0.5);
        assert_eq!(mid.occupancy_cycles, 2000.0);
        assert_eq!(mid.duration_cycles, 2000.0 * MAX_STRETCH);
        // Fitted buckets reflect their samples: low depth is faster.
        let fast = t.sample(2, 0.5);
        let slow = t.sample(40, 0.5);
        assert!(fast.occupancy_cycles < slow.occupancy_cycles);
        assert!(fast.energy_j < slow.energy_j, "energy priced by occupancy");
        assert!(slow.duration_cycles / slow.occupancy_cycles > 1.3);
        // Draws are monotone in u (comonotone lanes).
        let lo = t.sample(2, 0.0);
        let hi = t.sample(2, 1.0);
        assert!(lo.occupancy_cycles <= fast.occupancy_cycles);
        assert!(fast.occupancy_cycles <= hi.occupancy_cycles);
    }

    #[test]
    fn every_draw_lies_inside_the_envelope_for_random_tables() {
        // Property: whatever the fitting data (including samples far
        // outside the envelope), geometry, and draw inputs, a fitted
        // sample never escapes the static envelope.
        check::for_each_case(64, 0xf17ed, |g| {
            let lower = g.usize_in(1, 10_000) as u64;
            let upper = lower + g.usize_in(0, 10_000) as u64;
            let e_lo = g.f64_in(0.0, 5.0);
            let e_hi = e_lo + g.f64_in(0.0, 5.0);
            let n_edges = g.usize_in(0, 6);
            let mut edges = Vec::new();
            let mut next = 1usize;
            for _ in 0..n_edges {
                edges.push(next);
                next += g.usize_in(1, 64);
            }
            let samples: Vec<BatchSample> = (0..g.usize_in(0, 200))
                .map(|_| {
                    let occ = g.f64_in(0.0, 3.0 * upper as f64);
                    let stretch = g.f64_in(0.1, 8.0);
                    BatchSample {
                        queue_depth: g.usize_in(0, 256),
                        real: 1,
                        start_cycle: 0.0,
                        end_cycle: occ * stretch,
                        occupancy_cycles: occ,
                    }
                })
                .collect();
            let t = FittedTable::fit("prop", 8, lower, upper, e_lo, e_hi, edges, &samples)
                .expect("fit clamps into any valid envelope");
            for _ in 0..32 {
                let d = t.sample(g.usize_in(0, 512), g.f64_in(-0.5, 1.5));
                assert!(d.occupancy_cycles >= lower as f64);
                assert!(d.occupancy_cycles <= upper as f64);
                assert!(d.duration_cycles >= d.occupancy_cycles);
                assert!(d.duration_cycles <= MAX_STRETCH * d.occupancy_cycles);
                assert!(d.energy_j >= e_lo && d.energy_j <= e_hi);
            }
        });
    }
}
