//! Poisson request traffic (§5: "a load generator that creates inference
//! requests following Poisson arrival rates").

use equinox_arith::rng::SplitMix64;
use equinox_isa::EquinoxError;

/// Generates Poisson arrival times (in cycles) with a deterministic
/// seed.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if `rate_per_cycle` is negative or
/// not finite.
///
/// # Example
///
/// ```
/// use equinox_sim::loadgen::poisson_arrivals;
/// let arrivals = poisson_arrivals(1e-3, 1_000_000, 42).unwrap();
/// // Rate 1e-3 per cycle over 1e6 cycles ⇒ ≈1000 arrivals.
/// assert!(arrivals.len() > 800 && arrivals.len() < 1200);
/// ```
pub fn poisson_arrivals(
    rate_per_cycle: f64,
    horizon_cycles: u64,
    seed: u64,
) -> Result<Vec<u64>, EquinoxError> {
    if !rate_per_cycle.is_finite() || rate_per_cycle < 0.0 {
        return Err(EquinoxError::invalid_argument(
            "loadgen::poisson_arrivals",
            format!("rate must be finite and non-negative, got {rate_per_cycle}"),
        ));
    }
    let mut arrivals = Vec::new();
    if rate_per_cycle == 0.0 {
        return Ok(arrivals);
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival: -ln(U)/λ.
        let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
        t += -u.ln() / rate_per_cycle;
        if t >= horizon_cycles as f64 {
            break;
        }
        arrivals.push(t as u64);
    }
    Ok(arrivals)
}

/// Derives the seed of auxiliary stream `stream` from a base `seed`.
///
/// This is the workspace's **seed-splitting convention**: one
/// user-facing seed fans out into any number of decorrelated SplitMix64
/// streams by spacing the stream index with the SplitMix64 Weyl
/// constant and hashing the combination through one generator step.
/// Neighbouring stream indices therefore land in unrelated parts of the
/// state space, and `split_seed(s, i) != s` for every `i` (the output
/// is always one `next_u64` past the mixed state).
///
/// The fleet layer derives all of its randomness this way: stream 0
/// seeds the fleet-wide arrival process, stream 1 the router's
/// randomized policy draws, and streams `2 + i` are reserved for
/// device `i`. Adding a device or switching the routing policy thus
/// never perturbs the offered traffic.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// Converts an offered load fraction into an arrival rate per cycle.
///
/// `max_request_rate_per_cycle` is the accelerator's saturation request
/// rate (batch size / batch service cycles); `load` is the fraction of
/// it to offer.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if `load` is negative or not
/// finite.
pub fn rate_for_load(load: f64, max_request_rate_per_cycle: f64) -> Result<f64, EquinoxError> {
    if !load.is_finite() || load < 0.0 {
        return Err(EquinoxError::invalid_argument(
            "loadgen::rate_for_load",
            format!("load must be finite and non-negative, got {load}"),
        ));
    }
    Ok(load * max_request_rate_per_cycle)
}

/// A diurnal load profile: the service-demand variability that leaves
/// inference accelerators at ≈30 % average load (§1, citing the
/// warehouse-scale-computing literature). The profile is a raised
/// sinusoid over the day with a peak-hours plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Lowest load fraction (deep night).
    pub trough: f64,
    /// Highest load fraction (peak hour).
    pub peak: f64,
}

impl DiurnalProfile {
    /// A profile averaging ≈30 % load, matching the paper's motivation.
    pub fn thirty_percent_average() -> Self {
        DiurnalProfile { trough: 0.08, peak: 0.62 }
    }

    /// Load fraction at `t` in [0, 1) of the day.
    pub fn load_at(&self, t: f64) -> f64 {
        let phase = (t.fract() * std::f64::consts::TAU - std::f64::consts::PI).cos();
        self.trough + (self.peak - self.trough) * 0.5 * (1.0 + phase)
    }

    /// Mean load over the day (closed form: midpoint of trough/peak).
    pub fn mean_load(&self) -> f64 {
        0.5 * (self.trough + self.peak)
    }
}

/// Generates non-homogeneous Poisson arrivals following a diurnal
/// profile over `horizon_cycles` (one simulated "day"), by thinning a
/// homogeneous process at the peak rate.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if the profile's peak rate is
/// malformed (negative or not finite).
pub fn diurnal_arrivals(
    profile: &DiurnalProfile,
    max_request_rate_per_cycle: f64,
    horizon_cycles: u64,
    seed: u64,
) -> Result<Vec<u64>, EquinoxError> {
    let peak_rate = profile.peak * max_request_rate_per_cycle;
    let candidates = poisson_arrivals(peak_rate, horizon_cycles, seed)?;
    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_add(0x5EED));
    Ok(candidates
        .into_iter()
        .filter(|&t| {
            let day_t = t as f64 / horizon_cycles as f64;
            let keep = profile.load_at(day_t) / profile.peak;
            rng.next_f64() < keep
        })
        .collect())
}

/// A flash-crowd burst: a multiplicative surge on the instantaneous
/// arrival rate over a window of the horizon. Composed with a
/// [`DiurnalProfile`] by [`trace_arrivals`], this models the
/// trace-scale overload events a production serving layer must degrade
/// gracefully under (the admission/autoscale study in `equinox-fleet`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start as a fraction of the horizon, in `[0, 1)`.
    pub start_frac: f64,
    /// Window length as a fraction of the horizon; the window must end
    /// at or before the horizon (`start_frac + duration_frac ≤ 1`).
    pub duration_frac: f64,
    /// Rate multiplier inside the window (≥ 0; values below 1 model a
    /// brownout, values above 1 a crowd).
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Window end as a fraction of the horizon.
    pub fn end_frac(&self) -> f64 {
        self.start_frac + self.duration_frac
    }

    fn validate(&self) -> Result<(), EquinoxError> {
        let ok = self.start_frac.is_finite()
            && self.duration_frac.is_finite()
            && self.multiplier.is_finite()
            && self.start_frac >= 0.0
            && self.duration_frac > 0.0
            && self.end_frac() <= 1.0
            && self.multiplier >= 0.0;
        if ok {
            Ok(())
        } else {
            Err(EquinoxError::invalid_argument(
                "FlashCrowd",
                format!(
                    "need 0 ≤ start < start + duration ≤ 1 and a finite \
                     multiplier ≥ 0, got start {} duration {} multiplier {}",
                    self.start_frac, self.duration_frac, self.multiplier
                ),
            ))
        }
    }
}

/// ∫₀ˣ `load_at` in closed form: the raised sinusoid integrates to
/// `m·x + (c/τ)·sin(τx − π)` with `m` the trough/peak midpoint and `c`
/// the half-swing (the `sin(−π)` constant at `x = 0` is kept so the
/// antiderivative is exactly zero there in floating point too).
fn diurnal_integral(profile: &DiurnalProfile, x: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let m = 0.5 * (profile.trough + profile.peak);
    let c = 0.5 * (profile.peak - profile.trough);
    m * x + c / TAU * ((TAU * x - PI).sin() - (-PI).sin())
}

/// One piece of the piecewise cumulative intensity: a span of the
/// normalized day over which the flash-crowd multiplier is constant.
struct TraceSegment {
    x0: f64,
    x1: f64,
    /// Product of the multipliers of every crowd covering this span.
    mult: f64,
    /// Cumulative load-units at `x0` / `x1` (load fraction × day).
    cum0: f64,
    cum1: f64,
    /// `diurnal_integral` at `x0`, cached for the inversion.
    i0: f64,
    /// `mult·c·τ/8`: how far the cumulative intensity can bend away
    /// from its chord at a bracket's midpoint, per squared bracket
    /// width ([`TraceSegment::curvature`]).
    bend: f64,
    /// Twice the widened rounding bound `ε` of [`TraceSegment::cum_at`]
    /// (derived in [`build_segments`]).
    slack: f64,
}

impl TraceSegment {
    /// The computed cumulative intensity at `x`, the value every
    /// bisection decision compares with its target.
    fn cum_at(&self, profile: &DiurnalProfile, x: f64) -> f64 {
        self.cum0 + self.mult * (diurnal_integral(profile, x) - self.i0)
    }

    /// The curvature term `mult·c·τ·h²/8` of a bracket of width `h`.
    fn curvature(&self, h: f64) -> f64 {
        self.bend * h * h
    }

    /// Encloses [`TraceSegment::cum_at`] at the midpoint of `[lo, hi]`,
    /// given enclosures of it at `lo` and `hi` ([`CycleInverter`]).
    fn enclose_midpoint(&self, lo: f64, hi: f64, at_lo: Enclosure, at_hi: Enclosure) -> Enclosure {
        let w = self.curvature(hi - lo) + self.slack;
        Enclosure { min: 0.5 * (at_lo.min + at_hi.min) - w, max: 0.5 * (at_lo.max + at_hi.max) + w }
    }
}

fn build_segments(profile: &DiurnalProfile, crowds: &[FlashCrowd]) -> Vec<TraceSegment> {
    let mut cuts = vec![0.0, 1.0];
    for c in crowds {
        cuts.push(c.start_frac);
        cuts.push(c.end_frac());
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let m = 0.5 * (profile.trough + profile.peak);
    let c = 0.5 * (profile.peak - profile.trough);
    let mut segments = Vec::with_capacity(cuts.len());
    let mut cum = 0.0;
    for w in cuts.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        if x1 <= x0 {
            continue;
        }
        let mid = 0.5 * (x0 + x1);
        let mult: f64 = crowds
            .iter()
            .filter(|c| c.start_frac <= mid && mid < c.end_frac())
            .map(|c| c.multiplier)
            .product();
        let i0 = diurnal_integral(profile, x0);
        let cum1 = cum + mult * (diurnal_integral(profile, x1) - i0);
        // The rounding bound ε of `cum_at` on [x0, x1] ⊂ [0, 1]: how far
        // it can land from the same expression over the same float
        // constants (m, k = c/τ, τ, π, s0 = sin(−π), i0, mult, cum0)
        // evaluated exactly. With u = 2⁻⁵³, |sin| ≤ 1 and k < c/6:
        // - the sine's argument τ·x − π is off by ≤ u·τ + u·π < 9.5u;
        //   sin is 1-Lipschitz, libm's sin is within one ulp (≤ u here)
        //   and subtracting s0 rounds once more: ≤ 11.5u. The product
        //   with k rounds again: the sine term is off by ≤ 12.5u·k;
        // - m·x and the sum add ≤ u·m + u·(m + k), so the closed form I
        //   is off by ≤ u·(2m + 13.5k), and |I|, |i0| ≤ m + k;
        // - `− i0` adds ≤ 2u·(m + k); the product with mult scales all
        //   of it by mult and adds ≤ 2u·mult·(m + k); `cum0 +` adds
        //   ≤ u·|C| ≤ u·(|cum0| + 2·mult·(m + k)).
        // That totals ≤ mult·u·(8m + 19.5k) + u·|cum0| ≤ 8u·scale, with
        // scale = mult·(m + c) + |cum0| + |cum1|, so ε = 2⁻⁵⁰·scale. The
        // enclosures take `slack` = 2ε widened by 2¹⁰, which also covers
        // the rest of their own error, a few u·scale: the rounded
        // midpoint 0.5·(lo + hi) sits ≤ u from the true one, where the
        // slope is ≤ mult·(m + c), `bend` and h² round, and so does their
        // own arithmetic. The smallest normal covers underflow, and a
        // scale too large to sum safely disables the bounds.
        let scale = mult * (m + c) + cum.abs() + cum1.abs();
        let slack = if scale < f64::MAX / 8.0 {
            scale * 2f64.powi(-39) + f64::MIN_POSITIVE
        } else {
            f64::INFINITY
        };
        let bend = mult * c * std::f64::consts::TAU / 8.0;
        segments.push(TraceSegment { x0, x1, mult, cum0: cum, cum1, i0, bend, slack });
        cum = cum1;
    }
    segments
}

fn validate_trace(profile: &DiurnalProfile, crowds: &[FlashCrowd]) -> Result<(), EquinoxError> {
    if !(profile.trough.is_finite() && profile.peak.is_finite())
        || profile.trough < 0.0
        || profile.peak < profile.trough
    {
        return Err(EquinoxError::invalid_argument(
            "loadgen::trace",
            format!(
                "diurnal profile needs 0 ≤ trough ≤ peak, got trough {} peak {}",
                profile.trough, profile.peak
            ),
        ));
    }
    for c in crowds {
        c.validate()?;
    }
    Ok(())
}

/// Mean load fraction of the composed trace over the day: the diurnal
/// mean with each flash-crowd window's share scaled by its multiplier.
/// `trace_arrivals` at `rate_scale = load / trace_mean_load(...)`
/// offers exactly `load ×` the saturation volume in expectation — how
/// the fleet drivers pin "120 % offered load" against true capacity.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] on a malformed profile or crowd
/// window (see [`trace_arrivals`]).
pub fn trace_mean_load(
    profile: &DiurnalProfile,
    crowds: &[FlashCrowd],
) -> Result<f64, EquinoxError> {
    validate_trace(profile, crowds)?;
    Ok(build_segments(profile, crowds).last().map_or(0.0, |s| s.cum1))
}

/// A certified enclosure `[min, max]` of a computed cumulative
/// intensity.
#[derive(Debug, Clone, Copy)]
struct Enclosure {
    min: f64,
    max: f64,
}

impl Enclosure {
    /// No bound at all: decides nothing.
    const UNKNOWN: Enclosure = Enclosure { min: f64::NEG_INFINITY, max: f64::INFINITY };

    fn exact(v: f64) -> Self {
        Enclosure { min: v, max: v }
    }
}

/// One depth of the stored walk: its bracket, enclosures of the
/// computed intensity at the bracket's ends, and the targets that
/// certainly reach it.
#[derive(Debug, Clone, Copy)]
struct Level {
    lo: f64,
    hi: f64,
    at_lo: Enclosure,
    at_hi: Enclosure,
    /// Every target in `[floor, ceil)` takes the decisions that led to
    /// this bracket.
    floor: f64,
    ceil: f64,
    /// The enclosure this depth's midpoint was last decided on.
    at_mid: Option<Enclosure>,
}

/// Inverts the piecewise cumulative intensity to a horizon cycle, one
/// arrival after another: locates the segment covering a target in
/// load-units, then bisects the closed-form antiderivative inside it.
///
/// The result is the cycle `(x × horizon) as u64` of the bracket's
/// lower end after 64 halvings, bit for bit: each halving moves `lo` up
/// to the midpoint exactly when the computed intensity there,
/// [`TraceSegment::cum_at`], is at most the target. Three shortcuts
/// skip work, and none can change a decision:
///
/// - **Cycle resolution.** The walk stops as soon as both ends of the
///   bracket map to the same cycle. Every later bracket lies inside the
///   current one (a midpoint never leaves `[lo, hi]`), and
///   `x ↦ (x × horizon) as u64` is monotone in IEEE arithmetic, so the
///   64th `lo` maps to that cycle too.
/// - **Certified decisions.** On `[lo, hi]`, with `h = hi − lo`, the
///   exact closed form `F` bends away from its chord by at most
///   `max|F''|·h²/8 = mult·c·τ·h²/8` at the midpoint, `c` the
///   half-swing, and the computed intensity stays within a rounding
///   bound `ε` of `F` (derived in [`build_segments`]). So the computed
///   value at the midpoint lies within `mult·c·τ·h²/8 + 2ε`, `ε`
///   widened by 2¹⁰, of the mean of the computed values at the ends,
///   or of enclosures of them. The walk decides from that enclosure
///   and calls `diurnal_integral`, one libm `sin`, only when the target
///   falls inside it; the computed value then replaces it. The bounds
///   decide where the bracket's span dwarfs its curvature and
///   rounding: below the first few halvings on a day, and down to the
///   last few at the cycle resolution of a long horizon.
/// - **Resumption.** Each depth's bracket is stored with the targets
///   `[floor, ceil)` that certainly take every decision leading to it:
///   moving `lo` up raises `floor` to the top of the enclosure it was
///   decided on, moving `hi` down lowers `ceil` to its bottom. These
///   intervals nest with depth, so a binary search finds the deepest
///   stored bracket a new target reaches, and the walk resumes there,
///   reusing that depth's enclosure, in any order of targets. Walking
///   from there on overwrites the stored path; a segment change resets
///   it.
///
/// An arrival thus costs a binary search over at most 65 stored
/// levels, the new halvings below the resumed one, and a `sin` only
/// where a target lands within an enclosure's width of a midpoint's
/// value; [`trace_arrivals`] gives the measured figures.
struct CycleInverter<'a> {
    profile: &'a DiurnalProfile,
    segments: &'a [TraceSegment],
    horizon: f64,
    /// The segment the stored path bisects.
    segment: usize,
    /// The stored path, from the whole segment (depth 0) down.
    levels: Vec<Level>,
}

impl<'a> CycleInverter<'a> {
    fn new(profile: &'a DiurnalProfile, segments: &'a [TraceSegment], horizon_cycles: u64) -> Self {
        CycleInverter {
            profile,
            segments,
            horizon: horizon_cycles as f64,
            segment: usize::MAX,
            levels: Vec::with_capacity(65),
        }
    }

    /// The cycle at which the cumulative intensity reaches `target`.
    fn cycle(&mut self, target: f64) -> u64 {
        let horizon = self.horizon;
        let at = |x: f64| (x * horizon) as u64;
        let segments = self.segments;
        let i = segments.partition_point(|s| s.cum1 <= target).min(segments.len() - 1);
        let s = &segments[i];
        if s.mult <= 0.0 {
            return at(s.x0);
        }
        if i != self.segment {
            self.segment = i;
            self.levels.clear();
            self.levels.push(Level {
                lo: s.x0,
                hi: s.x1,
                at_lo: Enclosure::exact(s.cum0),
                at_hi: Enclosure::exact(s.cum1),
                floor: f64::NEG_INFINITY,
                ceil: f64::INFINITY,
                at_mid: None,
            });
        }
        // Depth 0 spans every target. The walk resumes at the deepest
        // level the target reaches and stores each level as it leaves it.
        let reached = self.levels.partition_point(|l| l.floor <= target && target < l.ceil);
        let mut level = self.levels[reached - 1];
        self.levels.truncate(reached - 1);
        let (mut lo_cycle, mut hi_cycle) = (at(level.lo), at(level.hi));
        loop {
            if self.levels.len() == 64 || lo_cycle == hi_cycle {
                self.levels.push(level);
                return lo_cycle;
            }
            let mid = 0.5 * (level.lo + level.hi);
            let e = level.at_mid.unwrap_or_else(|| {
                // The bounds decide only where they are tight: where the
                // curvature term is below the rounding slack, or below a
                // thirty-second of the bracket's certain rise per cycle,
                // so that the enclosure a decision leaves at a bracket end
                // stays narrow down to cycle resolution.
                let h = level.hi - level.lo;
                let bend = s.curvature(h);
                let rise = level.at_hi.min - level.at_lo.max;
                if bend <= s.slack || 32.0 * bend * h * horizon <= rise {
                    s.enclose_midpoint(level.lo, level.hi, level.at_lo, level.at_hi)
                } else {
                    Enclosure::UNKNOWN
                }
            });
            let e = if target >= e.max || target < e.min {
                e
            } else {
                Enclosure::exact(s.cum_at(self.profile, mid))
            };
            self.levels.push(Level { at_mid: Some(e), ..level });
            level.at_mid = None;
            if target >= e.max {
                level.lo = mid;
                level.at_lo = e;
                level.floor = level.floor.max(e.max);
                lo_cycle = at(mid);
            } else {
                level.hi = mid;
                level.at_hi = e;
                level.ceil = level.ceil.min(e.min);
                hi_cycle = at(mid);
            }
        }
    }
}

/// Generates a trace-scale arrival stream: non-homogeneous Poisson
/// traffic whose intensity is the diurnal profile composed with any
/// number of [`FlashCrowd`] windows, all scaled by `rate_scale`. At
/// fraction `x` of the horizon the instantaneous rate is
/// `rate_scale × load_at(x) × ∏ crowd multipliers × max_request_rate`.
///
/// Unlike the thinning in [`diurnal_arrivals`], this samples by *time
/// rescaling*: one fixed unit-rate exponential stream is mapped through
/// the inverse of the closed-form cumulative intensity. Two properties
/// fall out by construction and are load-bearing for the serving-layer
/// sweeps: the arrival **count is exactly monotone** in `rate_scale`
/// for a fixed seed (scaling only moves the cutoff down the same unit
/// stream), and every arrival is **strictly inside the horizon**
/// (`Simulation::run` rejects at/past-horizon arrivals).
///
/// The inverse is bisected only until it resolves to one cycle; each
/// arrival resumes at the deepest stored bracket it certainly reaches,
/// and decides most halvings from certified bounds on the closed form
/// rather than from libm's `sin` (see the inverter's docs for the
/// argument). The cycles are exactly those of a full 64-halving
/// bisection. On the fleet benchmark's 64-device day (≈190 k arrivals)
/// an arrival walks 7.6 new halvings and makes 0.23 `sin` calls, about
/// 210 ns, against 22.7 halvings and 6.6 calls, about 370 ns, when each
/// arrival re-walked the shared path; on the serving sweep's 11.16 M
/// arrivals over 5.5 × 10⁹ cycles, 11.6 halvings and 1.3 calls.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if `rate_scale` or the saturation
/// rate is negative or not finite, the profile has `trough < 0` or
/// `peak < trough`, or a crowd window is malformed (empty, outside
/// `[0, 1]`, or with a negative/non-finite multiplier).
pub fn trace_arrivals(
    profile: &DiurnalProfile,
    crowds: &[FlashCrowd],
    rate_scale: f64,
    max_request_rate_per_cycle: f64,
    horizon_cycles: u64,
    seed: u64,
) -> Result<Vec<u64>, EquinoxError> {
    for (name, v) in [("rate_scale", rate_scale), ("max rate", max_request_rate_per_cycle)] {
        if !v.is_finite() || v < 0.0 {
            return Err(EquinoxError::invalid_argument(
                "loadgen::trace_arrivals",
                format!("{name} must be finite and non-negative, got {v}"),
            ));
        }
    }
    validate_trace(profile, crowds)?;
    let segments = build_segments(profile, crowds);
    let total_units = segments.last().map_or(0.0, |s| s.cum1);
    // Expected arrivals per load-unit: the whole-day volume at 100 %.
    let volume = rate_scale * max_request_rate_per_cycle * horizon_cycles as f64;
    let mut arrivals = Vec::new();
    if volume <= 0.0 || total_units <= 0.0 {
        return Ok(arrivals);
    }
    let mut inverter = CycleInverter::new(profile, &segments, horizon_cycles);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut unit_t = 0.0f64;
    let mut last_cycle = 0u64;
    loop {
        let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
        unit_t += -u.ln();
        let target = unit_t / volume;
        if target >= total_units {
            break;
        }
        // The inversion is monotone up to one ulp of bisection noise;
        // clamping to the previous arrival keeps the stream sorted, and
        // the `min` keeps the last cycle strictly inside the horizon.
        let cycle = inverter.cycle(target).min(horizon_cycles - 1).max(last_cycle);
        last_cycle = cycle;
        arrivals.push(cycle);
    }
    Ok(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::check::for_each_case;

    #[test]
    fn poisson_properties_hold_across_rate_horizon_seed() {
        // The three properties the fleet router relies on, over random
        // (rate, horizon, seed) triples: monotonically non-decreasing
        // output, every arrival strictly inside the horizon, and
        // bitwise determinism for a fixed seed.
        for_each_case(64, 0x10AD_6E11, |g| {
            let rate = g.f64_in(1e-7, 5e-3);
            let horizon = g.usize_in(1, 4_000_000) as u64;
            let seed = g.next_u64();
            let a = poisson_arrivals(rate, horizon, seed).unwrap();
            let b = poisson_arrivals(rate, horizon, seed).unwrap();
            assert_eq!(a, b, "bitwise-deterministic for seed {seed}");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
            assert!(a.iter().all(|&t| t < horizon), "within horizon {horizon}");
        });
    }

    #[test]
    fn split_seed_is_deterministic_and_decorrelated() {
        for_each_case(64, 0x5EED_CA5E, |g| {
            let seed = g.next_u64();
            assert_eq!(split_seed(seed, 3), split_seed(seed, 3));
            // Distinct streams draw distinct seeds, and no stream
            // echoes the base seed back (so a derived arrival stream
            // never aliases one generated directly from `seed`).
            assert_ne!(split_seed(seed, 0), split_seed(seed, 1));
            assert_ne!(split_seed(seed, 1), split_seed(seed, 2));
            assert_ne!(split_seed(seed, 0), seed);
        });
    }

    #[test]
    fn split_streams_yield_independent_arrival_processes() {
        let a = poisson_arrivals(1e-4, 2_000_000, split_seed(9, 0)).unwrap();
        let b = poisson_arrivals(1e-4, 2_000_000, split_seed(9, 1)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = poisson_arrivals(1e-4, 1_000_000, 7).unwrap();
        let b = poisson_arrivals(1e-4, 1_000_000, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = poisson_arrivals(1e-4, 1_000_000, 7).unwrap();
        let b = poisson_arrivals(1e-4, 1_000_000, 8).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        let a = poisson_arrivals(1e-3, 500_000, 3).unwrap();
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 500_000));
    }

    #[test]
    fn rate_matches_count_statistically() {
        let a = poisson_arrivals(1e-3, 10_000_000, 1).unwrap();
        let expected = 10_000.0;
        let got = a.len() as f64;
        assert!((got - expected).abs() < 5.0 * expected.sqrt(), "{got}");
    }

    #[test]
    fn zero_rate_empty() {
        assert!(poisson_arrivals(0.0, 1_000_000, 1).unwrap().is_empty());
    }

    #[test]
    fn negative_rate_is_invalid_argument() {
        let err = poisson_arrivals(-1e-3, 1_000_000, 1).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("poisson_arrivals"));
    }

    #[test]
    fn nan_rate_is_invalid_argument() {
        let err = poisson_arrivals(f64::NAN, 1_000_000, 1).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        let err = poisson_arrivals(f64::INFINITY, 1_000_000, 1).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
    }

    #[test]
    fn load_to_rate() {
        assert_eq!(rate_for_load(0.5, 1e-3).unwrap(), 5e-4);
        assert_eq!(rate_for_load(0.0, 1e-3).unwrap(), 0.0);
    }

    #[test]
    fn negative_load_is_invalid_argument() {
        let err = rate_for_load(-0.1, 1.0).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("rate_for_load"));
        assert!(rate_for_load(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn diurnal_profile_shape() {
        let p = DiurnalProfile::thirty_percent_average();
        // Peak at midday (t = 0.5), trough at midnight (t = 0).
        assert!((p.load_at(0.0) - p.trough).abs() < 1e-9);
        assert!((p.load_at(0.5) - p.peak).abs() < 1e-9);
        assert!((p.mean_load() - 0.35).abs() < 0.06);
        // Monotone rise through the morning.
        assert!(p.load_at(0.25) > p.load_at(0.1));
    }

    #[test]
    fn diurnal_arrivals_track_profile() {
        let p = DiurnalProfile::thirty_percent_average();
        let horizon = 40_000_000u64;
        let arrivals = diurnal_arrivals(&p, 1e-3, horizon, 9).unwrap();
        // Total volume ≈ mean load × peak-equivalent volume.
        let expected = p.mean_load() * 1e-3 * horizon as f64;
        let got = arrivals.len() as f64;
        assert!((got - expected).abs() < 6.0 * expected.sqrt(), "{got} vs {expected}");
        // Midday density exceeds midnight density several-fold.
        let in_window = |lo: f64, hi: f64| {
            arrivals
                .iter()
                .filter(|&&t| {
                    let x = t as f64 / horizon as f64;
                    x >= lo && x < hi
                })
                .count() as f64
        };
        let night = in_window(0.0, 0.1) + in_window(0.9, 1.0);
        let midday = in_window(0.45, 0.65);
        assert!(midday > 2.0 * night, "midday {midday} vs night {night}");
    }

    #[test]
    fn diurnal_arrivals_sorted_and_deterministic() {
        let p = DiurnalProfile::thirty_percent_average();
        let a = diurnal_arrivals(&p, 1e-4, 10_000_000, 3).unwrap();
        let b = diurnal_arrivals(&p, 1e-4, 10_000_000, 3).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A random-but-valid trace composition for the property tests.
    fn random_trace(g: &mut equinox_arith::rng::SplitMix64) -> (DiurnalProfile, Vec<FlashCrowd>) {
        let trough = g.f64_in(0.0, 0.4);
        let profile = DiurnalProfile { trough, peak: trough + g.f64_in(0.05, 0.6) };
        let crowds = (0..g.usize_in(0, 3))
            .map(|_| {
                let start_frac = g.f64_in(0.0, 0.8);
                FlashCrowd {
                    start_frac,
                    duration_frac: g.f64_in(0.01, 1.0 - start_frac),
                    multiplier: g.f64_in(0.0, 4.0),
                }
            })
            .collect();
        (profile, crowds)
    }

    /// The specification [`CycleInverter`] is held to: locate the
    /// covering segment, then halve the bracket 64 times, to one ulp,
    /// and return its lower end.
    fn invert_cumulative(profile: &DiurnalProfile, segments: &[TraceSegment], target: f64) -> f64 {
        let i = segments.partition_point(|s| s.cum1 <= target).min(segments.len() - 1);
        let s = &segments[i];
        if s.mult <= 0.0 {
            return s.x0;
        }
        let (mut lo, mut hi) = (s.x0, s.x1);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if s.cum0 + s.mult * (diurnal_integral(profile, mid) - s.i0) <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The brackets `(lo, hi)` the specification halves on its way to
    /// `target`, one per halving, with the segment they lie in.
    fn specification_walk<'s>(
        profile: &DiurnalProfile,
        segments: &'s [TraceSegment],
        target: f64,
    ) -> (&'s TraceSegment, Vec<(f64, f64)>) {
        let i = segments.partition_point(|s| s.cum1 <= target).min(segments.len() - 1);
        let s = &segments[i];
        let (mut lo, mut hi) = (s.x0, s.x1);
        let mut walk = Vec::with_capacity(64);
        for _ in 0..64 {
            walk.push((lo, hi));
            let mid = 0.5 * (lo + hi);
            if s.cum_at(profile, mid) <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (s, walk)
    }

    /// [`trace_arrivals`] with every arrival inverted by the
    /// specification. The targets are drawn in blocks, and each block is
    /// inverted on two threads: 64 halvings per arrival are the slow
    /// part.
    fn reference_trace(
        profile: &DiurnalProfile,
        crowds: &[FlashCrowd],
        max_rate: f64,
        horizon_cycles: u64,
        seed: u64,
    ) -> Vec<u64> {
        let segments = build_segments(profile, crowds);
        let total_units = segments.last().map_or(0.0, |s| s.cum1);
        let volume = max_rate * horizon_cycles as f64;
        let mut arrivals = Vec::new();
        if volume <= 0.0 || total_units <= 0.0 {
            return arrivals;
        }
        let mut rng = SplitMix64::seed_from_u64(seed);
        let (mut unit_t, mut last_cycle) = (0.0f64, 0u64);
        let mut block = Vec::new();
        loop {
            block.clear();
            let mut done = false;
            while !done && block.len() < 1 << 20 {
                unit_t += -rng.next_f64().max(f64::MIN_POSITIVE).ln();
                let target = unit_t / volume;
                done = target >= total_units;
                if !done {
                    block.push(target);
                }
            }
            let half = block.len() / 2;
            let (first, second) = block.split_at_mut(half);
            let invert = |half: &mut [f64]| {
                half.iter_mut().for_each(|t| *t = invert_cumulative(profile, &segments, *t));
            };
            std::thread::scope(|scope| {
                scope.spawn(|| invert(first));
                invert(second);
            });
            for &x in &block {
                let cycle =
                    ((x * horizon_cycles as f64) as u64).min(horizon_cycles - 1).max(last_cycle);
                last_cycle = cycle;
                arrivals.push(cycle);
            }
            if done {
                return arrivals;
            }
        }
    }

    /// Asserts that `trace_arrivals` reproduces the specification's
    /// stream of about `expected` arrivals over `horizon_cycles`.
    fn assert_matches_specification(
        profile: &DiurnalProfile,
        crowds: &[FlashCrowd],
        horizon_cycles: u64,
        expected: f64,
        seed: u64,
    ) {
        let mean = trace_mean_load(profile, crowds).unwrap();
        let max_rate = if mean > 0.0 { expected / (mean * horizon_cycles as f64) } else { 1.0 };
        let got = trace_arrivals(profile, crowds, 1.0, max_rate, horizon_cycles, seed).unwrap();
        let want = reference_trace(profile, crowds, max_rate, horizon_cycles, seed);
        assert_eq!(got.len(), want.len(), "{profile:?} {crowds:?} horizon {horizon_cycles}");
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "arrival {i} at cycle {} instead of {} ({profile:?} {crowds:?} horizon \
                 {horizon_cycles} seed {seed})",
                got[i], want[i]
            );
        }
    }

    #[test]
    fn trace_stream_matches_the_64_halving_specification() {
        // Random compositions over horizons from one cycle to 2⁶³, with
        // zero troughs and total brownouts drawn often.
        for_each_case(256, 0x1_5EC7_10E5, |g| {
            let (mut profile, mut crowds) = random_trace(g);
            if g.usize_in(0, 4) == 0 {
                profile.trough = 0.0;
            }
            if let Some(c) = crowds.first_mut().filter(|_| g.next_bool()) {
                c.multiplier = 0.0;
            }
            let horizon = (g.next_u64() >> g.usize_in(1, 64)).max(1);
            let expected = g.usize_in(1, 4_000) as f64;
            assert_matches_specification(&profile, &crowds, horizon, expected, g.next_u64());
        });
    }

    #[test]
    fn trace_stream_matches_the_specification_at_the_edges() {
        let day = DiurnalProfile::thirty_percent_average();
        let crowd = FlashCrowd { start_frac: 0.55, duration_frac: 0.08, multiplier: 2.5 };
        let brownout = FlashCrowd { start_frac: 0.2, duration_frac: 0.3, multiplier: 0.0 };
        let no_trough = DiurnalProfile { trough: 0.0, peak: 0.6 };
        let cases: [(&DiurnalProfile, &[FlashCrowd], u64); 6] = [
            // One cycle: every arrival lands on cycle 0.
            (&day, &[crowd], 1),
            // Past 2⁵³ adjacent floats land more than one cycle apart.
            (&day, &[crowd], (1 << 60) + 12_345),
            (&day, &[crowd], u64::MAX),
            // The rate reaches zero at midnight.
            (&no_trough, &[], 1_000_000),
            // A crowd that stops all traffic for 30 % of the day.
            (&day, &[brownout, crowd], 10_000_000),
            (&no_trough, &[brownout], 10_000_000),
        ];
        for (profile, crowds, horizon) in cases {
            assert_matches_specification(profile, crowds, horizon, 3_000.0, 23);
        }
    }

    #[test]
    fn inverter_matches_the_specification_on_segment_boundaries() {
        // Targets exactly on, and one ulp either side of, every
        // segment's ends, plus a run just past the day's start, where
        // the bracket is still wide relative to its ulp after 63
        // halvings: visited in ascending order, then in a scrambled
        // order that keeps switching segments and abandoning the stored
        // path deep down.
        let profile = DiurnalProfile::thirty_percent_average();
        let crowds = [
            FlashCrowd { start_frac: 0.1, duration_frac: 0.15, multiplier: 0.0 },
            FlashCrowd { start_frac: 0.2, duration_frac: 0.3, multiplier: 3.0 },
            FlashCrowd { start_frac: 0.55, duration_frac: 0.08, multiplier: 2.5 },
        ];
        let segments = build_segments(&profile, &crowds);
        let total = segments.last().unwrap().cum1;
        let mut targets: Vec<f64> = segments
            .iter()
            .flat_map(|s| [s.cum0, s.cum1])
            .flat_map(|c| [f64::from_bits(c.to_bits().saturating_sub(1)), c, c.next_up()])
            .chain((1..=400).map(|k| total * k as f64 * 1e-7))
            .filter(|&t| (0.0..total).contains(&t))
            .collect();
        targets.sort_by(f64::total_cmp);
        let scrambled: Vec<f64> =
            (0..targets.len()).map(|i| targets[(i * 7) % targets.len()]).collect();
        for horizon in [1, 1_000, 5_883_000, 150_000_000, 1 << 60, u64::MAX] {
            let mut inverter = CycleInverter::new(&profile, &segments, horizon);
            for &t in targets.iter().chain(&scrambled) {
                let want = (invert_cumulative(&profile, &segments, t) * horizon as f64) as u64;
                assert_eq!(inverter.cycle(t), want, "target {t:e} horizon {horizon}");
            }
        }
    }

    /// A random composition for the inversion properties: zero troughs
    /// and total brownouts drawn often.
    fn random_inversion_trace(
        g: &mut equinox_arith::rng::SplitMix64,
    ) -> (DiurnalProfile, Vec<FlashCrowd>) {
        let (mut profile, mut crowds) = random_trace(g);
        if g.usize_in(0, 4) == 0 {
            profile.trough = 0.0;
        }
        if let Some(c) = crowds.first_mut().filter(|_| g.usize_in(0, 4) == 0) {
            c.multiplier = 0.0;
        }
        (profile, crowds)
    }

    #[test]
    fn targets_at_and_around_midpoint_values_match_the_specification() {
        // The decisions the bounds must get right are those whose target
        // sits on, or a few ulps from, a midpoint's computed intensity:
        // take those values at random depths of the specification's walks
        // towards random targets, and visit them in ascending, scrambled
        // and random order, over horizons from one cycle to u64::MAX.
        for_each_case(96, 0x4D1D_7A26, |g| {
            let (profile, crowds) = random_inversion_trace(g);
            let segments = build_segments(&profile, &crowds);
            let total = segments.last().map_or(0.0, |s| s.cum1);
            if total <= 0.0 {
                return;
            }
            let horizon = if g.usize_in(0, 8) == 0 {
                u64::MAX
            } else {
                (g.next_u64() >> g.usize_in(0, 64)).max(1)
            };
            let mut targets = Vec::new();
            for _ in 0..40 {
                let (s, walk) = specification_walk(&profile, &segments, g.f64_in(0.0, total));
                for _ in 0..3 {
                    let (lo, hi) = walk[g.usize_in(0, walk.len())];
                    let mut t = s.cum_at(&profile, 0.5 * (lo + hi));
                    for _ in 0..4 {
                        t = t.next_down();
                    }
                    for _ in 0..9 {
                        targets.push(t);
                        t = t.next_up();
                    }
                }
            }
            targets.retain(|t| (0.0..total).contains(t));
            let mut ascending = targets.clone();
            ascending.sort_by(f64::total_cmp);
            // Alternately from the two ends: every step switches far.
            let scrambled: Vec<f64> = (0..ascending.len())
                .map(|i| if i % 2 == 0 { ascending[i / 2] } else { ascending[ascending.len() - 1 - i / 2] })
                .collect();
            let mut random = targets;
            for i in (1..random.len()).rev() {
                random.swap(i, g.usize_in(0, i + 1));
            }
            for order in [&ascending, &scrambled, &random] {
                let mut inverter = CycleInverter::new(&profile, &segments, horizon);
                for &t in order.iter() {
                    let want = (invert_cumulative(&profile, &segments, t) * horizon as f64) as u64;
                    assert_eq!(
                        inverter.cycle(t),
                        want,
                        "target {t:e} horizon {horizon} ({profile:?} {crowds:?})"
                    );
                }
            }
        });
    }

    #[test]
    fn enclosures_contain_the_computed_intensity() {
        // At every midpoint of random specification walks, the computed
        // intensity lies inside the enclosure predicted from the computed
        // values at the bracket's ends, and inside the one predicted from
        // enclosures of them, chained from the segment's ends as the
        // inverter chains them. The first holds with the rounding slack
        // cut 2⁸-fold too: the derivation has room to spare.
        for_each_case(128, 0xE4C1_05ED, |g| {
            let (profile, crowds) = random_inversion_trace(g);
            let segments = build_segments(&profile, &crowds);
            let total = segments.last().map_or(0.0, |s| s.cum1);
            if total <= 0.0 {
                return;
            }
            for _ in 0..8 {
                let target = g.f64_in(0.0, total);
                let (s, walk) = specification_walk(&profile, &segments, target);
                if s.mult <= 0.0 {
                    continue;
                }
                let (mut at_lo, mut at_hi) = (Enclosure::exact(s.cum0), Enclosure::exact(s.cum1));
                for &(lo, hi) in &walk {
                    let mid = 0.5 * (lo + hi);
                    let c = s.cum_at(&profile, mid);
                    let inside = |e: Enclosure| e.min <= c && c <= e.max;
                    let exact_ends = s.enclose_midpoint(
                        lo,
                        hi,
                        Enclosure::exact(s.cum_at(&profile, lo)),
                        Enclosure::exact(s.cum_at(&profile, hi)),
                    );
                    let margin = s.slack - s.slack / 256.0;
                    let narrow =
                        Enclosure { min: exact_ends.min + margin, max: exact_ends.max - margin };
                    let chained = s.enclose_midpoint(lo, hi, at_lo, at_hi);
                    assert!(
                        inside(exact_ends) && inside(narrow) && inside(chained),
                        "C({mid:e}) = {c:e} outside {exact_ends:?} / {narrow:?} / \
                         {chained:?} ({profile:?} {crowds:?})"
                    );
                    if c <= target {
                        at_lo = chained;
                    } else {
                        at_hi = chained;
                    }
                }
            }
        });
    }

    #[test]
    #[ignore = "about 10 s in release; scripts/check.sh runs it"]
    fn the_scaled_serve_stream_matches_the_specification() {
        // The `serve` sweep's scaled cell: 64 fitted LSTM devices (batch
        // 186 in 294 150 cycles) at load 0.05 over 18 750 batch
        // intervals, about 11.16 M arrivals, each held to the 64-halving
        // specification.
        let profile = DiurnalProfile::thirty_percent_average();
        let crowds = [FlashCrowd { start_frac: 0.55, duration_frac: 0.08, multiplier: 2.5 }];
        let rate_scale = 0.05 / trace_mean_load(&profile, &crowds).unwrap();
        let max_rate = 64.0 * 186.0 / 294_150.0;
        let horizon = 18_750 * 294_150;
        let seed = split_seed(42, 0);
        let got = trace_arrivals(&profile, &crowds, rate_scale, max_rate, horizon, seed).unwrap();
        let want = reference_trace(&profile, &crowds, rate_scale * max_rate, horizon, seed);
        assert!(got.len() > 11_000_000, "{} arrivals", got.len());
        assert_eq!(got.len(), want.len());
        if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!("arrival {i} at cycle {} instead of {}", got[i], want[i]);
        }
    }

    #[test]
    fn trace_is_deterministic_under_split_seed_and_in_horizon() {
        for_each_case(64, 0x7ACE_D5EED, |g| {
            let (profile, crowds) = random_trace(g);
            let horizon = g.usize_in(1, 1_000_000) as u64;
            let seed = split_seed(g.next_u64(), g.next_u64() & 0xFF);
            let a = trace_arrivals(&profile, &crowds, 1.0, 1e-3, horizon, seed).unwrap();
            let b = trace_arrivals(&profile, &crowds, 1.0, 1e-3, horizon, seed).unwrap();
            assert_eq!(a, b, "bitwise-deterministic for derived seed {seed}");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
            assert!(a.iter().all(|&t| t < horizon), "strictly inside horizon {horizon}");
        });
    }

    #[test]
    fn trace_distinct_split_streams_decorrelate() {
        let p = DiurnalProfile::thirty_percent_average();
        let crowds = [FlashCrowd { start_frac: 0.5, duration_frac: 0.1, multiplier: 3.0 }];
        let a = trace_arrivals(&p, &crowds, 1.0, 1e-3, 2_000_000, split_seed(9, 0)).unwrap();
        let b = trace_arrivals(&p, &crowds, 1.0, 1e-3, 2_000_000, split_seed(9, 1)).unwrap();
        assert!(a.len() > 100 && b.len() > 100);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_count_is_exactly_monotone_in_rate_scale() {
        // Not merely statistically monotone: time rescaling maps one
        // fixed unit-rate stream through the scaled cumulative
        // intensity, so raising the scale can only extend the accepted
        // prefix. Every sampled scale pair must order exactly.
        for_each_case(64, 0x7ACE_5CA1E, |g| {
            let (profile, crowds) = random_trace(g);
            let horizon = g.usize_in(10_000, 1_000_000) as u64;
            let seed = g.next_u64();
            let s1 = g.f64_in(0.0, 1.5);
            let s2 = s1 + g.f64_in(0.0, 1.5);
            let a = trace_arrivals(&profile, &crowds, s1, 1e-3, horizon, seed).unwrap();
            let b = trace_arrivals(&profile, &crowds, s2, 1e-3, horizon, seed).unwrap();
            assert!(
                a.len() <= b.len(),
                "scale {s1} gave {} arrivals but scale {s2} gave {}",
                a.len(),
                b.len()
            );
        });
    }

    #[test]
    fn trace_crowd_window_concentrates_density() {
        // A 5× crowd over [0.4, 0.5) of a flat profile: the window's
        // arrival density must be ≈5× the outside density.
        let flat = DiurnalProfile { trough: 0.3, peak: 0.3 };
        let crowds = [FlashCrowd { start_frac: 0.4, duration_frac: 0.1, multiplier: 5.0 }];
        let horizon = 20_000_000u64;
        let a = trace_arrivals(&flat, &crowds, 1.0, 1e-3, horizon, 11).unwrap();
        let density = |lo: f64, hi: f64| {
            let n = a
                .iter()
                .filter(|&&t| {
                    let x = t as f64 / horizon as f64;
                    x >= lo && x < hi
                })
                .count();
            n as f64 / (hi - lo)
        };
        let inside = density(0.4, 0.5);
        let outside = (density(0.0, 0.4) + density(0.5, 1.0)) / 2.0;
        assert!(
            (inside / outside - 5.0).abs() < 0.5,
            "crowd density ratio {} (inside {inside}, outside {outside})",
            inside / outside
        );
        // And the mean-load closed form accounts for the crowd mass.
        let mean = trace_mean_load(&flat, &crowds).unwrap();
        assert!((mean - 0.3 * 1.4).abs() < 1e-9, "{mean}");
        let expected = mean * 1e-3 * horizon as f64;
        let got = a.len() as f64;
        assert!((got - expected).abs() < 6.0 * expected.sqrt(), "{got} vs {expected}");
    }

    #[test]
    fn trace_without_crowds_tracks_the_diurnal_day() {
        let p = DiurnalProfile::thirty_percent_average();
        let horizon = 40_000_000u64;
        let a = trace_arrivals(&p, &[], 1.0, 1e-3, horizon, 9).unwrap();
        let expected = p.mean_load() * 1e-3 * horizon as f64;
        let got = a.len() as f64;
        assert!((got - expected).abs() < 6.0 * expected.sqrt(), "{got} vs {expected}");
        let in_window = |lo: f64, hi: f64| {
            a.iter()
                .filter(|&&t| {
                    let x = t as f64 / horizon as f64;
                    x >= lo && x < hi
                })
                .count() as f64
        };
        let night = in_window(0.0, 0.1) + in_window(0.9, 1.0);
        let midday = in_window(0.45, 0.65);
        assert!(midday > 2.0 * night, "midday {midday} vs night {night}");
    }

    #[test]
    fn trace_rejects_malformed_inputs() {
        let p = DiurnalProfile::thirty_percent_average();
        let crowd = |s, d, m| FlashCrowd { start_frac: s, duration_frac: d, multiplier: m };
        for bad in [
            crowd(-0.1, 0.2, 2.0),
            crowd(0.5, 0.6, 2.0),
            crowd(0.5, 0.0, 2.0),
            crowd(0.5, 0.1, -1.0),
            crowd(0.5, 0.1, f64::NAN),
        ] {
            let err = trace_arrivals(&p, &[bad], 1.0, 1e-3, 1_000, 1).unwrap_err();
            assert_eq!(err.kind(), "invalid-argument", "{bad:?}");
        }
        let bad_profile = DiurnalProfile { trough: 0.5, peak: 0.2 };
        assert!(trace_arrivals(&bad_profile, &[], 1.0, 1e-3, 1_000, 1).is_err());
        assert!(trace_arrivals(&p, &[], f64::NAN, 1e-3, 1_000, 1).is_err());
        assert!(trace_arrivals(&p, &[], -1.0, 1e-3, 1_000, 1).is_err());
        assert!(trace_mean_load(&bad_profile, &[]).is_err());
        // Degenerate-but-valid inputs produce empty streams, not errors.
        assert!(trace_arrivals(&p, &[], 0.0, 1e-3, 1_000, 1).unwrap().is_empty());
        assert!(trace_arrivals(&p, &[], 1.0, 1e-3, 0, 1).unwrap().is_empty());
    }
}
