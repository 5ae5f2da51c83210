//! Pluggable request-routing policies and the router's fluid load
//! model.
//!
//! The router dispatches the merged arrival stream in one serial pass,
//! which keeps fleet runs deterministic and lets the per-device engine
//! simulations run embarrassingly parallel afterwards. To do that
//! without device feedback, the router tracks what a real front-end
//! load balancer tracks: a *fluid estimate* of each device's
//! outstanding work — it knows what it dispatched and each device's
//! nominal saturation service rate, not the device's internal batching
//! state. A dispatch adds one request's worth of service seconds; the
//! estimate drains linearly between arrivals.

use crate::device::DeviceSpec;
use equinox_arith::rng::SplitMix64;

/// Routing policy of the fleet front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingPolicy {
    /// Requests cycle through devices in index order, oblivious to
    /// state and heterogeneity.
    RoundRobin,
    /// Each request goes to the device with the least estimated
    /// outstanding work, in seconds (so heterogeneous devices compare
    /// fairly). Ties break to the lowest index.
    LeastOutstanding,
    /// Power-of-two-choices: two candidates are drawn from the seeded
    /// router stream and the request goes to the less loaded one — the
    /// classic randomized balancer with exponentially better imbalance
    /// than one choice.
    PowerOfTwo,
    /// Steers load away from devices currently harvesting free-training
    /// epochs. Inference-only devices take requests first
    /// (least-outstanding among those under `busy_cap_batches` of
    /// estimated backlog); only when every preferred device is at its
    /// cap does load spill onto harvesting devices, least-outstanding.
    ///
    /// Rationale: measured harvest is concave in device load (flat to
    /// ≈50 %, steep after — Figure 9), so shielding the harvesting
    /// devices buys training throughput roughly for free until the
    /// preferred devices run out of headroom. The cap bounds the
    /// latency cost of the asymmetry: a preferred device is never
    /// loaded beyond `busy_cap_batches` service times of backlog while
    /// any alternative exists.
    TrainingAware {
        /// Backlog cap on preferred (non-harvesting) devices, in
        /// multiples of their own batch service time.
        busy_cap_batches: f64,
    },
}

impl RoutingPolicy {
    /// The default training-aware policy (cap of 3 batch service
    /// times, comfortably inside a 16×-service-time deadline SLO).
    pub fn training_aware_default() -> Self {
        RoutingPolicy::TrainingAware { busy_cap_batches: 3.0 }
    }

    /// Stable identifier used in sweep artifacts and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round_robin",
            RoutingPolicy::LeastOutstanding => "least_outstanding",
            RoutingPolicy::PowerOfTwo => "power_of_two",
            RoutingPolicy::TrainingAware { .. } => "training_aware",
        }
    }

    /// All four policies at their default parameters, in canonical
    /// sweep order.
    pub fn all_default() -> Vec<RoutingPolicy> {
        vec![
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstanding,
            RoutingPolicy::PowerOfTwo,
            RoutingPolicy::training_aware_default(),
        ]
    }
}

/// The front-end dispatcher (see the module docs for the fluid model).
pub(crate) struct Router<'a> {
    devices: &'a [DeviceSpec],
    policy: RoutingPolicy,
    /// Estimated outstanding work per device, seconds.
    backlog_s: Vec<f64>,
    /// Backlog below which `TrainingAware` prefers each device, seconds:
    /// `busy_cap_batches` of its batch service time, or −∞ for a
    /// harvesting device, which is never preferred. Empty under the
    /// other policies.
    preferred_below_s: Vec<f64>,
    /// One request's service seconds per device (its backlog charge).
    work_per_request_s: Vec<f64>,
    /// Timestamp of the last backlog decay, seconds.
    last_s: f64,
    /// Round-robin cursor.
    cursor: usize,
    /// Candidate draws for power-of-two-choices.
    rng: SplitMix64,
}

impl<'a> Router<'a> {
    /// A router over `devices` with the policy's randomness seeded from
    /// the dedicated router stream.
    pub(crate) fn new(devices: &'a [DeviceSpec], policy: RoutingPolicy, seed: u64) -> Self {
        let preferred_below_s = match policy {
            RoutingPolicy::TrainingAware { busy_cap_batches } => devices
                .iter()
                .map(|d| {
                    if d.harvests() {
                        f64::NEG_INFINITY
                    } else {
                        busy_cap_batches * d.service_time_s()
                    }
                })
                .collect(),
            _ => Vec::new(),
        };
        Router {
            devices,
            policy,
            backlog_s: vec![0.0; devices.len()],
            preferred_below_s,
            work_per_request_s: devices.iter().map(DeviceSpec::work_per_request_s).collect(),
            last_s: 0.0,
            cursor: 0,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Drains every backlog estimate at the device's saturation rate
    /// for the wall time elapsed since the previous arrival.
    pub(crate) fn decay_to(&mut self, t_s: f64) {
        let dt = (t_s - self.last_s).max(0.0);
        self.last_s = t_s;
        for b in &mut self.backlog_s {
            *b = (*b - dt).max(0.0);
        }
    }

    /// The current fluid backlog estimates, seconds, per device (what
    /// the autoscaler and admission policies consult).
    pub(crate) fn backlogs(&self) -> &[f64] {
        &self.backlog_s
    }

    /// The least-loaded device among `candidates` (ties break to the
    /// lowest index; `candidates` must be ascending for that to hold).
    fn least_of(&self, candidates: impl Iterator<Item = usize>) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for d in candidates {
            let b = self.backlog_s[d];
            if best.is_none_or(|(_, bb)| b < bb) {
                best = Some((d, b));
            }
        }
        best.map(|(d, _)| d)
    }

    /// Picks a candidate device from `active` (ascending indices,
    /// non-empty) without charging it — the admission layer decides
    /// whether (and where) the request is actually dispatched. With
    /// the full device list this reproduces the pre-admission routing
    /// decisions bit for bit.
    pub(crate) fn pick(&mut self, active: &[usize]) -> usize {
        debug_assert!(!active.is_empty(), "the active set is never empty");
        match self.policy {
            RoutingPolicy::RoundRobin => {
                // The smallest active index at or past the cursor,
                // wrapping to the smallest overall.
                let pos = active.partition_point(|&d| d < self.cursor);
                let d = if pos < active.len() { active[pos] } else { active[0] };
                self.cursor = (d + 1) % self.devices.len();
                d
            }
            RoutingPolicy::LeastOutstanding => {
                self.least_of(active.iter().copied()).expect("fleet is non-empty")
            }
            RoutingPolicy::PowerOfTwo => {
                let i = self.rng.usize_in(0, active.len());
                let j = self.rng.usize_in(0, active.len());
                let (lo, hi) = (i.min(j), i.max(j));
                // least_of needs ascending candidates for the tie-break.
                self.least_of([active[lo], active[hi]].into_iter()).expect("two candidates")
            }
            RoutingPolicy::TrainingAware { .. } => {
                let preferred = active
                    .iter()
                    .copied()
                    .filter(|&d| self.backlog_s[d] < self.preferred_below_s[d]);
                self.least_of(preferred)
                    .or_else(|| self.least_of(active.iter().copied()))
                    .expect("fleet is non-empty")
            }
        }
    }

    /// Charges one request's worth of service seconds to `d`'s backlog
    /// estimate (called once the request is actually dispatched).
    pub(crate) fn charge(&mut self, d: usize) {
        self.backlog_s[d] += self.work_per_request_s[d];
    }

    /// Routes one request arriving at `t_s` seconds with every device
    /// eligible, returning the chosen device index and charging its
    /// backlog estimate. (The production pass drives
    /// `decay_to`/`pick`/`charge` separately so admission can veto the
    /// dispatch; this composed form is the routing tests' harness.)
    #[cfg(test)]
    pub(crate) fn route(&mut self, t_s: f64) -> usize {
        self.decay_to(t_s);
        let all: Vec<usize> = (0..self.devices.len()).collect();
        let d = self.pick(&all);
        self.charge(d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::test_device;

    fn fleet(n: usize, harvesting: &[usize]) -> Vec<DeviceSpec> {
        (0..n)
            .map(|i| test_device(&format!("d{i}"), 1e9, harvesting.contains(&i)))
            .collect()
    }

    #[test]
    fn round_robin_cycles_in_index_order() {
        let devices = fleet(3, &[]);
        let mut r = Router::new(&devices, RoutingPolicy::RoundRobin, 1);
        let picks: Vec<usize> = (0..7).map(|i| r.route(i as f64 * 1e-6)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_outstanding_balances_and_breaks_ties_low() {
        let devices = fleet(3, &[]);
        let mut r = Router::new(&devices, RoutingPolicy::LeastOutstanding, 1);
        // All empty: tie breaks to 0; then 0 carries work, so 1, then 2.
        assert_eq!(r.route(0.0), 0);
        assert_eq!(r.route(0.0), 1);
        assert_eq!(r.route(0.0), 2);
        // Round two at the same instant: all equal again, back to 0.
        assert_eq!(r.route(0.0), 0);
    }

    #[test]
    fn backlog_decays_between_arrivals() {
        let devices = fleet(2, &[]);
        let mut r = Router::new(&devices, RoutingPolicy::LeastOutstanding, 1);
        // A burst of simultaneous requests spreads across both devices.
        for _ in 0..10 {
            r.route(0.0);
        }
        // Far in the future every estimate has drained to zero and the
        // tie-break returns to device 0.
        assert_eq!(r.route(1.0), 0);
    }

    #[test]
    fn power_of_two_is_deterministic_for_a_seed() {
        let devices = fleet(4, &[]);
        let picks = |seed: u64| -> Vec<usize> {
            let mut r = Router::new(&devices, RoutingPolicy::PowerOfTwo, seed);
            (0..32).map(|i| r.route(i as f64 * 1e-7)).collect()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different streams draw differently");
    }

    #[test]
    fn training_aware_prefers_inference_only_devices() {
        let devices = fleet(4, &[2, 3]);
        let mut r = Router::new(&devices, RoutingPolicy::training_aware_default(), 1);
        // Simultaneous burst: fills 0 and 1 up to the cap before ever
        // touching the harvesting devices 2 and 3.
        let cap_batches = 3.0;
        let per_device =
            (cap_batches * devices[0].service_time_s() / devices[0].work_per_request_s()).ceil()
                as usize;
        let mut picks = Vec::new();
        for _ in 0..2 * per_device + 8 {
            picks.push(r.route(0.0));
        }
        // It does spill once the preferred devices are saturated…
        let first_harvesting = picks
            .iter()
            .position(|&d| d >= 2)
            .expect("burst past the cap must spill to harvesting devices");
        // …but only after the preferred devices absorbed (at least)
        // their cap each.
        assert!(
            first_harvesting >= 2 * per_device - 2,
            "spilled to a harvesting device after {first_harvesting} picks (cap {per_device}/device)"
        );
    }

    #[test]
    fn training_aware_degenerates_to_least_outstanding() {
        // All devices harvest: no preferred set, so the policy must
        // match plain least-outstanding-work.
        let devices = fleet(3, &[0, 1, 2]);
        let mut ta = Router::new(&devices, RoutingPolicy::training_aware_default(), 1);
        let mut lo = Router::new(&devices, RoutingPolicy::LeastOutstanding, 1);
        for i in 0..64 {
            let t = i as f64 * 3e-7;
            assert_eq!(ta.route(t), lo.route(t));
        }
    }

    #[test]
    fn picks_respect_the_active_set() {
        let devices = fleet(4, &[3]);
        // Round-robin skips drained devices but keeps cycling.
        let mut r = Router::new(&devices, RoutingPolicy::RoundRobin, 1);
        r.decay_to(0.0);
        let active = [1, 3];
        let picks: Vec<usize> = (0..4)
            .map(|_| {
                let d = r.pick(&active);
                r.charge(d);
                d
            })
            .collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
        // Every policy stays inside the active set, even when its
        // preferred devices are drained.
        for policy in RoutingPolicy::all_default() {
            let mut r = Router::new(&devices, policy, 1);
            r.decay_to(0.0);
            for _ in 0..32 {
                let d = r.pick(&active);
                assert!(active.contains(&d), "{} picked drained {d}", policy.name());
                r.charge(d);
            }
        }
    }

    #[test]
    fn policy_names_are_stable() {
        let names: Vec<&str> =
            RoutingPolicy::all_default().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["round_robin", "least_outstanding", "power_of_two", "training_aware"]
        );
    }
}
