//! Admission control at the fleet front end.
//!
//! The router decides *where* a request goes; an admission policy
//! decides *whether* it goes at all. Under overload the only choices
//! are unbounded queues (admit-all), bounded queues with explicit
//! rejections (token buckets, deadline-aware drop), or bounded queues
//! with *class-aware* rejections (priority admission: free-tier
//! requests are shed first, and paid spill is steered onto harvesting
//! devices only as the last resort, so harvest is preempted last).
//!
//! Like routing, admission runs in the single serial pass over the
//! merged arrival stream, so its state (token buckets) needs no device
//! feedback and fleet runs stay deterministic at any thread count. All
//! decisions are recorded per [`RequestClass`] in the fleet's class
//! ledgers — a shed request is an SLO violation by definition, so the
//! honest ledger is what makes "holds paid p999 under overload"
//! falsifiable.

use crate::device::DeviceSpec;
use equinox_isa::EquinoxError;
use equinox_sim::RequestClass;

/// Declarative admission-policy selection for one fleet run.
///
/// `rate_x` parameters are fractions of each device's saturation rate
/// ([`DeviceSpec::max_request_rate_per_s`]); `*_batches` parameters
/// are multiples of each device's batch size, so heterogeneous fleets
/// get per-device budgets automatically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionSpec {
    /// Every request is admitted (the pre-serving-layer behaviour, and
    /// the overload baseline the gated sweep must show violating).
    AdmitAll,
    /// A request is admitted only if the candidate device's estimated
    /// backlog plus one batch service still fits inside
    /// `slack_x × deadline` — the request would otherwise already be
    /// doomed, so shedding it early protects the queue behind it.
    /// Admits everything when the run carries no SLO.
    DeadlineAware {
        /// Fraction of the deadline the backlog may consume.
        slack_x: f64,
    },
    /// Per-device token bucket: tokens refill at `rate_x ×` the
    /// device's saturation rate and cap at `burst_batches` batches;
    /// each admission spends one token. Class-blind.
    TokenBucket {
        /// Sustained admission rate, as a fraction of device saturation.
        rate_x: f64,
        /// Bucket capacity, in multiples of the device's batch size.
        burst_batches: f64,
    },
    /// Token bucket with paid/free tiers. Free requests must leave
    /// `free_reserve_batches` of tokens in the candidate's bucket and
    /// never spill — they are shed first. Paid requests may spill to
    /// any active device with a token: non-harvesting devices in
    /// ascending-backlog order first, harvesting devices last, so
    /// training is preempted only when the whole serving tier is out
    /// of budget.
    Priority {
        /// Sustained admission rate, as a fraction of device saturation.
        rate_x: f64,
        /// Bucket capacity, in multiples of the device's batch size.
        burst_batches: f64,
        /// Tokens (in batches) a free-tier request must leave behind.
        free_reserve_batches: f64,
    },
}

impl AdmissionSpec {
    /// The default deadline-aware policy (80 % of the deadline may be
    /// queued ahead of an admitted request).
    pub fn deadline_aware_default() -> Self {
        AdmissionSpec::DeadlineAware { slack_x: 0.8 }
    }

    /// The default token bucket (95 % of saturation sustained, 4
    /// batches of burst).
    pub fn token_bucket_default() -> Self {
        AdmissionSpec::TokenBucket { rate_x: 0.95, burst_batches: 4.0 }
    }

    /// The default priority policy (token-bucket defaults plus one
    /// batch of tokens reserved from the free tier).
    pub fn priority_default() -> Self {
        AdmissionSpec::Priority { rate_x: 0.95, burst_batches: 4.0, free_reserve_batches: 1.0 }
    }

    /// All four policies at their default parameters, in canonical
    /// sweep order.
    pub fn all_default() -> Vec<AdmissionSpec> {
        vec![
            AdmissionSpec::AdmitAll,
            AdmissionSpec::deadline_aware_default(),
            AdmissionSpec::token_bucket_default(),
            AdmissionSpec::priority_default(),
        ]
    }

    /// Stable identifier used in sweep artifacts and reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionSpec::AdmitAll => "admit_all",
            AdmissionSpec::DeadlineAware { .. } => "deadline_aware",
            AdmissionSpec::TokenBucket { .. } => "token_bucket",
            AdmissionSpec::Priority { .. } => "priority",
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] for non-finite or
    /// non-positive rates/slacks/bursts, or a negative free reserve.
    pub fn validate(&self) -> Result<(), EquinoxError> {
        let positive = |what: &str, v: f64| -> Result<(), EquinoxError> {
            if !v.is_finite() || v <= 0.0 {
                return Err(EquinoxError::invalid_argument(
                    "AdmissionSpec::validate",
                    format!("{what} must be finite and positive, got {v}"),
                ));
            }
            Ok(())
        };
        match *self {
            AdmissionSpec::AdmitAll => Ok(()),
            AdmissionSpec::DeadlineAware { slack_x } => positive("slack_x", slack_x),
            AdmissionSpec::TokenBucket { rate_x, burst_batches } => {
                positive("rate_x", rate_x)?;
                positive("burst_batches", burst_batches)
            }
            AdmissionSpec::Priority { rate_x, burst_batches, free_reserve_batches } => {
                positive("rate_x", rate_x)?;
                positive("burst_batches", burst_batches)?;
                if !free_reserve_batches.is_finite() || free_reserve_batches < 0.0 {
                    return Err(EquinoxError::invalid_argument(
                        "AdmissionSpec::validate",
                        format!(
                            "free_reserve_batches must be finite and non-negative, \
                             got {free_reserve_batches}"
                        ),
                    ));
                }
                Ok(())
            }
        }
    }

    /// Instantiates the policy (its mutable budget state sized for
    /// `devices`).
    pub fn build(&self, devices: &[DeviceSpec]) -> Box<dyn AdmissionPolicy> {
        match *self {
            AdmissionSpec::AdmitAll => Box::new(AdmitAll),
            AdmissionSpec::DeadlineAware { slack_x } => Box::new(DeadlineAware { slack_x }),
            AdmissionSpec::TokenBucket { rate_x, burst_batches } => {
                Box::new(TokenBucket { buckets: Bucket::fleet(devices, rate_x, burst_batches) })
            }
            AdmissionSpec::Priority { rate_x, burst_batches, free_reserve_batches } => {
                Box::new(Priority {
                    buckets: Bucket::fleet(devices, rate_x, burst_batches),
                    free_reserve: devices
                        .iter()
                        .map(|d| free_reserve_batches * d.timing.batch as f64)
                        .collect(),
                })
            }
        }
    }
}

/// Everything a policy may consult for one decision.
pub struct AdmissionContext<'a> {
    /// Arrival time, reference-clock seconds.
    pub t_s: f64,
    /// The request's priority tier.
    pub class: RequestClass,
    /// The device the routing policy chose.
    pub candidate: usize,
    /// The router's fluid backlog estimates, seconds, per device.
    pub backlog_s: &'a [f64],
    /// The fleet's device specifications.
    pub devices: &'a [DeviceSpec],
    /// Devices currently serving (ascending indices); the candidate is
    /// always one of them.
    pub active: &'a [usize],
    /// The run's per-request deadline, if any.
    pub deadline_s: Option<f64>,
}

/// The verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Serve on the router's candidate device.
    Admit,
    /// Serve, but on this device instead (priority spill).
    AdmitOn(usize),
    /// Reject before service.
    Shed,
}

/// A token bucket tracking one device's admission budget.
#[derive(Debug, Clone)]
struct Bucket {
    tokens: f64,
    last_s: f64,
    rate_per_s: f64,
    capacity: f64,
}

impl Bucket {
    fn fleet(devices: &[DeviceSpec], rate_x: f64, burst_batches: f64) -> Vec<Bucket> {
        devices
            .iter()
            .map(|d| {
                let capacity = burst_batches * d.timing.batch as f64;
                Bucket {
                    tokens: capacity,
                    last_s: 0.0,
                    rate_per_s: rate_x * d.max_request_rate_per_s(),
                    capacity,
                }
            })
            .collect()
    }

    /// Lazily refills up to `t_s`, then spends one token if the
    /// balance is at least `floor`.
    fn spend(&mut self, t_s: f64, floor: f64) -> bool {
        let dt = (t_s - self.last_s).max(0.0);
        self.last_s = t_s;
        self.tokens = (self.tokens + dt * self.rate_per_s).min(self.capacity);
        let spent = self.tokens >= floor;
        if spent {
            self.tokens -= 1.0;
        }
        spent
    }
}

/// One fleet run's admission policy: consulted once per arrival, in
/// the serial routing pass, after the routing policy has picked its
/// candidate and before the request is dispatched. Implementations
/// must be deterministic functions of their own state and the context
/// — they run on the merged stream, so any hidden nondeterminism would
/// break the fleet's byte-identical-at-any-thread-count contract.
pub trait AdmissionPolicy {
    /// Stable identifier (matches [`AdmissionSpec::name`]).
    fn name(&self) -> &'static str;

    /// Decides one request's fate, updating any budget state.
    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionDecision;
}

/// [`AdmissionSpec::AdmitAll`].
struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &'static str {
        "admit_all"
    }

    fn decide(&mut self, _ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        AdmissionDecision::Admit
    }
}

/// [`AdmissionSpec::DeadlineAware`].
struct DeadlineAware {
    slack_x: f64,
}

impl AdmissionPolicy for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline_aware"
    }

    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        let Some(deadline_s) = ctx.deadline_s else { return AdmissionDecision::Admit };
        let d = ctx.candidate;
        let eta_s = ctx.backlog_s[d] + ctx.devices[d].service_time_s();
        if eta_s <= self.slack_x * deadline_s {
            AdmissionDecision::Admit
        } else {
            AdmissionDecision::Shed
        }
    }
}

/// [`AdmissionSpec::TokenBucket`].
struct TokenBucket {
    buckets: Vec<Bucket>,
}

impl AdmissionPolicy for TokenBucket {
    fn name(&self) -> &'static str {
        "token_bucket"
    }

    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        if self.buckets[ctx.candidate].spend(ctx.t_s, 1.0) {
            AdmissionDecision::Admit
        } else {
            AdmissionDecision::Shed
        }
    }
}

/// [`AdmissionSpec::Priority`]. A paid request tries its candidate's
/// bucket first and sorts the rest of the active set into
/// [`spill_order`] only when the candidate refuses, so on a fleet with
/// budget to spare a paid decision costs one bucket, not a sort.
struct Priority {
    buckets: Vec<Bucket>,
    /// Tokens a free-tier request must leave behind, per device.
    free_reserve: Vec<f64>,
}

impl AdmissionPolicy for Priority {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
        match ctx.class {
            RequestClass::Free => {
                // Free tier: candidate only, and it must leave the
                // paid reserve untouched. Shed first.
                let d = ctx.candidate;
                if self.buckets[d].spend(ctx.t_s, 1.0 + self.free_reserve[d]) {
                    AdmissionDecision::Admit
                } else {
                    AdmissionDecision::Shed
                }
            }
            RequestClass::Paid => {
                // Paid tier: candidate first, then spill across the
                // active set — non-harvesting devices in ascending
                // backlog order before harvesting ones, so harvest is
                // preempted only as the last resort.
                if self.buckets[ctx.candidate].spend(ctx.t_s, 1.0) {
                    return AdmissionDecision::Admit;
                }
                spill_order(ctx)
                    .find(|&d| self.buckets[d].spend(ctx.t_s, 1.0))
                    .map_or(AdmissionDecision::Shed, AdmissionDecision::AdmitOn)
            }
        }
    }
}

/// Paid-spill order once the candidate has refused: the other active
/// non-harvesting devices by ascending backlog, then the other active
/// harvesting devices by ascending backlog (ties break to the lower
/// index — fully deterministic). The candidate is not in it. Trying
/// the candidate before building this order refills the same buckets
/// in the same sequence as trying it at the head of the order would,
/// so every decision and every bucket balance is the same either way.
fn spill_order(ctx: &AdmissionContext<'_>) -> impl Iterator<Item = usize> {
    // Each device's sort key is built once, not once per comparison.
    let mut rest: Vec<(bool, f64, usize)> = ctx
        .active
        .iter()
        .filter(|&&d| d != ctx.candidate)
        .map(|&d| (ctx.devices[d].harvests(), ctx.backlog_s[d], d))
        .collect();
    rest.sort_by(|a, b| a.partial_cmp(b).expect("backlogs are finite"));
    rest.into_iter().map(|(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::test_device;
    use equinox_arith::check::for_each_case;

    fn ctx<'a>(
        t_s: f64,
        class: RequestClass,
        candidate: usize,
        backlog_s: &'a [f64],
        devices: &'a [DeviceSpec],
        active: &'a [usize],
        deadline_s: Option<f64>,
    ) -> AdmissionContext<'a> {
        AdmissionContext { t_s, class, candidate, backlog_s, devices, active, deadline_s }
    }

    #[test]
    fn names_and_defaults_are_stable() {
        let names: Vec<&str> = AdmissionSpec::all_default().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["admit_all", "deadline_aware", "token_bucket", "priority"]);
        let devices = vec![test_device("d0", 1e9, false)];
        for s in AdmissionSpec::all_default() {
            s.validate().unwrap();
            assert_eq!(s.build(&devices).name(), s.name());
        }
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        for bad in [
            AdmissionSpec::DeadlineAware { slack_x: 0.0 },
            AdmissionSpec::TokenBucket { rate_x: f64::NAN, burst_batches: 4.0 },
            AdmissionSpec::TokenBucket { rate_x: 0.9, burst_batches: -1.0 },
            AdmissionSpec::Priority { rate_x: 0.9, burst_batches: 4.0, free_reserve_batches: -0.5 },
        ] {
            assert_eq!(bad.validate().unwrap_err().kind(), "invalid-argument", "{bad:?}");
        }
    }

    #[test]
    fn deadline_aware_sheds_doomed_requests() {
        let devices = vec![test_device("d0", 1e9, false)];
        let mut p = AdmissionSpec::DeadlineAware { slack_x: 0.5 }.build(&devices);
        let deadline = Some(16.0 * devices[0].service_time_s());
        // Empty backlog: one service time ≤ 8 service times of slack.
        let ok = ctx(0.0, RequestClass::Paid, 0, &[0.0], &devices, &[0], deadline);
        assert_eq!(p.decide(&ok), AdmissionDecision::Admit);
        // Backlog past the slack: shed.
        let doomed_backlog = [9.0 * devices[0].service_time_s()];
        let bad = ctx(0.0, RequestClass::Paid, 0, &doomed_backlog, &devices, &[0], deadline);
        assert_eq!(p.decide(&bad), AdmissionDecision::Shed);
        // No SLO attached: everything is admitted.
        let free_run = ctx(0.0, RequestClass::Paid, 0, &doomed_backlog, &devices, &[0], None);
        assert_eq!(p.decide(&free_run), AdmissionDecision::Admit);
    }

    #[test]
    fn token_bucket_spends_bursts_and_refills() {
        let devices = vec![test_device("d0", 1e9, false)];
        let spec = AdmissionSpec::TokenBucket { rate_x: 1.0, burst_batches: 1.0 };
        let mut p = spec.build(&devices);
        // Burst capacity is one batch = 16 tokens at t = 0.
        for i in 0..16 {
            let c = ctx(0.0, RequestClass::Paid, 0, &[0.0], &devices, &[0], None);
            assert_eq!(p.decide(&c), AdmissionDecision::Admit, "token {i}");
        }
        let c = ctx(0.0, RequestClass::Paid, 0, &[0.0], &devices, &[0], None);
        assert_eq!(p.decide(&c), AdmissionDecision::Shed, "bucket exhausted");
        // One request's worth of wall time refills one token.
        let t = devices[0].work_per_request_s();
        let c = ctx(t, RequestClass::Paid, 0, &[0.0], &devices, &[0], None);
        assert_eq!(p.decide(&c), AdmissionDecision::Admit);
    }

    #[test]
    fn priority_sheds_free_first_and_spills_paid_to_harvesting_last() {
        // d0 non-harvesting (the candidate), d1 non-harvesting with
        // more backlog, d2 harvesting and idle.
        let devices = vec![
            test_device("d0", 1e9, false),
            test_device("d1", 1e9, false),
            test_device("d2", 1e9, true),
        ];
        let spec = AdmissionSpec::Priority {
            rate_x: 1.0,
            burst_batches: 1.0,
            free_reserve_batches: 0.5,
        };
        let mut p = spec.build(&devices);
        let active = [0, 1, 2];
        let backlog = [0.0, 1e-6, 0.0];
        // Drain d0 to below the free reserve (8 tokens) but not empty.
        for _ in 0..10 {
            let c = ctx(0.0, RequestClass::Paid, 0, &backlog, &devices, &active, None);
            assert_eq!(p.decide(&c), AdmissionDecision::Admit);
        }
        // A free request now fails the reserve check and must NOT spill.
        let c = ctx(0.0, RequestClass::Free, 0, &backlog, &devices, &active, None);
        assert_eq!(p.decide(&c), AdmissionDecision::Shed, "free tier is shed first");
        // Paid requests keep landing on d0 until its bucket is empty…
        for _ in 0..6 {
            let c = ctx(0.0, RequestClass::Paid, 0, &backlog, &devices, &active, None);
            assert_eq!(p.decide(&c), AdmissionDecision::Admit);
        }
        // …then spill to the non-harvesting d1, not the idle harvester.
        let c = ctx(0.0, RequestClass::Paid, 0, &backlog, &devices, &active, None);
        assert_eq!(p.decide(&c), AdmissionDecision::AdmitOn(1), "harvest preempted last");
        // Once d1 is also dry, paid finally spills onto the harvester.
        for _ in 0..15 {
            let c = ctx(0.0, RequestClass::Paid, 0, &backlog, &devices, &active, None);
            p.decide(&c);
        }
        let c = ctx(0.0, RequestClass::Paid, 0, &backlog, &devices, &active, None);
        assert_eq!(p.decide(&c), AdmissionDecision::AdmitOn(2));
        // And when every active bucket is dry, even paid is shed.
        for _ in 0..16 {
            let c = ctx(0.0, RequestClass::Paid, 0, &backlog, &devices, &active, None);
            p.decide(&c);
        }
        let c = ctx(0.0, RequestClass::Paid, 0, &backlog, &devices, &active, None);
        assert_eq!(p.decide(&c), AdmissionDecision::Shed);
    }

    #[test]
    fn priority_respects_the_active_set() {
        let devices = vec![
            test_device("d0", 1e9, false),
            test_device("d1", 1e9, false),
            test_device("d2", 1e9, true),
        ];
        let spec =
            AdmissionSpec::Priority { rate_x: 1.0, burst_batches: 1.0, free_reserve_batches: 0.0 };
        let mut p = spec.build(&devices);
        // Only d0 and d2 are active; drain d0 dry.
        let active = [0, 2];
        for _ in 0..16 {
            let c = ctx(0.0, RequestClass::Paid, 0, &[0.0; 3], &devices, &active, None);
            p.decide(&c);
        }
        // Paid spill must skip the inactive d1 even though it has
        // tokens, landing on the active harvester d2.
        let c = ctx(0.0, RequestClass::Paid, 0, &[0.0; 3], &devices, &active, None);
        assert_eq!(p.decide(&c), AdmissionDecision::AdmitOn(2));
    }

    /// The sort-first priority policy the lazy one must reproduce: every
    /// paid request collects and sorts the whole active set, candidate
    /// at the head, before it tries a bucket.
    struct SortFirst {
        buckets: Vec<Bucket>,
        free_reserve: Vec<f64>,
    }

    impl SortFirst {
        fn refill_to(b: &mut Bucket, t_s: f64) -> f64 {
            let dt = (t_s - b.last_s).max(0.0);
            b.last_s = t_s;
            b.tokens = (b.tokens + dt * b.rate_per_s).min(b.capacity);
            b.tokens
        }

        fn order(ctx: &AdmissionContext<'_>) -> impl Iterator<Item = usize> {
            let mut rest: Vec<(bool, f64, usize)> = ctx
                .active
                .iter()
                .filter(|&&d| d != ctx.candidate)
                .map(|&d| (ctx.devices[d].harvests(), ctx.backlog_s[d], d))
                .collect();
            rest.sort_by(|a, b| a.partial_cmp(b).expect("backlogs are finite"));
            std::iter::once(ctx.candidate).chain(rest.into_iter().map(|(_, _, d)| d))
        }

        fn decide(&mut self, ctx: &AdmissionContext<'_>) -> AdmissionDecision {
            match ctx.class {
                RequestClass::Free => {
                    let d = ctx.candidate;
                    let b = &mut self.buckets[d];
                    if Self::refill_to(b, ctx.t_s) >= 1.0 + self.free_reserve[d] {
                        b.tokens -= 1.0;
                        AdmissionDecision::Admit
                    } else {
                        AdmissionDecision::Shed
                    }
                }
                RequestClass::Paid => {
                    for d in Self::order(ctx) {
                        let b = &mut self.buckets[d];
                        if Self::refill_to(b, ctx.t_s) >= 1.0 {
                            b.tokens -= 1.0;
                            return if d == ctx.candidate {
                                AdmissionDecision::Admit
                            } else {
                                AdmissionDecision::AdmitOn(d)
                            };
                        }
                    }
                    AdmissionDecision::Shed
                }
            }
        }
    }

    #[test]
    fn lazy_spill_matches_the_sort_first_reference() {
        // Random fleets, harvest flags, starting balances and budgets;
        // per request a random class, active subset holding the
        // candidate, and backlogs drawn from four levels so that ties
        // are common. Every decision and every final balance must
        // match the reference bit for bit.
        let mut seen = [0usize; 3];
        for_each_case(64, 0x5_9111_0DE5, |g| {
            let n = g.usize_in(1, 10);
            let devices: Vec<DeviceSpec> =
                (0..n).map(|i| test_device(&format!("d{i}"), 1e9, g.next_bool())).collect();
            let mut buckets = Bucket::fleet(&devices, g.f64_in(0.2, 1.5), g.f64_in(0.1, 2.0));
            for b in &mut buckets {
                b.tokens = g.f64_in(0.0, b.capacity);
            }
            let free_reserve: Vec<f64> = devices
                .iter()
                .map(|d| g.f64_in(0.0, 1.0) * d.timing.batch as f64)
                .collect();
            let mut lazy =
                Priority { buckets: buckets.clone(), free_reserve: free_reserve.clone() };
            let mut reference = SortFirst { buckets, free_reserve };
            let levels = [0.0, 1e-6, 2e-6, 5e-6];
            let spacing_s = devices[0].work_per_request_s() / n as f64;
            let mut t_s = 0.0;
            for step in 0..300 {
                if g.usize_in(0, 4) != 0 {
                    t_s += g.f64_in(0.0, 2.0) * spacing_s;
                }
                let backlog: Vec<f64> = (0..n).map(|_| levels[g.usize_in(0, 4)]).collect();
                let candidate = g.usize_in(0, n);
                let active: Vec<usize> =
                    (0..n).filter(|&d| d == candidate || g.usize_in(0, 4) != 0).collect();
                let class =
                    if g.usize_in(0, 4) == 0 { RequestClass::Free } else { RequestClass::Paid };
                let c = ctx(t_s, class, candidate, &backlog, &devices, &active, None);
                let decision = lazy.decide(&c);
                assert_eq!(decision, reference.decide(&c), "request {step}");
                seen[match decision {
                    AdmissionDecision::Admit => 0,
                    AdmissionDecision::AdmitOn(_) => 1,
                    AdmissionDecision::Shed => 2,
                }] += 1;
            }
            for (d, (a, b)) in lazy.buckets.iter().zip(&reference.buckets).enumerate() {
                assert_eq!(
                    (a.tokens.to_bits(), a.last_s.to_bits()),
                    (b.tokens.to_bits(), b.last_s.to_bits()),
                    "bucket {d}: {a:?} vs {b:?}"
                );
            }
        });
        assert!(seen.iter().all(|&k| k > 100), "admit / spill / shed counts {seen:?}");
    }
}
