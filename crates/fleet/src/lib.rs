//! # equinox-fleet
//!
//! Multi-accelerator cluster simulation: N Equinox devices behind a
//! request router, with fleet-level SLO and free-training ("harvest")
//! accounting.
//!
//! The paper evaluates one device; a production deployment serves its
//! traffic from a fleet. This crate composes the per-device machinery
//! that already exists — the `equinox-sim` engine, its Poisson and
//! trace-day load generators, fault injection, and the SLO monitor —
//! into a system-level study: one arrival stream enters a front-end router,
//! each request is dispatched to a device under a pluggable
//! [`RoutingPolicy`], every device then runs the full event-driven
//! simulation of its share of the traffic, and the per-device reports
//! are merged into a [`FleetReport`].
//!
//! ## Determinism contract
//!
//! A fleet run is a pure function of ([`Fleet`], [`FleetRunOptions`]).
//! Routing is a single serial pass over the merged arrival stream (the
//! router's fluid backlog model needs no device feedback, see
//! [`routing`]), after which the per-device simulations are
//! embarrassingly parallel: they run on the `equinox-par` pool and are
//! merged **by device index**, so every rendered report is
//! byte-identical at any thread count. The determinism golden test and
//! the CI smoke compare `EQUINOX_THREADS=1` against the default pool.
//!
//! ## Seed derivation
//!
//! All randomness derives from the one `seed` in [`FleetRunOptions`]
//! via [`equinox_sim::loadgen::split_seed`]: stream 0 seeds the
//! fleet-wide arrival process, stream 1 the router's
//! power-of-two-choices draws, stream `2 + i` is reserved for device
//! `i` (per-device fault burst traffic, or the fitted surrogate's
//! per-batch draws — never both, fitted devices are fault-free),
//! stream `1 << 32` draws each request's paid/free class, and stream
//! `1 << 33` seeds the interconnect's background-traffic phases (see
//! [`sync`]). Adding a device, switching the routing or admission
//! policy, changing the paid fraction, or attaching an interconnect
//! therefore never perturbs the offered traffic itself.
//!
//! ## The serving layer
//!
//! Overload is handled at the fleet edge, not in device queues: an
//! [`AdmissionSpec`] policy (admit-all, deadline-aware drop, token
//! buckets, paid/free priority — see [`admission`]) decides each
//! arrival's fate right after routing picks a candidate, and an
//! optional [`AutoscalePolicy`] ([`autoscale`]) grows and shrinks the
//! active device set reactively, draining (never dropping) the queues
//! of departing devices. Both run inside the serial routing pass, so
//! the determinism contract is unchanged. Per-tier accounting lands in
//! the report's [`equinox_sim::ClassLedger`]s.
//!
//! ## Why a training-aware policy
//!
//! Measured harvest (Figure 9, `results/fig9_training.csv`) is concave
//! in device load: flat up to ≈50 % load, falling steeply after. On a
//! homogeneous all-harvesting fleet, even spreading is therefore
//! already near-optimal — the policy that wins is the one that keeps
//! *mixed* fleets (only some devices co-host training) asymmetric:
//! [`RoutingPolicy::TrainingAware`] steers inference toward the
//! inference-only devices until they saturate, holding the harvesting
//! devices in the flat region of the harvest curve.

pub mod admission;
pub mod autoscale;
pub mod cluster;
pub mod device;
pub mod fitted;
pub mod report;
pub mod routing;
pub mod surrogate;
pub mod sync;

pub use admission::{AdmissionContext, AdmissionDecision, AdmissionPolicy, AdmissionSpec};
pub use autoscale::{AutoscalePolicy, ScalingKind, ScalingSpan};
pub use cluster::{ArrivalSource, Fleet, FleetRunOptions};
pub use device::{DeviceSpec, Fidelity};
pub use equinox_net::{AllReduceSchedule, InterconnectSpec, LinkSpec, SwitchPolicy, Topology};
pub use fitted::{sorted_quantile, FittedDraw, FittedTable, QuantileGrid, GRID_POINTS, MAX_STRETCH};
pub use report::{DeviceOutcome, FleetReport, EPOCH_SAMPLES};
pub use routing::RoutingPolicy;
pub use sync::SyncReport;
