//! Packet-level fleet interconnect: links, switches, flows, and
//! gradient all-reduce schedules.
//!
//! `equinox-fleet` models devices as independent queues, so fleet-wide
//! harvested training never paid for combining gradients. This crate
//! supplies the missing layer: a discrete-event packet simulation of
//! the fabric between the devices, on which ring and tree all-reduce
//! schedules move each free epoch's gradient bytes between the
//! harvesting half of the fleet — contending with the inference DMA
//! and harvest-staging traffic that already occupies every device's
//! host link.
//!
//! # Model
//!
//! * **Links** ([`LinkSpec`]) are point-to-point and store-and-forward:
//!   a serialization rate in bytes/cycle, a fixed propagation latency,
//!   and a bounded FIFO queue in bytes. Every device hangs off the
//!   fabric through a duplex pair — `up[i]` (device → fabric) and
//!   `down[i]` (fabric → device) — modelling its DRAM/host interface.
//! * **Topologies** ([`Topology`]): `one_big_switch` (a single
//!   non-blocking crossbar — every route is `up[a] → down[b]`), a
//!   unidirectional switch `ring`, and a 2-level `tree` (leaf switches
//!   of `leaf_group` devices under one root).
//! * **Switching** ([`SwitchPolicy`]): `drop_tail` drops the arriving
//!   packet when the next queue is full; `pfc` parks it in the next
//!   link's headroom slot and pauses the upstream transmitter until
//!   the queue drains (priority-flow-control semantics, which makes
//!   backpressure cycles — and therefore deadlock — representable on
//!   cyclic routes).
//! * **Flows** are go-back-N: a window of outstanding packets,
//!   cumulative acks (returned at propagation latency, uncontended),
//!   a retransmission timeout, and a bounded budget of *consecutive*
//!   fruitless timeouts after which the flow aborts. Progress resets
//!   the budget, so a congested-but-live path never aborts while a
//!   deadlocked one always does.
//! * **Background traffic**: each device's inference DMA and
//!   harvest-staging demand is injected as deterministically spaced
//!   packets on its `down` link, so gradient flows see a loaded
//!   fabric, and the queueing delay those DMA packets pick up under
//!   congestion is measured (it is the interconnect's tail-latency
//!   contribution).
//!
//! # Determinism
//!
//! The event loop is single-threaded and totally ordered: events pop
//! by `(cycle, insertion sequence)`, so ties break by insertion order
//! and a round's outcome is a pure function of
//! ([`InterconnectSpec`], participants, background demand, seed).
//! Every event is scheduled a delay after the current cycle, and the
//! queue keeps one FIFO lane per distinct delay (serialization,
//! propagation, ack latency, timeout, each background comb's period)
//! plus a small heap over the lanes' heads. Because the clock never
//! runs backwards, each lane is already sorted by `(cycle, sequence)`,
//! so the queue pops exactly the order one heap over every pending
//! event would — the lanes change the cost, never the outcome. The
//! only randomness is the per-device phase of the background injection
//! combs, drawn from a `SplitMix64` seeded by the caller — the fleet
//! layer passes `split_seed(seed, 1 << 33)` (stream `1 << 33` is the
//! interconnect's, far above the per-device streams; see
//! `equinox-fleet`'s crate docs for the stream map). Nothing here
//! reads the thread pool, so artifacts derived from this crate are
//! byte-identical at any `EQUINOX_THREADS`.
//!
//! # Gradient values
//!
//! [`reduce_gradients`] carries the *value* side of a round for the
//! schedule-invariance property: gradients are fixed-point `i64`
//! (HBFP training accumulates in integer mantissas), and wrapping
//! integer addition is associative and commutative — so the ring's
//! chunked reduce-scatter and the tree's pairwise fold produce
//! bitwise-identical sums, which the property suite asserts.

pub mod allreduce;
pub mod fabric;
mod queue;
pub mod report;
pub mod sim;
pub mod spec;

pub use allreduce::{reduce_gradients, run_allreduce_round, schedule_steps, StepFlow};
pub use fabric::Fabric;
pub use report::{LinkReport, RoundOutcome};
pub use spec::{AllReduceSchedule, InterconnectSpec, LinkSpec, SwitchPolicy, Topology};
