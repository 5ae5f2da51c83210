//! The deterministic discrete-event packet engine.
//!
//! Single-threaded by construction: events pop in `(cycle, insertion
//! sequence)` order, so simultaneous events process in insertion order
//! and every run is a pure function of its inputs. See the crate docs
//! for the link, switching, flow, and background models this engine
//! implements.
//!
//! Every event is scheduled a fixed delay after the current cycle, and
//! the engine uses only a few distinct delays: serialization of a
//! packet size, propagation latency, an ack's route latency, the
//! retransmission timeout, each background comb's period, and each
//! comb's one-shot phase. The event queue (`queue::LaneQueue`) keeps
//! one FIFO lane per distinct delay and a small binary heap over the
//! lanes' heads. The clock never runs backwards, so each lane fills in
//! `(cycle, sequence)` order and the earliest lane head is the earliest
//! pending event: the queue pops exactly the sequence a single binary
//! heap over every pending event would, while its heap holds a few
//! lanes instead of every packet in flight. The scheduling call takes
//! the delay, not an absolute cycle, so an event in the past cannot be
//! expressed.
//!
//! Conservation invariant (asserted by the workspace property suite):
//! for every link, *offered* bytes equal *delivered* plus *dropped*
//! plus *still queued* — a packet being serialized keeps occupying its
//! queue bytes until transmission completes, and a packet refused by a
//! full drop-tail queue is counted both offered and dropped at that
//! link.

use crate::allreduce::StepFlow;
use crate::fabric::Fabric;
use crate::queue::LaneQueue;
use crate::report::{LinkReport, RoundOutcome};
use crate::spec::{InterconnectSpec, SwitchPolicy};
use std::collections::{BTreeMap, VecDeque};

/// Hard ceiling on processed events per round — a runaway-retransmission
/// backstop. Background packets (three events each), not
/// retransmissions, dominate a legitimate round's count: the
/// benchmark's heaviest cell (16 devices, ring fabric, tree schedule,
/// 90 % background, 16 MiB gradient) processes 1.06 × 10⁷ events, and a
/// 64-device ring-fabric ring-schedule round with background at a third
/// to two thirds of link rate 2.85 × 10⁷. A 64-device ring-fabric
/// tree-schedule round with the same gradient reaches the cap even
/// when no packet is retransmitted. On hit, surviving flows abort and
/// the outcome is flagged `truncated`.
const EVENT_CAP: u64 = 50_000_000;

#[derive(Debug, Clone, Copy)]
enum Owner {
    Flow { id: u32, seq: u32 },
    Background,
}

#[derive(Debug, Clone, Copy)]
struct Packet {
    owner: Owner,
    bytes: u32,
    hop: u16,
    injected: u64,
}

#[derive(Debug)]
enum Event {
    TxDone { link: usize },
    Arrive { link: usize, packet: Packet },
    Ack { flow: usize, cum: u32 },
    Timeout { flow: usize, generation: u32 },
    BgInject { source: usize },
}

#[derive(Debug, Default)]
struct LinkState {
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    in_flight: Option<Packet>,
    paused: bool,
    pause_started: u64,
    pfc_waiting: VecDeque<(usize, Packet)>,
    blocked_flows: VecDeque<u32>,
    offered_bytes: u64,
    delivered_bytes: u64,
    dropped_bytes: u64,
    dropped_packets: u64,
    busy_cycles: u64,
    peak_queue_bytes: u64,
    pfc_pause_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowFate {
    Active,
    Done,
    Aborted,
}

#[derive(Debug)]
struct Flow {
    route: Vec<usize>,
    total_bytes: u64,
    total_packets: u32,
    base: u32,
    next_seq: u32,
    expected_recv: u32,
    generation: u32,
    retries_left: u32,
    blocked: bool,
    fate: FlowFate,
    ack_latency: u64,
}

#[derive(Debug)]
struct BgSource {
    link: usize,
    period: u64,
}

/// The exact distribution of background queueing delays: a count per
/// distinct delay plus a running sum. Its mean and nearest-rank p99
/// equal those of the sorted sample vector, bit for bit, while most
/// delays are 0 and a round sees a few thousand distinct values.
#[derive(Debug, Default)]
struct DelayHistogram {
    counts: BTreeMap<u64, u64>,
    sum: u64,
    n: u64,
}

impl DelayHistogram {
    fn record(&mut self, delay: u64) {
        *self.counts.entry(delay).or_insert(0) += 1;
        self.sum += delay;
        self.n += 1;
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Nearest-rank 99th percentile; 0 when empty.
    fn p99(&self) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((self.n as f64 * 0.99).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (&delay, &count) in &self.counts {
            seen += count;
            if seen >= rank {
                return delay;
            }
        }
        unreachable!("the counts sum to n, which is at least the rank")
    }
}

/// The engine: a built [`Fabric`], the [`InterconnectSpec`]'s flow
/// and switching knobs, background sources, and the event queue.
pub struct NetSim<'a> {
    fabric: &'a Fabric,
    spec: &'a InterconnectSpec,
    events_processed: u64,
    events: LaneQueue<Event>,
    links: Vec<LinkState>,
    flows: Vec<Flow>,
    bg: Vec<BgSource>,
    bg_delays: DelayHistogram,
    bg_dropped: u64,
    active_flows: usize,
    retries_total: u64,
    aborted_flows: usize,
    per_step_end: Vec<u64>,
    truncated: bool,
}

impl<'a> NetSim<'a> {
    /// A fresh engine over `fabric`, configured by `spec`.
    pub fn new(fabric: &'a Fabric, spec: &'a InterconnectSpec) -> Self {
        let links = fabric.links().iter().map(|_| LinkState::default()).collect();
        NetSim {
            fabric,
            spec,
            events_processed: 0,
            events: LaneQueue::new(),
            links,
            flows: Vec::new(),
            bg: Vec::new(),
            bg_delays: DelayHistogram::default(),
            bg_dropped: 0,
            active_flows: 0,
            retries_total: 0,
            aborted_flows: 0,
            per_step_end: Vec::new(),
            truncated: false,
        }
    }

    /// Attaches a background (inference-DMA + harvest-staging) source
    /// to `device`'s `down` link: one `packet_bytes` packet every
    /// `packet_bytes / demand` cycles, the demand first capped at
    /// `bg_cap_frac ×` link rate so gradient flows always see residual
    /// capacity. `phase` offsets the comb's first injection from the
    /// current cycle (the caller draws it from the interconnect seed
    /// stream). A non-positive demand attaches nothing.
    pub fn add_background(&mut self, device: usize, demand_bytes_per_cycle: f64, phase: u64) {
        let cap = self.spec.bg_cap_frac * self.spec.link.rate_bytes_per_cycle;
        let demand = demand_bytes_per_cycle.min(cap);
        if demand <= 0.0 {
            return;
        }
        let period =
            ((f64::from(self.spec.packet_bytes) / demand).ceil() as u64).max(1);
        let source = self.bg.len();
        self.bg.push(BgSource { link: self.fabric.down(device), period });
        self.events.push(phase % period, Event::BgInject { source });
    }

    /// Runs the schedule: each step's flows (device-index endpoints)
    /// launch together when the previous step's flows have all
    /// completed or aborted, and the engine stops at the last step's
    /// completion — background events beyond that instant are left
    /// unprocessed (their packets count as still queued).
    pub fn run_steps(&mut self, steps: &[Vec<StepFlow>]) {
        for step in steps {
            let first = self.flows.len();
            for f in step {
                self.add_flow(f);
            }
            for fid in first..self.flows.len() {
                self.activate(fid);
            }
            self.pump();
            self.per_step_end.push(self.events.now());
            if self.truncated {
                break;
            }
        }
    }

    /// Consumes the engine into a [`RoundOutcome`].
    pub fn finish(self) -> RoundOutcome {
        let round_cycles = self.per_step_end.last().copied().unwrap_or(0);
        let links = self
            .fabric
            .links()
            .iter()
            .zip(&self.links)
            .map(|(l, s)| LinkReport {
                name: l.name.clone(),
                offered_bytes: s.offered_bytes,
                delivered_bytes: s.delivered_bytes,
                dropped_bytes: s.dropped_bytes,
                dropped_packets: s.dropped_packets,
                queued_bytes_end: s.queued_bytes
                    + s.pfc_waiting.iter().map(|(_, p)| u64::from(p.bytes)).sum::<u64>(),
                busy_cycles: s.busy_cycles.min(round_cycles),
                peak_queue_bytes: s.peak_queue_bytes,
                pfc_pause_cycles: s.pfc_pause_cycles,
            })
            .collect();
        let deadlocked = self.spec.switching == SwitchPolicy::Pfc
            && self.aborted_flows > 0
            && self.links.iter().any(|l| !l.pfc_waiting.is_empty());
        RoundOutcome {
            round_cycles,
            per_step_cycles: self.per_step_end,
            links,
            flows: self.flows.len(),
            retries: self.retries_total,
            aborted_flows: self.aborted_flows,
            deadlocked,
            truncated: self.truncated,
            bg_packets_delivered: self.bg_delays.n,
            bg_packets_dropped: self.bg_dropped,
            bg_delay_mean_cycles: self.bg_delays.mean(),
            bg_delay_p99_cycles: self.bg_delays.p99(),
        }
    }

    // ------------------------------------------------------------------
    // internals

    fn add_flow(&mut self, f: &StepFlow) {
        let route = self.fabric.route(f.src, f.dst);
        let packet = u64::from(self.spec.packet_bytes);
        let total_packets = f.bytes.div_ceil(packet).max(1) as u32;
        let ack_latency = route.len() as u64 * self.spec.link.latency_cycles;
        self.flows.push(Flow {
            route,
            total_bytes: f.bytes,
            total_packets,
            base: 0,
            next_seq: 0,
            expected_recv: 0,
            generation: 0,
            retries_left: self.spec.retry_budget,
            blocked: false,
            fate: FlowFate::Active,
            ack_latency,
        });
        self.active_flows += 1;
    }

    fn activate(&mut self, fid: usize) {
        if self.flows[fid].route.is_empty() {
            // Degenerate self-flow: nothing crosses the fabric.
            self.flows[fid].fate = FlowFate::Done;
            self.active_flows -= 1;
            return;
        }
        self.try_send(fid);
        if self.flows[fid].fate == FlowFate::Active {
            self.arm_timeout(fid);
        }
    }

    fn pump(&mut self) {
        while self.active_flows > 0 {
            if self.events_processed >= EVENT_CAP {
                self.truncate();
                return;
            }
            let Some(event) = self.events.pop() else {
                // No pending events with flows still active: every one
                // of them is irrecoverably stuck (can happen only with
                // no timers armed, i.e. never — kept as a backstop).
                self.truncate();
                return;
            };
            self.events_processed += 1;
            match event {
                Event::TxDone { link } => self.on_tx_done(link),
                Event::Arrive { link, packet } => self.on_arrive(link, packet),
                Event::Ack { flow, cum } => self.on_ack(flow, cum),
                Event::Timeout { flow, generation } => self.on_timeout(flow, generation),
                Event::BgInject { source } => self.on_bg_inject(source),
            }
        }
    }

    fn truncate(&mut self) {
        self.truncated = true;
        for f in &mut self.flows {
            if f.fate == FlowFate::Active {
                f.fate = FlowFate::Aborted;
                self.aborted_flows += 1;
            }
        }
        self.active_flows = 0;
    }

    fn packet_bytes_for(&self, fid: usize, seq: u32) -> u32 {
        let f = &self.flows[fid];
        let packet = u64::from(self.spec.packet_bytes);
        if seq + 1 == f.total_packets {
            (f.total_bytes - u64::from(f.total_packets - 1) * packet).max(1) as u32
        } else {
            self.spec.packet_bytes
        }
    }

    fn try_send(&mut self, fid: usize) {
        loop {
            let f = &self.flows[fid];
            if f.fate != FlowFate::Active || f.blocked {
                return;
            }
            if f.next_seq >= f.total_packets || f.next_seq >= f.base + self.spec.window_packets {
                return;
            }
            let seq = f.next_seq;
            let bytes = self.packet_bytes_for(fid, seq);
            let link0 = f.route[0];
            if self.links[link0].queued_bytes + u64::from(bytes) <= self.spec.link.queue_bytes {
                let packet = Packet {
                    owner: Owner::Flow { id: fid as u32, seq },
                    bytes,
                    hop: 0,
                    injected: self.events.now(),
                };
                self.enqueue(link0, packet);
                self.flows[fid].next_seq += 1;
                self.arm_timeout(fid);
            } else {
                self.flows[fid].blocked = true;
                self.links[link0].blocked_flows.push_back(fid as u32);
                return;
            }
        }
    }

    fn arm_timeout(&mut self, fid: usize) {
        self.flows[fid].generation += 1;
        let generation = self.flows[fid].generation;
        self.events.push(self.spec.timeout_cycles, Event::Timeout { flow: fid, generation });
    }

    fn enqueue(&mut self, link: usize, packet: Packet) {
        self.links[link].offered_bytes += u64::from(packet.bytes);
        self.admit(link, packet);
    }

    // Entry into the queue without the offered-bytes bump — used for
    // parked PFC packets, which were already counted as offered when
    // they parked.
    fn admit(&mut self, link: usize, packet: Packet) {
        let l = &mut self.links[link];
        l.queued_bytes += u64::from(packet.bytes);
        l.peak_queue_bytes = l.peak_queue_bytes.max(l.queued_bytes);
        l.queue.push_back(packet);
        self.try_start_tx(link);
    }

    fn try_start_tx(&mut self, link: usize) {
        let l = &mut self.links[link];
        if l.in_flight.is_some() || l.paused {
            return;
        }
        let Some(p) = l.queue.pop_front() else { return };
        let ser = self.spec.link.serialization_cycles(u64::from(p.bytes));
        l.busy_cycles += ser;
        l.in_flight = Some(p);
        self.events.push(ser, Event::TxDone { link });
    }

    fn on_tx_done(&mut self, link: usize) {
        let latency = self.spec.link.latency_cycles;
        let l = &mut self.links[link];
        let p = l.in_flight.take().expect("TxDone on an idle link");
        l.queued_bytes -= u64::from(p.bytes);
        l.delivered_bytes += u64::from(p.bytes);
        self.events.push(latency, Event::Arrive { link, packet: p });
        // Admit parked PFC packets while the drained queue has room.
        loop {
            let l = &mut self.links[link];
            let Some(&(upstream, wp)) = l.pfc_waiting.front() else { break };
            if l.queued_bytes + u64::from(wp.bytes) > self.spec.link.queue_bytes {
                break;
            }
            l.pfc_waiting.pop_front();
            self.admit(link, wp);
            self.unpause(upstream);
        }
        // Pump senders blocked on this link.
        while let Some(&fid) = self.links[link].blocked_flows.front() {
            let fid = fid as usize;
            let f = &self.flows[fid];
            if f.fate != FlowFate::Active
                || f.next_seq >= f.total_packets
                || f.next_seq >= f.base + self.spec.window_packets
            {
                // Nothing to send any more; drop the reservation.
                self.links[link].blocked_flows.pop_front();
                self.flows[fid].blocked = false;
                continue;
            }
            let bytes = self.packet_bytes_for(fid, f.next_seq);
            if self.links[link].queued_bytes + u64::from(bytes) > self.spec.link.queue_bytes {
                break;
            }
            self.links[link].blocked_flows.pop_front();
            self.flows[fid].blocked = false;
            self.try_send(fid);
        }
        self.try_start_tx(link);
    }

    fn unpause(&mut self, link: usize) {
        let l = &mut self.links[link];
        if l.paused {
            l.pfc_pause_cycles += self.events.now() - l.pause_started;
            l.paused = false;
            self.try_start_tx(link);
        }
    }

    fn pause(&mut self, link: usize) {
        let l = &mut self.links[link];
        if !l.paused {
            l.paused = true;
            l.pause_started = self.events.now();
        }
    }

    fn on_arrive(&mut self, link: usize, mut packet: Packet) {
        match packet.owner {
            Owner::Background => {
                // Background routes are the single `down` link: the
                // packet has reached its device. Its queueing delay is
                // everything beyond unloaded serialization + latency.
                let ideal = self.spec.link.serialization_cycles(u64::from(packet.bytes))
                    + self.spec.link.latency_cycles;
                self.bg_delays.record((self.events.now() - packet.injected).saturating_sub(ideal));
            }
            Owner::Flow { id, seq } => {
                let fid = id as usize;
                let hop = usize::from(packet.hop);
                if hop + 1 == self.flows[fid].route.len() {
                    // Delivered to the destination device.
                    if self.flows[fid].fate != FlowFate::Active {
                        return;
                    }
                    if seq == self.flows[fid].expected_recv {
                        self.flows[fid].expected_recv += 1;
                    }
                    let cum = self.flows[fid].expected_recv;
                    self.events.push(self.flows[fid].ack_latency, Event::Ack { flow: fid, cum });
                } else {
                    let next = self.flows[fid].route[hop + 1];
                    packet.hop += 1;
                    if self.links[next].queued_bytes + u64::from(packet.bytes)
                        <= self.spec.link.queue_bytes
                    {
                        self.enqueue(next, packet);
                    } else {
                        match self.spec.switching {
                            SwitchPolicy::DropTail => {
                                let l = &mut self.links[next];
                                l.offered_bytes += u64::from(packet.bytes);
                                l.dropped_bytes += u64::from(packet.bytes);
                                l.dropped_packets += 1;
                            }
                            SwitchPolicy::Pfc => {
                                // Offered now; admitted (without
                                // re-counting) when the queue drains.
                                self.links[next].offered_bytes += u64::from(packet.bytes);
                                self.links[next].pfc_waiting.push_back((link, packet));
                                self.pause(link);
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_ack(&mut self, fid: usize, cum: u32) {
        let f = &mut self.flows[fid];
        if f.fate != FlowFate::Active || cum <= f.base {
            return;
        }
        f.base = cum;
        f.retries_left = self.spec.retry_budget;
        if f.base == f.total_packets {
            f.fate = FlowFate::Done;
            f.generation += 1;
            self.active_flows -= 1;
        } else {
            self.arm_timeout(fid);
            self.try_send(fid);
        }
    }

    fn on_timeout(&mut self, fid: usize, generation: u32) {
        let f = &mut self.flows[fid];
        if f.fate != FlowFate::Active || f.generation != generation {
            return;
        }
        self.retries_total += 1;
        if f.retries_left == 0 {
            f.fate = FlowFate::Aborted;
            f.generation += 1;
            self.aborted_flows += 1;
            self.active_flows -= 1;
            return;
        }
        f.retries_left -= 1;
        // Go-back-N: resend from the first unacked packet.
        f.next_seq = f.base;
        self.arm_timeout(fid);
        self.try_send(fid);
    }

    fn on_bg_inject(&mut self, source: usize) {
        let link = self.bg[source].link;
        let period = self.bg[source].period;
        let bytes = self.spec.packet_bytes;
        if self.links[link].queued_bytes + u64::from(bytes) <= self.spec.link.queue_bytes {
            let packet = Packet {
                owner: Owner::Background,
                bytes,
                hop: 0,
                injected: self.events.now(),
            };
            self.enqueue(link, packet);
        } else {
            // The DMA engine defers under backpressure; the ledger
            // counts the deferral as an offered-and-dropped packet.
            let l = &mut self.links[link];
            l.offered_bytes += u64::from(bytes);
            l.dropped_bytes += u64::from(bytes);
            l.dropped_packets += 1;
            self.bg_dropped += 1;
        }
        self.events.push(period, Event::BgInject { source });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AllReduceSchedule, Topology};
    use equinox_arith::check::check;

    fn spec() -> InterconnectSpec {
        InterconnectSpec::datacenter(1 << 20, 65_536)
    }

    fn one_flow(spec: &InterconnectSpec, topology: Topology, bytes: u64) -> RoundOutcome {
        let fabric = Fabric::build(topology, 4, spec.link);
        let mut sim = NetSim::new(&fabric, spec);
        sim.run_steps(&[vec![StepFlow { src: 0, dst: 3, bytes }]]);
        sim.finish()
    }

    #[test]
    fn a_single_flow_completes_near_the_unloaded_bound() {
        let s = spec();
        let out = one_flow(&s, Topology::OneBigSwitch, 1 << 20);
        assert_eq!(out.aborted_flows, 0);
        assert!(out.conserves(), "{out:?}");
        // Lower bound: serialize 1 MiB over one link at 32 B/cycle.
        let floor = s.link.serialization_cycles(1 << 20);
        assert!(out.round_cycles >= floor);
        // With a 16-packet window and 2 µs of round-trip latency the
        // flow is latency-bound but must still finish within ~10× the
        // serialization floor.
        assert!(out.round_cycles < 10 * floor, "{}", out.round_cycles);
        // Both hops moved every byte exactly once.
        assert_eq!(out.links[0].delivered_bytes, 1 << 20);
        assert_eq!(out.links[7].delivered_bytes, 1 << 20);
    }

    // Two flows converging on one down link: aggregate arrival is
    // twice the service rate, so a tiny queue must overflow.
    fn converging_flows(spec: &InterconnectSpec) -> RoundOutcome {
        let fabric = Fabric::build(Topology::OneBigSwitch, 4, spec.link);
        let mut sim = NetSim::new(&fabric, spec);
        sim.run_steps(&[vec![
            StepFlow { src: 0, dst: 3, bytes: 128 * 1024 },
            StepFlow { src: 1, dst: 3, bytes: 128 * 1024 },
        ]]);
        sim.finish()
    }

    #[test]
    fn drop_tail_drops_under_a_tiny_queue_yet_recovers() {
        let mut s = spec();
        s.link.queue_bytes = 4 * u64::from(s.packet_bytes);
        s.retry_budget = 64;
        let out = converging_flows(&s);
        assert_eq!(out.aborted_flows, 0, "{out:?}");
        assert!(out.conserves());
        // down3 (index 7) sees 2× its rate: drops and go-back-N
        // retries are inevitable.
        assert!(out.links[7].dropped_packets > 0, "{out:?}");
        assert!(out.retries > 0);
    }

    #[test]
    fn pfc_backpressure_is_lossless_on_acyclic_fabrics() {
        let mut s = spec().with_switching(SwitchPolicy::Pfc);
        s.link.queue_bytes = 4 * u64::from(s.packet_bytes);
        s.retry_budget = 64;
        let out = converging_flows(&s);
        assert_eq!(out.aborted_flows, 0, "{out:?}");
        assert!(!out.deadlocked);
        assert!(out.conserves());
        let dropped: u64 = out.links.iter().map(|l| l.dropped_packets).sum();
        assert_eq!(dropped, 0, "PFC never drops");
        assert!(
            out.links.iter().any(|l| l.pfc_pause_cycles > 0),
            "some upstream transmitter must have paused: {out:?}"
        );
    }

    #[test]
    fn pfc_on_the_ring_deadlocks_and_flows_abort_within_budget() {
        let mut s = spec()
            .with_topology(Topology::Ring)
            .with_switching(SwitchPolicy::Pfc)
            .with_schedule(AllReduceSchedule::Ring);
        s.link.queue_bytes = u64::from(s.packet_bytes);
        s.retry_budget = 3;
        s.timeout_cycles = 20_000;
        let fabric = Fabric::build(Topology::Ring, 4, s.link);
        let mut sim = NetSim::new(&fabric, &s);
        // Four flows, each three ring hops: every ring queue fills and
        // waits on the next — a backpressure cycle.
        let step: Vec<StepFlow> = (0..4)
            .map(|i| StepFlow { src: i, dst: (i + 3) % 4, bytes: 1 << 20 })
            .collect();
        sim.run_steps(&[step]);
        let out = sim.finish();
        assert!(out.aborted_flows > 0, "{out:?}");
        assert!(out.deadlocked, "{out:?}");
        let dropped: u64 = out.links.iter().map(|l| l.dropped_packets).sum();
        assert_eq!(dropped, 0, "PFC never drops, even deadlocked");
        assert!(out.conserves(), "parked packets count as queued");
    }

    #[test]
    fn background_traffic_contends_and_its_delay_is_measured() {
        let s = spec();
        let fabric = Fabric::build(Topology::OneBigSwitch, 4, s.link);
        let mut sim = NetSim::new(&fabric, &s);
        // Saturating background demand on the destination's down link
        // (capped at 75 % of rate) plus a gradient flow into the same
        // device.
        sim.add_background(3, 64.0, 17);
        sim.run_steps(&[vec![StepFlow { src: 0, dst: 3, bytes: 1 << 20 }]]);
        let out = sim.finish();
        assert_eq!(out.aborted_flows, 0);
        assert!(out.conserves());
        assert!(out.bg_packets_delivered > 0);
        assert!(
            out.bg_delay_p99_cycles >= out.bg_delay_mean_cycles as u64,
            "{out:?}"
        );
        // Sharing the down link with a 1 MiB flow must queue some DMA.
        assert!(out.bg_delay_p99_cycles > 0, "{out:?}");
        // And the loaded round runs longer than the unloaded one.
        let unloaded = one_flow(&s, Topology::OneBigSwitch, 1 << 20);
        assert!(out.round_cycles > unloaded.round_cycles, "{out:?}");
    }

    #[test]
    fn runs_are_reproducible_event_for_event() {
        let s = spec().with_topology(Topology::Ring);
        let fabric = Fabric::build(Topology::Ring, 6, s.link);
        let run = || {
            let mut sim = NetSim::new(&fabric, &s);
            for d in 0..6 {
                sim.add_background(d, 8.0 + d as f64, d as u64 * 31);
            }
            let steps: Vec<Vec<StepFlow>> = (0..3)
                .map(|st| {
                    (0..6)
                        .map(|i| StepFlow { src: i, dst: (i + 1) % 6, bytes: 100_000 + st * 7 })
                        .collect()
                })
                .collect();
            sim.run_steps(&steps);
            format!("{:?}", sim.finish())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn background_attached_between_steps_starts_at_the_current_cycle() {
        let s = spec();
        let fabric = Fabric::build(Topology::OneBigSwitch, 4, s.link);
        let mut sim = NetSim::new(&fabric, &s);
        let steps = [vec![StepFlow { src: 0, dst: 3, bytes: 1 << 20 }]];
        sim.run_steps(&steps);
        // 4 B/cycle of 4 KiB packets: one injection every 1 024 cycles.
        sim.add_background(3, 4.0, 0);
        sim.run_steps(&steps);
        let out = sim.finish();
        let attached = out.per_step_cycles[0];
        let injections = (out.round_cycles - attached) / 1_024 + 1;
        assert!(out.bg_packets_delivered > 0, "{out:?}");
        assert!(
            out.bg_packets_delivered + out.bg_packets_dropped <= injections,
            "the comb must start at cycle {attached}, not replay the first step: {out:?}"
        );
        assert!(out.conserves());
    }

    #[test]
    fn delay_histogram_matches_a_sorted_nearest_rank_reference() {
        fn reference(samples: &[u64]) -> (f64, u64) {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            if sorted.is_empty() {
                return (0.0, 0);
            }
            let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
            let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
            (mean, sorted[rank - 1])
        }
        fn assert_matches(samples: &[u64]) {
            let mut h = DelayHistogram::default();
            for &d in samples {
                h.record(d);
            }
            let (mean, p99) = reference(samples);
            assert_eq!(h.n, samples.len() as u64);
            assert_eq!(h.mean().to_bits(), mean.to_bits(), "{samples:?}");
            assert_eq!(h.p99(), p99, "{samples:?}");
        }
        assert_matches(&[]);
        assert_matches(&[311]);
        assert_matches(&[0; 1_000]);
        check(0xde1a, |gen| {
            // Mostly zeros with a long tail, as background delays are.
            let samples: Vec<u64> = (0..gen.usize_in(1, 3_000))
                .map(|_| if gen.usize_in(0, 10) < 9 { 0 } else { gen.next_u64() % 5_000 })
                .collect();
            assert_matches(&samples);
        });
    }
}
