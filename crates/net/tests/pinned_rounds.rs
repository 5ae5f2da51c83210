//! Pins the full outcome of four small rounds, one per engine regime:
//! drop-tail loss with go-back-N retries, lossless PFC backpressure,
//! a PFC deadlock on the ring, and heavy background traffic on a ring
//! fabric under the tree schedule.
//!
//! These are the engine's only cross-version check: the property suite
//! asserts invariants and the determinism tests compare a build with
//! itself. Any change to event order, accounting, or the background
//! statistics shows here as a diff; a deliberate change re-records the
//! strings and says why.

use equinox_net::sim::NetSim;
use equinox_net::{
    run_allreduce_round, AllReduceSchedule, Fabric, InterconnectSpec, LinkReport, RoundOutcome,
    StepFlow, SwitchPolicy, Topology,
};

/// Every field of `out` on one line: the scalars verbatim, the links
/// as per-field sums plus an FNV-1a digest over each link's name and
/// counters in link order.
fn fingerprint(out: &RoundOutcome) -> String {
    let counters = |l: &LinkReport| {
        [
            l.offered_bytes,
            l.delivered_bytes,
            l.dropped_bytes,
            l.dropped_packets,
            l.queued_bytes_end,
            l.busy_cycles,
            l.peak_queue_bytes,
            l.pfc_pause_cycles,
        ]
    };
    let mut sums = [0u64; 8];
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for l in &out.links {
        let c = counters(l);
        for (s, v) in sums.iter_mut().zip(c) {
            *s += v;
        }
        for b in l.name.bytes().chain(c.iter().flat_map(|v| v.to_le_bytes())) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!(
        "round={} steps={:?} flows={} retries={} aborted={} deadlocked={} truncated={} \
         bg={}/{} mean={:?} p99={} links={} sums={:?} digest={digest:016x}",
        out.round_cycles,
        out.per_step_cycles,
        out.flows,
        out.retries,
        out.aborted_flows,
        out.deadlocked,
        out.truncated,
        out.bg_packets_delivered,
        out.bg_packets_dropped,
        out.bg_delay_mean_cycles,
        out.bg_delay_p99_cycles,
        out.links.len(),
        sums,
    )
}

fn spec() -> InterconnectSpec {
    InterconnectSpec::datacenter(1 << 20, 65_536)
}

/// Two 128 KiB flows converging on device 3's down link behind a
/// four-packet queue.
fn converging(spec: &InterconnectSpec) -> RoundOutcome {
    let fabric = Fabric::build(Topology::OneBigSwitch, 4, spec.link);
    let mut sim = NetSim::new(&fabric, spec);
    sim.add_background(3, 6.0, 5);
    sim.run_steps(&[vec![
        StepFlow { src: 0, dst: 3, bytes: 128 * 1024 },
        StepFlow { src: 1, dst: 3, bytes: 128 * 1024 },
    ]]);
    sim.finish()
}

#[test]
fn drop_tail_with_retries() {
    let mut s = spec();
    s.link.queue_bytes = 4 * u64::from(s.packet_bytes);
    s.retry_budget = 64;
    let out = converging(&s);
    assert_eq!(
        fingerprint(&out),
        "round=394834 steps=[394834] flows=2 retries=12 aborted=0 deadlocked=false truncated=false bg=574/3 mean=8.548780487804878 p99=311 links=8 sums=[3944448, 3670016, 270336, 66, 4096, 114816, 49152, 0] digest=34fdf4c866d63363"
    );
}

#[test]
fn pfc_with_pauses() {
    let mut s = spec().with_switching(SwitchPolicy::Pfc);
    s.link.queue_bytes = 4 * u64::from(s.packet_bytes);
    s.retry_budget = 64;
    let out = converging(&s);
    assert_eq!(
        fingerprint(&out),
        "round=12992 steps=[12992] flows=2 retries=0 aborted=0 deadlocked=false truncated=false bg=10/8 mean=95.1 p99=298 links=8 sums=[606208, 569344, 32768, 8, 4096, 17920, 49152, 2648] digest=f2f54c62dc8bb175"
    );
}

#[test]
fn pfc_deadlock_on_the_ring() {
    let mut s = spec()
        .with_topology(Topology::Ring)
        .with_switching(SwitchPolicy::Pfc)
        .with_schedule(AllReduceSchedule::Ring);
    s.link.queue_bytes = u64::from(s.packet_bytes);
    s.retry_budget = 3;
    s.timeout_cycles = 20_000;
    let fabric = Fabric::build(Topology::Ring, 4, s.link);
    let mut sim = NetSim::new(&fabric, &s);
    let step: Vec<StepFlow> =
        (0..4).map(|i| StepFlow { src: i, dst: (i + 3) % 4, bytes: 1 << 20 }).collect();
    sim.run_steps(&[step]);
    let out = sim.finish();
    assert_eq!(
        fingerprint(&out),
        "round=81920 steps=[81920] flows=4 retries=16 aborted=4 deadlocked=true truncated=false bg=0/0 mean=0.0 p99=0 links=12 sums=[704512, 425984, 0, 0, 278528, 13312, 32768, 608] digest=b083ca6316318215"
    );
}

#[test]
fn heavy_background_on_a_ring_fabric_under_the_tree_schedule() {
    let s = spec()
        .with_topology(Topology::Ring)
        .with_schedule(AllReduceSchedule::Tree);
    let demand: Vec<f64> = (0..8).map(|d| (0.9 - 0.05 * d as f64) * 32.0).collect();
    let out = run_allreduce_round(&s, 8, &[4, 5, 6, 7], &demand, 42).unwrap();
    assert_eq!(
        fingerprint(&out),
        "round=843725 steps=[313988, 592900, 734519, 843725] flows=6 retries=0 aborted=0 deadlocked=false truncated=false bg=36146/0 mean=14.668206717202457 p99=328 links=24 sums=[186003456, 185974784, 0, 0, 28672, 5812608, 540672, 0] digest=40088e986a171bac"
    );
}
