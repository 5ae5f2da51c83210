//! Pins a rendered fleet report across versions: a small fleet of
//! one-point-table devices serving a trace day under priority
//! admission, with a packet-level interconnect whose congestion pushes
//! some completions past the deadline.
//!
//! The rendered report prints the fleet-wide p99 and p999 and each
//! class's p999, and the interconnect recounts the completions that the
//! synchronization delay pushes past the deadline: every consumer of
//! the fleet's latency tails appears in one string. A diff here means a
//! fleet number moved; a deliberate change re-records the strings and
//! says why.

use equinox_arith::Encoding;
use equinox_fleet::routing::RoutingPolicy;
use equinox_fleet::{
    AdmissionSpec, ArrivalSource, DeviceSpec, FittedTable, Fleet, FleetRunOptions,
    InterconnectSpec,
};
use equinox_isa::lower::InferenceTiming;
use equinox_isa::training::TrainingProfile;
use equinox_isa::ArrayDims;
use equinox_sim::loadgen::{DiurnalProfile, FlashCrowd};
use equinox_sim::{AcceleratorConfig, SloSpec};
use std::sync::Arc;

/// A 1 GHz device serving 16-request batches in 16 µs from a one-point
/// table, co-hosting training when `harvests`.
fn device(name: &str, harvests: bool) -> DeviceSpec {
    let config =
        AcceleratorConfig::new(name, ArrayDims { n: 16, w: 4, m: 4 }, 1e9, Encoding::Hbfp8);
    let timing = InferenceTiming {
        total_cycles: 16_000,
        mmu_busy_cycles: 12_000,
        mmu_utilization: 0.85,
        stall_cycles: 1_000,
        simd_busy_cycles: 2_000,
        total_macs: 32_000_000,
        macs_per_request: 2_000_000,
        batch: 16,
    };
    let table = FittedTable::fixed("pinned", timing.batch, timing.total_cycles).unwrap();
    let spec = DeviceSpec::new(config, timing).with_fitted(Arc::new(table));
    if harvests {
        spec.with_training(TrainingProfile {
            iteration_macs: 1_000_000_000,
            iteration_mmu_cycles: 40_000,
            iteration_dram_bytes: 4_000_000,
            iteration_simd_cycles: 4_000,
            batch: 128,
        })
    } else {
        spec
    }
}

#[test]
fn a_priority_fleet_with_an_interconnect_on_a_trace_day() {
    let devices = (0..4).map(|i| device(&format!("d{i}"), i >= 2)).collect();
    let fleet = Fleet::new(devices)
        .unwrap()
        .with_interconnect(InterconnectSpec::datacenter(1 << 20, 262_144))
        .unwrap();
    let report = fleet
        .run(&FleetRunOptions {
            source: ArrivalSource::Trace {
                profile: DiurnalProfile::thirty_percent_average(),
                rate_scale: 2.4,
                crowd: FlashCrowd { start_frac: 0.55, duration_frac: 0.08, multiplier: 2.5 },
            },
            policy: RoutingPolicy::training_aware_default(),
            admission: AdmissionSpec::priority_default(),
            autoscale: None,
            paid_fraction: 0.6,
            horizon_cycles: 2_000 * 16_000,
            seed: 42,
            slo: Some(SloSpec::new(4.0 * 16_000.0 / 1e9).unwrap()),
        })
        .unwrap();
    let [paid, free] = [&report.class_ledgers[0], &report.class_ledgers[1]];
    let tails = format!(
        "n={} max={:?} p99={:?} p999={:?} paid p999={:?} free p999={:?} sync misses={}+{}",
        report.latency.count(),
        report.latency.max(),
        report.latency.p99(),
        report.latency.p999(),
        paid.p999_s(),
        free.p999_s(),
        paid.sync_deadline_misses,
        free.sync_deadline_misses,
    );
    assert_eq!(
        report.to_string(),
        "Fleet[4 devices, training_aware]: 128871 offered, 72632 completed, 9.4 TOp/s inf, \
         66.7 TOp/s train, 2.09 free epochs, p99 0.066 ms, p999 0.084 ms, 792 violation(s)
  [0] d0               27508 req     3.5 TOp/s inf     0.0 TOp/s train    0.00 epochs
  [1] d1               25935 req     3.3 TOp/s inf     0.0 TOp/s train    0.00 epochs
  [2] d2               10187 req     1.3 TOp/s inf    32.8 TOp/s train    1.02 epochs
  [3] d3                9028 req     1.2 TOp/s inf    33.9 TOp/s train    1.06 epochs
  admission priority: 56213 shed at the edge
  paid tier: 77212 offered, 11352 shed, 65092 completed, 792 missed, p999 0.084 ms, \
         displaced 1.04 epochs
  free tier: 51659 offered, 44861 shed, 6248 completed, 0 missed, p999 0.048 ms
  sync[ring all-reduce over one_big_switch, drop_tail]: 2 participant(s), round 122933 \
         cycles, 2.09 raw → 2.04 synced epochs (0.4 % overhead), peak link 100 %, bg delay \
         +1869 cycles
"
    );
    assert_eq!(
        tails,
        "n=71340 max=9.2192e-5 p99=6.5768e-5 p999=8.4183e-5 paid p999=8.4499e-5 \
         free p999=4.8e-5 sync misses=83+0"
    );
    assert_eq!(report.sync_deadline_misses(), 83);
}
