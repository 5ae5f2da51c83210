//! `allreduce`: the packet layer on its own.
//!
//! Each unit simulates one gradient all-reduce round with
//! `equinox_net::run_allreduce_round`: the reference LSTM's 16 MiB hbfp8
//! gradient over the eight harvesting devices of a 16-device fabric,
//! while every device's host link carries background traffic at a fixed
//! fraction of link rate (the background injection phases come from the
//! unit seed). A pass is the 18-cell grid {one-big-switch, ring,
//! two-level tree} × {ring, tree} schedule × background {30, 60, 90} %.
//! Rounds differ by an order of magnitude in cost, so stragglers show.

use super::{failure, Scale};
use crate::harness::{mean, sum, UnitId, UnitOutput, Workload};
use crate::trace::SpanCtx;
use equinox_arith::Encoding;
use equinox_check::{analyze_interconnect, InterconnectParams, Severity};
use equinox_isa::models::ModelSpec;
use equinox_net::{
    run_allreduce_round, AllReduceSchedule, InterconnectSpec, RoundOutcome, Topology,
};

/// Devices on the fabric.
const DEVICES: usize = 16;

/// Background demand on every host link, fractions of link rate,
/// heaviest first.
const BACKGROUND: [f64; 3] = [0.9, 0.6, 0.3];

/// Inference DMA bytes per batch (the allreduce sweep's figure).
const DMA_BYTES_PER_BATCH: u64 = 65_536;

/// Fabric and schedule of each cell, heaviest round first: a tree
/// schedule on a ring fabric costs about ten times a ring schedule on
/// one big switch.
const FABRICS: [(Topology, AllReduceSchedule); 6] = [
    (Topology::Ring, AllReduceSchedule::Tree),
    (Topology::Tree { leaf_group: 2 }, AllReduceSchedule::Tree),
    (Topology::OneBigSwitch, AllReduceSchedule::Tree),
    (Topology::Ring, AllReduceSchedule::Ring),
    (Topology::Tree { leaf_group: 2 }, AllReduceSchedule::Ring),
    (Topology::OneBigSwitch, AllReduceSchedule::Ring),
];

/// The `allreduce` workload.
pub struct AllReduce(pub Scale);

/// What every unit shares.
pub struct Setup {
    /// One spec per entry of [`FABRICS`].
    specs: Vec<InterconnectSpec>,
    /// The harvesting half of the fabric.
    participants: Vec<usize>,
}

impl Workload for AllReduce {
    type Setup = Setup;

    fn setup(&self, _: u64, ctx: SpanCtx<'_>) -> Result<Setup, String> {
        let full =
            ModelSpec::lstm_2048_25().weight_params() * Encoding::Hbfp8.bytes_per_value() as u64;
        let gradient_bytes = match self.0 {
            Scale::Full => full,
            Scale::Smoke => full / 64,
        };
        let participants: Vec<usize> = (DEVICES / 2..DEVICES).collect();
        let mut specs = Vec::new();
        for (topology, schedule) in FABRICS {
            let spec = InterconnectSpec::datacenter(gradient_bytes, DMA_BYTES_PER_BATCH)
                .with_topology(topology)
                .with_schedule(schedule);
            ctx.span("net", "InterconnectSpec::validate", |_| {
                spec.validate(DEVICES)
            })
            .map_err(|e| e.to_string())?;
            let params = InterconnectParams {
                link_rate_bytes_per_cycle: spec.link.rate_bytes_per_cycle,
                link_latency_cycles: spec.link.latency_cycles,
                packet_bytes: spec.packet_bytes,
                window_packets: spec.window_packets,
                timeout_cycles: spec.timeout_cycles,
                retry_budget: spec.retry_budget,
                max_route_hops: match topology {
                    Topology::OneBigSwitch => 2,
                    Topology::Ring => DEVICES + 1,
                    Topology::Tree { .. } => 4,
                },
                topology_cyclic: topology.is_cyclic(),
                pfc: false,
                gradient_bytes,
                harvesting_devices: participants.len(),
                epoch_wall_cycles: 0.0,
                background_load_frac: spec.bg_cap_frac,
            };
            let lints = ctx.span("check", "analyze_interconnect", |_| {
                analyze_interconnect(&params)
            });
            if let Some(error) = lints.iter().find(|d| d.severity == Severity::Error) {
                return Err(format!("{} fabric: {}", topology.name(), error.message));
            }
            specs.push(spec);
        }
        Ok(Setup {
            specs,
            participants,
        })
    }

    fn units_per_pass(&self, setup: &Setup) -> usize {
        setup.specs.len() * BACKGROUND.len()
    }

    fn parallel(&self) -> bool {
        true
    }

    fn run_unit(&self, setup: &Setup, id: UnitId, ctx: SpanCtx<'_>) -> UnitOutput {
        let spec = &setup.specs[id.index / BACKGROUND.len()];
        let load = BACKGROUND[id.index % BACKGROUND.len()];
        let demand = vec![load * spec.link.rate_bytes_per_cycle; DEVICES];
        let result = ctx.span("net", "run_allreduce_round", |ctx| {
            let outcome =
                run_allreduce_round(spec, DEVICES, &setup.participants, &demand, id.seed());
            if let Ok(o) = &outcome {
                ctx.count("net.fabric_cycles", o.round_cycles as f64);
                ctx.count(
                    "net.link_bytes",
                    o.links.iter().map(|l| l.delivered_bytes as f64).sum(),
                );
            }
            outcome
        });
        let outcome = match result {
            Ok(o) => o,
            Err(e) => return failure(e.to_string()),
        };
        let fields = vec![
            ("cell", id.index as f64),
            ("round_cycles", outcome.round_cycles as f64),
            ("retries", outcome.retries as f64),
            ("aborted_flows", outcome.aborted_flows as f64),
            ("deadlocked", f64::from(u8::from(outcome.deadlocked))),
            ("bg_packets", outcome.bg_packets_delivered as f64),
            ("bg_dropped", outcome.bg_packets_dropped as f64),
            (
                "link_bytes",
                outcome.links.iter().map(|l| l.delivered_bytes as f64).sum(),
            ),
        ];
        let failure = ctx.span("bench", "check", |_| check(&outcome).err());
        UnitOutput { fields, failure }
    }

    fn summarize(&self, first: &[UnitOutput]) -> Vec<(&'static str, f64)> {
        vec![
            ("sim_round_mcycles", mean(first, "round_cycles") / 1e6),
            ("net.retries", sum(first, "retries")),
            ("net.bg_packets", sum(first, "bg_packets")),
            ("net.aborted_flows", sum(first, "aborted_flows")),
        ]
    }
}

/// The unit's output check: every link conserves bytes and the engine
/// was not truncated. Aborted flows are a simulated outcome, counted
/// rather than failed.
pub fn check(outcome: &RoundOutcome) -> Result<(), String> {
    if let Some(link) = outcome.links.iter().find(|l| !l.conserves()) {
        return Err(format!(
            "link {} does not conserve bytes: {link:?}",
            link.name
        ));
    }
    if outcome.truncated {
        return Err("the round hit the event cap and was truncated".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn check_fires_on_doctored_outcomes() {
        let w = AllReduce(Scale::Smoke);
        let setup = w.setup(0, Tracer::new(false).root()).expect("set-up");
        let demand = vec![0.3 * setup.specs[0].link.rate_bytes_per_cycle; DEVICES];
        let outcome =
            run_allreduce_round(&setup.specs[0], DEVICES, &setup.participants, &demand, 1).unwrap();
        assert_eq!(check(&outcome), Ok(()));

        let mut leaky = outcome.clone();
        leaky.links[0].delivered_bytes += 1;
        assert!(check(&leaky).unwrap_err().contains("conserve"));

        let mut truncated = outcome.clone();
        truncated.truncated = true;
        assert!(check(&truncated).unwrap_err().contains("truncated"));

        let mut aborted = outcome;
        aborted.aborted_flows = 3;
        assert_eq!(check(&aborted), Ok(()), "aborts are counted, not failed");
    }
}
