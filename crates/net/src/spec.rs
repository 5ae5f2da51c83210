//! Interconnect configuration: topology, switching, link parameters,
//! flow-control knobs, and the gradient/background byte demands.

use equinox_isa::EquinoxError;

/// Fabric wiring shape (see the crate docs for the link inventory each
/// variant builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One non-blocking crossbar: every route is `up[a] → down[b]`.
    /// The fabric itself never congests; all contention is on the
    /// per-device host links.
    OneBigSwitch,
    /// A unidirectional switch ring: device `i` hangs off switch `i`,
    /// and packets travel clockwise over `ring[i]: switch i →
    /// switch i+1 (mod n)` until they reach the destination switch.
    Ring,
    /// A 2-level tree: leaf switches of `leaf_group` devices each,
    /// under a single root. Cross-leaf routes traverse the leaf's
    /// uplink trunk and the destination leaf's downlink trunk.
    Tree {
        /// Devices per leaf switch (≥ 1).
        leaf_group: usize,
    },
}

impl Topology {
    /// Stable identifier used in sweep artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Topology::OneBigSwitch => "one_big_switch",
            Topology::Ring => "ring",
            Topology::Tree { .. } => "tree",
        }
    }

    /// True if the topology contains a directed cycle of fabric links
    /// (the precondition for a PFC backpressure deadlock).
    pub fn is_cyclic(self) -> bool {
        matches!(self, Topology::Ring)
    }
}

/// How a full queue treats an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPolicy {
    /// Drop the arriving packet (lossy Ethernet-style switching; flows
    /// recover via go-back-N retransmission).
    DropTail,
    /// Priority flow control: park the packet in the full link's
    /// headroom slot and pause the upstream transmitter until the
    /// queue drains. Lossless, but deadlock-capable on cyclic routes.
    Pfc,
}

impl SwitchPolicy {
    /// Stable identifier used in sweep artifacts.
    pub fn name(self) -> &'static str {
        match self {
            SwitchPolicy::DropTail => "drop_tail",
            SwitchPolicy::Pfc => "pfc",
        }
    }
}

/// The all-reduce communication schedule run over the participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduceSchedule {
    /// Bandwidth-optimal ring: `2(k−1)` steps of `⌈G/k⌉`-byte
    /// neighbour transfers (reduce-scatter then all-gather).
    Ring,
    /// Binomial tree: `⌈log₂ k⌉` levels of full-gradient folds into
    /// rank 0, mirrored back out as a broadcast. Latency-optimal,
    /// bandwidth-heavy.
    Tree,
}

impl AllReduceSchedule {
    /// Stable identifier used in sweep artifacts.
    pub fn name(self) -> &'static str {
        match self {
            AllReduceSchedule::Ring => "ring",
            AllReduceSchedule::Tree => "tree",
        }
    }
}

/// One point-to-point link's physical parameters. Every link in a
/// fabric shares one spec (uniform provisioning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Serialization rate, bytes per reference-clock cycle.
    pub rate_bytes_per_cycle: f64,
    /// Propagation latency, cycles (applies to data and to the
    /// returning acks).
    pub latency_cycles: u64,
    /// FIFO queue capacity, bytes. A packet being serialized still
    /// occupies its queue bytes until transmission completes.
    pub queue_bytes: u64,
}

impl Default for LinkSpec {
    /// A 32 B/cycle (32 GB/s at 1 GHz), 1 µs-latency link with a
    /// 512 KiB queue — NIC-class provisioning for the datacenter
    /// fabric the sweep models.
    fn default() -> Self {
        LinkSpec {
            rate_bytes_per_cycle: 32.0,
            latency_cycles: 1_000,
            queue_bytes: 512 * 1024,
        }
    }
}

impl LinkSpec {
    /// Cycles to serialize `bytes` onto this link (≥ 1).
    pub fn serialization_cycles(&self, bytes: u64) -> u64 {
        ((bytes as f64 / self.rate_bytes_per_cycle).ceil() as u64).max(1)
    }
}

/// The full interconnect configuration a fleet carries: fabric shape,
/// switching, the all-reduce schedule, flow-control knobs, and the
/// byte demands that turn device activity into background traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectSpec {
    /// Fabric wiring shape.
    pub topology: Topology,
    /// Full-queue behaviour at every hop.
    pub switching: SwitchPolicy,
    /// The all-reduce schedule run each free epoch.
    pub schedule: AllReduceSchedule,
    /// Uniform link parameters.
    pub link: LinkSpec,
    /// Maximum transfer unit, bytes: flows and background sources
    /// packetize at this size.
    pub packet_bytes: u32,
    /// Go-back-N window: packets a flow keeps outstanding.
    pub window_packets: u32,
    /// Retransmission timeout, cycles without cumulative-ack progress.
    pub timeout_cycles: u64,
    /// Consecutive fruitless timeouts a flow survives before aborting
    /// (progress resets the budget).
    pub retry_budget: u32,
    /// Gradient bytes one all-reduce round moves per participant —
    /// the model's weight footprint at its training encoding.
    pub gradient_bytes: u64,
    /// Host-interface bytes one completed inference batch moves
    /// (activations in and out), charged as background DMA demand.
    pub dma_bytes_per_batch: u64,
    /// Cap on background (DMA + harvest staging) demand as a fraction
    /// of link rate, so gradient flows always see residual capacity.
    pub bg_cap_frac: f64,
}

impl InterconnectSpec {
    /// Datacenter defaults around the given gradient and per-batch DMA
    /// footprints: [`LinkSpec::default`] links, drop-tail switching, a
    /// ring schedule on `one_big_switch`, 4 KiB packets, a 16-packet
    /// window, a 60 k-cycle timeout with a 16-retry budget, and
    /// background demand capped at 75 % of link rate.
    pub fn datacenter(gradient_bytes: u64, dma_bytes_per_batch: u64) -> Self {
        InterconnectSpec {
            topology: Topology::OneBigSwitch,
            switching: SwitchPolicy::DropTail,
            schedule: AllReduceSchedule::Ring,
            link: LinkSpec::default(),
            packet_bytes: 4_096,
            window_packets: 16,
            timeout_cycles: 60_000,
            retry_budget: 16,
            gradient_bytes,
            dma_bytes_per_batch,
            bg_cap_frac: 0.75,
        }
    }

    /// Returns the spec with `topology` swapped in.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Returns the spec with `switching` swapped in.
    #[must_use]
    pub fn with_switching(mut self, switching: SwitchPolicy) -> Self {
        self.switching = switching;
        self
    }

    /// Returns the spec with `schedule` swapped in.
    #[must_use]
    pub fn with_schedule(mut self, schedule: AllReduceSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Validates the spec against a fleet of `n_devices`.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] for non-positive rates, a
    /// packet larger than the queue, a zero window/timeout/gradient,
    /// a background cap outside `[0, 1]`, a degenerate tree
    /// `leaf_group`, or an empty fleet.
    pub fn validate(&self, n_devices: usize) -> Result<(), EquinoxError> {
        let invalid = |message: String| {
            Err(EquinoxError::invalid_argument("InterconnectSpec::validate", message))
        };
        if n_devices == 0 {
            return invalid("an interconnect needs at least one device".into());
        }
        let l = &self.link;
        if !l.rate_bytes_per_cycle.is_finite() || l.rate_bytes_per_cycle <= 0.0 {
            return invalid(format!(
                "link rate must be finite and positive, got {}",
                l.rate_bytes_per_cycle
            ));
        }
        if self.packet_bytes == 0 {
            return invalid("packet_bytes must be positive".into());
        }
        if u64::from(self.packet_bytes) > l.queue_bytes {
            return invalid(format!(
                "packet_bytes {} exceeds queue_bytes {} — no packet could ever enqueue",
                self.packet_bytes, l.queue_bytes
            ));
        }
        if self.window_packets == 0 {
            return invalid("window_packets must be positive".into());
        }
        if self.timeout_cycles == 0 {
            return invalid("timeout_cycles must be positive".into());
        }
        if self.gradient_bytes == 0 {
            return invalid("gradient_bytes must be positive".into());
        }
        if !self.bg_cap_frac.is_finite() || !(0.0..=1.0).contains(&self.bg_cap_frac) {
            return invalid(format!(
                "bg_cap_frac must be in [0, 1], got {}",
                self.bg_cap_frac
            ));
        }
        if let Topology::Tree { leaf_group } = self.topology {
            if leaf_group == 0 {
                return invalid("tree leaf_group must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Topology::OneBigSwitch.name(), "one_big_switch");
        assert_eq!(Topology::Ring.name(), "ring");
        assert_eq!(Topology::Tree { leaf_group: 2 }.name(), "tree");
        assert_eq!(SwitchPolicy::DropTail.name(), "drop_tail");
        assert_eq!(SwitchPolicy::Pfc.name(), "pfc");
        assert_eq!(AllReduceSchedule::Ring.name(), "ring");
        assert_eq!(AllReduceSchedule::Tree.name(), "tree");
    }

    #[test]
    fn only_the_ring_topology_is_cyclic() {
        assert!(Topology::Ring.is_cyclic());
        assert!(!Topology::OneBigSwitch.is_cyclic());
        assert!(!Topology::Tree { leaf_group: 4 }.is_cyclic());
    }

    #[test]
    fn serialization_rounds_up_and_never_hits_zero() {
        let l = LinkSpec { rate_bytes_per_cycle: 32.0, ..LinkSpec::default() };
        assert_eq!(l.serialization_cycles(4_096), 128);
        assert_eq!(l.serialization_cycles(4_097), 129);
        assert_eq!(l.serialization_cycles(1), 1);
        assert_eq!(l.serialization_cycles(0), 1);
    }

    #[test]
    fn datacenter_defaults_validate() {
        let spec = InterconnectSpec::datacenter(16 << 20, 65_536);
        assert!(spec.validate(8).is_ok());
        assert!(spec
            .clone()
            .with_topology(Topology::Tree { leaf_group: 2 })
            .validate(8)
            .is_ok());
    }

    #[test]
    fn validation_rejects_each_degenerate_knob() {
        let good = || InterconnectSpec::datacenter(16 << 20, 65_536);
        let cases: Vec<InterconnectSpec> = vec![
            {
                let mut s = good();
                s.link.rate_bytes_per_cycle = 0.0;
                s
            },
            {
                let mut s = good();
                s.packet_bytes = 0;
                s
            },
            {
                let mut s = good();
                s.packet_bytes = (s.link.queue_bytes + 1) as u32;
                s
            },
            {
                let mut s = good();
                s.window_packets = 0;
                s
            },
            {
                let mut s = good();
                s.timeout_cycles = 0;
                s
            },
            {
                let mut s = good();
                s.gradient_bytes = 0;
                s
            },
            {
                let mut s = good();
                s.bg_cap_frac = 1.5;
                s
            },
            good().with_topology(Topology::Tree { leaf_group: 0 }),
        ];
        for (i, s) in cases.iter().enumerate() {
            let err = s.validate(8).unwrap_err();
            assert_eq!(err.kind(), "invalid-argument", "case {i}");
        }
        assert_eq!(good().validate(0).unwrap_err().kind(), "invalid-argument");
    }
}
