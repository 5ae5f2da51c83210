//! The hybrid event-driven simulation engine.
//!
//! Instruction timing comes from the `equinox-isa` compiler as exact
//! per-batch aggregates; the engine advances between *state-change
//! events* (request arrivals, batch-formation deadlines, batch
//! completions, staging-buffer regime changes), integrating resource
//! occupancy in between. This is cycle-resolution timing without
//! per-cycle iteration, which is what makes 10⁵-request tail-latency
//! sweeps tractable.
//!
//! ## Sharing model
//!
//! The MMU is one resource. When an inference batch is in flight and the
//! scheduler admits training, the hardware round-robin interleaves the
//! two contexts, so each gets half the cycles ("equally dividing the
//! accelerator's execution resources", §6-Scheduling) — unless training
//! is starved by DRAM staging, in which case inference takes the
//! remainder. When the inference queue exceeds the priority threshold,
//! training is paused entirely.

use crate::config::{AcceleratorConfig, BatchingPolicy, SchedulerPolicy};
use crate::cost::CostModel;
use crate::fault::FaultScenario;
use crate::ledger::{EngineTally, RunLedger, TrainingTally};
use crate::report::SimReport;
use crate::slo::SloSpec;
use equinox_arith::rng::SplitMix64;
use equinox_isa::lower::InferenceTiming;
use equinox_isa::training::TrainingProfile;
use equinox_isa::EquinoxError;
use std::collections::VecDeque;

/// Numerical slack on cycle comparisons.
const EPS: f64 = 1e-6;

/// Below this the staging buffer counts as empty: fractions of a byte
/// are integration residue, and chasing them produces drain events
/// smaller than the f64 resolution of the clock.
const STAGED_EPS: f64 = 1.0;

/// One cleanly completed inference batch observed by
/// [`Simulation::run_sampled`].
///
/// The sample separates two quantities the static bound analysis
/// cannot: the batch's MMU *occupancy* (the integrated cycles the
/// engine granted it — equal to the compiled service time up to event
/// epsilons, and provably inside the static `[lower, upper]` envelope)
/// and its *wall-clock duration* (`end_cycle − start_cycle`), which
/// stretches past the occupancy whenever harvested training shares the
/// array. The contention the batch saw is summarised by the queue
/// depth at service start. These are the raw observations the fitted
/// fleet surrogate's quantile tables are built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSample {
    /// Requests still queued (forming + formed) at the instant service
    /// began, excluding the batch entering service.
    pub queue_depth: usize,
    /// Real (non-dummy) requests in the batch.
    pub real: usize,
    /// Cycle service began.
    pub start_cycle: f64,
    /// Cycle service completed.
    pub end_cycle: f64,
    /// Integrated MMU cycles granted to the batch (`∫ r_inf dt` over
    /// its service interval).
    pub occupancy_cycles: f64,
}

impl BatchSample {
    /// Wall-clock service duration, cycles.
    pub fn duration_cycles(&self) -> f64 {
        self.end_cycle - self.start_cycle
    }

    /// Wall-clock stretch over the MMU occupancy (`≥ 1` up to event
    /// epsilons: a batch can wait on training, never the reverse).
    pub fn stretch(&self) -> f64 {
        if self.occupancy_cycles > 0.0 {
            self.duration_cycles() / self.occupancy_cycles
        } else {
            1.0
        }
    }
}

/// A batch sample being accumulated while its batch is in flight.
#[derive(Debug, Clone, Copy)]
struct PendingSample {
    queue_depth: usize,
    real: usize,
    start: f64,
    occupancy: f64,
}

/// An inference batch that has been formed and possibly started.
#[derive(Debug, Clone)]
struct Batch {
    /// Arrival cycles of the real requests in the batch.
    arrivals: Vec<u64>,
    /// Completed executions that came back corrupted (0 for a batch
    /// that has never been corrupted).
    attempts: u32,
}

/// A configured simulation ready to run.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: AcceleratorConfig,
    /// Cycle/byte rates the engine schedules with, derived from
    /// `config` — the same [`CostModel`] the static bound analysis in
    /// `equinox-check` prices programs against.
    cost: CostModel,
    inference: InferenceTiming,
    training: Option<TrainingProfile>,
}

impl Simulation {
    /// Creates a simulation of `config` serving batches with the given
    /// compiled timing, optionally co-hosting a training service.
    /// The batch-formation size is the timing's compiled batch (usually
    /// the geometry's `n` for vector-matrix models, but convolutional
    /// models may batch differently).
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] if the timing was compiled for
    /// a zero batch or declares a zero service time.
    pub fn new(
        config: AcceleratorConfig,
        inference: InferenceTiming,
        training: Option<TrainingProfile>,
    ) -> Result<Self, EquinoxError> {
        if inference.batch == 0 {
            return Err(EquinoxError::invalid_argument(
                "Simulation::new",
                "inference timing batch must be positive",
            ));
        }
        if inference.total_cycles == 0 {
            return Err(EquinoxError::invalid_argument(
                "Simulation::new",
                "inference timing has a zero service time",
            ));
        }
        let cost = CostModel::from_config(&config);
        Ok(Simulation { config, cost, inference, training })
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The cost model the engine schedules with.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Saturation request rate, requests per cycle: a full batch every
    /// batch-service interval.
    pub fn max_request_rate_per_cycle(&self) -> f64 {
        self.inference.batch as f64 / self.inference.total_cycles as f64
    }

    /// Runs the simulation over pre-generated `arrivals` (cycle
    /// timestamps, sorted ascending, strictly inside `horizon_cycles`).
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] if `arrivals` is not sorted
    /// ascending or contains a timestamp at/past the horizon.
    pub fn run(&self, arrivals: &[u64], horizon_cycles: u64) -> Result<SimReport, EquinoxError> {
        self.run_faulted(arrivals, horizon_cycles, &FaultScenario::baseline(), None)
    }

    /// Runs the simulation under a fault scenario, optionally holding it
    /// against an SLO (which populates [`SimReport::slo`]).
    ///
    /// The arrival trace should already include any burst traffic — see
    /// [`crate::fault::scenario_arrivals`] — since arrivals are an input
    /// here, not generated by the engine; the scenario's throttle,
    /// stall, and corruption disturbances are applied by the engine
    /// itself.
    ///
    /// # Errors
    ///
    /// [`EquinoxError::InvalidArgument`] if `arrivals` is not sorted
    /// ascending or not strictly inside the horizon (a request arriving
    /// at/past `horizon_cycles` could never be served, silently skewing
    /// throughput and tail statistics — callers that concatenate or
    /// split streams, like the fleet router, rely on this being
    /// rejected loudly), and [`EquinoxError::FaultModel`] if the
    /// scenario fails [`FaultScenario::validate`].
    pub fn run_faulted(
        &self,
        arrivals: &[u64],
        horizon_cycles: u64,
        scenario: &FaultScenario,
        slo: Option<SloSpec>,
    ) -> Result<SimReport, EquinoxError> {
        check_arrivals("Simulation::run", arrivals, horizon_cycles)?;
        scenario.validate()?;
        Ok(Engine::new(self, arrivals, horizon_cycles, scenario, slo, false).run().0)
    }

    /// Runs the fault-free simulation while recording one
    /// [`BatchSample`] per cleanly completed batch, in completion
    /// order. Sampling only observes the engine's state — the report is
    /// byte-for-byte the one [`Simulation::run`] produces on the same
    /// inputs. This is the measurement hook the fitted fleet surrogate
    /// is calibrated through.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`]: [`EquinoxError::InvalidArgument`] if
    /// `arrivals` is unsorted or not strictly inside the horizon.
    pub fn run_sampled(
        &self,
        arrivals: &[u64],
        horizon_cycles: u64,
    ) -> Result<(SimReport, Vec<BatchSample>), EquinoxError> {
        check_arrivals("Simulation::run_sampled", arrivals, horizon_cycles)?;
        let scenario = FaultScenario::baseline();
        Ok(Engine::new(self, arrivals, horizon_cycles, &scenario, None, true).run())
    }
}

/// The arrival contract of every run: `arrivals` sorted ascending and
/// strictly inside the horizon, else [`EquinoxError::InvalidArgument`]
/// naming `api`.
fn check_arrivals(
    api: &'static str,
    arrivals: &[u64],
    horizon_cycles: u64,
) -> Result<(), EquinoxError> {
    if !arrivals.windows(2).all(|w| w[0] <= w[1]) {
        return Err(EquinoxError::invalid_argument(api, "arrivals must be sorted ascending"));
    }
    match arrivals.last() {
        Some(&last) if last >= horizon_cycles => Err(EquinoxError::invalid_argument(
            api,
            format!(
                "arrivals must lie strictly inside the horizon \
                 (last arrival {last} >= horizon {horizon_cycles})"
            ),
        )),
        _ => Ok(()),
    }
}

/// Mutable simulation state.
struct Engine<'a> {
    sim: &'a Simulation,
    arrivals: &'a [u64],
    horizon: f64,
    now: f64,
    next_arrival: usize,
    /// Requests gathered toward the next batch.
    forming: VecDeque<u64>,
    /// Formed batches waiting for the MMU.
    formed: VecDeque<Batch>,
    /// The batch in service and its remaining allocated cycles.
    in_flight: Option<(Batch, f64)>,
    /// Remaining cycles of a non-preemptible software training block.
    software_block: f64,
    /// Staged training bytes available on chip.
    staged_bytes: f64,
    // Fault injection and QoS monitoring.
    /// The active fault scenario (baseline when fault-free).
    scenario: &'a FaultScenario,
    /// Deterministic per-batch corruption draws.
    corruption_rng: Option<SplitMix64>,
    /// Corrupted batches backing off before re-execution, with the
    /// cycle each becomes ready.
    pending_retries: VecDeque<(Batch, f64)>,
    /// Latched when the queue exceeds the batch-shrinking threshold;
    /// cleared when it fully drains (hysteresis, so an idle MMU issues
    /// partial batches immediately while the backlog persists).
    shrink_mode: bool,
    // Batch sampling (the fitted-surrogate calibration hook).
    /// `Some` when the caller asked for per-batch samples.
    samples: Option<Vec<BatchSample>>,
    /// The sample accumulating for the batch in flight.
    pending_sample: Option<PendingSample>,
    // Accumulators.
    training_cycles: f64,
    idle_cycles: f64,
    /// Every batch and request fate, and the report built from them.
    ledger: RunLedger,
    /// Retries, dropped batches, software blocks and recovery.
    tally: EngineTally,
}

/// Resource allocation over one interval: rates sum to ≤ 1.
#[derive(Debug, Clone, Copy)]
struct Regime {
    /// Fraction of MMU cycles given to the inference batch in flight.
    r_inf: f64,
    /// Fraction given to training execution.
    r_train: f64,
    /// Net staging-buffer fill rate, bytes per cycle (may be negative).
    staging_net: f64,
}

impl<'a> Engine<'a> {
    fn new(
        sim: &'a Simulation,
        arrivals: &'a [u64],
        horizon_cycles: u64,
        scenario: &'a FaultScenario,
        slo: Option<SloSpec>,
        sample: bool,
    ) -> Self {
        Engine {
            sim,
            arrivals,
            horizon: horizon_cycles as f64,
            now: 0.0,
            next_arrival: 0,
            forming: VecDeque::new(),
            formed: VecDeque::new(),
            in_flight: None,
            software_block: 0.0,
            staged_bytes: 0.0,
            scenario,
            corruption_rng: scenario
                .corruption
                .map(|c| SplitMix64::seed_from_u64(c.seed ^ 0xC0441)),
            pending_retries: VecDeque::new(),
            shrink_mode: false,
            samples: sample.then(Vec::new),
            pending_sample: None,
            training_cycles: 0.0,
            idle_cycles: 0.0,
            ledger: RunLedger::new(&sim.config, sim.inference, arrivals.len(), horizon_cycles, slo),
            tally: EngineTally::default(),
        }
    }

    /// Requests waiting but not yet in service (the queue the priority
    /// scheduler monitors).
    fn queued_requests(&self) -> usize {
        self.forming.len() + self.formed.iter().map(|b| b.arrivals.len()).sum::<usize>()
    }

    /// Batch-formation deadline threshold, cycles.
    fn formation_threshold(&self) -> Option<f64> {
        match self.sim.config.batching {
            BatchingPolicy::Static => None,
            BatchingPolicy::Adaptive { threshold_x } => {
                Some(threshold_x * self.sim.inference.total_cycles as f64)
            }
        }
    }

    /// Training execution cost per cycle of MMU occupancy.
    fn training_rates(&self) -> Option<(f64, f64)> {
        self.sim.training.as_ref().map(|t| {
            let macs_per_cycle = t.iteration_macs as f64 / t.iteration_mmu_cycles as f64;
            let bytes_per_cycle = t.iteration_dram_bytes as f64 / t.iteration_mmu_cycles as f64;
            (macs_per_cycle, bytes_per_cycle)
        })
    }

    /// Does the scheduling policy admit training right now?
    fn training_admitted(&self) -> bool {
        if self.sim.training.is_none() {
            return false;
        }
        // Degradation: outright training preemption above a queue depth,
        // regardless of the scheduler policy. A committed software block
        // stays non-preemptible (preemption applies at block boundaries).
        if let Some(k) = self.sim.config.degradation.preempt_training_above {
            if self.software_block <= EPS && self.queued_requests() > k {
                return false;
            }
        }
        match self.sim.config.scheduler {
            SchedulerPolicy::InferenceOnly => false,
            SchedulerPolicy::Fair => true,
            SchedulerPolicy::Priority { queue_threshold } => {
                self.queued_requests() <= queue_threshold
            }
            // Software scheduling admits training only inside a block.
            SchedulerPolicy::Software { .. } => self.software_block > EPS,
        }
    }

    /// Computes the current resource allocation.
    fn regime(&self) -> Regime {
        // Fault injection: DRAM throttling windows scale the supply.
        let supply_bpc =
            self.sim.cost.dram_bytes_per_cycle * self.scenario.bandwidth_factor_at(self.now);
        let Some((_, bytes_per_exec)) = self.training_rates() else {
            return Regime {
                r_inf: if self.in_flight.is_some() { 1.0 } else { 0.0 },
                r_train: 0.0,
                staging_net: 0.0,
            };
        };
        let admitted = self.training_admitted();
        let share_cap: f64 = if self.software_block > EPS {
            1.0
        } else if self.in_flight.is_some() {
            0.5
        } else {
            1.0
        };
        let r_train = if admitted {
            if self.staged_bytes > STAGED_EPS {
                share_cap
            } else {
                // Starved: limited to what DRAM can deliver live.
                share_cap.min(supply_bpc / bytes_per_exec)
            }
        } else {
            0.0
        };
        let r_inf = if self.software_block > EPS {
            0.0
        } else if self.in_flight.is_some() {
            1.0 - r_train
        } else {
            0.0
        };
        // Staging refills whenever the buffer has room; DRAM throttles
        // at the cap.
        let consume = r_train * bytes_per_exec;
        let refill = if self.staged_bytes < self.sim.cost.staging_buffer_bytes {
            supply_bpc
        } else {
            supply_bpc.min(consume)
        };
        Regime { r_inf, r_train, staging_net: refill - consume }
    }

    /// Issues the partially-formed batch immediately (padded with
    /// dummies).
    fn issue_partial(&mut self) {
        let arrivals: Vec<u64> = self.forming.drain(..).collect();
        self.ledger.batch_formed(arrivals.len());
        self.formed.push_back(Batch { arrivals, attempts: 0 });
    }

    /// Processes all zero-time actions at `self.now`: batch formation,
    /// retry re-queueing, service start, software-block start.
    fn settle(&mut self) {
        let n = self.sim.inference.batch;
        // Corrupted batches whose backoff elapsed re-enter at the head
        // of the service queue.
        while let Some((_, ready)) = self.pending_retries.front() {
            if *ready <= self.now + EPS {
                let (batch, _) = self.pending_retries.pop_front().expect("checked above");
                self.formed.push_front(batch);
            } else {
                break;
            }
        }
        // Fault injection: a stalled dispatcher forms no batches (the
        // MMU keeps draining batches that are already formed).
        let stalled = self.scenario.formation_stalled_at(self.now);
        // Degradation: batch-shrinking hysteresis.
        if let Some(k) = self.sim.config.degradation.shrink_batch_above {
            if self.queued_requests() > k {
                self.shrink_mode = true;
            } else if self.queued_requests() == 0 {
                self.shrink_mode = false;
            }
        }
        if !stalled {
            // Full batches.
            while self.forming.len() >= n {
                let arrivals: Vec<u64> = self.forming.drain(..n).collect();
                self.ledger.batch_formed(n);
                self.formed.push_back(Batch { arrivals, attempts: 0 });
            }
            // Deadline-triggered incomplete batch.
            if let Some(thr) = self.formation_threshold() {
                if let Some(&first) = self.forming.front() {
                    if self.now + EPS >= first as f64 + thr {
                        self.issue_partial();
                    }
                }
            }
            // Degradation: while the backlog persists, an idle MMU takes
            // whatever has gathered instead of waiting out the deadline.
            if self.shrink_mode
                && self.in_flight.is_none()
                && self.software_block <= EPS
                && self.formed.is_empty()
                && !self.forming.is_empty()
            {
                self.issue_partial();
            }
        }
        // Start service.
        if self.in_flight.is_none() && self.software_block <= EPS {
            if let Some(batch) = self.formed.pop_front() {
                let duration = self.sim.inference.total_cycles as f64;
                if self.samples.is_some() {
                    // Contention = what remains queued behind the batch
                    // entering service.
                    self.pending_sample = Some(PendingSample {
                        queue_depth: self.queued_requests(),
                        real: batch.arrivals.len(),
                        start: self.now,
                        occupancy: 0.0,
                    });
                }
                self.in_flight = Some((batch, duration));
            } else if matches!(self.sim.config.scheduler, SchedulerPolicy::Software { .. })
                && self.sim.training.is_some()
                && self.forming.is_empty()
            {
                // Fully idle: the software scheduler commits a
                // non-preemptible training block.
                if let SchedulerPolicy::Software { block_cycles } = self.sim.config.scheduler {
                    self.software_block = block_cycles as f64;
                    self.tally.training_blocks += 1;
                }
            }
        }
    }

    /// The next event strictly after `now`, bounded by the horizon.
    fn next_event(&self, regime: &Regime) -> f64 {
        let mut t = self.horizon;
        if self.next_arrival < self.arrivals.len() {
            t = t.min(self.arrivals[self.next_arrival] as f64);
        }
        // While the dispatcher is stalled, formation deadlines cannot
        // fire; the stall's end is a scenario boundary handled below.
        if !self.scenario.formation_stalled_at(self.now) {
            if let Some(thr) = self.formation_threshold() {
                if let Some(&first) = self.forming.front() {
                    t = t.min(first as f64 + thr);
                }
            }
        }
        // Throttle/stall window edges change the regime.
        for &b in &self.scenario.boundaries() {
            let b = b as f64;
            if b > self.now + EPS {
                t = t.min(b);
                break;
            }
        }
        // A corrupted batch becoming ready to retry.
        if let Some((_, ready)) = self.pending_retries.front() {
            if *ready > self.now + EPS {
                t = t.min(*ready);
            }
        }
        if let Some((_, remaining)) = &self.in_flight {
            if regime.r_inf > EPS {
                t = t.min(self.now + remaining / regime.r_inf);
            }
        }
        if self.software_block > EPS && regime.r_train > EPS {
            t = t.min(self.now + self.software_block / regime.r_train);
        }
        // Staging buffer draining to empty changes the training rate.
        if regime.staging_net < -EPS && self.staged_bytes > STAGED_EPS {
            t = t.min(self.now + self.staged_bytes / -regime.staging_net);
        }
        t.max(self.now)
    }

    /// Integrates state over `[now, t]` under `regime`.
    fn advance(&mut self, regime: &Regime, t: f64) {
        let dt = t - self.now;
        if dt <= 0.0 {
            self.now = t;
            return;
        }
        if let Some((_, remaining)) = &mut self.in_flight {
            *remaining -= regime.r_inf * dt;
            if let Some(p) = &mut self.pending_sample {
                p.occupancy += regime.r_inf * dt;
            }
        }
        if self.software_block > EPS {
            self.software_block = (self.software_block - regime.r_train * dt).max(0.0);
        }
        self.training_cycles += regime.r_train * dt;
        self.idle_cycles += (1.0 - regime.r_inf - regime.r_train).max(0.0) * dt;
        self.staged_bytes = (self.staged_bytes + regime.staging_net * dt)
            .clamp(0.0, self.sim.cost.staging_buffer_bytes);
        if self.staged_bytes < STAGED_EPS && regime.staging_net < 0.0 {
            self.staged_bytes = 0.0;
        }
        self.now = t;
    }

    /// Handles completions and arrivals that fall exactly at `now`.
    fn fire(&mut self) {
        // Batch completion.
        let done = matches!(&self.in_flight, Some((_, rem)) if *rem <= EPS);
        if done {
            let (batch, _) = self.in_flight.take().expect("checked above");
            if self.batch_corrupted() {
                // A corrupted execution yields no clean observation; a
                // retried batch is sampled afresh when it re-enters
                // service.
                self.pending_sample = None;
                self.handle_corruption(batch);
            } else {
                if let Some(p) = self.pending_sample.take() {
                    if let Some(samples) = self.samples.as_mut() {
                        samples.push(BatchSample {
                            queue_depth: p.queue_depth,
                            real: p.real,
                            start_cycle: p.start,
                            end_cycle: self.now,
                            occupancy_cycles: p.occupancy,
                        });
                    }
                }
                for &arrival in &batch.arrivals {
                    self.ledger.completed(arrival, self.now);
                }
                self.ledger.batch_served(batch.arrivals.len(), 0.0);
            }
        }
        if self.software_block <= EPS {
            self.software_block = 0.0;
        }
        // Arrivals at the current time, subject to admission control.
        let shed_above = self.sim.config.degradation.shed_above;
        while self.next_arrival < self.arrivals.len()
            && (self.arrivals[self.next_arrival] as f64) <= self.now + EPS
        {
            let arrival = self.arrivals[self.next_arrival];
            self.next_arrival += 1;
            if let Some(k) = shed_above {
                if self.queued_requests() >= k {
                    // Degradation: load shedding. The request is turned
                    // away and accounted as an SLO violation.
                    self.ledger.shed(arrival);
                    continue;
                }
            }
            self.forming.push_back(arrival);
        }
        self.ledger.observe_queue(self.queued_requests());
        // Recovery: the first time the queue drains to at most one batch
        // after the last disturbance window has passed.
        if self.tally.recovered_at.is_none() {
            if let Some(end) = self.scenario.last_disturbance_end() {
                if self.now >= end as f64 && self.queued_requests() <= self.sim.inference.batch {
                    self.tally.recovered_at = Some(self.now);
                }
            }
        }
    }

    /// Draws the corruption fate of the batch that just completed.
    fn batch_corrupted(&mut self) -> bool {
        match (&self.scenario.corruption, &mut self.corruption_rng) {
            (Some(c), Some(rng)) => rng.next_f64() < c.probability,
            _ => false,
        }
    }

    /// A completed batch came back corrupt: its service cycles are
    /// wasted, and the retry policy decides between backoff-and-retry
    /// and dropping the batch's requests.
    fn handle_corruption(&mut self, mut batch: Batch) {
        self.ledger.batch_corrupted();
        let retry = self.sim.config.degradation.retry;
        if batch.attempts < retry.max_attempts {
            let backoff = retry.backoff_cycles as f64
                * retry.backoff_multiplier.powi(batch.attempts as i32);
            batch.attempts += 1;
            self.tally.retried_batches += 1;
            let ready = self.now + backoff;
            self.pending_retries.push_back((batch, ready));
            // Keep the queue ordered by readiness.
            self.pending_retries
                .make_contiguous()
                .sort_by(|a, b| a.1.total_cmp(&b.1));
        } else {
            self.tally.dropped_batches += 1;
            for &arrival in &batch.arrivals {
                self.ledger.dropped(arrival);
            }
        }
    }

    fn run(mut self) -> (SimReport, Vec<BatchSample>) {
        let mut stalled_iterations = 0u32;
        while self.now < self.horizon {
            self.settle();
            let regime = self.regime();
            let t = self.next_event(&regime);
            if t <= self.now + EPS && self.next_arrival >= self.arrivals.len() {
                // Nothing can happen anymore and time cannot advance:
                // everything idle until the horizon.
                let regime = self.regime();
                let end = self.horizon;
                self.advance(&regime, end);
                break;
            }
            // Livelock guard: if repeated events land within the f64
            // resolution of the clock (so time cannot move), force one
            // cycle of progress rather than spinning.
            if t <= self.now || (t - self.now) < self.now * f64::EPSILON {
                stalled_iterations += 1;
                if stalled_iterations > 64 {
                    let step = (self.now + 1.0).min(self.horizon);
                    self.advance(&regime, step);
                    self.fire();
                    stalled_iterations = 0;
                    continue;
                }
            } else {
                stalled_iterations = 0;
            }
            self.advance(&regime, t);
            self.fire();
        }
        self.finish()
    }

    fn finish(mut self) -> (SimReport, Vec<BatchSample>) {
        let samples = self.samples.take().unwrap_or_default();
        let training_macs = self
            .training_rates()
            .map(|(macs_per_cycle, _)| self.training_cycles * macs_per_cycle)
            .unwrap_or(0.0);
        // Every request unfinished at the horizon: forming, formed, in
        // service, or backing off before a retry.
        let unfinished = self.forming.iter().chain(
            self.formed
                .iter()
                .chain(self.in_flight.iter().map(|(b, _)| b))
                .chain(self.pending_retries.iter().map(|(b, _)| b))
                .flat_map(|b| b.arrivals.iter()),
        );
        for &arrival in unfinished {
            self.ledger.stranded(arrival);
        }
        self.tally.disturbance_end = self.scenario.last_disturbance_end();
        let training = TrainingTally {
            cycles: self.training_cycles,
            macs: training_macs,
            idle_cycles: self.idle_cycles,
        };
        (self.ledger.finish(training, self.tally), samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::poisson_arrivals;
    use equinox_arith::Encoding;
    use equinox_isa::lower::compile_inference;
    use equinox_isa::models::ModelSpec;
    use equinox_isa::training::{TrainingProfile, TrainingSetup};
    use equinox_isa::ArrayDims;

    fn dims() -> ArrayDims {
        ArrayDims { n: 16, w: 4, m: 8 }
    }

    fn timing(d: &ArrayDims) -> InferenceTiming {
        let p = compile_inference(&ModelSpec::lstm_2048_25(), d, d.n);
        InferenceTiming::from_program(&p, d, d.n)
    }

    fn config(scheduler: SchedulerPolicy) -> AcceleratorConfig {
        let mut c = AcceleratorConfig::new("test", dims(), 1e9, Encoding::Hbfp8);
        c.scheduler = scheduler;
        c
    }

    fn sim_with(scheduler: SchedulerPolicy, train: bool) -> Simulation {
        let d = dims();
        let t = timing(&d);
        let training = train.then(|| {
            TrainingProfile::profile(
                &ModelSpec::lstm_2048_25(),
                &d,
                &TrainingSetup::paper_default(),
            )
        });
        Simulation::new(config(scheduler), t, training).unwrap()
    }

    fn run_at_load(sim: &Simulation, load: f64, horizon: u64, seed: u64) -> SimReport {
        let rate = load * sim.max_request_rate_per_cycle();
        let arrivals = poisson_arrivals(rate, horizon, seed).unwrap();
        sim.run(&arrivals, horizon).unwrap()
    }

    #[test]
    fn no_arrivals_no_training_all_idle() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let r = sim.run(&[], 1_000_000).unwrap();
        assert_eq!(r.completed_requests, 0);
        assert_eq!(r.training_throughput_ops, 0.0);
        let f = r.breakdown.fractions();
        assert!(f.idle > 0.999, "{f:?}");
    }

    #[test]
    fn no_arrivals_with_training_reclaims_everything() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let r = sim.run(&[], 10_000_000).unwrap();
        assert!(r.training_throughput_ops > 0.0);
        let f = r.breakdown.fractions();
        // Training works whenever DRAM staging lets it.
        assert!(f.working > 0.2, "{f:?}");
        assert!(f.idle < 0.8, "{f:?}");
    }

    #[test]
    fn single_request_latency_is_deadline_plus_service() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let horizon = 50_000_000;
        // Arrival placed after the warm-up window so it is measured.
        let r = sim.run(&[10_000_000], horizon).unwrap();
        assert_eq!(r.completed_requests, 1);
        // Adaptive threshold 2× service + service itself.
        let d = sim.inference.total_cycles as f64;
        let expect = 3.0 * d / 1e9;
        let got = r.latency.max();
        assert!((got - expect).abs() / expect < 0.01, "got {got} expect {expect}");
    }

    #[test]
    fn full_batch_no_padding() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let arrivals: Vec<u64> = (0..16).map(|i| i as u64).collect();
        let r = sim.run(&arrivals, 10_000_000).unwrap();
        assert_eq!(r.completed_requests, 16);
        assert_eq!(r.batches_issued, 1);
        assert_eq!(r.incomplete_batches, 0);
        assert_eq!(r.breakdown.dummy, 0.0);
    }

    #[test]
    fn partial_batch_padded() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let r = sim.run(&[0, 1, 2, 3], 50_000_000).unwrap();
        assert_eq!(r.completed_requests, 4);
        assert_eq!(r.incomplete_batches, 1);
        assert!(r.breakdown.dummy > 0.0);
        // 12 of 16 slots were dummies.
        let ratio = r.breakdown.dummy / (r.breakdown.dummy + r.breakdown.working);
        assert!((ratio - 0.75).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn static_batching_waits_for_full_batches() {
        let d = dims();
        let mut c = config(SchedulerPolicy::InferenceOnly);
        c.batching = BatchingPolicy::Static;
        let sim = Simulation::new(c, timing(&d), None).unwrap();
        // Only 4 requests ever arrive: never a full batch of 16.
        let r = sim.run(&[0, 1, 2, 3], 50_000_000).unwrap();
        assert_eq!(r.completed_requests, 0);
        assert_eq!(r.batches_issued, 0);
    }

    #[test]
    fn throughput_tracks_offered_load() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let horizon = 400_000_000;
        let lo = run_at_load(&sim, 0.2, horizon, 11);
        let hi = run_at_load(&sim, 0.6, horizon, 11);
        let ratio = hi.inference_throughput_ops / lo.inference_throughput_ops;
        assert!(ratio > 2.4 && ratio < 3.6, "{ratio}");
    }

    #[test]
    fn p99_explodes_beyond_saturation() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let horizon = 400_000_000;
        let ok = run_at_load(&sim, 0.7, horizon, 5);
        let over = run_at_load(&sim, 1.2, horizon, 5);
        assert!(over.latency.p99() > 5.0 * ok.latency.p99());
    }

    #[test]
    fn training_reduces_idle_at_moderate_load() {
        let horizon = 400_000_000;
        let inf_only = run_at_load(&sim_with(SchedulerPolicy::InferenceOnly, false), 0.5, horizon, 9);
        let with_train = run_at_load(
            &sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true),
            0.5,
            horizon,
            9,
        );
        let fi = inf_only.breakdown.fractions();
        let ft = with_train.breakdown.fractions();
        assert!(ft.idle < fi.idle * 0.7, "idle {0} -> {1}", fi.idle, ft.idle);
        assert!(with_train.training_throughput_ops > 0.0);
    }

    #[test]
    fn priority_beats_fair_for_inference_latency_at_high_load() {
        let horizon = 600_000_000;
        let pri = run_at_load(
            &sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true),
            0.85,
            horizon,
            13,
        );
        let fair = run_at_load(&sim_with(SchedulerPolicy::Fair, true), 0.85, horizon, 13);
        assert!(
            fair.latency.p99() > 1.5 * pri.latency.p99(),
            "fair p99 {} vs priority p99 {}",
            fair.latency.p99(),
            pri.latency.p99()
        );
    }

    #[test]
    fn training_throughput_decreases_with_load() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let horizon = 400_000_000;
        let lo = run_at_load(&sim, 0.2, horizon, 21);
        let hi = run_at_load(&sim, 0.9, horizon, 21);
        assert!(
            lo.training_throughput_ops > hi.training_throughput_ops,
            "lo {} hi {}",
            lo.training_throughput_ops,
            hi.training_throughput_ops
        );
    }

    #[test]
    fn cycle_conservation() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let horizon = 200_000_000u64;
        let r = run_at_load(&sim, 0.5, horizon, 31);
        let total = r.breakdown.total();
        // All accounted cycles within 2% of the horizon (in-flight
        // remainder at the end accounts for the slack).
        assert!(
            (total - horizon as f64).abs() / (horizon as f64) < 0.02,
            "total {total} vs horizon {horizon}"
        );
    }

    #[test]
    fn software_scheduler_blocks_inference() {
        // A long software training block delays requests arriving inside it.
        let d = dims();
        let block = 5_000_000u64;
        let mut c = config(SchedulerPolicy::Software { block_cycles: block });
        c.batching = BatchingPolicy::Adaptive { threshold_x: 2.0 };
        let t = timing(&d);
        let train = TrainingProfile::profile(
            &ModelSpec::lstm_2048_25(),
            &d,
            &TrainingSetup::paper_default(),
        );
        let sim = Simulation::new(c, t, Some(train)).unwrap();
        // Blocks chain back-to-back from t=0 while idle; this arrival
        // (past warm-up) lands mid-block and must wait the block out.
        let r = sim.run(&[10_200_000], 50_000_000).unwrap();
        assert_eq!(r.completed_requests, 1);
        assert!(r.training_blocks >= 2);
        // Without blocking the latency would be exactly 3× the batch
        // service time (formation deadline + service); the block forces
        // a much longer wait.
        let unblocked = 3.0 * sim.inference.total_cycles as f64 / 1e9;
        assert!(
            r.latency.max() > 1.5 * unblocked,
            "latency {} should exceed unblocked {unblocked}",
            r.latency.max()
        );
    }

    #[test]
    fn unsorted_arrivals_are_invalid_argument() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let err = sim.run(&[5, 1], 1_000_000).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("sorted"));
        let err = sim.run_sampled(&[5, 1], 1_000_000).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("run_sampled"), "{err}");
        assert!(err.to_string().contains("sorted"), "{err}");
    }

    #[test]
    fn arrivals_at_or_past_the_horizon_are_invalid_argument() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        // At the horizon: rejected (a request arriving at `horizon`
        // can never be served).
        let err = sim.run(&[10, 1_000_000], 1_000_000).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("horizon"), "{err}");
        let err = sim.run_sampled(&[10, 1_000_000], 1_000_000).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("horizon"), "{err}");
        // Past it: also rejected.
        assert!(sim.run(&[2_000_000], 1_000_000).is_err());
        assert!(sim.run_sampled(&[2_000_000], 1_000_000).is_err());
        // Just inside: accepted.
        assert!(sim.run(&[999_999], 1_000_000).is_ok());
        assert!(sim.run_sampled(&[999_999], 1_000_000).is_ok());
    }

    #[test]
    fn requests_in_service_or_retrying_at_the_horizon_stay_in_the_final_queue() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let service = sim.inference.total_cycles;
        let horizon = 100 * service;
        let slo = Some(SloSpec::new(1.0).unwrap());
        // One full batch arriving half a service time before the
        // horizon: it enters service and is still there at the end.
        let arrivals: Vec<u64> = (0..16).map(|i| horizon - service / 2 + i).collect();
        let r = sim.run_faulted(&arrivals, horizon, &FaultScenario::baseline(), slo).unwrap();
        let slo_report = r.slo.unwrap();
        assert_eq!(r.completed_requests, 0);
        assert_eq!(slo_report.final_queue_depth, 16, "{slo_report:?}");
        assert!(slo_report.peak_queue_depth >= slo_report.final_queue_depth);
        assert_eq!(
            r.completed_requests as usize + r.shed_requests as usize + slo_report.final_queue_depth,
            arrivals.len()
        );
        // Every batch comes back corrupt and backs off before its retry:
        // the horizon falls inside the first backoff, with the batch
        // neither in service nor queued.
        let mut c = config(SchedulerPolicy::InferenceOnly);
        c.degradation.retry = crate::config::RetryPolicy::bounded_default();
        let retrying = Simulation::new(c, sim.inference, None).unwrap();
        let corrupt = FaultScenario::named("corrupt").with_corruption(0.999_999, 5);
        let start = horizon / 2;
        let arrivals: Vec<u64> = (0..16).map(|i| start + i).collect();
        let backoff = retrying.config.degradation.retry.backoff_cycles;
        let r = retrying
            .run_faulted(&arrivals, start + 16 + service + backoff / 2, &corrupt, slo)
            .unwrap();
        let slo_report = r.slo.unwrap();
        assert_eq!((slo_report.corrupted_batches, slo_report.retried_batches), (1, 1));
        assert_eq!(r.completed_requests, 0);
        assert_eq!(slo_report.dropped_requests, 0);
        assert_eq!(slo_report.final_queue_depth, 16, "{slo_report:?}");
    }

    #[test]
    fn zero_batch_timing_is_invalid_argument() {
        let d = dims();
        let mut t = timing(&d);
        t.batch = 0;
        let err = Simulation::new(config(SchedulerPolicy::InferenceOnly), t, None).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("batch"));
    }

    #[test]
    fn zero_service_timing_is_invalid_argument() {
        let d = dims();
        let mut t = timing(&d);
        t.total_cycles = 0;
        let err = Simulation::new(config(SchedulerPolicy::InferenceOnly), t, None).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("service time"));
    }

    #[test]
    fn smaller_batch_than_n_forms_batches_of_timing_size() {
        // A model compiled at batch 8 on an n=16 geometry forms batches
        // of 8 (convolutional workloads batch independently of n).
        let d = dims();
        let p = compile_inference(&ModelSpec::lstm_2048_25(), &d, 8);
        let t = InferenceTiming::from_program(&p, &d, 8);
        let sim = Simulation::new(config(SchedulerPolicy::InferenceOnly), t, None).unwrap();
        let arrivals: Vec<u64> = (0..8).map(|i| 10_000_000 + i as u64).collect();
        let r = sim.run(&arrivals, 50_000_000).unwrap();
        assert_eq!(r.completed_requests, 8);
        assert_eq!(r.batches_issued, 1);
        assert_eq!(r.incomplete_batches, 0);
    }

    #[test]
    fn sampled_run_observes_clean_batches_without_perturbing_the_report() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let horizon = 200_000_000;
        let rate = 0.5 * sim.max_request_rate_per_cycle();
        let arrivals = poisson_arrivals(rate, horizon, 71).unwrap();
        let plain = sim.run(&arrivals, horizon).unwrap();
        let (report, samples) = sim.run_sampled(&arrivals, horizon).unwrap();
        // Sampling only observes: the report is the unsampled one.
        assert_eq!(report.completed_requests, plain.completed_requests);
        assert_eq!(report.latency, plain.latency);
        assert_eq!(report.batches_issued, plain.batches_issued);
        assert!(!samples.is_empty());
        assert!(samples.len() as u64 <= report.batches_issued);
        let service = sim.inference.total_cycles as f64;
        for s in &samples {
            // Occupancy is the compiled service time up to event
            // epsilons; wall-clock duration can only stretch past it.
            assert!((s.occupancy_cycles - service).abs() <= 1.0, "{s:?}");
            assert!(s.stretch() >= 1.0 - 1e-9, "{s:?}");
            assert!(s.real >= 1 && s.real <= sim.inference.batch, "{s:?}");
            assert!(s.end_cycle > s.start_cycle, "{s:?}");
        }
        // Training contention must stretch some batches past their
        // occupancy — the distribution the fitted surrogate captures.
        assert!(samples.iter().any(|s| s.stretch() > 1.05), "no contention observed");
        let (_, again) = sim.run_sampled(&arrivals, horizon).unwrap();
        assert_eq!(samples, again);
    }

    // ---- fault injection and graceful degradation ----

    use crate::fault::scenario_arrivals;
    use crate::slo::SloSpec;

    /// Runs `sim` at `load` under `scenario` with an SLO attached.
    fn run_faulted_at_load(
        sim: &Simulation,
        load: f64,
        horizon: u64,
        seed: u64,
        scenario: &FaultScenario,
        deadline_s: f64,
    ) -> SimReport {
        let rate = load * sim.max_request_rate_per_cycle();
        let arrivals = scenario_arrivals(scenario, rate, horizon, seed).unwrap();
        sim.run_faulted(&arrivals, horizon, scenario, Some(SloSpec::new(deadline_s).unwrap()))
            .unwrap()
    }

    /// A generous deadline: 12× the batch service time (2× formation
    /// deadline + service at the fair-shared rate + queueing slack).
    fn deadline_s(sim: &Simulation) -> f64 {
        12.0 * sim.inference.total_cycles as f64 / sim.config.freq_hz
    }

    #[test]
    fn baseline_slo_clean_at_moderate_load() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let r = run_faulted_at_load(
            &sim,
            0.5,
            400_000_000,
            17,
            &FaultScenario::baseline(),
            deadline_s(&sim),
        );
        let slo = r.slo.expect("slo requested");
        assert_eq!(slo.total_violations(), 0, "{slo:?}");
        assert!(slo.recovered);
        assert_eq!(slo.recovery_cycles, None);
        assert!(slo.measured_requests > 0);
        assert!(!slo.indicates_unbounded_growth(16));
    }

    #[test]
    fn traffic_burst_raises_tail_latency() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let horizon = 400_000_000;
        let dl = deadline_s(&sim);
        let base =
            run_faulted_at_load(&sim, 0.6, horizon, 23, &FaultScenario::baseline(), dl);
        let burst = FaultScenario::named("burst")
            .with_burst(horizon / 4, horizon / 2, 4.0);
        let hit = run_faulted_at_load(&sim, 0.6, horizon, 23, &burst, dl);
        assert!(hit.latency.p99() > base.latency.p99(), "burst must hurt the tail");
        let slo = hit.slo.unwrap();
        assert!(slo.peak_queue_depth > base.slo.unwrap().peak_queue_depth);
    }

    #[test]
    fn dram_throttle_starves_training_not_inference() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let horizon = 400_000_000;
        let dl = deadline_s(&sim);
        let base =
            run_faulted_at_load(&sim, 0.3, horizon, 29, &FaultScenario::baseline(), dl);
        let throttled = FaultScenario::named("dram")
            .with_throttle(horizon / 8, 7 * horizon / 8, 0.05);
        let hit = run_faulted_at_load(&sim, 0.3, horizon, 29, &throttled, dl);
        assert!(
            hit.training_throughput_ops < 0.8 * base.training_throughput_ops,
            "throttle {} vs base {}",
            hit.training_throughput_ops,
            base.training_throughput_ops
        );
    }

    #[test]
    fn formation_stall_delays_requests() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let horizon = 100_000_000;
        // One request right at the start of a long stall window.
        let stall = FaultScenario::named("stall").with_stall(10_000_000, 40_000_000);
        let r = sim
            .run_faulted(&[10_000_000], horizon, &stall, Some(SloSpec::new(1e-3).unwrap()))
            .unwrap();
        assert_eq!(r.completed_requests, 1);
        // The request cannot form a batch until the stall lifts at 40M:
        // latency ≥ 30M cycles = 30 ms.
        assert!(r.latency.max() >= 0.030, "latency {}", r.latency.max());
        let slo = r.slo.unwrap();
        assert_eq!(slo.deadline_misses, 1);
        assert!(slo.recovered);
    }

    #[test]
    fn corruption_without_retry_drops_batches() {
        let sim = sim_with(SchedulerPolicy::InferenceOnly, false);
        let horizon = 400_000_000;
        let corrupt = FaultScenario::named("corrupt").with_corruption(0.3, 99);
        let rate = 0.5 * sim.max_request_rate_per_cycle();
        let arrivals = scenario_arrivals(&corrupt, rate, horizon, 31).unwrap();
        let slo = Some(SloSpec::new(deadline_s(&sim)).unwrap());
        let r = sim.run_faulted(&arrivals, horizon, &corrupt, slo).unwrap();
        let slo = r.slo.as_ref().unwrap();
        assert!(slo.corrupted_batches > 0);
        assert_eq!(slo.retried_batches, 0, "retry disabled by default");
        assert_eq!(slo.dropped_batches, slo.corrupted_batches);
        assert!(slo.dropped_requests > 0);
        assert!(slo.total_violations() > 0);
        // The report's total counts the drops inside warm-up too, so the
        // whole run's arrivals are accounted for.
        assert!(r.dropped_requests > slo.dropped_requests as u64, "a drop inside warm-up");
        assert_eq!(
            r.completed_requests + r.shed_requests + r.dropped_requests
                + slo.final_queue_depth as u64,
            arrivals.len() as u64
        );
    }

    #[test]
    fn bounded_retry_recovers_corrupted_batches() {
        let d = dims();
        let mut c = config(SchedulerPolicy::InferenceOnly);
        c.degradation.retry = crate::config::RetryPolicy::bounded_default();
        let sim = Simulation::new(c, timing(&d), None).unwrap();
        let horizon = 400_000_000;
        let corrupt = FaultScenario::named("corrupt").with_corruption(0.2, 99);
        let r = run_faulted_at_load(&sim, 0.4, horizon, 31, &corrupt, deadline_s(&sim));
        let slo = r.slo.unwrap();
        assert!(slo.corrupted_batches > 0);
        assert!(slo.retried_batches > 0);
        // With p=0.2 and 3 attempts, dropping needs 4 consecutive
        // corruptions (p ≈ 0.0016): virtually all batches survive.
        assert!(
            slo.dropped_batches * 20 < slo.corrupted_batches.max(20),
            "{slo:?}"
        );
    }

    #[test]
    fn shedding_bounds_queue_under_overload() {
        let d = dims();
        let mut c = config(SchedulerPolicy::InferenceOnly);
        c.degradation.shed_above = Some(8 * d.n);
        let shedding = Simulation::new(c, timing(&d), None).unwrap();
        let plain = sim_with(SchedulerPolicy::InferenceOnly, false);
        let horizon = 200_000_000;
        let dl = deadline_s(&plain);
        let over = run_faulted_at_load(&plain, 1.5, horizon, 41, &FaultScenario::baseline(), dl);
        let shed = run_faulted_at_load(&shedding, 1.5, horizon, 41, &FaultScenario::baseline(), dl);
        let over_slo = over.slo.unwrap();
        let shed_slo = shed.slo.unwrap();
        // Without shedding the queue grows without bound.
        assert!(over_slo.indicates_unbounded_growth(16), "{over_slo:?}");
        // Shedding caps the queue at the admission threshold.
        assert!(shed_slo.peak_queue_depth <= 8 * d.n + d.n, "{shed_slo:?}");
        assert!(shed_slo.shed_requests > 0);
        assert!(shed.shed_requests > 0);
        // Admitted requests are served promptly: tail latency bounded.
        assert!(shed.latency.p99() < over.latency.p99());
    }

    #[test]
    fn preemption_protects_inference_under_burst() {
        let d = dims();
        let mut c = config(SchedulerPolicy::Fair);
        let t = timing(&d);
        let train = TrainingProfile::profile(
            &ModelSpec::lstm_2048_25(),
            &d,
            &TrainingSetup::paper_default(),
        );
        let fair = Simulation::new(c.clone(), t, Some(train)).unwrap();
        c.degradation.preempt_training_above = Some(2 * d.n);
        let preempting = Simulation::new(c, t, Some(train)).unwrap();
        let horizon = 400_000_000;
        let burst =
            FaultScenario::named("burst").with_burst(horizon / 4, horizon / 2, 4.0);
        let dl = deadline_s(&fair);
        let hit = run_faulted_at_load(&fair, 0.6, horizon, 43, &burst, dl);
        let saved = run_faulted_at_load(&preempting, 0.6, horizon, 43, &burst, dl);
        assert!(
            saved.latency.p99() < hit.latency.p99(),
            "preemption p99 {} vs fair p99 {}",
            saved.latency.p99(),
            hit.latency.p99()
        );
        // Training still makes progress outside the burst.
        assert!(saved.training_throughput_ops > 0.0);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let horizon = 200_000_000;
        let s = FaultScenario::named("mix")
            .with_burst(horizon / 4, horizon / 2, 3.0)
            .with_throttle(horizon / 3, 2 * horizon / 3, 0.25)
            .with_corruption(0.05, 7)
            .with_stall(horizon / 2, horizon / 2 + 5_000_000);
        let dl = deadline_s(&sim);
        let a = run_faulted_at_load(&sim, 0.6, horizon, 47, &s, dl);
        let b = run_faulted_at_load(&sim, 0.6, horizon, 47, &s, dl);
        assert_eq!(a.completed_requests, b.completed_requests);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.slo, b.slo);
    }

    #[test]
    fn recovery_measured_after_burst() {
        let sim = sim_with(SchedulerPolicy::Priority { queue_threshold: 32 }, true);
        let horizon = 400_000_000;
        let burst =
            FaultScenario::named("burst").with_burst(horizon / 4, horizon / 3, 3.0);
        let r = run_faulted_at_load(&sim, 0.5, horizon, 53, &burst, deadline_s(&sim));
        let slo = r.slo.unwrap();
        assert!(slo.recovered, "{slo:?}");
        let rec = slo.recovery_cycles.expect("windowed scenario measures recovery");
        assert!(rec >= 0.0);
        // At 0.5 load the backlog drains well before the horizon.
        assert!(rec < horizon as f64 / 2.0, "recovery {rec}");
    }
}
