//! The machine-speed probe.
//!
//! On a shared machine the speed of the same code drifts by 10–25 %
//! over minutes, at times by far more, as other tenants load the cores
//! and caches under it. A fixed loop of the benchmark's own, timed
//! between passes on as many threads as the pool has, measures that
//! speed. Host times are reported rescaled to the speed at which one
//! probe round takes [`NOMINAL_S`]: drift shared by the probe and the
//! workload cancels, while a change to the repository's code cannot
//! touch the probe.

use crate::stats;
use std::time::Instant;

/// Probe rounds run in each gap between passes (and before the first).
pub const ROUNDS_PER_GAP: usize = 5;

/// Seconds one probe round takes at the reference speed: about its
/// median on the two-thread Xeon VM the baseline in
/// `benchmark/README.md` was measured on.
pub const NOMINAL_S: f64 = 0.004;

/// Loop iterations of one round on one thread (about 4 ms).
const ITERATIONS: u64 = 3_000_000;

/// Words in each thread's table: 512 KiB, so the loop runs from the
/// core's own caches, as the workloads' inner loops mostly do.
const TABLE_WORDS: usize = 1 << 16;

/// Probe rounds of one run.
pub struct Probe {
    /// One table per thread, allocated once so no round page-faults.
    tables: Vec<Vec<u64>>,
    /// Seconds of each round: the slowest thread's time.
    rounds: Vec<f64>,
}

impl Probe {
    /// A probe that runs on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Probe {
            tables: vec![vec![0; TABLE_WORDS]; threads.max(1)],
            rounds: Vec::new(),
        }
    }

    /// Runs [`ROUNDS_PER_GAP`] rounds.
    pub fn gap(&mut self) {
        for _ in 0..ROUNDS_PER_GAP {
            let (first, rest) = self.tables.split_first_mut().expect("one table per thread");
            let slowest = std::thread::scope(|s| {
                let others: Vec<_> = rest.iter_mut().map(|t| s.spawn(move || spin(t))).collect();
                let own = spin(first);
                others
                    .into_iter()
                    .map(|h| h.join().expect("probe threads do not panic"))
                    .fold(own, f64::max)
            });
            self.rounds.push(slowest);
        }
    }

    /// The run's probe time: the median of its rounds (`None` before
    /// any round). A host time `t` of the run is `t × NOMINAL_S /
    /// seconds` at the reference speed.
    pub fn seconds(&self) -> Option<f64> {
        stats::median(&self.rounds)
    }
}

/// One thread's share of a round: a multiply-add chain scattering into
/// the table. Returns its own seconds, so thread start-up is not timed.
fn spin(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mask = table.len() as u64 - 1;
    let mut x: u64 = 1;
    for i in 0..ITERATIONS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        table[((x >> 40) & mask) as usize] ^= x;
    }
    std::hint::black_box(table);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_time_is_the_median_round() {
        let mut probe = Probe::new(1);
        assert_eq!(probe.seconds(), None);
        probe.rounds = vec![9e-3, 2e-3, 4e-3, 3e-3, 40e-3];
        assert_eq!(probe.seconds(), Some(4e-3));
    }

    #[test]
    fn a_gap_times_every_round_on_every_thread() {
        let mut probe = Probe::new(2);
        probe.gap();
        assert_eq!(probe.rounds.len(), ROUNDS_PER_GAP);
        assert!(probe.rounds.iter().all(|&s| s > 0.0 && s < 1.0));
        assert!(probe.seconds().unwrap() > 0.0);
    }
}
