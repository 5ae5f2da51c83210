//! Process-wide memoized compilation cache.
//!
//! The evaluation stack compiles the same lowerings over and over: the
//! analyzer sweep over the paper family, `Equinox::check`,
//! `Equinox::compile`, and the other experiment drivers all lower
//! identical `(model, dims, batch, encoding, budget)` points — and with
//! the parallel runtime several of them do so *concurrently*. This module
//! memoizes [`crate::lower::compile_inference_with`] and
//! [`crate::training::lower_training`] behind `Arc`-shared programs so each
//! distinct lowering is compiled once per process.
//!
//! Lowering is a pure function of the key, so cache hits are
//! behavior-preserving; eviction (or a concurrent double-compile racing
//! for the same key) only costs recompilation, never changes a result.
//! Hit/miss/eviction counters feed `results/bench_timings.json` so the
//! perf trajectory of future PRs records how much the cache carries.
//!
//! ## Bounds
//!
//! Training lowerings reach millions of instructions, so the cache is
//! bounded two ways: programs above [`MAX_ENTRY_INSTRUCTIONS`] bypass
//! the cache entirely (compiled per call, as before), and the resident
//! total is capped at [`MAX_TOTAL_INSTRUCTIONS`] with oldest-first
//! eviction. At ~`100 B` per instruction the worst-case footprint is a
//! few hundred MB, far under the working set of the analyses themselves.

use crate::lower::compile_inference_with;
use crate::models::ModelSpec;
use crate::training::{lower_training, TrainingSetup};
use crate::validate::BufferBudget;
use crate::{ArrayDims, Program};
use equinox_arith::Encoding;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Programs larger than this are compiled per call instead of cached.
pub const MAX_ENTRY_INSTRUCTIONS: u64 = 2_500_000;

/// Upper bound on the summed instruction count of resident entries;
/// oldest entries are evicted past it.
pub const MAX_TOTAL_INSTRUCTIONS: u64 = 6_000_000;

/// What one lowering was keyed on. `TrainingSetup` carries an `f64`
/// traffic factor, hashed by bit pattern (it is a configured constant,
/// never computed, so bitwise equality is the right notion).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Inference {
        model: ModelSpec,
        dims: ArrayDims,
        batch: usize,
        encoding: Encoding,
        budget: (u64, u64, u64),
    },
    Training {
        model: ModelSpec,
        dims: ArrayDims,
        batch: usize,
        encoding: Encoding,
        dram_factor_bits: u64,
    },
}

/// Counters for the compile cache, for the timings artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to compile (includes bypassed oversize ones).
    pub misses: u64,
    /// Entries dropped to stay under [`MAX_TOTAL_INSTRUCTIONS`].
    pub evictions: u64,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<Key, Arc<Program>>,
    /// Insertion order, for oldest-first eviction.
    order: VecDeque<Key>,
    resident_instructions: u64,
    stats: CacheStats,
}

fn cache() -> &'static Mutex<CacheInner> {
    static CACHE: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CacheInner::default()))
}

fn lookup(key: &Key) -> Option<Arc<Program>> {
    let mut c = cache().lock().expect("compile cache poisoned");
    match c.map.get(key) {
        Some(p) => {
            let p = Arc::clone(p);
            c.stats.hits += 1;
            Some(p)
        }
        None => {
            c.stats.misses += 1;
            None
        }
    }
}

fn insert(key: Key, program: &Arc<Program>) {
    let len = program.instructions().len() as u64;
    if len > MAX_ENTRY_INSTRUCTIONS {
        return;
    }
    let mut c = cache().lock().expect("compile cache poisoned");
    if c.map.contains_key(&key) {
        // A concurrent compile of the same key won the race; keep the
        // resident copy (the programs are identical).
        return;
    }
    while c.resident_instructions + len > MAX_TOTAL_INSTRUCTIONS {
        let Some(old) = c.order.pop_front() else { break };
        if let Some(p) = c.map.remove(&old) {
            c.resident_instructions -= p.instructions().len() as u64;
            c.stats.evictions += 1;
        }
    }
    c.resident_instructions += len;
    c.order.push_back(key.clone());
    c.map.insert(key, Arc::clone(program));
}

/// Memoized [`compile_inference_with`]. The returned program is shared;
/// treat it as immutable (every analysis pass takes `&Program`).
pub fn compile_inference_cached(
    model: &ModelSpec,
    dims: &ArrayDims,
    batch: usize,
    encoding: Encoding,
    budget: &BufferBudget,
) -> Arc<Program> {
    let key = Key::Inference {
        model: model.clone(),
        dims: *dims,
        batch,
        encoding,
        budget: (budget.weight_bytes, budget.activation_bytes, budget.instruction_bytes),
    };
    if let Some(p) = lookup(&key) {
        return p;
    }
    let p = Arc::new(compile_inference_with(model, dims, batch, encoding, budget));
    insert(key, &p);
    p
}

/// Memoized [`lower_training`].
pub fn lower_training_cached(
    model: &ModelSpec,
    dims: &ArrayDims,
    setup: &TrainingSetup,
) -> Arc<Program> {
    let key = Key::Training {
        model: model.clone(),
        dims: *dims,
        batch: setup.batch,
        encoding: setup.encoding,
        dram_factor_bits: setup.dram_inefficiency_factor.to_bits(),
    };
    if let Some(p) = lookup(&key) {
        return p;
    }
    let p = Arc::new(lower_training(model, dims, setup));
    insert(key, &p);
    p
}

/// A snapshot of the process-wide cache counters.
pub fn stats() -> CacheStats {
    cache().lock().expect("compile cache poisoned").stats
}

/// Drops every resident entry and zeroes the counters (tests).
pub fn clear() {
    let mut c = cache().lock().expect("compile cache poisoned");
    *c = CacheInner::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache is process-global; tests asserting on its counters
    /// must not interleave.
    fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn dims() -> ArrayDims {
        ArrayDims { n: 16, w: 4, m: 8 }
    }

    #[test]
    fn inference_hit_returns_shared_program() {
        let _g = serial_guard();
        clear();
        let model = ModelSpec::mlp_2048x5();
        let budget = BufferBudget::paper_default();
        let a = compile_inference_cached(&model, &dims(), 16, Encoding::Hbfp8, &budget);
        let b = compile_inference_cached(&model, &dims(), 16, Encoding::Hbfp8, &budget);
        assert!(Arc::ptr_eq(&a, &b));
        let s = stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // And matches the uncached compiler exactly.
        let fresh = compile_inference_with(&model, &dims(), 16, Encoding::Hbfp8, &budget);
        assert_eq!(a.instructions(), fresh.instructions());
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let _g = serial_guard();
        clear();
        let model = ModelSpec::mlp_2048x5();
        let budget = BufferBudget::paper_default();
        let a = compile_inference_cached(&model, &dims(), 16, Encoding::Hbfp8, &budget);
        let b = compile_inference_cached(&model, &dims(), 32, Encoding::Hbfp8, &budget);
        let c = compile_inference_cached(&model, &dims(), 16, Encoding::Bfloat16, &budget);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(stats().hits, 0);
    }

    #[test]
    fn training_lowering_cached() {
        let _g = serial_guard();
        clear();
        let model = ModelSpec::mlp_2048x5();
        let setup = TrainingSetup::paper_default();
        let a = lower_training_cached(&model, &dims(), &setup);
        let b = lower_training_cached(&model, &dims(), &setup);
        assert!(Arc::ptr_eq(&a, &b));
        let fresh = lower_training(&model, &dims(), &setup);
        assert_eq!(a.instructions(), fresh.instructions());
    }

    #[test]
    fn concurrent_lookups_agree() {
        let _g = serial_guard();
        clear();
        let model = ModelSpec::mlp_2048x5();
        let budget = BufferBudget::paper_default();
        let programs = equinox_par::parallel_map_with(
            8,
            (0..32).collect::<Vec<usize>>(),
            |i| compile_inference_cached(&model, &dims(), 16 + (i % 2), Encoding::Hbfp8, &budget),
        );
        for pair in programs.chunks(2) {
            assert_eq!(pair[0].instructions().len(), pair[1].instructions().len());
        }
        let s = stats();
        assert_eq!(s.hits + s.misses, 32);
        // Two keys, at most 8 concurrently racing misses per key.
        assert!(s.hits >= 16, "{s:?}");
    }
}
