//! Pass family 5: operand-level dataflow analysis over byte regions.
//!
//! Every data-touching instruction names the byte
//! [`Region`] of the on-chip buffer
//! it reads or writes, so the analyzer reasons about *which bytes* move
//! where instead of whole-buffer occupancy totals. Per buffer it
//! tracks:
//!
//! * a **defined-bytes interval set** — reads not fully covered by
//!   earlier writes are a use-before-define error
//!   ([`Code::USE_BEFORE_DEFINE`]);
//! * **pending definitions** (one record per defining write) — a write
//!   that partially overlaps a not-yet-consumed definition corrupts the
//!   surviving part ([`Code::PARTIAL_CLOBBER`]); a DRAM load fully
//!   overwritten (or never read) before any consumer is a dead store
//!   ([`Code::DEAD_STORE`]);
//! * the **current epoch's accesses** — `Sync` delimits epochs, and
//!   within one epoch DMA transfers run asynchronously alongside
//!   compute. Overlapping same-epoch accesses with a DMA participant
//!   and a write on either side race ([`Code::DMA_RACE`]) — the
//!   double-buffer aliasing class a missing `Sync` causes. Overlapping
//!   *compute* accesses are fine: the MMU→SIMD pipeline executes them
//!   in order (accumulation over k-chunks deliberately rewrites its
//!   output tile).
//!
//! Pending definitions live in a [`RegionMap`], so the settle-on-write
//! discipline keeps them disjoint, and the two cases that dominate
//! lowered programs — a write to exactly a pending region and a read
//! inside one — cost one tree lookup each.
//!
//! The race scan sorts an epoch's accesses by `(offset, pc)` and, for
//! each access, walks the later ones until they start past its end.
//! Compute-against-compute overlaps are by far the most common (k-chunk
//! matmuls re-reading one input or weight tile) and can never race, so
//! a compute access walks only the epoch's DMA accesses, through an
//! index of their sorted positions; a DMA access still walks every
//! later access. The pairs skipped are exactly those with no DMA side,
//! and each access still meets its partners in sorted order and stops
//! at the same point, so the races found, and their order, are those of
//! a scan over every later access.
//!
//! Regions past their buffer's capacity are flagged
//! ([`Code::REGION_OUT_OF_BOUNDS`]), and tile-multiply operands smaller
//! than the extents the instruction touches are suspicious
//! ([`Code::UNDERSIZED_OPERAND`]).
//!
//! Unaddressed operands (the zero [`Region`] sentinel) are skipped:
//! hand-written programs may elide placement, and the resource passes
//! still cover them.

use crate::diag::{Code, Diagnostic, Span};
use crate::intervals::{IntervalSet, RegionMap};
use equinox_arith::Encoding;
use equinox_isa::instruction::{BufferKind, Region};
use equinox_isa::validate::BufferBudget;
use equinox_isa::{Instruction, Program};

/// SIMD register file capacity (§5's SRAM split: 5 MB).
pub const SIMD_REGISTER_BYTES: u64 = 5 << 20;

fn buffer_index(kind: BufferKind) -> usize {
    match kind {
        BufferKind::Activation => 0,
        BufferKind::Weight => 1,
        BufferKind::Instruction => 2,
        BufferKind::SimdRegisters => 3,
    }
}

fn buffer_name(kind: BufferKind) -> &'static str {
    match kind {
        BufferKind::Activation => "activation buffer",
        BufferKind::Weight => "weight buffer",
        BufferKind::Instruction => "instruction buffer",
        BufferKind::SimdRegisters => "SIMD register file",
    }
}

const BUFFERS: [BufferKind; 4] = [
    BufferKind::Activation,
    BufferKind::Weight,
    BufferKind::Instruction,
    BufferKind::SimdRegisters,
];

/// Capacity of one on-chip buffer under `budget`, bytes.
pub fn buffer_capacity(budget: &BufferBudget, kind: BufferKind) -> u64 {
    match kind {
        BufferKind::Activation => budget.activation_bytes,
        BufferKind::Weight => budget.weight_bytes,
        BufferKind::Instruction => budget.instruction_bytes,
        BufferKind::SimdRegisters => SIMD_REGISTER_BYTES,
    }
}

/// What produced a pending definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DefKind {
    /// A `LoadDram` — unconsumed data is a wasted DRAM transfer.
    Load,
    /// A compute write (`MatMulTile` output, `Simd` in-place result).
    Compute,
}

/// One defining write whose bytes are still (partially) live; the
/// [`RegionMap`] span it sits on is its live region.
#[derive(Debug, Clone, Copy)]
struct DefRecord {
    kind: DefKind,
    pc: usize,
    read: bool,
}

/// One access inside the current epoch.
#[derive(Debug, Clone, Copy)]
struct Access {
    region: Region,
    pc: usize,
    is_write: bool,
    is_dma: bool,
}

#[derive(Default)]
struct BufferState {
    defined: IntervalSet,
    /// Pending definitions, pairwise disjoint: every overlap query is
    /// one backward walk from the region's end, near-linear over whole
    /// programs.
    defs: RegionMap<DefRecord>,
    epoch: Vec<Access>,
    oob_reported: bool,
}

/// Work counters for the pass, used by the scaling regression test
/// (counter-based, not wall-clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataflowStats {
    /// Instructions walked.
    pub instructions: u64,
    /// Pending-definition intervals visited across all reads/writes
    /// (each overlap test or settle touches one). Near-linear analysis
    /// keeps this O(instructions); the old linear scan made it
    /// O(instructions × live defs).
    pub visited_intervals: u64,
    /// High-water mark of simultaneously pending definitions.
    pub max_pending_defs: usize,
    /// Same-epoch access pairs the race scan examined. Only pairs with
    /// a DMA side are examined, so an epoch of compute accesses costs
    /// none however much they overlap.
    pub race_pairs: u64,
}

struct Analyzer<'a> {
    budget: &'a BufferBudget,
    state: [BufferState; 4],
    /// Sorted positions of the closing epoch's DMA accesses, reused
    /// across epochs and buffers.
    dma: Vec<usize>,
    diags: Vec<Diagnostic>,
    stats: DataflowStats,
}

impl Analyzer<'_> {
    fn read(&mut self, kind: BufferKind, region: Region, pc: usize, is_dma: bool) {
        if region.is_empty() {
            return;
        }
        let s = &mut self.state[buffer_index(kind)];
        if let Some((gap_start, gap_end)) = s.defined.first_gap(region.offset, region.end()) {
            self.diags.push(
                Diagnostic::error(
                    Code::USE_BEFORE_DEFINE,
                    format!(
                        "reads {region} of the {} but bytes [{gap_start:#x}..{gap_end:#x}) \
                         were never defined",
                        buffer_name(kind)
                    ),
                )
                .with_span(Span::at(pc)),
            );
        }
        let visited =
            s.defs.for_each_overlap_mut(region.offset, region.end(), |_, _, def| def.read = true);
        self.stats.visited_intervals += visited as u64;
        s.epoch.push(Access { region, pc, is_write: false, is_dma });
    }

    fn write(
        &mut self,
        kind: BufferKind,
        region: Region,
        pc: usize,
        def_kind: DefKind,
        is_dma: bool,
    ) {
        if region.is_empty() {
            return;
        }
        let capacity = buffer_capacity(self.budget, kind);
        let s = &mut self.state[buffer_index(kind)];
        if region.end() > capacity && !s.oob_reported {
            s.oob_reported = true;
            self.diags.push(
                Diagnostic::error(
                    Code::REGION_OUT_OF_BOUNDS,
                    format!(
                        "writes {region}, past the {} byte capacity of the {} \
                         (further overruns of this buffer are not repeated)",
                        capacity,
                        buffer_name(kind)
                    ),
                )
                .with_span(Span::at(pc)),
            );
        }
        // Settle every pending definition this write touches, in
        // ascending start order.
        let diags = &mut self.diags;
        let record = DefRecord { kind: def_kind, pc, read: false };
        let visited = s.defs.overwrite(region.offset, region.end(), record, |start, end, def| {
            let settled = Region::new(start, end - start);
            if region.contains(&settled) {
                // Fully superseded. An unread DRAM load that never met a
                // consumer was a wasted transfer.
                if !def.read && def.kind == DefKind::Load {
                    diags.push(
                        Diagnostic::warning(
                            Code::DEAD_STORE,
                            format!(
                                "load of {settled} into the {} is overwritten at instr {pc} \
                                 before anything reads it",
                                buffer_name(kind)
                            ),
                        )
                        .with_span(Span::at(def.pc)),
                    );
                }
            } else if !def.read {
                // Partial overlap: the definition survives with a hole.
                diags.push(
                    Diagnostic::warning(
                        Code::PARTIAL_CLOBBER,
                        format!(
                            "write to {region} of the {} partially overwrites the live \
                             region {settled} defined at instr {}",
                            buffer_name(kind),
                            def.pc
                        ),
                    )
                    .with_span(Span::at(pc)),
                );
            }
        });
        self.stats.visited_intervals += visited as u64 + 1;
        self.stats.max_pending_defs = self.stats.max_pending_defs.max(s.defs.len());
        s.defined.insert(region.offset, region.end());
        s.epoch.push(Access { region, pc, is_write: true, is_dma });
    }

    /// Closes the current epoch: flags overlapping accesses where a DMA
    /// transfer races a write, then clears the epoch lists. Only pairs
    /// with a DMA side are examined (see the module docs).
    fn close_epoch(&mut self) {
        for kind in BUFFERS {
            let s = &mut self.state[buffer_index(kind)];
            s.epoch.sort_by_key(|a| (a.region.offset, a.pc));
            self.dma.clear();
            self.dma.extend(s.epoch.iter().enumerate().filter(|(_, a)| a.is_dma).map(|(j, _)| j));
            // The first DMA position after the current access.
            let mut next_dma = 0;
            for i in 0..s.epoch.len() {
                let a = s.epoch[i];
                while next_dma < self.dma.len() && self.dma[next_dma] <= i {
                    next_dma += 1;
                }
                let partners =
                    if a.is_dma { i + 1..s.epoch.len() } else { next_dma..self.dma.len() };
                for k in partners {
                    let j = if a.is_dma { k } else { self.dma[k] };
                    let b = s.epoch[j];
                    self.stats.race_pairs += 1;
                    if b.region.offset >= a.region.end() {
                        break;
                    }
                    if (a.is_write || b.is_write) && a.region.overlaps(&b.region) {
                        self.diags.push(race(kind, a, b));
                    }
                }
            }
            s.epoch.clear();
        }
    }
}

/// The [`Code::DMA_RACE`] error for two overlapping same-epoch accesses,
/// at least one a DMA transfer and one a write.
fn race(kind: BufferKind, a: Access, b: Access) -> Diagnostic {
    let (first, second) = if a.pc <= b.pc { (a, b) } else { (b, a) };
    Diagnostic::error(
        Code::DMA_RACE,
        format!(
            "in-flight DMA and a same-epoch {} touch overlapping \
             bytes of the {} ({} at instr {} vs {} at instr {}); \
             a Sync must separate them",
            if second.is_write { "write" } else { "read" },
            buffer_name(kind),
            first.region,
            first.pc,
            second.region,
            second.pc
        ),
    )
    .with_span(Span { start: first.pc, end: second.pc + 1 })
}

/// Runs the dataflow pass over `program`.
///
/// `encoding` sizes the bytes a tile multiply's extents touch for the
/// undersized-operand lint.
pub fn analyze(program: &Program, budget: &BufferBudget, encoding: Encoding) -> Vec<Diagnostic> {
    analyze_with_stats(program, budget, encoding).0
}

/// [`analyze`], additionally returning the pass's work counters (the
/// scaling regression test asserts near-linearity on them).
pub fn analyze_with_stats(
    program: &Program,
    budget: &BufferBudget,
    encoding: Encoding,
) -> (Vec<Diagnostic>, DataflowStats) {
    let bpv = encoding.bytes_per_value() as u64;
    let mut a = Analyzer {
        budget,
        state: Default::default(),
        dma: Vec::new(),
        diags: Vec::new(),
        stats: DataflowStats::default(),
    };
    a.stats.instructions = program.instructions().len() as u64;

    for (pc, instr) in program.instructions().iter().enumerate() {
        match *instr {
            Instruction::LoadDram { target, region } => {
                a.write(target, region, pc, DefKind::Load, true);
            }
            Instruction::StoreDram { source, region } => {
                a.read(source, region, pc, true);
            }
            Instruction::MatMulTile {
                rows, k_span, out_span, weights, input, output, ..
            } => {
                let weight_need = k_span as u64 * out_span as u64 * bpv;
                if !weights.is_empty() && weights.bytes < weight_need {
                    a.diags.push(
                        Diagnostic::warning(
                            Code::UNDERSIZED_OPERAND,
                            format!(
                                "weight operand {weights} holds fewer bytes than the \
                                 {k_span}×{out_span} tile needs ({weight_need})"
                            ),
                        )
                        .with_span(Span::at(pc)),
                    );
                }
                let out_need = rows as u64 * out_span as u64 * bpv;
                if !output.is_empty() && output.bytes < out_need {
                    a.diags.push(
                        Diagnostic::warning(
                            Code::UNDERSIZED_OPERAND,
                            format!(
                                "output operand {output} holds fewer bytes than the \
                                 {rows}×{out_span} result needs ({out_need})"
                            ),
                        )
                        .with_span(Span::at(pc)),
                    );
                }
                a.read(BufferKind::Weight, weights, pc, false);
                // The input region is not checked for size: lowered
                // convolutions stage a compressed window the im2col unit
                // expands on the fly (§3.1).
                a.read(BufferKind::Activation, input, pc, false);
                a.write(BufferKind::Activation, output, pc, DefKind::Compute, false);
            }
            Instruction::Simd { region, .. } => {
                // In-place read-modify-write on the activation buffer.
                a.read(BufferKind::Activation, region, pc, false);
                a.write(BufferKind::Activation, region, pc, DefKind::Compute, false);
            }
            Instruction::Sync => a.close_epoch(),
            Instruction::HostIo { .. } => {}
        }
    }
    a.close_epoch();

    // Loads whose data never met a consumer.
    for kind in BUFFERS {
        let s = &a.state[buffer_index(kind)];
        for (start, end, def) in s.defs.iter() {
            if def.kind == DefKind::Load && !def.read {
                a.diags.push(
                    Diagnostic::warning(
                        Code::DEAD_STORE,
                        format!(
                            "load of {} into the {} is never consumed",
                            Region::new(start, end - start),
                            buffer_name(kind)
                        ),
                    )
                    .with_span(Span::at(def.pc)),
                );
            }
        }
    }
    (a.diags, a.stats)
}

/// The pass on plain data structures: a `BTreeMap` of pending
/// definitions that collects every def a write settles into a fresh
/// `Vec` and re-inserts its remainders, and a race scan over every
/// later overlapping access, DMA or not. It is the specification the
/// equivalence properties hold the pass to; its `race_pairs` counts the
/// pairs that scan examines.
#[cfg(test)]
pub(crate) mod reference {
    use super::{
        buffer_capacity, buffer_index, buffer_name, Access, DataflowStats, DefKind, BUFFERS,
    };
    use crate::diag::{Code, Diagnostic, Span};
    use crate::intervals::IntervalSet;
    use equinox_arith::Encoding;
    use equinox_isa::instruction::{BufferKind, Region};
    use equinox_isa::validate::BufferBudget;
    use equinox_isa::{Instruction, Program};
    use std::collections::BTreeMap;

    /// One defining write whose bytes are still (partially) live.
    #[derive(Debug, Clone, Copy)]
    struct DefRecord {
        region: Region,
        kind: DefKind,
        pc: usize,
        read: bool,
    }

    #[derive(Default)]
    struct BufferState {
        defined: IntervalSet,
        /// Pending definitions indexed by byte offset (`region.offset` →
        /// record). The settle-on-write discipline keeps them pairwise
        /// disjoint, so every overlap query is one `range(..end)` walk that
        /// stops at the first non-overlapping def — near-linear over whole
        /// programs instead of the old full-scan-per-access `Vec`, which
        /// went quadratic on the ~1.2 M-instruction training lowerings.
        defs: BTreeMap<u64, DefRecord>,
        epoch: Vec<Access>,
        oob_reported: bool,
    }

    struct Analyzer<'a> {
        budget: &'a BufferBudget,
        state: [BufferState; 4],
        diags: Vec<Diagnostic>,
        stats: DataflowStats,
    }

    impl Analyzer<'_> {
        fn read(&mut self, kind: BufferKind, region: Region, pc: usize, is_dma: bool) {
            if region.is_empty() {
                return;
            }
            let s = &mut self.state[buffer_index(kind)];
            if let Some((gap_start, gap_end)) = s.defined.first_gap(region.offset, region.end()) {
                self.diags.push(
                    Diagnostic::error(
                        Code::USE_BEFORE_DEFINE,
                        format!(
                            "reads {region} of the {} but bytes [{gap_start:#x}..{gap_end:#x}) \
                             were never defined",
                            buffer_name(kind)
                        ),
                    )
                    .with_span(Span::at(pc)),
                );
            }
            // Defs are disjoint and start-sorted: walking `range(..end)`
            // backward, the first def ending at or before `region.offset`
            // proves every earlier def is disjoint too.
            for (_, def) in s.defs.range_mut(..region.end()).rev() {
                self.stats.visited_intervals += 1;
                if def.region.end() <= region.offset {
                    break;
                }
                def.read = true;
            }
            s.epoch.push(Access { region, pc, is_write: false, is_dma });
        }

        fn write(
            &mut self,
            kind: BufferKind,
            region: Region,
            pc: usize,
            def_kind: DefKind,
            is_dma: bool,
        ) {
            if region.is_empty() {
                return;
            }
            let capacity = buffer_capacity(self.budget, kind);
            let s = &mut self.state[buffer_index(kind)];
            if region.end() > capacity && !s.oob_reported {
                s.oob_reported = true;
                self.diags.push(
                    Diagnostic::error(
                        Code::REGION_OUT_OF_BOUNDS,
                        format!(
                            "writes {region}, past the {} byte capacity of the {} \
                             (further overruns of this buffer are not repeated)",
                            capacity,
                            buffer_name(kind)
                        ),
                    )
                    .with_span(Span::at(pc)),
                );
            }
            // Settle every pending definition this write touches: collect
            // the overlapping starts via the offset index (same backward
            // walk as `read`), then remove and split each one. Everything
            // outside `range(..end)` up to the break point is untouched.
            let mut overlapping: Vec<u64> = Vec::new();
            for (&start, def) in s.defs.range(..region.end()).rev() {
                self.stats.visited_intervals += 1;
                if def.region.end() <= region.offset {
                    break;
                }
                overlapping.push(start);
            }
            // Process in ascending start order, matching the old in-order
            // `Vec` scan so diagnostic order is stable.
            for &start in overlapping.iter().rev() {
                let def = s.defs.remove(&start).expect("indexed def exists");
                if region.contains(&def.region) {
                    // Fully superseded. An unread DRAM load that never met a
                    // consumer was a wasted transfer.
                    if !def.read && def.kind == DefKind::Load {
                        self.diags.push(
                            Diagnostic::warning(
                                Code::DEAD_STORE,
                                format!(
                                    "load of {} into the {} is overwritten at instr {pc} \
                                     before anything reads it",
                                    def.region,
                                    buffer_name(kind)
                                ),
                            )
                            .with_span(Span::at(def.pc)),
                        );
                    }
                    continue;
                }
                // Partial overlap: the definition survives with a hole.
                if !def.read {
                    self.diags.push(
                        Diagnostic::warning(
                            Code::PARTIAL_CLOBBER,
                            format!(
                                "write to {region} of the {} partially overwrites the live \
                                 region {} defined at instr {}",
                                buffer_name(kind),
                                def.region,
                                def.pc
                            ),
                        )
                        .with_span(Span::at(pc)),
                    );
                }
                // Keep the surviving left/right remainders.
                if def.region.offset < region.offset {
                    let left = Region::new(def.region.offset, region.offset - def.region.offset);
                    s.defs.insert(left.offset, DefRecord { region: left, ..def });
                }
                if def.region.end() > region.end() {
                    let right = Region::new(region.end(), def.region.end() - region.end());
                    s.defs.insert(right.offset, DefRecord { region: right, ..def });
                }
            }
            s.defs.insert(region.offset, DefRecord { region, kind: def_kind, pc, read: false });
            self.stats.visited_intervals += 1;
            self.stats.max_pending_defs = self.stats.max_pending_defs.max(s.defs.len());
            s.defined.insert(region.offset, region.end());
            s.epoch.push(Access { region, pc, is_write: true, is_dma });
        }

        /// Closes the current epoch: flags overlapping accesses where a DMA
        /// transfer races a write, then clears the epoch lists.
        fn close_epoch(&mut self) {
            for kind in BUFFERS {
                let s = &mut self.state[buffer_index(kind)];
                s.epoch.sort_by_key(|a| (a.region.offset, a.pc));
                for i in 0..s.epoch.len() {
                    let a = s.epoch[i];
                    for j in (i + 1)..s.epoch.len() {
                        let b = s.epoch[j];
                        self.stats.race_pairs += 1;
                        if b.region.offset >= a.region.end() {
                            break;
                        }
                        if (a.is_dma || b.is_dma)
                            && (a.is_write || b.is_write)
                            && a.region.overlaps(&b.region)
                        {
                            let (first, second) = if a.pc <= b.pc { (a, b) } else { (b, a) };
                            self.diags.push(
                                Diagnostic::error(
                                    Code::DMA_RACE,
                                    format!(
                                        "in-flight DMA and a same-epoch {} touch overlapping \
                                         bytes of the {} ({} at instr {} vs {} at instr {}); \
                                         a Sync must separate them",
                                        if second.is_write { "write" } else { "read" },
                                        buffer_name(kind),
                                        first.region,
                                        first.pc,
                                        second.region,
                                        second.pc
                                    ),
                                )
                                .with_span(Span { start: first.pc, end: second.pc + 1 }),
                            );
                        }
                    }
                }
                s.epoch.clear();
            }
        }
    }

    /// [`analyze`], additionally returning the pass's work counters (the
    /// scaling regression test asserts near-linearity on them).
    pub(crate) fn analyze_with_stats(
        program: &Program,
        budget: &BufferBudget,
        encoding: Encoding,
    ) -> (Vec<Diagnostic>, DataflowStats) {
        let bpv = encoding.bytes_per_value() as u64;
        let mut a = Analyzer {
            budget,
            state: Default::default(),
            diags: Vec::new(),
            stats: DataflowStats::default(),
        };
        a.stats.instructions = program.instructions().len() as u64;

        for (pc, instr) in program.instructions().iter().enumerate() {
            match *instr {
                Instruction::LoadDram { target, region } => {
                    a.write(target, region, pc, DefKind::Load, true);
                }
                Instruction::StoreDram { source, region } => {
                    a.read(source, region, pc, true);
                }
                Instruction::MatMulTile {
                    rows, k_span, out_span, weights, input, output, ..
                } => {
                    let weight_need = k_span as u64 * out_span as u64 * bpv;
                    if !weights.is_empty() && weights.bytes < weight_need {
                        a.diags.push(
                            Diagnostic::warning(
                                Code::UNDERSIZED_OPERAND,
                                format!(
                                    "weight operand {weights} holds fewer bytes than the \
                                     {k_span}×{out_span} tile needs ({weight_need})"
                                ),
                            )
                            .with_span(Span::at(pc)),
                        );
                    }
                    let out_need = rows as u64 * out_span as u64 * bpv;
                    if !output.is_empty() && output.bytes < out_need {
                        a.diags.push(
                            Diagnostic::warning(
                                Code::UNDERSIZED_OPERAND,
                                format!(
                                    "output operand {output} holds fewer bytes than the \
                                     {rows}×{out_span} result needs ({out_need})"
                                ),
                            )
                            .with_span(Span::at(pc)),
                        );
                    }
                    a.read(BufferKind::Weight, weights, pc, false);
                    // The input region is not checked for size: lowered
                    // convolutions stage a compressed window the im2col unit
                    // expands on the fly (§3.1).
                    a.read(BufferKind::Activation, input, pc, false);
                    a.write(BufferKind::Activation, output, pc, DefKind::Compute, false);
                }
                Instruction::Simd { region, .. } => {
                    // In-place read-modify-write on the activation buffer.
                    a.read(BufferKind::Activation, region, pc, false);
                    a.write(BufferKind::Activation, region, pc, DefKind::Compute, false);
                }
                Instruction::Sync => a.close_epoch(),
                Instruction::HostIo { .. } => {}
            }
        }
        a.close_epoch();

        // Loads whose data never met a consumer.
        for kind in BUFFERS {
            let s = &a.state[buffer_index(kind)];
            for def in s.defs.values() {
                if def.kind == DefKind::Load && !def.read {
                    a.diags.push(
                        Diagnostic::warning(
                            Code::DEAD_STORE,
                            format!(
                                "load of {} into the {} is never consumed",
                                def.region,
                                buffer_name(kind)
                            ),
                        )
                        .with_span(Span::at(def.pc)),
                    );
                }
            }
        }
        (a.diags, a.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_isa::instruction::SimdOpKind;
    use equinox_isa::layers::GemmMode;

    fn budget() -> BufferBudget {
        BufferBudget::paper_default()
    }

    fn load(offset: u64, bytes: u64) -> Instruction {
        Instruction::LoadDram {
            target: BufferKind::Activation,
            region: Region::new(offset, bytes),
        }
    }

    fn store(offset: u64, bytes: u64) -> Instruction {
        Instruction::StoreDram {
            source: BufferKind::Activation,
            region: Region::new(offset, bytes),
        }
    }

    /// `n` disjoint loads, one sync, then `n` matching stores — the
    /// shape of a training lowering's streamed activation traffic.
    fn disjoint_grid(n: u64) -> Program {
        let mut p = Program::new("grid");
        for i in 0..n {
            p.push(load(i * 64, 64));
        }
        p.push(Instruction::Sync);
        for i in 0..n {
            p.push(store(i * 64, 64));
        }
        p
    }

    #[test]
    fn visited_interval_work_scales_near_linearly() {
        // Regression guard for the offset index: with the old linear
        // pending-defs scan a 4x larger program cost ~16x the interval
        // visits; the BTreeMap range walk keeps it ~4x. Counter-based,
        // not wall-clock, so it is stable on loaded CI machines.
        let b = budget();
        let (d1, s1) = analyze_with_stats(&disjoint_grid(256), &b, Encoding::Hbfp8);
        let (d4, s4) = analyze_with_stats(&disjoint_grid(1024), &b, Encoding::Hbfp8);
        assert!(d1.is_empty(), "{d1:?}");
        assert!(d4.is_empty(), "{d4:?}");
        assert!(s4.instructions > 3 * s1.instructions);
        assert_eq!(s4.max_pending_defs, 1024);
        assert!(s1.visited_intervals > 0);
        assert!(
            s4.visited_intervals < 8 * s1.visited_intervals,
            "4x program should cost <8x interval visits, got {} -> {}",
            s1.visited_intervals,
            s4.visited_intervals
        );
    }

    /// A compute read of `input`: a tile multiply with no other operand.
    fn compute_read(input: Region) -> Instruction {
        Instruction::MatMulTile {
            rows: 1,
            k_span: 1,
            out_span: 1,
            mode: GemmMode::VectorMatrix,
            weights: Region::unaddressed(),
            input,
            output: Region::unaddressed(),
        }
    }

    #[test]
    fn race_scan_examines_only_pairs_with_a_dma_side() {
        const N: u64 = 48;
        let tile = Region::new(0, 256);
        let races = |d: &[Diagnostic]| d.iter().filter(|d| d.code == Code::DMA_RACE).count() as u64;

        // One epoch of N compute reads of one tile: nothing can race,
        // so nothing is examined; the reference scan walks every pair.
        let mut p = Program::new("reads");
        p.extend([load(0, 256), Instruction::Sync]);
        p.extend((0..N).map(|_| compute_read(tile)));
        let (d, stats) = analyze_with_stats(&p, &budget(), Encoding::Hbfp8);
        let (ref_d, ref_stats) = reference::analyze_with_stats(&p, &budget(), Encoding::Hbfp8);
        assert!(d.is_empty(), "{d:?}");
        assert!(ref_d.is_empty(), "{ref_d:?}");
        assert_eq!(stats.race_pairs, 0);
        assert_eq!(ref_stats.race_pairs, N * (N - 1) / 2);

        // One DMA load of the tile in the same epoch, sorting after
        // every read (a later pc) or before them (an earlier one): at
        // most N pairs, and every read races it.
        let mut after = Program::new("load-after");
        after.extend([load(0, 256), Instruction::Sync]);
        after.extend((0..N).map(|_| compute_read(tile)));
        after.extend([load(0, 256), Instruction::Sync, store(0, 256)]);
        let mut before = Program::new("load-before");
        before.push(load(0, 256));
        before.extend((0..N).map(|_| compute_read(tile)));
        for p in [after, before] {
            let (d, stats) = analyze_with_stats(&p, &budget(), Encoding::Hbfp8);
            assert!(stats.race_pairs <= N, "{}: {} pairs", p.name(), stats.race_pairs);
            assert_eq!(races(&d), N, "{}: {d:?}", p.name());
            assert_eq!(d, reference::analyze_with_stats(&p, &budget(), Encoding::Hbfp8).0);
        }
    }

    #[test]
    fn balanced_load_store_is_clean() {
        let mut p = Program::new("ok");
        p.extend([load(0, 1024), Instruction::Sync, store(0, 1024)]);
        assert!(analyze(&p, &budget(), Encoding::Hbfp8).is_empty());
    }

    #[test]
    fn store_of_undefined_bytes_is_use_before_define() {
        let mut p = Program::new("bad");
        p.push(store(64, 64));
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::USE_BEFORE_DEFINE);
        assert_eq!(d[0].span, Some(Span::at(0)));
        assert!(d[0].message.contains("[0x40..0x80)"), "{}", d[0].message);
    }

    #[test]
    fn store_wider_than_the_definition_is_flagged() {
        // The old occupancy pass was byte-count based and would accept
        // this: 1024 bytes are resident, 1024 are stored — but from a
        // *different place* in the buffer.
        let mut p = Program::new("shifted");
        p.extend([load(0, 1024), Instruction::Sync, store(512, 1024)]);
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert!(d.iter().any(|d| d.code == Code::USE_BEFORE_DEFINE), "{d:?}");
    }

    #[test]
    fn partial_clobber_of_unconsumed_region_warns() {
        let mut p = Program::new("clobber");
        p.extend([
            load(0, 1024),
            Instruction::Sync,
            load(512, 1024),
            Instruction::Sync,
            store(0, 1536),
        ]);
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, Code::PARTIAL_CLOBBER);
        assert_eq!(d[0].span, Some(Span::at(2)));
    }

    #[test]
    fn full_overwrite_of_read_data_is_silent() {
        let mut p = Program::new("reuse");
        p.extend([
            load(0, 1024),
            Instruction::Sync,
            store(0, 1024),
            Instruction::Sync,
            load(0, 1024),
            Instruction::Sync,
            store(0, 1024),
        ]);
        assert!(analyze(&p, &budget(), Encoding::Hbfp8).is_empty());
    }

    #[test]
    fn same_epoch_dma_overlap_is_a_race() {
        // Two in-flight loads into overlapping halves with no Sync: the
        // classic double-buffer aliasing bug.
        let mut p = Program::new("race");
        p.extend([load(0, 1024), load(512, 1024), Instruction::Sync]);
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        let races: Vec<_> = d.iter().filter(|d| d.code == Code::DMA_RACE).collect();
        assert_eq!(races.len(), 1, "{d:?}");
        assert_eq!(races[0].span, Some(Span { start: 0, end: 2 }));
    }

    #[test]
    fn same_epoch_store_of_computed_tile_races() {
        let mut p = Program::new("early-store");
        p.extend([
            load(0, 64),
            Instruction::Sync,
            Instruction::MatMulTile {
                rows: 8,
                k_span: 8,
                out_span: 8,
                mode: GemmMode::VectorMatrix,
                weights: Region::unaddressed(),
                input: Region::new(0, 64),
                output: Region::new(4096, 64),
            },
            // Missing Sync: the store streams out while the MMU is
            // still writing the tile.
            store(4096, 64),
        ]);
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert!(d.iter().any(|d| d.code == Code::DMA_RACE), "{d:?}");
    }

    #[test]
    fn separated_double_buffer_halves_are_clean() {
        // The same two windows, disjoint and Sync-separated: fine.
        let mut p = Program::new("pingpong");
        p.extend([
            load(0, 1024),
            load(1024, 1024),
            Instruction::Sync,
            store(0, 1024),
            store(1024, 1024),
        ]);
        assert!(analyze(&p, &budget(), Encoding::Hbfp8).is_empty());
    }

    #[test]
    fn region_past_capacity_is_out_of_bounds() {
        let cap = budget().activation_bytes;
        let mut p = Program::new("oob");
        p.extend([load(cap, 512), load(cap + 1024, 512), Instruction::Sync]);
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        let oob: Vec<_> = d.iter().filter(|d| d.code == Code::REGION_OUT_OF_BOUNDS).collect();
        assert_eq!(oob.len(), 1, "reported once per buffer: {d:?}");
        assert_eq!(oob[0].span, Some(Span::at(0)));
    }

    #[test]
    fn unconsumed_load_is_dead_store() {
        let mut p = Program::new("dead");
        p.push(load(0, 128));
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::DEAD_STORE);
        assert_eq!(d[0].severity, crate::diag::Severity::Warning);
    }

    #[test]
    fn overwritten_unread_load_is_dead_store_at_the_load() {
        let mut p = Program::new("wasted");
        p.extend([load(0, 128), Instruction::Sync, load(0, 128), Instruction::Sync, store(0, 128)]);
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, Code::DEAD_STORE);
        assert_eq!(d[0].span, Some(Span::at(0)));
    }

    #[test]
    fn matmul_reads_weights_and_writes_output() {
        let mut p = Program::new("mm");
        p.extend([
            Instruction::LoadDram { target: BufferKind::Weight, region: Region::new(0, 64) },
            load(0, 64),
            Instruction::Sync,
            Instruction::MatMulTile {
                rows: 8,
                k_span: 8,
                out_span: 8,
                mode: GemmMode::VectorMatrix,
                weights: Region::new(0, 64),
                input: Region::new(0, 64),
                output: Region::new(1024, 64),
            },
            Instruction::Sync,
            store(1024, 64),
        ]);
        assert!(analyze(&p, &budget(), Encoding::Hbfp8).is_empty());
    }

    #[test]
    fn matmul_on_undefined_weights_is_use_before_define() {
        let mut p = Program::new("no-weights");
        p.extend([
            load(0, 64),
            Instruction::Sync,
            Instruction::MatMulTile {
                rows: 8,
                k_span: 8,
                out_span: 8,
                mode: GemmMode::VectorMatrix,
                weights: Region::new(0, 64),
                input: Region::new(0, 64),
                output: Region::new(1024, 64),
            },
            Instruction::Sync,
            store(1024, 64),
        ]);
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert!(
            d.iter().any(|d| d.code == Code::USE_BEFORE_DEFINE
                && d.message.contains("weight buffer")),
            "{d:?}"
        );
    }

    #[test]
    fn undersized_operands_warn() {
        let mut p = Program::new("small");
        p.push(Instruction::MatMulTile {
            rows: 16,
            k_span: 8,
            out_span: 8,
            mode: GemmMode::VectorMatrix,
            weights: Region::new(0, 8), // needs 64
            input: Region::unaddressed(),
            output: Region::new(1024, 16), // needs 128
        });
        let d = analyze(&p, &budget(), Encoding::Hbfp8);
        assert_eq!(
            d.iter().filter(|d| d.code == Code::UNDERSIZED_OPERAND).count(),
            2,
            "{d:?}"
        );
    }

    #[test]
    fn waw_accumulation_over_k_chunks_is_silent() {
        // Two k-chunk matmuls write the same output tile, then SIMD
        // accumulates and a store drains it — the Figure 4 pattern.
        let out = Region::new(2048, 64);
        let mm = |k0: u64| Instruction::MatMulTile {
            rows: 8,
            k_span: 8,
            out_span: 8,
            mode: GemmMode::VectorMatrix,
            weights: Region::new(k0, 64),
            input: Region::new(0, 128),
            output: out,
        };
        let mut p = Program::new("accum");
        p.extend([
            Instruction::LoadDram { target: BufferKind::Weight, region: Region::new(0, 128) },
            load(0, 128),
            Instruction::Sync,
            mm(0),
            mm(64),
            Instruction::Simd { kind: SimdOpKind::Elementwise, elems: 64, region: out },
            Instruction::Sync,
            store(2048, 64),
        ]);
        assert!(analyze(&p, &budget(), Encoding::Hbfp8).is_empty());
    }

    #[test]
    fn unaddressed_operands_are_skipped() {
        let mut p = Program::new("legacy");
        p.push(Instruction::matmul(8, 8, 8, GemmMode::VectorMatrix));
        p.push(Instruction::simd(SimdOpKind::Activation, 64));
        assert!(analyze(&p, &budget(), Encoding::Hbfp8).is_empty());
    }
}
