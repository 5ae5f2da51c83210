//! Byte-interval structures behind the stateful analyzer passes.
//!
//! Intervals are half-open `[start, end)` byte ranges.
//!
//! * [`IntervalSet`] — the dataflow pass's defined bytes. It keeps its
//!   spans sorted, non-empty and coalesced, so coverage queries are a
//!   binary search and insertion merges any touching neighbours.
//! * [`RegionMap`] — disjoint spans that each carry a value: the
//!   dataflow pass's pending definitions and the numerics pass's
//!   abstract tensors. A write *settles* whatever it overlaps: spans it
//!   covers go, spans it cuts keep their value on the remainders. Two
//!   cases dominate lowered programs and take one tree lookup each: a
//!   write to exactly an existing span (k-chunk accumulation, SIMD in
//!   place, double-buffer reloads), and a read inside one span.

use std::collections::BTreeMap;

/// A set of disjoint half-open byte intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Sorted, disjoint, non-empty `[start, end)` spans.
    spans: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet { spans: Vec::new() }
    }

    /// True when no bytes are in the set.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of disjoint spans (after coalescing).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Inserts `[start, end)`, merging with any overlapping or adjacent
    /// spans. Empty ranges are ignored.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // First span that could merge: the last one starting at or
        // before `end` whose end reaches `start`.
        let lo = self.spans.partition_point(|&(_, e)| e < start);
        let hi = self.spans.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.spans.insert(lo, (start, end));
            return;
        }
        let merged = (start.min(self.spans[lo].0), end.max(self.spans[hi - 1].1));
        self.spans.splice(lo..hi, [merged]);
    }

    /// Total number of bytes in the set (sum of span lengths).
    pub fn covered_bytes(&self) -> u64 {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }

    /// True when every byte of `[start, end)` is in the set. The empty
    /// range is covered trivially.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        self.first_gap(start, end).is_none()
    }

    /// The first maximal sub-range of `[start, end)` not in the set, or
    /// `None` when the range is fully covered.
    pub fn first_gap(&self, start: u64, end: u64) -> Option<(u64, u64)> {
        if start >= end {
            return None;
        }
        let i = self.spans.partition_point(|&(_, e)| e <= start);
        match self.spans.get(i) {
            Some(&(s, e)) if s <= start => {
                if e >= end {
                    None
                } else {
                    // Covered up to `e`; the gap starts there.
                    let gap_end = self.spans.get(i + 1).map_or(end, |&(ns, _)| ns.min(end));
                    Some((e, gap_end))
                }
            }
            Some(&(s, _)) => Some((start, s.min(end))),
            None => Some((start, end)),
        }
    }
}

/// Disjoint, non-empty `[start, end)` spans keyed by start, each with a
/// value.
#[derive(Debug)]
pub struct RegionMap<V> {
    /// `start → (end, value)`, pairwise disjoint.
    spans: BTreeMap<u64, (u64, V)>,
    /// The spans one [`RegionMap::overwrite`] settles, in descending
    /// start order; kept between calls so that settling needs no fresh
    /// buffer.
    settled: Vec<(u64, u64, V)>,
}

impl<V> Default for RegionMap<V> {
    fn default() -> Self {
        RegionMap { spans: BTreeMap::new(), settled: Vec::new() }
    }
}

impl<V: Copy> RegionMap<V> {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the map holds no span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Every span as `(start, end, value)`, in ascending start order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, &V)> {
        self.spans.iter().map(|(&start, (end, v))| (start, *end, v))
    }

    /// Calls `visit` on every span overlapping `[start, end)`, in
    /// descending start order, and returns the number of spans
    /// examined. An empty range overlaps nothing.
    ///
    /// The walk starts at the last span starting before `end` and stops
    /// after the first span starting at or before `start`: every span
    /// before that one ends before `start`. So a range inside one span
    /// costs one lookup and one visit.
    pub fn for_each_overlap(
        &self,
        start: u64,
        end: u64,
        mut visit: impl FnMut(u64, u64, &V),
    ) -> usize {
        let mut examined = 0;
        if start >= end {
            return examined;
        }
        for (&s, (e, v)) in self.spans.range(..end).rev() {
            examined += 1;
            if *e <= start {
                break;
            }
            visit(s, *e, v);
            if s <= start {
                break;
            }
        }
        examined
    }

    /// [`RegionMap::for_each_overlap`] with mutable access to the
    /// values.
    pub fn for_each_overlap_mut(
        &mut self,
        start: u64,
        end: u64,
        mut visit: impl FnMut(u64, u64, &mut V),
    ) -> usize {
        let mut examined = 0;
        if start >= end {
            return examined;
        }
        for (&s, (e, v)) in self.spans.range_mut(..end).rev() {
            examined += 1;
            if *e <= start {
                break;
            }
            visit(s, *e, v);
            if s <= start {
                break;
            }
        }
        examined
    }

    /// Makes `[start, end)` (non-empty) one span holding `value`.
    ///
    /// Every span it overlaps is settled first: `on_settled` sees each
    /// as `(start, end, value)`, in ascending start order. A settled
    /// span inside `[start, end)` goes; one that sticks out keeps its
    /// value on the part outside. Returns the number of spans examined.
    ///
    /// A write to exactly an existing span replaces its value in place:
    /// no other span can overlap it, so that is one lookup.
    pub fn overwrite(
        &mut self,
        start: u64,
        end: u64,
        value: V,
        mut on_settled: impl FnMut(u64, u64, V),
    ) -> usize {
        assert!(start < end, "empty span [{start}, {end})");
        let mut examined = 0;
        self.settled.clear();
        for (&s, (e, v)) in self.spans.range_mut(..end).rev() {
            examined += 1;
            if *e <= start {
                break;
            }
            if s == start && *e == end {
                // The last span starting before `end` is this one, so
                // it is the only overlap.
                on_settled(s, *e, *v);
                *v = value;
                return examined;
            }
            self.settled.push((s, *e, *v));
            if s <= start {
                break;
            }
        }
        for &(s, e, v) in self.settled.iter().rev() {
            on_settled(s, e, v);
            if s < start {
                // The left remainder keeps the key.
                self.spans.insert(s, (start, v));
            } else if s > start {
                self.spans.remove(&s);
            }
            if e > end {
                self.spans.insert(end, (e, v));
            }
        }
        self.spans.insert(start, (end, value));
        examined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_coalesces_neighbours() {
        let mut s = IntervalSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        assert_eq!(s.span_count(), 2);
        s.insert(10, 20); // exactly bridges the gap
        assert_eq!(s.span_count(), 1);
        assert!(s.covers(0, 30));
        assert!(!s.covers(0, 31));
        assert_eq!(s.covered_bytes(), 30);
    }

    #[test]
    fn insert_merges_overlaps() {
        let mut s = IntervalSet::new();
        s.insert(5, 15);
        s.insert(10, 40);
        s.insert(0, 6);
        assert_eq!(s.span_count(), 1);
        assert!(s.covers(0, 40));
    }

    #[test]
    fn empty_ranges_are_noops_and_covered() {
        let mut s = IntervalSet::new();
        s.insert(7, 7);
        assert!(s.is_empty());
        assert!(s.covers(100, 100));
        assert_eq!(s.first_gap(9, 9), None);
    }

    #[test]
    fn first_gap_reports_the_missing_bytes() {
        let mut s = IntervalSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        assert_eq!(s.first_gap(0, 30), Some((10, 20)));
        assert_eq!(s.first_gap(5, 9), None);
        assert_eq!(s.first_gap(25, 40), Some((30, 40)));
        assert_eq!(s.first_gap(40, 50), Some((40, 50)));
        assert_eq!(s.first_gap(12, 18), Some((12, 18)));
    }

    #[test]
    fn disjoint_inserts_stay_sorted() {
        let mut s = IntervalSet::new();
        s.insert(50, 60);
        s.insert(0, 10);
        s.insert(25, 30);
        assert_eq!(s.span_count(), 3);
        assert!(s.covers(25, 30));
        assert!(!s.covers(10, 25));
        assert_eq!(s.first_gap(55, 70), Some((60, 70)));
    }

    fn spans(m: &RegionMap<char>) -> Vec<(u64, u64, char)> {
        m.iter().map(|(s, e, &v)| (s, e, v)).collect()
    }

    fn settle(m: &mut RegionMap<char>, start: u64, end: u64, v: char) -> Vec<(u64, u64, char)> {
        let mut settled = Vec::new();
        m.overwrite(start, end, v, |s, e, old| settled.push((s, e, old)));
        settled
    }

    #[test]
    fn overwrite_settles_in_ascending_order_and_keeps_remainders() {
        let mut m = RegionMap::default();
        for (s, e, v) in [(0, 10, 'a'), (10, 20, 'b'), (30, 40, 'c')] {
            assert!(settle(&mut m, s, e, v).is_empty());
        }
        // Cuts `a` and `c`, covers `b`, fills the gap between.
        let settled = settle(&mut m, 5, 35, 'x');
        assert_eq!(settled, vec![(0, 10, 'a'), (10, 20, 'b'), (30, 40, 'c')]);
        assert_eq!(spans(&m), vec![(0, 5, 'a'), (5, 35, 'x'), (35, 40, 'c')]);
    }

    #[test]
    fn overwrite_inside_one_span_splits_it_in_two() {
        let mut m = RegionMap::default();
        settle(&mut m, 0, 64, 'a');
        assert_eq!(settle(&mut m, 16, 32, 'b'), vec![(0, 64, 'a')]);
        assert_eq!(spans(&m), vec![(0, 16, 'a'), (16, 32, 'b'), (32, 64, 'a')]);
    }

    #[test]
    fn exact_overwrite_is_one_lookup() {
        let mut m = RegionMap::default();
        settle(&mut m, 0, 16, 'a');
        settle(&mut m, 16, 32, 'b');
        settle(&mut m, 32, 48, 'c');
        let mut settled = Vec::new();
        let examined = m.overwrite(16, 32, 'x', |s, e, v| settled.push((s, e, v)));
        assert_eq!(examined, 1);
        assert_eq!(settled, vec![(16, 32, 'b')]);
        assert_eq!(spans(&m), vec![(0, 16, 'a'), (16, 32, 'x'), (32, 48, 'c')]);
    }

    #[test]
    fn overlap_visitors_stop_at_the_first_span_reaching_back_to_the_start() {
        let mut m = RegionMap::default();
        for (s, e, v) in [(0, 16, 'a'), (16, 32, 'b'), (40, 48, 'c')] {
            settle(&mut m, s, e, v);
        }
        let mut seen = Vec::new();
        // Inside `b`: one lookup, one visit.
        assert_eq!(m.for_each_overlap(20, 30, |s, e, &v| seen.push((s, e, v))), 1);
        assert_eq!(seen, vec![(16, 32, 'b')]);
        // Straddling `a` and `b`, and reaching into the gap before `c`.
        seen.clear();
        m.for_each_overlap(8, 36, |s, e, &v| seen.push((s, e, v)));
        assert_eq!(seen, vec![(16, 32, 'b'), (0, 16, 'a')]);
        // Entirely in the gap, and an empty range inside `b`.
        seen.clear();
        m.for_each_overlap(32, 40, |s, e, &v| seen.push((s, e, v)));
        m.for_each_overlap(20, 20, |s, e, &v| seen.push((s, e, v)));
        assert!(seen.is_empty());
        // The mutable visitor sees the same spans.
        m.for_each_overlap_mut(8, 44, |_, _, v| *v = v.to_ascii_uppercase());
        assert_eq!(spans(&m), vec![(0, 16, 'A'), (16, 32, 'B'), (40, 48, 'C')]);
    }
}
