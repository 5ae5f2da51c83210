//! The engine's event queue: one FIFO lane per distinct scheduling
//! delay, ordered by a small binary heap over the lanes' heads.
//!
//! An item is scheduled a non-negative delay after the queue's clock,
//! and the clock only moves forward, to the time of the item just
//! popped. Two items sharing a delay therefore enter their lane in
//! `(time, seq)` order: the later push has a clock no earlier and a
//! larger push sequence number. Each lane is thus already sorted, so
//! the earliest pending item is the earliest lane head. The heads heap
//! holds one `(time, seq, lane)` key per non-empty lane, and `pop`
//! returns exactly the sequence one binary heap over every pending
//! item, keyed by `(time, seq)`, would — while that heap holds a
//! handful of lanes rather than every packet in flight.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// A delay-lane priority queue with its own monotone clock.
pub(crate) struct LaneQueue<T> {
    now: u64,
    next_seq: u64,
    lanes: Vec<VecDeque<Entry<T>>>,
    lane_of: BTreeMap<u64, usize>,
    heads: BinaryHeap<Reverse<(u64, u64, usize)>>,
}

impl<T> LaneQueue<T> {
    /// An empty queue at time 0.
    pub(crate) fn new() -> Self {
        LaneQueue {
            now: 0,
            next_seq: 0,
            lanes: Vec::new(),
            lane_of: BTreeMap::new(),
            heads: BinaryHeap::new(),
        }
    }

    /// The time of the last popped item; 0 before the first pop.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `item` at `now() + delay`. Items due at the same time
    /// pop in push order.
    pub(crate) fn push(&mut self, delay: u64, item: T) {
        let lanes = &mut self.lanes;
        let lane = *self.lane_of.entry(delay).or_insert_with(|| {
            lanes.push(VecDeque::new());
            lanes.len() - 1
        });
        let entry = Entry { time: self.now + delay, seq: self.next_seq, item };
        self.next_seq += 1;
        let fifo = &mut self.lanes[lane];
        if fifo.is_empty() {
            self.heads.push(Reverse((entry.time, entry.seq, lane)));
        }
        fifo.push_back(entry);
    }

    /// Removes the earliest item by `(time, push order)` and advances
    /// the clock to its time.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let mut head = self.heads.peek_mut()?;
        let lane = head.0 .2;
        let fifo = &mut self.lanes[lane];
        let Entry { time, item, .. } =
            fifo.pop_front().expect("every head key names a non-empty lane");
        match fifo.front() {
            Some(next) => *head = Reverse((next.time, next.seq, lane)),
            None => {
                PeekMut::pop(head);
            }
        }
        self.now = time;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::check::check;

    #[test]
    fn pops_in_the_order_of_a_binary_heap_keyed_by_time_and_push_order() {
        check(0x1a4e, |gen| {
            let repeated: Vec<u64> = vec![0, 1, 128, 1_000, 3_000, 60_000];
            let mut queue = LaneQueue::new();
            let mut oracle = BinaryHeap::new();
            let mut pushed = 0u64;
            for _ in 0..gen.usize_in(50, 400) {
                // Several pushes at the same instant, then a pop or two.
                for _ in 0..gen.usize_in(0, 5) {
                    let delay = if gen.usize_in(0, 8) == 0 {
                        // A one-shot delay, most likely never reused.
                        gen.next_u64() % 1_000_000
                    } else {
                        repeated[gen.usize_in(0, repeated.len())]
                    };
                    oracle.push(Reverse((queue.now() + delay, pushed)));
                    queue.push(delay, pushed);
                    pushed += 1;
                }
                for _ in 0..gen.usize_in(1, 3) {
                    let expect = oracle.pop().map(|Reverse(key)| key);
                    let got = queue.pop().map(|item| (queue.now(), item));
                    assert_eq!(got, expect);
                }
            }
            while let Some(Reverse(expect)) = oracle.pop() {
                assert_eq!(queue.pop().map(|item| (queue.now(), item)), Some(expect));
            }
            assert_eq!(queue.pop(), None);
        });
    }
}
