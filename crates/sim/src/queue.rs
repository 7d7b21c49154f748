//! The pending-event queue: a few monotone FIFO lanes in front of a
//! binary heap.
//!
//! The traffic a link-level simulation puts in its queue is a handful of
//! monotone streams — wakes at `now`, at `now + ack_latency`, per-link
//! arrival and per-node DMA-done horizons — so most pushes carry a time
//! no earlier than the last push of the same stream. A lane is a
//! FIFO kept sorted by construction: an entry is only ever appended
//! to a lane whose back is not later than it, and because `seq` only
//! grows, time order within a lane is `(time, seq)` order. Such a push
//! and the matching pop are O(1) moves of one entry instead of O(log n)
//! sift steps of 32-byte entries.
//!
//! **Best fit.** A push goes to the lane whose back time is the *latest*
//! one not after the new time. First fit would be just as correct, but it
//! lets a far-future entry cap the first lane and pushes every nearer
//! stream one lane down; best fit keeps each stream in the lane it
//! already owns, so the lanes do not fragment.
//!
//! **The heap stays.** A push that fits no lane — more concurrent streams
//! than lanes, or scattered deltas — goes to the overflow heap, which
//! bounds the worst case at the old queue's O(log n); the same
//! `BinaryHeap` is the oracle the differential test below pops against.
//!
//! **No knob.** A calendar or ladder queue needs a bucket width matched
//! to the deltas in flight; lanes have no parameter that depends on the
//! traffic, only [`LANES`], past which the heap takes over.
//!
//! Pop order is the total `(time, seq)` order whichever store an entry
//! sat in, so results cannot depend on lane assignment.

use crate::event::Entry;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Number of FIFO lanes. The widest world in the repo (`nas_w`, 16 ranks)
/// lands 99.85% of its pushes in 8 lanes; every 2-rank workload all of
/// them.
const LANES: usize = 8;

/// Entries per ring of lane storage.
const RING: usize = 64;

/// One FIFO lane, stored in [`RING`]-entry rings. A shallow lane lives in
/// its one ring; a deep one takes more from the pool the lanes share and
/// hands each back once drained, so the memory held follows the entries
/// queued, whichever lane they sit in. (One growing `VecDeque` per lane
/// keeps every lane at the deepest it has ever been: `sim_raw`'s `deepq`
/// leg held 2.5 entries' room per entry queued.)
struct Lane<W> {
    /// Full rings waiting to be drained, oldest first.
    full: VecDeque<Ring<W>>,
    /// The ring that takes new entries; never more than [`RING`] of them.
    last: Ring<W>,
}

type Ring<W> = VecDeque<Entry<W>>;

impl<W> Lane<W> {
    /// Allocates the lane's first ring and room for four full ones now,
    /// not on first use, so that a lane no deeper than five rings
    /// allocates nothing while events run: a small allocation made in the
    /// middle of a run can split a large free block the world was about to
    /// re-use (benchmark `fabric_raw`: 15.4 MB resident on every seed with
    /// this, 19.4 MB on some or all seeds with any part of it lazy).
    fn new() -> Self {
        Lane {
            full: VecDeque::with_capacity(4),
            last: Ring::with_capacity(RING),
        }
    }

    #[inline]
    fn front(&self) -> Option<&Entry<W>> {
        match self.full.front() {
            Some(ring) => ring.front(),
            None => self.last.front(),
        }
    }

    #[inline]
    fn push_back(&mut self, entry: Entry<W>, spare: &mut Vec<Ring<W>>) {
        if self.last.len() == RING {
            let empty = spare.pop().unwrap_or_else(|| Ring::with_capacity(RING));
            let full = std::mem::replace(&mut self.last, empty);
            self.full.push_back(full);
        }
        self.last.push_back(entry);
    }

    #[inline]
    fn pop_front(&mut self, spare: &mut Vec<Ring<W>>) -> Option<Entry<W>> {
        let Some(ring) = self.full.front_mut() else {
            return self.last.pop_front();
        };
        let entry = ring.pop_front();
        if ring.is_empty() {
            spare.extend(self.full.pop_front());
        }
        entry
    }
}

/// Front key of a lane that holds nothing; `seq` never reaches `u64::MAX`,
/// so every real key compares below it.
const EMPTY: (SimTime, u64) = (SimTime::MAX, u64::MAX);

pub(crate) struct EventQueue<W> {
    /// Lanes `..open` have been used; the rest hold nothing and are never
    /// scanned, so a depth-1 queue pays for one lane, not [`LANES`].
    open: usize,
    /// Per lane, the key of its front entry ([`EMPTY`] if none), cached
    /// so `pop` compares within two cache lines.
    fronts: [(SimTime, u64); LANES],
    /// Per lane, the time of the last entry appended to it. It outlives
    /// the entry: a drained lane keeps a back no later than the last
    /// popped time, so it fits every push the engine can make next.
    backs: [SimTime; LANES],
    lanes: [Lane<W>; LANES],
    /// Drained rings, for whichever lane next fills its last one (room
    /// for the first few from construction, as in [`Lane::new`]).
    spare: Vec<Ring<W>>,
    overflow: BinaryHeap<Reverse<Entry<W>>>,
}

impl<W> EventQueue<W> {
    pub(crate) fn new() -> Self {
        EventQueue {
            open: 0,
            fronts: [EMPTY; LANES],
            backs: [SimTime::ZERO; LANES],
            lanes: std::array::from_fn(|_| Lane::new()),
            spare: Vec::with_capacity(LANES),
            overflow: BinaryHeap::new(),
        }
    }

    /// Queues `entry`. Its `seq` must exceed every `seq` pushed before;
    /// that is all pop order relies on. (That its time is not before the
    /// last popped time is what makes a drained lane fit again, and so
    /// only a matter of speed.)
    ///
    /// `push` and `pop` have one caller each, in the scheduler, and left
    /// out of line they cost a depth-1 queue a third of its event rate.
    #[inline]
    pub(crate) fn push(&mut self, entry: Entry<W>) {
        let mut fit = None;
        for (lane, &back) in self.backs[..self.open].iter().enumerate() {
            if back <= entry.time && fit.is_none_or(|(_, best)| back > best) {
                fit = Some((lane, back));
            }
        }
        let lane = match fit {
            Some((lane, _)) => lane,
            None if self.open < LANES => {
                self.open += 1;
                self.open - 1
            }
            None => return self.overflow.push(Reverse(entry)),
        };
        self.backs[lane] = entry.time;
        if self.fronts[lane] == EMPTY {
            self.fronts[lane] = entry.key();
        }
        self.lanes[lane].push_back(entry, &mut self.spare);
    }

    /// Removes and returns the entry with the least `(time, seq)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Entry<W>> {
        let mut least = self.overflow.peek().map_or(EMPTY, |Reverse(e)| e.key());
        let mut from = None;
        for (lane, &front) in self.fronts[..self.open].iter().enumerate() {
            if front < least {
                least = front;
                from = Some(lane);
            }
        }
        let Some(lane) = from else {
            return self.overflow.pop().map(|Reverse(e)| e);
        };
        let entry = self.lanes[lane].pop_front(&mut self.spare);
        self.fronts[lane] = self.lanes[lane].front().map_or(EMPTY, Entry::key);
        entry
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        let in_lanes = |l: &Lane<W>| l.full.iter().map(Ring::len).sum::<usize>() + l.last.len();
        self.lanes.iter().map(in_lanes).sum::<usize>() + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::process::ProcId;
    use std::cell::Cell;
    use testutil::prop::{check, shrink, Case, Gen};

    fn entry(time: u64, seq: u64) -> Entry<()> {
        Entry {
            time: SimTime::from_nanos(time),
            seq,
            kind: EventKind::Resume(ProcId(0)),
        }
    }

    fn pop_key(q: &mut EventQueue<()>) -> Option<(u64, u64)> {
        q.pop().map(|e| (e.time.as_nanos(), e.seq))
    }

    #[test]
    fn a_stream_no_lane_fits_goes_to_the_heap_and_still_pops_in_order() {
        let mut q = EventQueue::new();
        // Strictly decreasing times: each needs a lane of its own.
        let n = LANES as u64 + 2;
        for seq in 0..n {
            q.push(entry(100 * (n - seq), seq));
        }
        assert_eq!(q.open, LANES);
        assert_eq!(q.overflow.len(), 2);
        // Same-time entries in different stores pop by `seq`.
        q.push(entry(100, n));
        assert_eq!(q.len(), LANES + 3);
        let order: Vec<_> = std::iter::from_fn(|| pop_key(&mut q)).collect();
        let mut want: Vec<_> = (0..n).rev().map(|seq| (100 * (n - seq), seq)).collect();
        want.insert(1, (100, n));
        assert_eq!(order, want);
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Push at the last popped time plus this delta.
        Push(u64),
        Pop,
    }

    /// The fabric model's link/DMA-like latencies.
    const FIXED_DELTAS: [u64; 5] = [130, 260, 520, 1040, 4160];

    #[derive(Clone, Debug)]
    struct Schedule(Vec<Op>);

    impl Case for Schedule {
        fn generate(g: &mut Gen) -> Self {
            let mut ops = Vec::new();
            for _ in 0..g.usize_in(1..12) {
                let len = g.usize_in(1..80);
                match g.index(4) {
                    // A same-time burst: only `seq` orders it, and one lane
                    // takes all of it, several rings deep.
                    0 => {
                        let delta = FIXED_DELTAS[g.index(FIXED_DELTAS.len())];
                        ops.extend((0..4 * len).map(|_| Op::Push(delta)));
                    }
                    // Scattered deltas with few pops: far more distinct
                    // streams than lanes, so the heap takes the rest.
                    1 => ops.extend((0..len).map(|_| Op::Push(g.u64_in(0..10_000)))),
                    // A drain (pops past empty are no-ops on both sides):
                    // what follows re-uses emptied lanes.
                    2 => ops.extend((0..2 * len).map(|_| Op::Pop)),
                    // Traffic: every pop schedules a successor or two.
                    _ => ops.extend((0..len).map(|_| match g.index(5) {
                        0 | 1 => Op::Pop,
                        2 => Op::Push(0),
                        3 => Op::Push(FIXED_DELTAS[g.index(FIXED_DELTAS.len())]),
                        _ => Op::Push(g.u64_in(0..10_000)),
                    })),
                }
            }
            Schedule(ops)
        }

        fn shrink(&self) -> Vec<Self> {
            shrink::vec_candidates(&self.0, 1, |op| match *op {
                Op::Push(d) => shrink::u64_toward(d, 0).into_iter().map(Op::Push).collect(),
                Op::Pop => Vec::new(),
            })
            .into_iter()
            .map(Schedule)
            .collect()
        }
    }

    /// Differential test against a plain `BinaryHeap` of keys, under the
    /// engine's own precondition: no push before the last popped time,
    /// `seq` strictly increasing.
    #[test]
    fn pops_match_a_binary_heap_on_random_schedules() {
        let overflowed = Cell::new(false);
        let reused = Cell::new(false);
        let chained = Cell::new(false);
        check::<Schedule>("queue_vs_heap", 400, |case| {
            let mut q = EventQueue::new();
            let mut oracle = BinaryHeap::new();
            let (mut now, mut seq) = (0, 0);
            for &op in &case.0 {
                match op {
                    Op::Push(delta) => {
                        let drained = (q.open > 0 && q.len() == 0).then_some(q.open);
                        q.push(entry(now + delta, seq));
                        oracle.push(Reverse((now + delta, seq)));
                        seq += 1;
                        if let Some(open) = drained {
                            assert_eq!(q.open, open, "a drained lane fits any later push");
                            reused.set(true);
                        }
                        overflowed.set(overflowed.get() || !q.overflow.is_empty());
                        chained.set(chained.get() || q.lanes.iter().any(|l| l.full.len() > 1));
                    }
                    Op::Pop => {
                        let got = pop_key(&mut q);
                        assert_eq!(got, oracle.pop().map(|Reverse(key)| key));
                        if let Some((time, _)) = got {
                            now = time;
                        }
                    }
                }
                assert_eq!(q.len(), oracle.len());
            }
            while let Some(Reverse(key)) = oracle.pop() {
                assert_eq!(pop_key(&mut q), Some(key));
            }
            assert_eq!(pop_key(&mut q), None);
        });
        assert!(overflowed.get(), "no schedule reached the overflow heap");
        assert!(reused.get(), "no schedule pushed into a drained queue");
        assert!(chained.get(), "no schedule filled a lane three rings deep");
    }
}
