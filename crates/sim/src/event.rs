//! Event queue entries and ordering.

use crate::engine::Ctx;
use crate::process::ProcId;
use crate::time::SimTime;
use std::cmp::Ordering;

/// A scheduled world mutation. Everything runs on the executor thread, so
/// event closures need not be `Send`.
pub(crate) type EventFn<W> = Box<dyn FnOnce(&mut Ctx<'_, W>)>;

pub(crate) enum EventKind<W> {
    /// Run a closure against the world, inline in the poll loop's drain;
    /// `(time, seq)` ordering alone fixes the results.
    Call(EventFn<W>),
    /// Resume a parked process: the poll loop polls its coroutine once.
    Resume(ProcId),
}

pub(crate) struct Entry<W> {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind<W>,
}

impl<W> Entry<W> {
    pub(crate) fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// Ordering is (time, seq): deterministic FIFO among same-time events.
impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<W> Eq for Entry<W> {}
impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(time: u64, seq: u64) -> Entry<()> {
        Entry {
            time: SimTime::from_nanos(time),
            seq,
            kind: EventKind::Resume(ProcId(0)),
        }
    }

    #[test]
    fn entries_order_by_time_then_seq() {
        let mut entries = [entry(20, 3), entry(10, 5), entry(10, 4), entry(5, 9)];
        entries.sort();
        let order: Vec<(u64, u64)> = entries.iter().map(|e| (e.time.as_nanos(), e.seq)).collect();
        assert_eq!(order, vec![(5, 9), (10, 4), (10, 5), (20, 3)]);
    }
}
