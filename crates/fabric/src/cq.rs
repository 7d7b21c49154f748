//! Completion queues with parkable waiters.

use crate::fabric::NodeId;
use crate::wr::Cqe;
use ibsim::Waker;
use std::collections::VecDeque;

/// Handle to a completion queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CqId(pub(crate) u32);

impl CqId {
    /// Dense index (for diagnostics).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A completion queue: completions from any number of QPs, plus the wakers
/// of processes blocked waiting for the next entry.
#[derive(Debug)]
pub struct Cq {
    pub(crate) node: NodeId,
    entries: VecDeque<Cqe>,
    waiters: Vec<Waker>,
    /// High-water mark of queued completions (scalability diagnostics).
    pub(crate) peak_depth: usize,
}

impl Cq {
    pub(crate) fn new(node: NodeId) -> Self {
        Cq {
            node,
            entries: VecDeque::new(),
            waiters: Vec::new(),
            peak_depth: 0,
        }
    }

    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of completions currently queued.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// High-water mark of queued completions.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    pub(crate) fn push(&mut self, cqe: Cqe) -> Vec<Waker> {
        self.entries.push_back(cqe);
        self.peak_depth = self.peak_depth.max(self.entries.len());
        std::mem::take(&mut self.waiters)
    }

    /// Takes back the (drained) list [`Cq::push`] handed out, keeping its
    /// capacity for the next registration.
    pub(crate) fn recycle_waiters(&mut self, drained: Vec<Waker>) {
        debug_assert!(drained.is_empty() && self.waiters.is_empty());
        self.waiters = drained;
    }

    pub(crate) fn pop(&mut self) -> Option<Cqe> {
        self.entries.pop_front()
    }

    /// Snapshot view of the queued completions (checkpoint encode).
    pub(crate) fn entries(&self) -> &VecDeque<Cqe> {
        &self.entries
    }

    /// Replaces the queued completions (checkpoint restore).
    pub(crate) fn restore_entries(&mut self, entries: VecDeque<Cqe>) {
        self.entries = entries;
    }

    /// Drops every registered waiter. Used at a checkpoint fence: the
    /// parked processes all resume from the fence and re-register their
    /// wakers on the next blocking wait, so a restored world (which starts
    /// with no waiters) and a released world behave identically.
    pub(crate) fn clear_waiters(&mut self) {
        self.waiters.clear();
    }

    /// Registers `waker` to be woken when the next completion is pushed.
    /// The registration is one-shot; spurious wakes are possible.
    pub fn register_waiter(&mut self, waker: Waker) {
        if !self.waiters.contains(&waker) {
            self.waiters.push(waker);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::QpId;
    use crate::wr::{CqeOpcode, CqeStatus};

    fn cqe(wr_id: u64) -> Cqe {
        Cqe {
            wr_id,
            qp: QpId(0),
            opcode: CqeOpcode::SendComplete,
            status: CqeStatus::Success,
            byte_len: 0,
        }
    }

    #[test]
    fn fifo_order_and_peak() {
        let mut cq = Cq::new(NodeId(0));
        let _ = cq.push(cqe(1));
        let _ = cq.push(cqe(2));
        assert_eq!(cq.depth(), 2);
        assert_eq!(cq.peak_depth(), 2);
        assert_eq!(cq.pop().unwrap().wr_id, 1);
        assert_eq!(cq.pop().unwrap().wr_id, 2);
        assert!(cq.pop().is_none());
        assert_eq!(cq.peak_depth(), 2);
    }
}
