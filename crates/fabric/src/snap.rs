//! Checkpoint encode/decode for a quiesced fabric.
//!
//! The encoder only runs at a **checkpoint fence**: every MPI rank has
//! drained its outstanding work and parked, the event queue is empty, and
//! therefore the fabric is totally silent — no send queue holds a WQE, no
//! message is in flight, no retransmit timer or backoff pump event is
//! armed. Those invariants are asserted here.
//!
//! The image holds what a rebuild cannot recreate. The verbs objects
//! themselves — nodes, completion queues, queue pairs with their node,
//! queues and attributes, and the regions the bootstrap registers — are
//! built again by whoever restores, the way the run first built them, and
//! [`restore_fabric`] checks that the image's counts equal that shape.
//! What the image carries is the state on top, written through the
//! checked [`ibsim::codec`]: busy horizons, queued completions, each
//! queue pair's peer, state, sequence and credit words, posted receive
//! WQEs and statistics, the registrations made after the bootstrap (as
//! `(node, access, len)`, replayed in order so every [`MrId`] matches),
//! the bytes of the regions the caller names live, egress horizons, the
//! fault-RNG position and the fabric statistics.
//!
//! A live region is written the way [`crate::mem::Mr`] holds it: the
//! materialised prefix, cut at its last non-zero byte, and nothing at all
//! when that prefix is empty. Equal memory is equal bytes whether a zero
//! was stored or never written. A region the caller does not name live is
//! restored empty: its bytes are dead at the fence, because the layer
//! above reads them only after an event that cannot be pending there.
//!
//! What is *not* in the image: configuration. [`crate::FabricParams`] and
//! the [`crate::FaultPlan`] structure (rates, flap windows) are inputs the
//! restoring caller supplies again; the snapshot carries only the plan's
//! RNG position, keyed by its seed, so resuming under the *same* plan
//! continues the fault draw sequence exactly while restoring under a
//! *different* plan (e.g. a kill-and-replace scenario) starts that plan's
//! own stream untouched.

use crate::fabric::{Fabric, NodeId, VerbsError};
use crate::mem::{Access, MrId};
use crate::qp::{QpId, QpState};
use crate::wr::{Cqe, CqeOpcode, CqeStatus, RecvWr};
use ibsim::codec::{CodecError, Reader, Writer};
use ibsim::SimTime;
use std::collections::VecDeque;

/// Section tags of the fabric image (arbitrary but stable).
const TAG_FABRIC: u32 = 0xFAB0;
const TAG_NODES: u32 = 0xFAB1;
const TAG_CQS: u32 = 0xFAB2;
const TAG_QPS: u32 = 0xFAB3;
const TAG_MRS: u32 = 0xFAB4;
const TAG_NET: u32 = 0xFAB5;
const TAG_FAULT: u32 = 0xFAB6;
const TAG_STATS: u32 = 0xFAB7;

/// Encoded size of one queued completion, one posted receive WQE, one
/// replayed registration and one live region's head: what a record count
/// in the image is held against.
const CQE_BYTES: usize = 8 + 4 + 1 + 4 + 8;
const RWQE_BYTES: usize = 8 + 4 + 8 + 8;
const REG_BYTES: usize = 4 + 1 + 8;
const LIVE_BYTES: usize = 4 + 8;

/// Encoded size of a queue pair record with no peer, backoff or posted
/// receive: the least an image holds per queue pair.
pub const QP_RECORD_BYTES: usize = 1 + 1 + 8 + 4 + 4 + 1 + 8 + 4 + 8 + 8 + 8 + 8 + 8 * 10;

/// Checkpoint coordination state shared by the MPI ranks and the engine's
/// fence callback. Lives on the [`Fabric`] because that is the world type
/// every rank can reach, but it is *not* serialized: the driver of a
/// restore reconstructs it (bumping `released_epoch` past the snapshot
/// epoch so resumed ranks fall through the fence they were parked at).
#[derive(Debug, Default)]
pub struct CkptBus {
    /// Highest checkpoint epoch the fence callback has released. A rank
    /// parked at fence epoch `e` resumes once `released_epoch >= e`.
    pub released_epoch: u64,
    /// Epoch the currently-fencing ranks are waiting on. Every rank stamps
    /// this before parking; the fence callback reads it to learn which
    /// epoch just completed (all ranks necessarily agree — the fence only
    /// fires when every live rank is parked at the checkpoint note).
    pub pending_epoch: u64,
    /// Epoch at which ranks self-serialize into `rank_blobs` (None when
    /// the run is merely fencing, e.g. for a barrier-only epoch).
    pub snapshot_epoch: Option<u64>,
    /// Per-rank serialized state collected at the snapshot epoch.
    pub rank_blobs: Vec<Option<Vec<u8>>>,
}

fn state_tag(s: QpState) -> u8 {
    match s {
        QpState::Reset => 0,
        QpState::ReadyToSend => 1,
        QpState::Error => 2,
    }
}

fn state_from_tag(t: u8, context: &'static str) -> Result<QpState, CodecError> {
    match t {
        0 => Ok(QpState::Reset),
        1 => Ok(QpState::ReadyToSend),
        2 => Ok(QpState::Error),
        got => Err(CodecError::BadTag {
            context,
            want: 2,
            got: u64::from(got),
        }),
    }
}

fn opcode_tag(o: CqeOpcode) -> u8 {
    match o {
        CqeOpcode::SendComplete => 0,
        CqeOpcode::RecvComplete => 1,
        CqeOpcode::RdmaWriteComplete => 2,
    }
}

fn opcode_from_tag(t: u8, context: &'static str) -> Result<CqeOpcode, CodecError> {
    match t {
        0 => Ok(CqeOpcode::SendComplete),
        1 => Ok(CqeOpcode::RecvComplete),
        2 => Ok(CqeOpcode::RdmaWriteComplete),
        got => Err(CodecError::BadTag {
            context,
            want: 2,
            got: u64::from(got),
        }),
    }
}

fn status_from_code(c: u32, context: &'static str) -> Result<CqeStatus, CodecError> {
    match c {
        0 => Ok(CqeStatus::Success),
        1 => Ok(CqeStatus::LocalLengthError),
        5 => Ok(CqeStatus::WorkRequestFlushed),
        10 => Ok(CqeStatus::RemoteAccessError),
        12 => Ok(CqeStatus::TransportRetryExceeded),
        13 => Ok(CqeStatus::RnrRetryExceeded),
        got => Err(CodecError::BadTag {
            context,
            want: 13,
            got: u64::from(got),
        }),
    }
}

/// Serializes a quiesced fabric into `w` as one tagged section. The
/// first `bootstrap_mrs` regions are the ones a restore's rebuild
/// registers again, so only the registrations past them are recorded;
/// `live` names the regions whose bytes the resumed run can read.
///
/// # Panics
/// Asserts the quiesce invariants: no queued or in-flight send work, no
/// armed retry timer or scheduled backoff pump, no registered wakers.
/// Violations mean the caller snapshotted a world that was not at a fence
/// — a protocol bug, not a data error.
pub fn encode_fabric(
    f: &Fabric,
    bootstrap_mrs: usize,
    live: impl Fn(MrId) -> bool,
    w: &mut Writer,
) {
    assert!(
        bootstrap_mrs <= f.mrs.len(),
        "{bootstrap_mrs} bootstrap regions, but the fabric holds {}",
        f.mrs.len()
    );
    w.section(TAG_FABRIC, |w| {
        w.section(TAG_NODES, |w| {
            w.usize(f.nodes.len());
            for (i, n) in f.nodes.iter().enumerate() {
                assert!(
                    n.rdma_watchers.is_empty(),
                    "node {i}: RDMA watcher registered across a quiesce fence"
                );
                w.u64(n.tx_busy_until.as_nanos());
                w.u64(n.rx_busy_until.as_nanos());
                w.u64(n.rdma_delivered);
            }
        });
        w.section(TAG_CQS, |w| {
            w.usize(f.cqs.len());
            for cq in &f.cqs {
                w.usize(cq.peak_depth);
                w.usize(cq.entries().len());
                for e in cq.entries() {
                    w.u64(e.wr_id);
                    w.u32(e.qp.0);
                    w.u8(opcode_tag(e.opcode));
                    w.u32(e.status.code());
                    w.usize(e.byte_len);
                }
            }
        });
        w.section(TAG_QPS, |w| {
            w.usize(f.qps.len());
            for q in &f.qps {
                assert!(
                    q.sq.is_empty() && q.inflight.is_empty(),
                    "qp {}: send work alive across a quiesce fence",
                    q.id.index()
                );
                assert!(
                    !q.retry_armed && !q.pump_scheduled,
                    "qp {}: timer event alive across a quiesce fence",
                    q.id.index()
                );
                w.opt_u64(q.peer.map(|p| u64::from(p.0)));
                w.u8(state_tag(q.state));
                w.u64(q.next_msn);
                w.u32(q.adv_credits);
                w.u32(q.unacked_sends);
                w.opt_u64(q.backoff_until.map(|t| t.as_nanos()));
                w.u64(q.retry_deadline.as_nanos());
                w.u32(q.timeout_streak);
                w.u64(q.expected_msn);
                w.usize(q.rq.len());
                for r in &q.rq {
                    w.u64(r.wr_id);
                    w.u32(r.mr.0);
                    w.usize(r.offset);
                    w.usize(r.len);
                }
                w.usize(q.peak_sq_depth);
                w.usize(q.peak_rq_depth);
                w.u64(q.stats.sends_launched.get());
                w.u64(q.stats.rdma_writes.get());
                w.u64(q.stats.bytes_launched.get());
                w.u64(q.stats.retransmissions.get());
                w.u64(q.stats.rnr_naks_sent.get());
                w.u64(q.stats.rnr_naks_received.get());
                w.u64(q.stats.acks_received.get());
                w.u64(q.stats.zero_credit_probes.get());
                w.u64(q.stats.ack_timeouts.get());
                w.u64(q.stats.peak_inflight.get());
            }
        });
        w.section(TAG_MRS, |w| {
            w.usize(bootstrap_mrs);
            let replayed = &f.mrs[bootstrap_mrs..];
            w.usize(replayed.len());
            for mr in replayed {
                w.u32(mr.node.0);
                w.u8(mr.access.bits());
                w.usize(mr.len());
            }
            // Canonical form: the prefix ends at the last non-zero byte,
            // so a zero that was stored and a byte that was never touched
            // are the same image, and an all-zero region is no record.
            let carried: Vec<(MrId, &[u8])> = (0..f.mrs.len())
                .map(|i| MrId(i as u32))
                .filter(|&id| live(id))
                .filter_map(|id| {
                    let resident = f.mrs[id.index()].resident();
                    let used = resident.iter().rposition(|&b| b != 0)? + 1;
                    Some((id, &resident[..used]))
                })
                .collect();
            w.usize(carried.len());
            for (id, bytes) in carried {
                w.u32(id.0);
                w.bytes(bytes);
            }
        });
        w.section(TAG_NET, |w| {
            let horizons = f.net.egress_horizons();
            w.usize(horizons.len());
            for t in horizons {
                w.u64(t.as_nanos());
            }
        });
        w.section(TAG_FAULT, |w| match &f.fault {
            Some(plan) => {
                w.u8(1);
                w.u64(plan.seed());
                for word in plan.rng_state() {
                    w.u64(word);
                }
            }
            None => w.u8(0),
        });
        w.section(TAG_STATS, |w| {
            let s = &f.stats;
            w.u64(s.msgs_delivered.get());
            w.u64(s.bytes_delivered.get());
            w.u64(s.rnr_naks.get());
            w.u64(s.retransmissions.get());
            w.u64(s.cqes.get());
            w.u64(s.msgs_dropped.get());
            w.u64(s.msgs_corrupted.get());
            w.u64(s.flap_drops.get());
            w.u64(s.acks_delayed.get());
            w.u64(s.ack_timeouts.get());
            w.u64(s.dup_suppressed.get());
        });
    });
}

/// Patches the state of an image produced by [`encode_fabric`] onto `f`.
///
/// `f` must be freshly rebuilt the way the snapshotted fabric was first
/// built — the same [`crate::FabricParams`], the same nodes, completion
/// queues and queue pairs, the same bootstrap regions, nothing posted and
/// nothing connected. The image's object counts must equal that shape, or
/// the image is refused. If a [`crate::FaultPlan`] should govern the
/// resumed run, install it first — when its seed matches the snapshotted
/// plan's, its RNG position is restored so the fault draw stream
/// continues seamlessly, and otherwise the installed plan's fresh stream
/// is left untouched.
///
/// Every count and length of the image is held against the input that
/// remains before anything is sized by it, and every reference from one
/// section into another is checked, so arbitrary bytes decode to `Ok` or
/// to a typed [`CodecError`]; after an `Err`, `f` is partly patched and
/// must be discarded.
pub fn restore_fabric(f: &mut Fabric, r: &mut Reader<'_>) -> Result<(), CodecError> {
    let mut s = r.section(TAG_FABRIC, "fabric")?;

    let mut ns = s.section(TAG_NODES, "fabric.nodes")?;
    let n_nodes = same_shape(
        ns.usize("fabric.nodes.count")?,
        f.nodes.len(),
        "fabric shape: node count",
    )?;
    for n in &mut f.nodes {
        n.tx_busy_until = SimTime::from_nanos(ns.u64("node.tx_busy")?);
        n.rx_busy_until = SimTime::from_nanos(ns.u64("node.rx_busy")?);
        n.rdma_delivered = ns.u64("node.rdma_delivered")?;
    }
    ns.done("fabric.nodes")?;

    let mut cs = s.section(TAG_CQS, "fabric.cqs")?;
    same_shape(
        cs.usize("fabric.cqs.count")?,
        f.cqs.len(),
        "fabric shape: completion queue count",
    )?;
    for cq in &mut f.cqs {
        cq.peak_depth = cs.usize("cq.peak_depth")?;
        let n_entries = cs.count("cq.entries.count", CQE_BYTES)?;
        let mut entries = VecDeque::with_capacity(n_entries);
        for _ in 0..n_entries {
            entries.push_back(Cqe {
                wr_id: cs.u64("cqe.wr_id")?,
                qp: QpId(cs.u32("cqe.qp")?),
                opcode: opcode_from_tag(cs.u8("cqe.opcode")?, "cqe.opcode")?,
                status: status_from_code(cs.u32("cqe.status")?, "cqe.status")?,
                byte_len: cs.usize("cqe.byte_len")?,
            });
        }
        cq.restore_entries(entries);
    }
    cs.done("fabric.cqs")?;

    let mut qs = s.section(TAG_QPS, "fabric.qps")?;
    let n_qps = same_shape(
        qs.usize("fabric.qps.count")?,
        f.qps.len(),
        "fabric shape: queue pair count",
    )?;
    let mut rq = Vec::new();
    for q in &mut f.qps {
        q.peer = match qs.opt_u64("qp.peer")? {
            None => None,
            Some(p) if (p as usize) < n_qps => Some(QpId(p as u32)),
            Some(p) => {
                return Err(CodecError::Overflow {
                    context: "qp.peer",
                    value: p,
                    max: (n_qps as u64).saturating_sub(1),
                })
            }
        };
        q.state = state_from_tag(qs.u8("qp.state")?, "qp.state")?;
        q.next_msn = qs.u64("qp.next_msn")?;
        q.adv_credits = qs.u32("qp.adv_credits")?;
        q.unacked_sends = qs.u32("qp.unacked_sends")?;
        q.backoff_until = qs.opt_u64("qp.backoff_until")?.map(SimTime::from_nanos);
        q.retry_deadline = SimTime::from_nanos(qs.u64("qp.retry_deadline")?);
        q.timeout_streak = qs.u32("qp.timeout_streak")?;
        q.expected_msn = qs.u64("qp.expected_msn")?;
        // Receive WQEs name memory regions, some of which the image
        // replays further on: they are held here and posted once those
        // exist.
        for _ in 0..qs.count("qp.rq.count", RWQE_BYTES)? {
            rq.push((
                q.id,
                RecvWr {
                    wr_id: qs.u64("rwqe.wr_id")?,
                    mr: MrId(qs.u32("rwqe.mr")?),
                    offset: qs.usize("rwqe.offset")?,
                    len: qs.usize("rwqe.len")?,
                },
            ));
        }
        q.peak_sq_depth = qs.usize("qp.peak_sq_depth")?;
        q.peak_rq_depth = qs.usize("qp.peak_rq_depth")?;
        q.stats.sends_launched = qs.u64("qp.stats.sends_launched")?.into();
        q.stats.rdma_writes = qs.u64("qp.stats.rdma_writes")?.into();
        q.stats.bytes_launched = qs.u64("qp.stats.bytes_launched")?.into();
        q.stats.retransmissions = qs.u64("qp.stats.retransmissions")?.into();
        q.stats.rnr_naks_sent = qs.u64("qp.stats.rnr_naks_sent")?.into();
        q.stats.rnr_naks_received = qs.u64("qp.stats.rnr_naks_received")?.into();
        q.stats.acks_received = qs.u64("qp.stats.acks_received")?.into();
        q.stats.zero_credit_probes = qs.u64("qp.stats.zero_credit_probes")?.into();
        q.stats.ack_timeouts = qs.u64("qp.stats.ack_timeouts")?.into();
        q.stats.peak_inflight = qs.u64("qp.stats.peak_inflight")?.into();
    }
    qs.done("fabric.qps")?;

    let mut ms = s.section(TAG_MRS, "fabric.mrs")?;
    same_shape(
        ms.usize("fabric.mrs.bootstrap")?,
        f.mrs.len(),
        "fabric shape: bootstrap region count",
    )?;
    let mut registered = f.registered_bytes();
    for _ in 0..ms.count("fabric.mrs.replayed", REG_BYTES)? {
        let node = ms.u32("mr.node")?;
        if node as usize >= n_nodes {
            return Err(CodecError::Overflow {
                context: "mr.node",
                value: u64::from(node),
                max: (n_nodes as u64).saturating_sub(1),
            });
        }
        let bits = ms.u8("mr.access")?;
        if bits > Access::FULL.bits() {
            return Err(CodecError::Overflow {
                context: "mr.access",
                value: u64::from(bits),
                max: u64::from(Access::FULL.bits()),
            });
        }
        let len = ms.usize("mr.len")?;
        // A registered length sizes nothing, so any value is a region;
        // the sum is what `Fabric::registered_bytes` has to return.
        registered = registered.checked_add(len).ok_or(CodecError::Overflow {
            context: "mr.len (registered total)",
            value: len as u64,
            max: (usize::MAX - registered) as u64,
        })?;
        f.register(NodeId(node), len, Access::from_bits(bits));
    }
    let n_mrs = f.mrs.len();
    let mut next = 0;
    for _ in 0..ms.count("fabric.mrs.live", LIVE_BYTES)? {
        let raw = ms.u32("mr.id")?;
        if raw as usize >= n_mrs {
            return Err(CodecError::Overflow {
                context: "mr.id",
                value: u64::from(raw),
                max: (n_mrs as u64).saturating_sub(1),
            });
        }
        if raw < next {
            return Err(CodecError::BadTag {
                context: "mr.id (not ascending)",
                want: u64::from(next),
                got: u64::from(raw),
            });
        }
        next = raw + 1;
        let mr = &mut f.mrs[raw as usize];
        // Borrowed from the input: the prefix is as long as it claims
        // before a byte of it is copied.
        let prefix = ms.bytes_ref("mr.prefix")?;
        if prefix.len() > mr.len() {
            return Err(CodecError::Overflow {
                context: "mr.prefix",
                value: prefix.len() as u64,
                max: mr.len() as u64,
            });
        }
        mr.write(0, prefix);
    }
    ms.done("fabric.mrs")?;

    // References between sections, now that both ends exist. Posting
    // through the verbs call applies its checks (region exists, is this
    // node's, is locally writable, covers the range) to the image; an
    // honest image's `peak_rq_depth`, set above, is at least its queue's
    // length, so posting leaves it where the image put it.
    for (qp, wr) in rq {
        f.post_recv(qp, wr)
            .map_err(|e| rwqe_refused(e, &wr, n_mrs))?;
    }
    for e in f.queued_completions() {
        if e.qp.index() >= n_qps {
            return Err(CodecError::Overflow {
                context: "cqe.qp",
                value: u64::from(e.qp.0),
                max: (n_qps as u64).saturating_sub(1),
            });
        }
    }

    let mut es = s.section(TAG_NET, "fabric.net")?;
    let n_egress = es.count("fabric.net.count", 8)?;
    same_shape(n_egress, n_nodes, "fabric shape: egress port count")?;
    let mut horizons = Vec::with_capacity(n_egress);
    for _ in 0..n_egress {
        horizons.push(SimTime::from_nanos(es.u64("net.egress_busy")?));
    }
    f.net.restore_egress(horizons);
    es.done("fabric.net")?;

    let mut fs = s.section(TAG_FAULT, "fabric.fault")?;
    match fs.u8("fault.present")? {
        0 => {}
        1 => {
            let seed = fs.u64("fault.seed")?;
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = fs.u64("fault.rng")?;
            }
            if state == [0; 4] {
                return Err(CodecError::BadTag {
                    context: "fault.rng",
                    want: 1,
                    got: 0,
                });
            }
            if let Some(plan) = f.fault.as_mut() {
                if plan.seed() == seed {
                    plan.set_rng_state(state);
                }
            }
        }
        got => {
            return Err(CodecError::BadTag {
                context: "fault.present",
                want: 1,
                got: u64::from(got),
            })
        }
    }
    fs.done("fabric.fault")?;

    let mut ss = s.section(TAG_STATS, "fabric.stats")?;
    f.stats.msgs_delivered = ss.u64("stats.msgs_delivered")?.into();
    f.stats.bytes_delivered = ss.u64("stats.bytes_delivered")?.into();
    f.stats.rnr_naks = ss.u64("stats.rnr_naks")?.into();
    f.stats.retransmissions = ss.u64("stats.retransmissions")?.into();
    f.stats.cqes = ss.u64("stats.cqes")?.into();
    f.stats.msgs_dropped = ss.u64("stats.msgs_dropped")?.into();
    f.stats.msgs_corrupted = ss.u64("stats.msgs_corrupted")?.into();
    f.stats.flap_drops = ss.u64("stats.flap_drops")?.into();
    f.stats.acks_delayed = ss.u64("stats.acks_delayed")?.into();
    f.stats.ack_timeouts = ss.u64("stats.ack_timeouts")?.into();
    f.stats.dup_suppressed = ss.u64("stats.dup_suppressed")?.into();
    ss.done("fabric.stats")?;

    s.done("fabric")?;
    Ok(())
}

/// An object count of the image, held to the rebuilt fabric's: an image
/// of another world, or of another configuration of this one, is refused.
fn same_shape(image: usize, rebuilt: usize, context: &'static str) -> Result<usize, CodecError> {
    if image == rebuilt {
        Ok(rebuilt)
    } else {
        Err(CodecError::BadTag {
            context,
            want: rebuilt as u64,
            got: image as u64,
        })
    }
}

/// The typed error for a receive WQE of the image that
/// [`Fabric::post_recv`] would not have accepted.
fn rwqe_refused(e: VerbsError, wr: &RecvWr, n_mrs: usize) -> CodecError {
    CodecError::Overflow {
        context: match e {
            VerbsError::UnknownMr => "rwqe.mr (no such region)",
            VerbsError::WrongNode => "rwqe.mr (another node's region)",
            VerbsError::AccessDenied => "rwqe.mr (region not locally writable)",
            VerbsError::OutOfBounds => "rwqe range (outside its region)",
            VerbsError::InvalidQpState => "rwqe (queue pair in the error state)",
        },
        value: u64::from(wr.mr.0),
        max: (n_mrs as u64).saturating_sub(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::CqId;
    use crate::fabric::{connect, post_send};
    use crate::params::FabricParams;
    use crate::qp::QpAttrs;
    use crate::wr::SendWr;
    use crate::FaultPlan;
    use ibsim::{Sim, SimConfig};

    /// Regions the test rig's bootstrap registers: region 0, on node b.
    const BOOTSTRAP_MRS: usize = 1;

    /// The rig's bootstrap: two nodes with a completion queue and a queue
    /// pair each, and region 0 on node b — what a restore rebuilds.
    fn bootstrapped(plan: Option<FaultPlan>) -> Fabric {
        let mut fabric = Fabric::new(FabricParams::mt23108());
        if let Some(p) = plan {
            fabric.set_fault_plan(p);
        }
        let a = fabric.add_node();
        let b = fabric.add_node();
        let cq_a = fabric.create_cq(a);
        let cq_b = fabric.create_cq(b);
        fabric.create_qp(a, cq_a, cq_a, QpAttrs::default());
        fabric.create_qp(b, cq_b, cq_b, QpAttrs::default());
        fabric.register(b, 4096, Access::FULL);
        fabric
    }

    /// The rig after its bootstrap registers region 1 on node a, connects
    /// its queue pairs and runs a little traffic to completion: the
    /// (quiescent) world with un-polled CQEs left queued.
    fn exercised_fabric(plan: Option<FaultPlan>) -> Fabric {
        let mut fabric = bootstrapped(plan);
        let (qp_a, qp_b, mr_b) = (QpId(0), QpId(1), MrId(0));
        let mr_a = fabric.register(NodeId(0), 4096, Access::FULL);
        let mut sim = Sim::new(fabric, SimConfig::default());
        sim.with_world(|ctx| {
            for i in 0..4 {
                ctx.world
                    .post_recv(
                        qp_b,
                        RecvWr {
                            wr_id: 100 + i,
                            mr: mr_b,
                            offset: 64 * i as usize,
                            len: 64,
                        },
                    )
                    .unwrap();
            }
            connect(ctx, qp_a, qp_b);
            post_send(ctx, qp_a, SendWr::inline_send(7, b"hello ckpt".to_vec())).unwrap();
            post_send(
                ctx,
                qp_a,
                SendWr::rdma_write(8, vec![0xAB; 256], mr_b, 1024),
            )
            .unwrap();
            post_send(ctx, qp_b, SendWr::rdma_write(9, vec![0xCD; 128], mr_a, 0)).unwrap();
        });
        sim.run().unwrap();
        sim.into_world()
    }

    /// The image with every region live.
    fn image(f: &Fabric) -> Vec<u8> {
        let mut w = Writer::new();
        encode_fabric(f, BOOTSTRAP_MRS, |_| true, &mut w);
        w.finish()
    }

    /// `bytes` patched onto a freshly bootstrapped rig.
    fn restored(bytes: &[u8]) -> Result<Fabric, CodecError> {
        let mut fresh = bootstrapped(None);
        restore_fabric(&mut fresh, &mut Reader::new(bytes)).map(|()| fresh)
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let f = exercised_fabric(None);
        let bytes = image(&f);
        let restored = restored(&bytes).unwrap();
        assert_eq!(image(&restored), bytes);
        // Spot-check restored contents against the source.
        assert_eq!(restored.node_count(), 2);
        assert_eq!(restored.mr_count(), 2, "the registration is replayed");
        assert_eq!(restored.mr_node(MrId(1)), NodeId(0));
        for mr in [MrId(0), MrId(1)] {
            assert_eq!(restored.mr_bytes(mr), f.mr_bytes(mr));
        }
        assert_eq!(
            restored.stats.msgs_delivered.get(),
            f.stats.msgs_delivered.get()
        );
        let q = restored.qp(QpId(0));
        assert_eq!(q.state(), QpState::ReadyToSend);
        assert_eq!(q.peer(), Some(QpId(1)));
        assert_eq!(restored.qp(QpId(1)).posted_recvs(), 3);
    }

    /// The rig's queue pairs are bare (never connected, nothing posted):
    /// each is the least record [`QP_RECORD_BYTES`] promises.
    #[test]
    fn a_bare_queue_pair_record_is_qp_record_bytes() {
        let body = section_body(&image(&bootstrapped(None)), TAG_QPS);
        assert_eq!(body.len(), 8 + 2 * QP_RECORD_BYTES);
    }

    /// Canonical form: the image is a function of the memory's contents,
    /// not of which zeros the host happened to store.
    #[test]
    fn encoder_output_is_canonical() {
        let mut f = exercised_fabric(None);
        let mr_b = MrId(0);
        let bytes = image(&f);
        // Traffic reached byte 1280 of a 4096-byte region; a host store of
        // zeros further out materialises memory and changes no byte of it.
        assert_eq!(f.mr_bytes(mr_b).len(), 1280);
        f.mr_write(mr_b, 3000, &[0; 96]);
        assert_eq!(f.mr_bytes(mr_b).len(), 3096);
        assert_eq!(image(&f), bytes, "a stored zero changed the image");
        let restored = restored(&bytes).unwrap();
        assert_eq!(image(&restored), bytes, "IBCK bytes survive the round trip");
        assert_eq!(restored.registered_bytes(), f.registered_bytes());
        assert_eq!(restored.mr_len(mr_b), 4096);
        assert_eq!(restored.mr_bytes(mr_b).len(), 1280);
        assert!(restored.resident_bytes() < f.resident_bytes());
        // The image holds what is resident, not what is registered.
        assert!(
            bytes.len() < 4096,
            "{} bytes for 1408 resident",
            bytes.len()
        );
    }

    /// A region the caller does not name live costs no byte of the image
    /// and comes back registered but empty.
    #[test]
    fn dead_regions_are_restored_empty() {
        let f = exercised_fabric(None);
        let (all, mut w) = (image(&f), Writer::new());
        encode_fabric(&f, BOOTSTRAP_MRS, |mr| mr != MrId(0), &mut w);
        let some = w.finish();
        assert_eq!(all.len() - some.len(), 4 + 8 + 1280);
        let restored = restored(&some).unwrap();
        assert_eq!(restored.registered_bytes(), f.registered_bytes());
        assert!(restored.mr_bytes(MrId(0)).is_empty());
        assert_eq!(restored.mr_bytes(MrId(1)), f.mr_bytes(MrId(1)));
        assert_eq!(image(&restored), some);
    }

    /// An image is patched only onto the world it was taken of: a
    /// rebuilt fabric with one object more or less of any kind refuses it
    /// by name, whichever way the counts differ.
    #[test]
    fn image_of_another_shape_is_a_typed_error() {
        let bytes = image(&exercised_fabric(None));
        type Reshape = fn(&mut Fabric);
        let cases: [(&str, Reshape); 4] = [
            ("fabric shape: node count", |f| {
                f.add_node();
            }),
            ("fabric shape: completion queue count", |f| {
                f.create_cq(NodeId(0));
            }),
            ("fabric shape: queue pair count", |f| {
                let cq = CqId(0);
                f.create_qp(NodeId(0), cq, cq, QpAttrs::default());
            }),
            ("fabric shape: bootstrap region count", |f| {
                f.register(NodeId(0), 64, Access::FULL);
            }),
        ];
        for (context, reshape) in cases {
            let mut other = bootstrapped(None);
            reshape(&mut other);
            let err = restore_fabric(&mut other, &mut Reader::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, CodecError::BadTag { context: c, .. } if c == context),
                "{context}: {err}"
            );
        }
        // Fewer objects than the image: no fabric at all.
        let mut empty = Fabric::new(FabricParams::mt23108());
        let err = restore_fabric(&mut empty, &mut Reader::new(&bytes)).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::BadTag {
                    context: "fabric shape: node count",
                    want: 0,
                    got: 2
                }
            ),
            "{err}"
        );
    }

    /// The byte range of the body of section `tag` inside a fabric image:
    /// the outer frame, then the nested frames in order.
    fn section_body(image: &[u8], tag: u32) -> std::ops::Range<usize> {
        let mut pos = 12;
        loop {
            let got = u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap());
            let len = u64::from_le_bytes(image[pos + 4..pos + 12].try_into().unwrap()) as usize;
            if got == tag {
                return pos + 12..pos + 12 + len;
            }
            pos += 12 + len;
        }
    }

    fn u64_at(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// Offsets within the `TAG_MRS` body of the rig's image: its one
    /// replayed registration (`node u32 | access u8 | len u64`, after the
    /// bootstrap and registration counts), and the live region records
    /// (`id u32 | prefix len u64 | prefix`, after their count).
    const REG: usize = 16;
    fn live_record(body: &[u8], k: usize) -> usize {
        let mut pos = REG + REG_BYTES + 8;
        for _ in 0..k {
            pos += LIVE_BYTES + u64_at(body, pos + 4) as usize;
        }
        pos
    }

    /// One lie told inside the `TAG_MRS` section of an otherwise valid
    /// image.
    #[derive(Clone, Debug)]
    enum Lie {
        /// The replayed region's length raised to 16 TiB, or to
        /// `u64::MAX`, over its honest prefix.
        Registered { max: bool },
        /// The replayed region's length one byte short of its prefix.
        PrefixPastLen,
        /// A prefix length raised to more than the section holds — by one
        /// byte, or to a size no allocator would grant.
        PrefixLen { huge: bool },
        /// The section ends part-way through a region's prefix (frame
        /// lengths patched to match, so only the region is short).
        CutPrefix { cut: usize },
        /// The replayed registration names a node the fabric lacks.
        Node { node: u32 },
        /// Access bits above `Access::FULL`.
        AccessBits { bits: u8 },
        /// A live record names a region the fabric lacks.
        Id { id: u32 },
        /// The second live record repeats the first one's region.
        Repeat,
    }

    #[derive(Clone, Debug)]
    struct HostileMrs {
        record: usize,
        lie: Lie,
    }

    impl testutil::prop::Case for HostileMrs {
        fn generate(g: &mut testutil::prop::Gen) -> Self {
            let lie = match g.index(8) {
                0 => Lie::Registered { max: g.bool() },
                1 => Lie::PrefixPastLen,
                2 => Lie::PrefixLen { huge: g.bool() },
                3 => Lie::CutPrefix {
                    cut: g.usize_in(0..4096),
                },
                4 => Lie::Node {
                    node: g.u32_in(2..u32::MAX),
                },
                5 => Lie::AccessBits {
                    bits: g.u32_in(4..256) as u8,
                },
                6 => Lie::Id {
                    id: g.u32_in(2..u32::MAX),
                },
                _ => Lie::Repeat,
            };
            HostileMrs {
                record: g.index(2),
                lie,
            }
        }
    }

    /// What the decoder must make of a [`Lie`].
    #[derive(Debug, PartialEq)]
    enum Want {
        Accepted,
        Overflow,
        Truncated,
        BadTag,
    }

    #[test]
    fn hostile_region_images_are_typed_errors() {
        let good = image(&exercised_fabric(None));
        let body = section_body(&good, TAG_MRS);
        let at = |off: usize| body.start + off;
        testutil::prop::check("hostile_region_images", 128, |c: &HostileMrs| {
            let mut bad = good.clone();
            let rec = at(live_record(&good[body.clone()], c.record));
            let prefix_len = u64_at(&good, rec + 4);
            // Region 1, the replayed one, is the second live record.
            let replayed_prefix = u64_at(&good, at(live_record(&good[body.clone()], 1)) + 4);
            let reg = at(REG);
            let want = match c.lie {
                Lie::Registered { max } => {
                    let claim = if max { u64::MAX } else { 1 << 44 };
                    bad[reg + 5..reg + 13].copy_from_slice(&claim.to_le_bytes());
                    // 16 TiB is a region like any other; `u64::MAX` plus
                    // the bootstrap region's 4096 is not a total.
                    if max {
                        Want::Overflow
                    } else {
                        Want::Accepted
                    }
                }
                Lie::PrefixPastLen => {
                    bad[reg + 5..reg + 13].copy_from_slice(&(replayed_prefix - 1).to_le_bytes());
                    Want::Overflow
                }
                Lie::PrefixLen { huge } => {
                    let left = (body.end - (rec + LIVE_BYTES)) as u64;
                    let claim = if huge { 1 << 44 } else { left + 1 };
                    bad[rec + 4..rec + 12].copy_from_slice(&claim.to_le_bytes());
                    Want::Truncated
                }
                Lie::CutPrefix { cut } => {
                    // Drop the rest of the section part-way through this
                    // region's prefix and shorten both frames.
                    let keep = rec + LIVE_BYTES + cut % prefix_len as usize;
                    let dropped = body.end - keep;
                    bad.drain(keep..body.end);
                    for (at, old) in [(4, good.len() - 12), (body.start - 8, body.len())] {
                        let new = (old - dropped) as u64;
                        bad[at..at + 8].copy_from_slice(&new.to_le_bytes());
                    }
                    Want::Truncated
                }
                Lie::Node { node } => {
                    bad[reg..reg + 4].copy_from_slice(&node.to_le_bytes());
                    Want::Overflow
                }
                Lie::AccessBits { bits } => {
                    bad[reg + 4] = bits;
                    Want::Overflow
                }
                Lie::Id { id } => {
                    bad[rec..rec + 4].copy_from_slice(&id.to_le_bytes());
                    Want::Overflow
                }
                Lie::Repeat => {
                    let second = at(live_record(&good[body.clone()], 1));
                    bad[second..second + 4].copy_from_slice(&0u32.to_le_bytes());
                    Want::BadTag
                }
            };
            // Nothing is sized by a number the image merely claims: the
            // prefix is borrowed from the input and the registered length
            // is bookkeeping, so the 16 TiB claims return, they do not
            // abort.
            let mut fresh = bootstrapped(None);
            let got = match restore_fabric(&mut fresh, &mut Reader::new(&bad)) {
                Ok(()) => Want::Accepted,
                Err(CodecError::Overflow { .. }) => Want::Overflow,
                Err(CodecError::Truncated { .. }) => Want::Truncated,
                Err(CodecError::BadTag { .. }) => Want::BadTag,
            };
            assert_eq!(got, want, "{c:?}");
            assert!(fresh.resident_bytes() <= bad.len(), "{c:?}");
            if got == Want::Accepted {
                assert_eq!(fresh.mr_len(MrId(1)), 1 << 44);
                assert_eq!(image(&fresh), bad, "{c:?}: accepted image re-encodes");
            }
        });
    }

    /// Every eight-byte window of a valid image overwritten with a count
    /// no input could back: the decoder returns — `Ok` where the window was
    /// a plain number, a typed error elsewhere — having sized nothing by
    /// it. (Sizing `with_capacity` by such a count aborts the process.)
    #[test]
    fn hostile_counts_are_refused_before_anything_is_sized() {
        let good = image(&exercised_fabric(None));
        for claim in [1u64 << 40, u64::MAX] {
            for at in 0..good.len() - 8 {
                let mut bad = good.clone();
                bad[at..at + 8].copy_from_slice(&claim.to_le_bytes());
                let mut fresh = bootstrapped(None);
                let _ = restore_fabric(&mut fresh, &mut Reader::new(&bad));
                assert!(fresh.resident_bytes() <= bad.len());
            }
        }
        // The four counts that size a queue or a table, by name.
        let cqs = section_body(&good, TAG_CQS);
        let first_cq_entries = cqs.start + 8 + 8;
        assert_eq!(u64_at(&good, first_cq_entries), 2, "cq.entries.count");
        let qps = section_body(&good, TAG_QPS);
        let rq_count = (qps.start..qps.end - 8)
            .rfind(|&at| {
                // The last queue pair holds the three receives traffic left
                // posted: wr_ids 101..=103 follow its count.
                u64_at(&good, at) == 3 && u64_at(&good, at + 8) == 101
            })
            .expect("qp.rq.count of the receiving queue pair");
        let mrs = section_body(&good, TAG_MRS);
        let (replayed, live) = (mrs.start + 8, mrs.start + REG + REG_BYTES);
        assert_eq!((u64_at(&good, replayed), u64_at(&good, live)), (1, 2));
        for at in [first_cq_entries, rq_count, replayed, live] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
            let err = restored(&bad).expect_err("refused");
            assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
        }
    }

    /// References from one section of the image into another are checked
    /// at decode, not found by the first delivery that follows them.
    #[test]
    fn hostile_references_are_typed_errors() {
        fn wqe(mr: u32, offset: usize) -> RecvWr {
            RecvWr {
                wr_id: 1,
                mr: MrId(mr),
                offset,
                len: 64,
            }
        }
        // Region 0 is node 1's, region 1 node 0's; queue pair 1 is node 1's.
        type Corrupt = fn(&mut Fabric);
        let cases: [(&str, Corrupt); 6] = [
            ("rwqe.mr (no such region)", |f| {
                f.qps[1].rq.push_back(wqe(77, 0))
            }),
            ("rwqe.mr (another node's region)", |f| {
                f.qps[1].rq.push_back(wqe(1, 0))
            }),
            ("rwqe.mr (region not locally writable)", |f| {
                // The replayed region, registered on node 1 remote-only.
                f.mrs[1].node = NodeId(1);
                f.mrs[1].access = Access::REMOTE_WRITE;
                f.qps[1].rq.push_back(wqe(1, 0))
            }),
            ("rwqe range (outside its region)", |f| {
                f.qps[1].rq.push_back(wqe(0, 4096 - 63))
            }),
            ("rwqe (queue pair in the error state)", |f| {
                f.qps[1].state = QpState::Error
            }),
            ("cqe.qp", |f| {
                let _ = f.cqs[0].push(Cqe {
                    wr_id: 1,
                    qp: QpId(9),
                    opcode: CqeOpcode::SendComplete,
                    status: CqeStatus::Success,
                    byte_len: 0,
                });
            }),
        ];
        for (context, corrupt) in cases {
            let mut f = exercised_fabric(None);
            corrupt(&mut f);
            let err = restored(&image(&f)).expect_err("refused");
            assert!(
                matches!(err, CodecError::Overflow { context: c, .. } if c == context),
                "{context}: {err}"
            );
        }
    }

    #[test]
    fn same_seed_plan_rng_position_is_restored() {
        let plan = FaultPlan::new(99).with_drop(0.2);
        let f = exercised_fabric(Some(plan.clone()));
        let before = f.fault_plan().unwrap().rng_state();
        assert_ne!(
            before,
            FaultPlan::new(99).rng_state(),
            "traffic under a 20% drop plan must have consumed fault draws"
        );
        let bytes = image(&f);
        let mut restored = bootstrapped(Some(FaultPlan::new(99).with_drop(0.2)));
        restore_fabric(&mut restored, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.fault_plan().unwrap().rng_state(), before);
        // A different-seed plan keeps its own fresh stream.
        let mut other = bootstrapped(Some(FaultPlan::new(7).with_drop(0.2)));
        restore_fabric(&mut other, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(
            other.fault_plan().unwrap().rng_state(),
            FaultPlan::new(7).rng_state()
        );
    }

    #[test]
    fn truncated_image_is_a_typed_error() {
        let bytes = image(&exercised_fabric(None));
        let err = restored(&bytes[..bytes.len() / 2]).expect_err("refused");
        assert!(matches!(err, CodecError::Truncated { .. }), "{err}");
        let err2 = restored(&[0u8; 16]).expect_err("refused");
        assert!(matches!(err2, CodecError::BadTag { .. }), "{err2}");
    }
}
