//! World bootstrap: builds the fabric, wires every process pair, spawns
//! rank coroutines, runs the simulation, and collects results.

use crate::buffers::slot_recv_wr;
use crate::ckpt::{snapshot_or_release, CkptRun, CKPT_FENCE_NOTE};
use crate::config::MpiConfig;
use crate::conn::Conn;
use crate::rank::{MpiRank, RankSetup};
use crate::stats::{RankStats, WorldStats};
use crate::types::Rank;
use ibfabric::{Access, Fabric, FabricParams, MrId, NodeId, QpAttrs, QpId};
use ibsim::{Ctx, Sim, SimConfig, SimError, SimTime};
use std::rc::Rc;
use std::sync::mpsc::Sender;

/// Why an MPI run failed.
#[derive(Debug)]
pub enum MpiRunError {
    /// Invalid configuration.
    Config(String),
    /// The simulation failed (deadlock, process panic, or limit).
    Sim(SimError),
    /// A checkpoint image failed to decode.
    Snapshot(ibsim::codec::CodecError),
}

impl std::fmt::Display for MpiRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiRunError::Config(s) => write!(f, "bad MPI configuration: {s}"),
            MpiRunError::Sim(e) => write!(f, "simulation failed: {e}"),
            MpiRunError::Snapshot(e) => write!(f, "bad checkpoint image: {e}"),
        }
    }
}

impl std::error::Error for MpiRunError {}

impl From<SimError> for MpiRunError {
    fn from(e: SimError) -> Self {
        MpiRunError::Sim(e)
    }
}

impl From<ibsim::codec::CodecError> for MpiRunError {
    fn from(e: ibsim::codec::CodecError) -> Self {
        MpiRunError::Snapshot(e)
    }
}

/// Results of a completed MPI run.
#[derive(Debug)]
pub struct MpiRunOutput<R> {
    /// Per-rank return values of the body closure.
    pub results: Vec<R>,
    /// Per-rank MPI statistics (Tables 1–2 raw material).
    pub stats: WorldStats,
    /// Virtual time when the simulation went quiescent.
    pub end_time: SimTime,
    /// Events the simulation kernel processed.
    pub events: u64,
    /// The fabric, for transport-level statistics (RNR NAKs etc.).
    pub fabric: Fabric,
}

/// Entry point: run an SPMD body over a simulated cluster.
pub struct MpiWorld;

/// Bytes of a credit mailbox: [0..8] buffer-credit counter, [8..16]
/// ring-slot counter (RDMA eager channel), [16..28] offered ring
/// generation/rkey/slots and [28..32] acknowledged generation (ring
/// growth; the growth words stay zero when the writer's ring may not grow
/// — only the payload the writer sends differs).
pub(crate) const MAILBOX_BYTES: usize = 32;

/// One side of an established connection on the fabric: its queue pair
/// and the three regions `world::establish` registered for
/// it — the receive slab its queue pair's receives land in, the credit
/// mailbox and the eager-channel ring the peer RDMA-writes. The regions
/// are the queue pair's context, so either side reads both endpoints
/// back from the fabric ([`Endpoint::of`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// The side's queue pair.
    pub qp: QpId,
    /// Receive slab: `max_prepost` slots of `buf_size` bytes.
    pub slab: MrId,
    /// Credit mailbox the peer writes.
    pub mailbox: MrId,
    /// Eager-channel ring the peer writes (generation 0).
    pub ring: MrId,
}

impl Endpoint {
    /// The endpoint whose queue pair is `qp`, from the regions its context
    /// names; `None` for a queue pair no connection made.
    pub fn of(fabric: &Fabric, qp: QpId) -> Option<Endpoint> {
        let &[slab, mailbox, ring] = fabric.qp(qp).context() else {
            return None;
        };
        Some(Endpoint {
            qp,
            slab,
            mailbox,
            ring,
        })
    }

    /// Every endpoint of the fabric — two per established connection — in
    /// the order their queue pairs were created.
    pub fn all(fabric: &Fabric) -> impl Iterator<Item = Endpoint> + '_ {
        fabric.qps().filter_map(|q| Endpoint::of(fabric, q.id()))
    }
}

/// The node of rank `rank`: bootstrap creates one per rank, in rank order.
pub(crate) fn node_of(rank: Rank) -> NodeId {
    NodeId::from_index(rank)
}

/// The connection between ranks `pair` as the fabric holds it: the first
/// rank's endpoint, then the second's. `None` until it is established.
pub(crate) fn connection(fabric: &Fabric, pair: [Rank; 2]) -> Option<[Endpoint; 2]> {
    let qp = fabric.qp_toward(node_of(pair[0]), node_of(pair[1]))?;
    let peer = fabric.qp(qp).peer()?;
    Some([Endpoint::of(fabric, qp)?, Endpoint::of(fabric, peer)?])
}

/// Establishes the connection between ranks `pair` on the fabric: creates
/// each side's queue pair, reporting to its rank's completion queue, and
/// its slab, mailbox and ring (its [`Endpoint`]), posts slots `0..prepost`
/// of both slabs into both queue pairs, *then* runs the RC handshake, so
/// the handshake advertises the whole pool as initial end-to-end credits
/// (paper §4.1). Each side's [`Conn::establish`] adopts the slots posted
/// here. Connecting QPs with empty send queues schedules nothing. Returns
/// the endpoints in `pair` order.
///
/// RNR retries are unbounded (MPI reliability: a slow receiver is waited
/// out, never failed), and so are transport retries by default (a lossy
/// fabric is waited out); a finite `retry_cnt` surfaces exhaustion as a
/// typed fault (see `fault.rs`).
pub(crate) fn establish(
    ctx: &mut Ctx<'_, Fabric>,
    cfg: &MpiConfig,
    pair: [Rank; 2],
) -> [Endpoint; 2] {
    let attrs = QpAttrs {
        rnr_retry: None,
        retry_cnt: cfg.retry_cnt,
    };
    let f = &mut *ctx.world;
    let ends = pair.map(|rank| {
        let node = node_of(rank);
        #[expect(
            clippy::expect_used,
            reason = "bootstrap creates a completion queue on every rank's node"
        )]
        let cq = f.node_cq(node).expect("a rank's completion queue");
        let qp = f.create_qp(node, cq, cq, attrs);
        let slab = f.register(
            node,
            cfg.max_prepost as usize * cfg.buf_size,
            Access::LOCAL_WRITE,
        );
        let mailbox = f.register(node, MAILBOX_BYTES, Access::FULL);
        let ring = f.register(
            node,
            cfg.rdma_ring_slots as usize * cfg.buf_size,
            Access::FULL,
        );
        f.set_qp_context(qp, &[slab, mailbox, ring]);
        Endpoint {
            qp,
            slab,
            mailbox,
            ring,
        }
    });
    for (end, from) in ends.iter().zip([pair[1], pair[0]]) {
        for slot in 0..cfg.prepost {
            let wr = slot_recv_wr(end.slab, cfg.buf_size, from, slot);
            #[expect(
                clippy::expect_used,
                reason = "cfg.validate() keeps prepost within the slab, and a new QP's receive queue is empty"
            )]
            f.post_recv(end.qp, wr).expect("prepost");
        }
    }
    ibfabric::connect(ctx, ends[0].qp, ends[1].qp);
    ends
}

/// Builds a world ready to spawn ranks into: the simulation, the nodes and
/// completion queues ([`bootstrap_fabric`]), and — under eager connection
/// setup — every pair `i < j` established at t = 0, on the fabric and as
/// both endpoints' [`Conn`]s. On-demand setup leaves every connection to its
/// first use (`MpiRank::ensure_established`). Shared by the plain run
/// path and the checkpoint driver.
///
/// The simulation is created first, around an empty fabric, so every
/// allocation the bootstrap makes — the objects and the receive queues
/// the establishment posts alike — follows the event queue's up-front
/// rings. The order is measured, not cosmetic: with the objects made
/// before the simulation and the posts after it, benchmark
/// `credit_starved`'s peak resident set was 0.24 MB (5%) higher.
pub(crate) fn boot(
    nprocs: usize,
    cfg: &MpiConfig,
    params: FabricParams,
    sim_config: SimConfig,
) -> (Sim<Fabric>, Vec<RankSetup>) {
    let mut fabric = Fabric::new(params);
    if let Some(plan) = cfg.fault_plan.clone() {
        fabric.set_fault_plan(plan);
    }
    let sim = Sim::new(fabric, sim_config);
    let setups = sim.with_world(|ctx| {
        let mut setups = bootstrap_fabric(ctx.world, nprocs, cfg);
        if !cfg.on_demand_connections {
            for i in 0..nprocs {
                for j in (i + 1)..nprocs {
                    let [a, b] = establish(ctx, cfg, [i, j]);
                    setups[i].conns[j] = Some(Box::new(Conn::establish(cfg, j, &a, &b)));
                    setups[j].conns[i] = Some(Box::new(Conn::establish(cfg, i, &b, &a)));
                }
            }
        }
        setups
    });
    (sim, setups)
}

impl MpiWorld {
    /// Runs `body` on `nprocs` simulated processes and returns their
    /// results plus statistics. Fully deterministic for a given
    /// `(nprocs, cfg, params, body)`. `body` is an async closure
    /// (`async |mpi| { ... }`); every rank runs it as a coroutine on the
    /// calling thread.
    pub fn run<R, F>(
        nprocs: usize,
        cfg: MpiConfig,
        params: FabricParams,
        body: F,
    ) -> Result<MpiRunOutput<R>, MpiRunError>
    where
        R: 'static,
        F: AsyncFn(&mut MpiRank) -> R + 'static,
    {
        Self::run_with_limits(nprocs, cfg, params, SimConfig::default(), body)
    }

    /// Like [`MpiWorld::run`] but with explicit simulation limits (used by
    /// tests that expect deadlocks or livelocks).
    pub fn run_with_limits<R, F>(
        nprocs: usize,
        cfg: MpiConfig,
        params: FabricParams,
        sim_config: SimConfig,
        body: F,
    ) -> Result<MpiRunOutput<R>, MpiRunError>
    where
        R: 'static,
        F: AsyncFn(&mut MpiRank) -> R + 'static,
    {
        cfg.validate().map_err(MpiRunError::Config)?;
        let (sim, setups) = boot(nprocs, &cfg, params, sim_config);
        let body = Rc::new(body);
        let run = launch(sim, setups, false, |sim, i, setup, tx| {
            let body = Rc::clone(&body);
            sim.spawn(format!("rank{i}"), move |proc| async move {
                let mut mpi = MpiRank::new(proc, setup);
                let result = (*body)(&mut mpi).await;
                mpi.finalize().await;
                let stats = mpi.finish_stats();
                let _ = tx.send((mpi.rank(), result, stats));
            });
        })?;
        // No fence is armed, so the run cannot have stopped at one.
        Ok(run.into_completed())
    }
}

/// What a rank coroutine sends the launcher when its body returns:
/// `(rank, body result, final statistics)`.
pub(crate) type RankDone<R> = (usize, R, RankStats);

/// The part of a run every entry point shares: spawn one coroutine per
/// element of `seeds` (`spawn_rank(sim, rank, seed, tx)` — the coroutine
/// itself stays with its entry point, whose body signature it calls), run
/// the simulation — with the checkpoint fence armed when `fenced` — then
/// either hand back the snapshot the fence stopped at or collect the
/// per-rank results in rank order. A deadlock report is enriched with
/// fabric-level connection state on the way out.
pub(crate) fn launch<S, R>(
    mut sim: Sim<Fabric>,
    seeds: Vec<S>,
    fenced: bool,
    mut spawn_rank: impl FnMut(&mut Sim<Fabric>, usize, S, Sender<RankDone<R>>),
) -> Result<CkptRun<R>, MpiRunError> {
    let nprocs = seeds.len();
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, seed) in seeds.into_iter().enumerate() {
        spawn_rank(&mut sim, i, seed, tx.clone());
    }
    drop(tx);

    let mut snapshot = None;
    let run = if fenced {
        sim.run_with_fence(CKPT_FENCE_NOTE, |world, clock| {
            snapshot_or_release(world, clock, &mut snapshot)
        })
    } else {
        sim.run()
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => return Err(with_fabric_diag(e, sim, nprocs).into()),
    };
    // The fence callback stops the run exactly when it built a snapshot.
    if let Some(snapshot) = snapshot {
        return Ok(CkptRun::Snapshot(snapshot));
    }

    let mut collected: Vec<RankDone<R>> = rx.try_iter().collect();
    collected.sort_by_key(|(r, _, _)| *r);
    assert_eq!(collected.len(), nprocs, "missing rank results");
    let mut results = Vec::with_capacity(nprocs);
    let mut stats = WorldStats::default();
    for (_, r, s) in collected {
        results.push(r);
        stats.ranks.push(s);
    }
    Ok(CkptRun::Completed(Box::new(MpiRunOutput {
        results,
        stats,
        end_time: report.end_time,
        events: report.events_processed,
        fabric: sim.into_world(),
    })))
}

/// Park notes are allocation-free `&'static str`s (hot-path rule), so the
/// per-connection state a deadlock report wants — posted receives, queued
/// sends, peer in-flight messages — is appended to each parked rank's
/// note here, on the failure path only, from the torn-down fabric. Quiet
/// connections are skipped so wide worlds stay readable; any other error
/// passes through untouched.
fn with_fabric_diag(e: SimError, sim: Sim<Fabric>, nprocs: usize) -> SimError {
    use std::fmt::Write as _;
    let SimError::Deadlock(mut info) = e else {
        return e;
    };
    let fabric = sim.into_world();
    for (name, note) in info.parked.iter_mut() {
        let Some(i) = name
            .strip_prefix("rank")
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        for j in (0..nprocs).filter(|&j| j != i) {
            let Some(qp) = fabric.qp_toward(node_of(i), node_of(j)) else {
                continue;
            };
            let mine = fabric.qp(qp);
            let Some(theirs) = mine.peer().map(|p| fabric.qp(p)) else {
                continue;
            };
            let (rq, sq, peer_sq, peer_inflight) = (
                mine.posted_recvs(),
                mine.queued_sends(),
                theirs.queued_sends(),
                theirs.inflight_msgs(),
            );
            if sq > 0 || peer_sq > 0 || peer_inflight > 0 {
                let _ = write!(
                    note,
                    " | peer{j}: rq={rq} sq={sq} peer_sq={peer_sq} peer_inflight={peer_inflight}"
                );
            }
        }
    }
    SimError::Deadlock(info)
}

/// Creates the nodes and completion queues, one of each per rank, and
/// returns each rank's bootstrap setup with no connection in any slot.
/// Nothing else exists until a connection is established: that is
/// [`establish`], which [`boot`] runs for every pair under eager setup,
/// building both endpoints' [`Conn`]s beside it.
pub(crate) fn bootstrap_fabric(
    fabric: &mut Fabric,
    nprocs: usize,
    cfg: &MpiConfig,
) -> Vec<RankSetup> {
    assert!(
        nprocs >= 1 && nprocs <= u16::MAX as usize,
        "unsupported world size"
    );
    let nodes: Vec<_> = (0..nprocs).map(|_| fabric.add_node()).collect();
    let cqs: Vec<_> = nodes.iter().map(|&n| fabric.create_cq(n)).collect();
    (0..nprocs)
        .map(|rank| RankSetup {
            rank,
            size: nprocs,
            node: nodes[rank],
            cq: cqs[rank],
            conns: (0..nprocs).map(|_| None).collect(),
            cfg: cfg.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowControlScheme;

    /// Registered memory is what the established connections hold;
    /// resident memory is what the traffic touched. Four ranks, pre-post 4,
    /// one 4-byte message to the next rank round the ring, then the
    /// finalize barrier (two dissemination rounds: a header-only message
    /// from the previous rank and one from the rank before that).
    #[test]
    fn registered_and_resident_bytes_of_a_four_rank_world() {
        use crate::wire::HEADER_LEN;
        const BUF: usize = 2048;
        // Per directed connection: the 512-slot slab, the 32-byte credit
        // mailbox, and the ring — 32 slots by default, sized to the
        // pre-post depth under the RDMA channel schemes.
        let per_conn = |ring_slots: usize| 512 * BUF + 32 + ring_slots * BUF;
        // Per rank: from the previous rank a data frame in slot 0 and a
        // barrier frame in slot 1 (resident through the end of the
        // second), from the one before a barrier frame in slot 0. The
        // RDMA channel lands the same frames in ring slots instead.
        let resident = 4 * ((BUF + HEADER_LEN) + HEADER_LEN);
        for scheme in FlowControlScheme::ALL {
            let ring_slots = if scheme.uses_ring() { 4 } else { 32 };
            // The RDMA eager channel requires eager setup.
            let policies: &[bool] = if scheme.uses_ring() {
                &[false]
            } else {
                &[false, true]
            };
            for &on_demand in policies {
                let cfg = MpiConfig {
                    on_demand_connections: on_demand,
                    ..MpiConfig::scheme(scheme, 4)
                };
                let out = MpiWorld::run(4, cfg, FabricParams::mt23108(), async |mpi| {
                    let (next, prev) = ((mpi.rank() + 1) % 4, (mpi.rank() + 3) % 4);
                    let s = mpi.isend(&[7; 4], next, 1);
                    mpi.recv(Some(prev), Some(1)).await;
                    mpi.waitall(&[s]).await;
                    mpi.proc
                        .with(|ctx| (ctx.world.registered_bytes(), ctx.world.qp_count()))
                })
                .unwrap();
                // Directed connections established when each body returns:
                // all 12 under eager setup; on demand, the ring's 8 — the
                // ranks two apart connect in the barrier's second round.
                let early = if on_demand { 8 } else { 12 };
                let case = format!("{scheme:?}, on demand: {on_demand}");
                assert_eq!(
                    out.results,
                    [(early * per_conn(ring_slots), early); 4],
                    "{case}"
                );
                assert_eq!(
                    (
                        out.fabric.registered_bytes(),
                        out.fabric.qp_count(),
                        out.fabric.resident_bytes()
                    ),
                    (12 * per_conn(ring_slots), 12, resident),
                    "{case}"
                );
            }
        }
    }
}
