//! Seeded property tests: every receive gets the bytes of *its* message,
//! however many rendezvous from one source are in flight at once.
//!
//! A rendezvous lands in a region its receive owns from accept to fin
//! (`pt2pt.rs::accept_rndz`), so a later WRITE can never overwrite an
//! earlier message before its fin is processed. The schedules here are
//! built to make that happen if it can: bursts of `irecv` from one source
//! (or two, interleaved), sizes on both sides of the eager threshold and
//! in two rendezvous size classes, pools small enough that eager-size
//! messages convert to rendezvous, a ring that grows mid-burst, and a
//! receiver that computes between posting and waiting so that every WRITE
//! of a burst has landed before the first fin is looked at. Each payload
//! is a function of (source, sequence number, length) and is compared
//! byte for byte.
//!
//! Reproduce a failure with `IBFLOW_PROP_SEED=<seed>`; failing cases
//! shrink toward one source, one short burst of one size, no compute.

use ibfabric::{FabricParams, FaultPlan, FlapScope, LinkFlap, NodeId};
use ibsim::{SimDuration, SimTime};
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};
use testutil::prop::{check, shrink, Case, Gen};

/// Message sizes: 4 B and 1984 B are eager (1984 is the threshold; under
/// a starved pool or a full ring they convert to rendezvous in classes 4
/// and 2048), 1985 B and 2048 B are the smallest rendezvous (class 2048),
/// 2049 B and 4000 B are the next class (4096).
const SIZES: [usize; 6] = [4, 1984, 1985, 2048, 2049, 4000];

const TAG_DATA: i32 = 7;
const TAG_ACK: i32 = 8;

/// The bytes message `seq` from rank `src` carries at length `len`.
/// Neighbouring sequence numbers, the two sources and the sizes of one
/// class all differ in every byte.
fn payload(src: usize, seq: u32, len: usize) -> Vec<u8> {
    let base = src as u32 * 167 + seq * 31 + len as u32 * 13;
    (0..len as u32).map(|i| (base + i * 7) as u8).collect()
}

/// `None` when `data` is message `seq` from `src` at `len` bytes, else
/// what differs (short: a mismatch must not print kilobytes).
fn mismatch(data: &[u8], src: usize, seq: u32, len: usize) -> Option<String> {
    if data.len() != len {
        return Some(format!(
            "message {seq} from rank {src}: {} bytes, expected {len}",
            data.len()
        ));
    }
    let want = payload(src, seq, len);
    let at = data.iter().zip(&want).position(|(a, b)| a != b)?;
    Some(format!(
        "message {seq} from rank {src} ({len} bytes): byte {at} is {:#04x}, expected {:#04x}",
        data[at], want[at]
    ))
}

#[derive(Clone, Debug)]
struct Burst {
    /// Receives posted at once (1..=32).
    n: u32,
    /// Index into [`SIZES`] of the burst's (first) message size.
    size_idx: usize,
    /// Cycle through [`SIZES`] from `size_idx` instead of one size.
    mixed: bool,
}

impl Burst {
    fn size_of(&self, j: u32) -> usize {
        let step = if self.mixed { j as usize } else { 0 };
        SIZES[(self.size_idx + step) % SIZES.len()]
    }
}

#[derive(Clone, Debug)]
struct LaneCase {
    /// Pre-post 1 (every small message starves) or 10.
    prepost_one: bool,
    /// Ranks 1 and 2 both send to rank 0, receives posted alternately.
    two_sources: bool,
    /// The receiver computes before posting, so starts arrive unexpected
    /// and are accepted out of the unexpected queue.
    late_post: bool,
    /// Receiver compute between posting a burst and waiting on it (µs).
    compute_us: u32,
    bursts: Vec<Burst>,
}

impl Case for LaneCase {
    fn generate(g: &mut Gen) -> Self {
        LaneCase {
            prepost_one: g.bool(),
            two_sources: g.bool(),
            late_post: g.bool(),
            compute_us: g.u32_in(0..400),
            bursts: g.vec(1..4, |g| Burst {
                n: g.u32_in(1..33),
                size_idx: g.index(SIZES.len()),
                mixed: g.bool(),
            }),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for v in shrink::bool_toward_false(self.two_sources) {
            out.push(LaneCase {
                two_sources: v,
                ..self.clone()
            });
        }
        for v in shrink::bool_toward_false(self.late_post) {
            out.push(LaneCase {
                late_post: v,
                ..self.clone()
            });
        }
        for v in shrink::bool_toward_false(self.prepost_one) {
            out.push(LaneCase {
                prepost_one: v,
                ..self.clone()
            });
        }
        let bursts = shrink::vec_candidates(&self.bursts, 1, |b| {
            let mut smaller = Vec::new();
            for n in shrink::u32_toward(b.n, 1) {
                smaller.push(Burst { n, ..b.clone() });
            }
            for mixed in shrink::bool_toward_false(b.mixed) {
                smaller.push(Burst { mixed, ..b.clone() });
            }
            smaller
        });
        for bursts in bursts {
            out.push(LaneCase {
                bursts,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.compute_us, 0) {
            out.push(LaneCase {
                compute_us: v,
                ..self.clone()
            });
        }
        out
    }
}

impl LaneCase {
    fn messages(&self) -> u64 {
        self.bursts.iter().map(|b| u64::from(b.n)).sum()
    }

    fn config(&self, scheme: FlowControlScheme) -> MpiConfig {
        MpiConfig {
            // Read by `RdmaChannelDyn` only: the first ring-full
            // conversion of a burst asks for a larger ring, so the
            // generation switch happens with the burst still in flight.
            rdma_ring_growth_threshold: 1,
            ..MpiConfig::scheme(scheme, if self.prepost_one { 1 } else { 10 })
        }
    }

    /// Runs the schedule under `scheme` and checks every delivery.
    fn run(&self, scheme: FlowControlScheme) -> mpib::MpiRunOutput<Vec<String>> {
        let nsrc = 1 + usize::from(self.two_sources);
        let (bursts, late_post) = (self.bursts.clone(), self.late_post);
        let compute = SimDuration::micros(u64::from(self.compute_us));
        let out = MpiWorld::run(
            1 + nsrc,
            self.config(scheme),
            FabricParams::mt23108(),
            async move |mpi| {
                // Message `j` of a burst comes from rank `1 + j % nsrc`.
                let from = |j: u32| 1 + j as usize % nsrc;
                let mut bad = Vec::new();
                if mpi.rank() == 0 {
                    let mut next_seq = [0u32; 3];
                    for b in &bursts {
                        if late_post {
                            mpi.compute(SimDuration::micros(100)).await;
                        }
                        let reqs: Vec<_> = (0..b.n)
                            .map(|j| mpi.irecv(Some(from(j)), Some(TAG_DATA)))
                            .collect();
                        // Nothing polls while this passes: every WRITE of
                        // the burst lands, and every fin queues behind it.
                        mpi.compute(compute).await;
                        for (j, r) in (0..b.n).zip(reqs) {
                            let (st, data) = mpi.wait_recv(r).await;
                            let src = from(j);
                            let seq = next_seq[src];
                            next_seq[src] += 1;
                            if st.source != src || st.len != data.len() {
                                bad.push(format!("burst receive {j}: status {st:?}"));
                            }
                            bad.extend(mismatch(&data, src, seq, b.size_of(j)));
                        }
                        for src in 1..=nsrc {
                            mpi.send(&[0; 4], src, TAG_ACK).await;
                        }
                    }
                } else {
                    let me = mpi.rank();
                    let mut seq = 0u32;
                    for b in &bursts {
                        let reqs: Vec<_> = (0..b.n)
                            .filter(|&j| from(j) == me)
                            .map(|j| {
                                let r = mpi.isend(&payload(me, seq, b.size_of(j)), 0, TAG_DATA);
                                seq += 1;
                                r
                            })
                            .collect();
                        mpi.waitall(&reqs).await;
                        mpi.recv(Some(0), Some(TAG_ACK)).await;
                    }
                }
                bad
            },
        )
        .unwrap_or_else(|e| panic!("{} run failed: {e}", scheme.label()));
        assert_eq!(out.stats.total_faults(), 0, "{}", scheme.label());
        assert!(
            out.stats.all_ledgers_conserved(),
            "{}: a credit ledger is not conserved",
            scheme.label()
        );
        out
    }

    /// The property: under every scheme, every message arrives as sent.
    fn check_all_schemes(&self) {
        for scheme in FlowControlScheme::ALL {
            let out = self.run(scheme);
            let bad = &out.results[0];
            assert!(
                bad.is_empty(),
                "{}: {} of {} messages delivered wrong; first: {}",
                scheme.label(),
                bad.len(),
                self.messages(),
                bad[0]
            );
        }
    }
}

#[test]
fn every_receive_gets_its_own_bytes_under_all_five_schemes() {
    check::<LaneCase>("rndz_payload::bursts", 48, LaneCase::check_all_schemes);
}

/// The counterexample the property above shrinks to on the commit before
/// landing lanes (ISSUE 24's parent; 25 shrink steps from case 0 of the
/// default seed): one burst of four receives from one source — 4 B,
/// 1984 B, 1985 B, 2048 B — with the receiver away for 24 µs. The last two
/// are rendezvous of one size class; under `rdma-channel` both WRITEs were
/// in the one (source, size-class) staging region before the first fin
/// was read, and message 2 was handed message 3's bytes.
#[test]
fn the_parents_shrunk_counterexample_keeps_every_payload() {
    LaneCase {
        prepost_one: false,
        two_sources: false,
        late_post: false,
        compute_us: 24,
        bursts: vec![Burst {
            n: 4,
            size_idx: 0,
            mixed: true,
        }],
    }
    .check_all_schemes();
}

/// The schedules above are not vacuous where it matters: a 32-message
/// burst of 4-byte sends at pre-post 1 converts to rendezvous (so small
/// messages do share a size class in flight) and, under the growing ring,
/// switches ring generation while the burst is in flight — the shape of
/// the benchmark's `credit_starved`, whose `rdma-channel-dyn` runs were
/// where the shared staging region was first seen to deliver a
/// neighbour's bytes.
#[test]
fn starved_bursts_convert_and_grow_the_ring_mid_burst() {
    let case = LaneCase {
        prepost_one: true,
        two_sources: false,
        late_post: false,
        compute_us: 50,
        bursts: vec![Burst {
            n: 32,
            size_idx: 0,
            mixed: false,
        }],
    };
    for scheme in FlowControlScheme::ALL {
        let out = case.run(scheme);
        assert_eq!(out.results[0], Vec::<String>::new(), "{}", scheme.label());
        let to_receiver = &out.stats.ranks[1].conns[0];
        if scheme.is_user_level() {
            assert!(
                to_receiver.rndz_sent.get() >= 8,
                "{}: {} conversions",
                scheme.label(),
                to_receiver.rndz_sent.get()
            );
        }
        let cfg = case.config(scheme);
        if cfg.ring_cap() > cfg.rdma_ring_slots {
            let ring = &out.stats.ranks[0].conns[1];
            assert!(ring.ring_generation.get() >= 1, "the ring never grew");
        }
    }
}

/// Kill one connection with several rendezvous from that peer in flight,
/// then post as many concurrent receives from a healthy peer: every
/// landing lane the dead peer's receives held must be claimable again.
///
/// Rank 1's node drops off the fabric 40 µs in — after rank 0 accepted
/// its `LANES` 64 KB rendezvous, before the first one's data is placed —
/// so all of them are failed by teardown while holding a lane each. Rank
/// 0 then takes `LANES` messages of the same size class from rank 2, once
/// concurrently and once one at a time. One at a time needs lane 0 only;
/// concurrently needs `LANES`, and if the dead peer's lanes came back the
/// burst registers nothing: both runs end with the same region table.
#[test]
fn lanes_of_a_dead_peer_are_reusable() {
    const LANES: u32 = 4;
    const SIZE: usize = 64 << 10;
    let regions_after = |scheme: FlowControlScheme, concurrent: bool| {
        let cfg = MpiConfig {
            retry_cnt: Some(1),
            fault_plan: Some(FaultPlan::new(7).with_flap(LinkFlap {
                scope: FlapScope::Node(NodeId::from_index(1)),
                from: SimTime::from_nanos(40_000),
                until: SimTime::from_nanos(u64::MAX / 2),
            })),
            ..MpiConfig::scheme(scheme, 10)
        };
        let out = MpiWorld::run(3, cfg, FabricParams::mt23108(), async move |mpi| {
            let until_fault = async |mpi: &mut mpib::MpiRank, peer: usize| {
                while mpi.faults().is_empty() {
                    mpi.iprobe(Some(peer), None);
                    mpi.compute(SimDuration::micros(50)).await;
                }
            };
            match mpi.rank() {
                0 => {
                    let doomed: Vec<_> = (0..LANES)
                        .map(|_| mpi.irecv(Some(1), Some(TAG_DATA)))
                        .collect();
                    for r in doomed {
                        let fault = mpi.wait_recv_result(r).await.expect_err("rank 1 is gone");
                        assert_eq!(fault.peer, 1);
                    }
                    mpi.send(&[0; 4], 2, TAG_ACK).await;
                    let mut got = Vec::new();
                    if concurrent {
                        let reqs: Vec<_> = (0..LANES)
                            .map(|_| mpi.irecv(Some(2), Some(TAG_DATA)))
                            .collect();
                        mpi.compute(SimDuration::micros(400)).await;
                        for r in reqs {
                            got.push(mpi.wait_recv(r).await.1);
                        }
                    } else {
                        for _ in 0..LANES {
                            got.push(mpi.recv(Some(2), Some(TAG_DATA)).await.1);
                        }
                    }
                    for (seq, data) in (0..).zip(&got) {
                        assert_eq!(mismatch(data, 2, seq, SIZE), None);
                    }
                }
                1 => {
                    let reqs: Vec<_> = (0..LANES)
                        .map(|seq| mpi.isend(&payload(1, seq, SIZE), 0, TAG_DATA))
                        .collect();
                    mpi.waitall(&reqs).await;
                }
                _ => {
                    mpi.recv(Some(0), Some(TAG_ACK)).await;
                    let reqs: Vec<_> = (0..LANES)
                        .map(|seq| mpi.isend(&payload(2, seq, SIZE), 0, TAG_DATA))
                        .collect();
                    mpi.waitall(&reqs).await;
                    // A run finalizes without the world barrier only if
                    // every rank saw a fault; rank 2 finds its own by
                    // sending into the dead node.
                    mpi.send(&[0; 4], 1, TAG_ACK).await;
                    until_fault(mpi, 1).await;
                }
            }
        })
        .unwrap_or_else(|e| panic!("{} run failed: {e}", scheme.label()));
        assert!(out.stats.all_ledgers_conserved(), "{}", scheme.label());
        (out.fabric.mr_count(), out.fabric.registered_bytes())
    };
    for scheme in FlowControlScheme::ALL {
        assert_eq!(
            regions_after(scheme, true),
            regions_after(scheme, false),
            "{}: the burst after the teardown registered new lanes",
            scheme.label()
        );
    }
}
