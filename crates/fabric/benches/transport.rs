//! Benches of the fabric simulator itself (in-repo harness): wall-clock
//! cost of the message patterns the MPI layer generates. Results land in
//! `bench_results/transport.json`.

use ibfabric::*;
use ibsim::{Sim, SimConfig};
use std::sync::Arc;
use testutil::Harness;

fn setup(preposted: usize) -> (Fabric, CqId, CqId, QpId, QpId, MrId) {
    let mut fabric = Fabric::new(FabricParams::mt23108());
    let a = fabric.add_node();
    let b = fabric.add_node();
    let cq_a = fabric.create_cq(a);
    let cq_b = fabric.create_cq(b);
    let qp_a = fabric.create_qp(a, cq_a, cq_a, QpAttrs::default());
    let qp_b = fabric.create_qp(b, cq_b, cq_b, QpAttrs::default());
    let mr_b = fabric.register(b, 8 << 20, Access::FULL);
    for i in 0..preposted {
        fabric
            .post_recv(
                qp_b,
                RecvWr {
                    wr_id: i as u64,
                    mr: mr_b,
                    offset: (i % 256) * 4096,
                    len: 4096,
                },
            )
            .unwrap();
    }
    (fabric, cq_a, cq_b, qp_a, qp_b, mr_b)
}

/// `writes` RDMA WRITEs of `payload` to offset 0 of one region, run to
/// completion; the region must end up holding the payload by reference.
fn rdma_write_4mib(payload: &Arc<[u8]>, writes: u64) {
    let (fabric, cq_a, _cq_b, qp_a, qp_b, mr_b) = setup(0);
    let mut sim = Sim::new(fabric, SimConfig::default());
    sim.with_world(|ctx| {
        connect(ctx, qp_a, qp_b);
        for wr_id in 0..writes {
            let op = SendOp::RdmaWrite {
                payload: Arc::clone(payload),
                rkey: mr_b,
                remote_offset: 0,
            };
            let wr = SendWr {
                wr_id,
                op,
                signaled: true,
            };
            post_send(ctx, qp_a, wr).unwrap();
        }
    });
    sim.run().unwrap();
    let mut f = sim.into_world();
    assert_eq!(f.poll_cq(cq_a, 4).len(), writes as usize);
    assert_eq!(
        f.mr_bytes(mr_b).as_ptr(),
        payload.as_ptr(),
        "a whole-prefix WRITE was copied into the region, not placed by reference"
    );
}

fn main() {
    let mut h = Harness::new("transport");

    // 256 small sends end-to-end (the eager-protocol hot path).
    h.bench("fabric_256_small_sends", || {
        let (fabric, _cq_a, cq_b, qp_a, qp_b, _mr_b) = setup(256);
        let mut sim = Sim::new(fabric, SimConfig::default());
        sim.with_world(|ctx| {
            connect(ctx, qp_a, qp_b);
            for i in 0..256u64 {
                post_send(ctx, qp_a, SendWr::inline_send(i, vec![0u8; 64])).unwrap();
            }
        });
        sim.run().unwrap();
        let mut f = sim.into_world();
        assert_eq!(f.poll_cq(cq_b, 512).len(), 256);
    });

    // One 4 MiB RDMA write (the rendezvous data path, ~2 k packets). The
    // payload is built once: the bench times the fabric, not the fill.
    // Both legs assert that the region's prefix *is* the payload's
    // allocation — a whole-prefix WRITE is placed by reference — so a
    // return to copying fails `--test` (and CI) outright.
    let payload: Arc<[u8]> = vec![7u8; 4 << 20].into();
    h.bench("fabric_4mib_rdma_write", || {
        rdma_write_4mib(&payload, 1);
    });

    // The same payload written twice into one region: the second WRITE
    // covers the first's whole prefix and is adopted over it.
    h.bench("fabric_4mib_rdma_overwrite", || {
        rdma_write_4mib(&payload, 2);
    });

    // RNR retry storm (no receives posted until late).
    h.bench("fabric_rnr_retry_storm", || {
        let (fabric, _cq_a, cq_b, qp_a, qp_b, mr_b) = setup(0);
        let mut sim = Sim::new(fabric, SimConfig::default());
        sim.with_world(|ctx| {
            connect(ctx, qp_a, qp_b);
            for i in 0..8u64 {
                post_send(ctx, qp_a, SendWr::inline_send(i, vec![0u8; 32])).unwrap();
            }
            ctx.schedule_at(ibsim::SimTime::from_nanos(2_000_000), move |c| {
                for i in 0..8usize {
                    c.world
                        .post_recv(
                            qp_b,
                            RecvWr {
                                wr_id: i as u64,
                                mr: mr_b,
                                offset: i * 4096,
                                len: 4096,
                            },
                        )
                        .unwrap();
                }
            });
        });
        sim.run().unwrap();
        let mut f = sim.into_world();
        assert_eq!(f.poll_cq(cq_b, 16).len(), 8);
    });

    h.finish();
}
