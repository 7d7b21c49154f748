//! Correctness of the collective operations against sequential references,
//! across world sizes (power-of-two and not) and communicator splits.

use ibfabric::FabricParams;
use mpib::collectives::*;
use mpib::{Bytes, Comm, FlowControlScheme, MpiConfig, MpiWorld, ReduceOp};
use std::sync::Arc;

fn run<R: 'static>(n: usize, body: impl AsyncFn(&mut mpib::MpiRank) -> R + 'static) -> Vec<R> {
    let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 8);
    MpiWorld::run(n, cfg, FabricParams::mt23108(), body)
        .unwrap()
        .results
}

#[test]
fn barrier_synchronizes() {
    for n in [2, 3, 4, 7, 8] {
        let results = run(n, async |mpi| {
            let world = Comm::world(mpi);
            // Stagger arrival; everyone must leave after the latest.
            mpi.compute(ibsim::SimDuration::micros(10 * (mpi.rank() as u64 + 1)))
                .await;
            barrier(mpi, &world).await;
            mpi.now().as_nanos()
        });
        let min_exit = *results.iter().min().unwrap();
        assert!(
            min_exit >= 10_000 * n as u64,
            "barrier exited before last arrival (n={n})"
        );
    }
}

#[test]
fn bcast_from_each_root() {
    for n in [2, 5, 8] {
        for root in [0, n - 1, n / 2] {
            let results = run(n, async move |mpi| {
                let world = Comm::world(mpi);
                let data: Vec<u32> = if world.my_rank(mpi) == root {
                    (0..100u32).map(|i| i * 3 + root as u32).collect()
                } else {
                    Vec::new()
                };
                bcast_bytes(mpi, &world, root, mpib::encode_slice(&data)).await
            });
            for r in &results {
                let got: Vec<u32> = mpib::decode_slice(r);
                assert_eq!(
                    got,
                    (0..100u32).map(|i| i * 3 + root as u32).collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn reduce_sum_matches_reference() {
    for n in [2, 3, 6, 8] {
        let results = run(n, async move |mpi| {
            let world = Comm::world(mpi);
            let me = world.my_rank(mpi) as f64;
            let data: Vec<f64> = (0..64).map(|i| me * 100.0 + i as f64).collect();
            reduce_scalars(mpi, &world, 0, ReduceOp::Sum, &data).await
        });
        let expect: Vec<f64> = (0..64)
            .map(|i| (0..n).map(|r| r as f64 * 100.0 + i as f64).sum())
            .collect();
        assert_eq!(results[0].as_ref().unwrap(), &expect, "n={n}");
        for r in &results[1..] {
            assert!(r.is_none());
        }
    }
}

#[test]
fn allreduce_all_ops_all_sizes() {
    for n in [2, 3, 4, 5, 8] {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
            let results = run(n, async move |mpi| {
                let world = Comm::world(mpi);
                let me = world.my_rank(mpi);
                let data: Vec<f64> = (0..16).map(|i| ((me + i) % 7 + 1) as f64).collect();
                allreduce_scalars(mpi, &world, op, &data).await
            });
            // Sequential reference.
            let inputs: Vec<Vec<f64>> = (0..n)
                .map(|me| (0..16).map(|i| ((me + i) % 7 + 1) as f64).collect())
                .collect();
            let mut expect = inputs[0].clone();
            for inp in &inputs[1..] {
                for (a, &b) in expect.iter_mut().zip(inp) {
                    *a = match op {
                        ReduceOp::Sum => *a + b,
                        ReduceOp::Max => a.max(b),
                        ReduceOp::Min => a.min(b),
                        ReduceOp::Prod => *a * b,
                    };
                }
            }
            for (rank, r) in results.iter().enumerate() {
                assert_eq!(r, &expect, "n={n} op={op:?} rank={rank}");
            }
        }
    }
}

#[test]
fn allgather_concatenates_in_rank_order() {
    for n in [2, 3, 8] {
        let results = run(n, async |mpi| {
            let world = Comm::world(mpi);
            let me = world.my_rank(mpi) as u64;
            allgather_scalars(mpi, &world, &[me * 10, me * 10 + 1]).await
        });
        let expect: Vec<u64> = (0..n as u64).flat_map(|r| [r * 10, r * 10 + 1]).collect();
        for r in &results {
            assert_eq!(r, &expect);
        }
    }
}

#[test]
fn alltoall_transposes() {
    for n in [2, 4, 5, 8] {
        let results = run(n, async |mpi| {
            let world = Comm::world(mpi);
            let me = world.my_rank(mpi) as u32;
            // Element sent from me to dst is me*100 + dst.
            let data: Vec<u32> = (0..world.size() as u32).map(|dst| me * 100 + dst).collect();
            alltoall_scalars(mpi, &world, &data).await
        });
        for (me, r) in results.iter().enumerate() {
            let expect: Vec<u32> = (0..n as u32).map(|src| src * 100 + me as u32).collect();
            assert_eq!(r, &expect, "n={n} rank={me}");
        }
    }
}

#[test]
fn alltoallv_ragged_sizes() {
    let n = 4;
    let results = run(n, async move |mpi| {
        let world = Comm::world(mpi);
        let me = world.my_rank(mpi);
        // Chunk to dst has length me + dst, filled with (me*16+dst).
        let chunks: Vec<Vec<u8>> = (0..n)
            .map(|dst| vec![(me * 16 + dst) as u8; me + dst])
            .collect();
        alltoallv_bytes(mpi, &world, chunks).await
    });
    for (me, got) in results.iter().enumerate() {
        for (src, chunk) in got.iter().enumerate() {
            assert_eq!(chunk.len(), src + me);
            assert!(chunk.iter().all(|&b| b == (src * 16 + me) as u8));
        }
    }
}

#[test]
fn gather_and_scatter_roundtrip() {
    let n = 6;
    let results = run(n, async move |mpi| {
        let world = Comm::world(mpi);
        let me = world.my_rank(mpi);
        let gathered = gather_bytes(mpi, &world, 2, &[me as u8; 3][..]).await;
        if me == 2 {
            let g = gathered.unwrap();
            for (src, chunk) in g.iter().enumerate() {
                assert_eq!(chunk, &[src as u8; 3]);
            }
        }
        // Scatter back doubled values.
        let chunks: Option<Vec<Vec<u8>>> =
            (me == 2).then(|| (0..n).map(|r| vec![r as u8 * 2; 2]).collect());
        scatter_bytes(mpi, &world, 2, chunks).await
    });
    for (me, r) in results.iter().enumerate() {
        assert_eq!(r, &[me as u8 * 2; 2]);
    }
}

#[test]
fn comm_split_rows_and_cols() {
    // 2x3 process grid: split by row and by column, allreduce in each.
    let results = run(6, async |mpi| {
        let world = Comm::world(mpi);
        let me = world.my_rank(mpi);
        let (row, col) = (me / 3, me % 3);
        let row_comm = mpi
            .comm_split(&world, row as i32, col as i32)
            .await
            .unwrap();
        let col_comm = mpi
            .comm_split(&world, col as i32, row as i32)
            .await
            .unwrap();
        assert_eq!(row_comm.size(), 3);
        assert_eq!(col_comm.size(), 2);
        assert_eq!(row_comm.my_rank(mpi), col);
        assert_eq!(col_comm.my_rank(mpi), row);
        let row_sum = allreduce_scalars(mpi, &row_comm, ReduceOp::Sum, &[me as f64]).await[0];
        let col_sum = allreduce_scalars(mpi, &col_comm, ReduceOp::Sum, &[me as f64]).await[0];
        (row_sum, col_sum)
    });
    for (me, &(row_sum, col_sum)) in results.iter().enumerate() {
        let (row, col) = (me / 3, me % 3);
        let expect_row: f64 = (0..3).map(|c| (row * 3 + c) as f64).sum();
        let expect_col: f64 = (0..2).map(|r| (r * 3 + col) as f64).sum();
        assert_eq!(row_sum, expect_row, "rank {me} row");
        assert_eq!(col_sum, expect_col, "rank {me} col");
    }
}

#[test]
fn collectives_compose_with_pt2pt() {
    // Interleave collectives and point-to-point on the same connections.
    let results = run(4, async |mpi| {
        let world = Comm::world(mpi);
        let me = mpi.rank();
        let right = (me + 1) % 4;
        let left = (me + 3) % 4;
        let mut acc = 0u64;
        for round in 0..5u64 {
            let (_, d) = mpi
                .sendrecv(
                    &(me as u64 + round).to_le_bytes(),
                    right,
                    9,
                    Some(left),
                    Some(9),
                )
                .await;
            acc += u64::from_le_bytes(d.try_into().unwrap());
            let s = allreduce_scalars(mpi, &world, ReduceOp::Sum, &[acc as f64]).await;
            acc += s[0] as u64 % 97;
        }
        acc
    });
    // Determinism is the point: all ranks computed a consistent value mix.
    let again = run(4, async |mpi| {
        let world = Comm::world(mpi);
        let me = mpi.rank();
        let right = (me + 1) % 4;
        let left = (me + 3) % 4;
        let mut acc = 0u64;
        for round in 0..5u64 {
            let (_, d) = mpi
                .sendrecv(
                    &(me as u64 + round).to_le_bytes(),
                    right,
                    9,
                    Some(left),
                    Some(9),
                )
                .await;
            acc += u64::from_le_bytes(d.try_into().unwrap());
            let s = allreduce_scalars(mpi, &world, ReduceOp::Sum, &[acc as f64]).await;
            acc += s[0] as u64 % 97;
        }
        acc
    });
    assert_eq!(results, again);
}

#[test]
fn reduce_scatter_distributes_blocks() {
    for n in [2, 4, 8] {
        let results = run(n, async move |mpi| {
            let world = Comm::world(mpi);
            let me = world.my_rank(mpi) as f64;
            // Contribution: block i holds (me + i) repeated twice.
            let data: Vec<f64> = (0..n)
                .flat_map(|i| [me + i as f64, me + i as f64])
                .collect();
            reduce_scatter_scalars(mpi, &world, ReduceOp::Sum, &data).await
        });
        // Block i (owned by rank i) = sum over ranks of (rank + i).
        let rank_sum: f64 = (0..n).map(|r| r as f64).sum();
        for (me, r) in results.iter().enumerate() {
            let expect = rank_sum + (n * me) as f64;
            assert_eq!(r, &vec![expect, expect], "n={n} rank={me}");
        }
    }
}

#[test]
fn scan_computes_inclusive_prefixes() {
    for n in [2, 5, 8] {
        let results = run(n, async |mpi| {
            let world = Comm::world(mpi);
            let me = world.my_rank(mpi) as f64;
            scan_scalars(mpi, &world, ReduceOp::Sum, &[me + 1.0, 2.0 * (me + 1.0)]).await
        });
        for (me, r) in results.iter().enumerate() {
            let prefix: f64 = (0..=me).map(|k| (k + 1) as f64).sum();
            assert_eq!(r, &vec![prefix, 2.0 * prefix], "n={n} rank={me}");
        }
    }
}

#[test]
fn collectives_over_split_comms_stay_isolated() {
    // Concurrent allreduces in disjoint sub-communicators must not
    // cross-match even though they share tags within their contexts.
    let results = run(8, async |mpi| {
        let world = Comm::world(mpi);
        let me = world.my_rank(mpi);
        let half = mpi
            .comm_split(&world, (me / 4) as i32, me as i32)
            .await
            .unwrap();
        let s = allreduce_scalars(mpi, &half, ReduceOp::Sum, &[me as f64]).await;
        s[0]
    });
    for (me, &s) in results.iter().enumerate() {
        let expect: f64 = if me < 4 {
            0.0 + 1.0 + 2.0 + 3.0
        } else {
            4.0 + 5.0 + 6.0 + 7.0
        };
        assert_eq!(s, expect, "rank {me}");
    }
}

/// Every byte collective once, then a ring of point-to-point sends, with
/// each payload handed over by value (`owned`) or borrowed. Chunk `i` of
/// rank `r` is eager-sized or rendezvous-sized by the parity of `r + i`
/// and its bytes name `(r, i)`. Returns every byte received, in order.
async fn every_byte_path(mpi: &mut mpib::MpiRank, owned: bool) -> Vec<Vec<u8>> {
    let world = Comm::world(mpi);
    let (me, n) = (world.my_rank(mpi), world.size());
    let chunk = |r: usize, i: usize| vec![(r * 16 + i) as u8; [64, 20 << 10][(r + i) % 2]];
    let shared = |c: &Vec<u8>| Arc::<[u8]>::from(&c[..]);
    let chunks: Vec<Vec<u8>> = (0..n).map(|i| chunk(me, i)).collect();
    let mut got: Vec<Bytes> = Vec::new();
    got.extend(if owned {
        alltoallv_bytes(mpi, &world, chunks.iter().map(shared).collect()).await
    } else {
        alltoallv_bytes(mpi, &world, chunks.iter().map(Vec::as_slice).collect()).await
    });
    got.extend(if owned {
        allgather_bytes(mpi, &world, shared(&chunks[0])).await
    } else {
        allgather_bytes(mpi, &world, &chunks[0][..]).await
    });
    let root = 1;
    let mine = if me == root { chunk(me, 1) } else { Vec::new() };
    got.push(if owned {
        bcast_bytes(mpi, &world, root, shared(&mine)).await
    } else {
        bcast_bytes(mpi, &world, root, &mine[..]).await
    });
    got.extend(
        if owned {
            gather_bytes(mpi, &world, root, shared(&chunks[1])).await
        } else {
            gather_bytes(mpi, &world, root, &chunks[1][..]).await
        }
        .into_iter()
        .flatten(),
    );
    let to_scatter = (me == root).then_some(&chunks);
    got.push(if owned {
        scatter_bytes(
            mpi,
            &world,
            root,
            to_scatter.map(|c| c.iter().map(shared).collect()),
        )
        .await
    } else {
        let borrowed = to_scatter.map(|c| c.iter().map(Vec::as_slice).collect());
        scatter_bytes::<&[u8]>(mpi, &world, root, borrowed).await
    });
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    // A burst past the two credits of pre-post 2, so some sends backlog.
    let recvs: Vec<_> = (0..8).map(|_| mpi.irecv(Some(prev), Some(9))).collect();
    let sends: Vec<_> = (0..8)
        .map(|i| {
            if owned {
                mpi.isend_owned(shared(&chunk(me, i)), next, 9)
            } else {
                mpi.isend(&chunk(me, i), next, 9)
            }
        })
        .collect();
    mpi.waitall(&sends).await;
    for r in recvs {
        got.push(mpi.wait_recv(r).await.1);
    }
    got.iter().map(|b| b.to_vec()).collect()
}

#[test]
fn byte_collectives_by_value_and_borrowed_are_one_behaviour() {
    for n in [4, 5] {
        for scheme in [
            FlowControlScheme::UserStatic,
            FlowControlScheme::RdmaChannel,
        ] {
            let case = format!("{n} ranks, {}", scheme.label());
            let [borrowed, owned] = [false, true].map(|owned| {
                let cfg = MpiConfig::scheme(scheme, 2);
                MpiWorld::run(n, cfg, FabricParams::mt23108(), async move |mpi| {
                    every_byte_path(mpi, owned).await
                })
                .unwrap()
            });
            let ranks = &owned.stats.ranks;
            assert!(
                ranks.iter().all(|r| r.eager_bytes.get() > 0),
                "{case}: nothing eager"
            );
            assert!(
                ranks
                    .iter()
                    .flat_map(|r| &r.conns)
                    .any(|c| c.backlogged.get() > 0),
                "{case}: nothing backlogged"
            );
            let rank1 = &owned.results[1];
            assert_eq!(
                rank1[0],
                vec![1u8; 20 << 10],
                "{case}: alltoallv from rank 0"
            );
            assert_eq!(rank1[1], vec![17u8; 64], "{case}: own alltoallv chunk");
            assert_eq!(borrowed.results, owned.results, "{case}: bytes received");
            assert_eq!(borrowed.end_time, owned.end_time, "{case}: end time");
            assert_eq!(borrowed.events, owned.events, "{case}: events");
            assert_eq!(
                format!("{:?}", borrowed.stats.ranks),
                format!("{:?}", owned.stats.ranks),
                "{case}: MPI stats"
            );
            assert_eq!(
                format!("{:?}", borrowed.fabric.stats),
                format!("{:?}", owned.fabric.stats),
                "{case}: fabric stats"
            );
        }
    }
}
