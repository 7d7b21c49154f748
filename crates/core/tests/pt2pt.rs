//! Point-to-point semantics across every flow control scheme.

use ibfabric::FabricParams;
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};

#[test]
fn eager_roundtrip_all_schemes() {
    for scheme in FlowControlScheme::ALL {
        let cfg = MpiConfig::scheme(scheme, 10);
        let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async move |mpi| {
            if mpi.rank() == 0 {
                mpi.send(b"ping", 1, 7).await;
                let (st, data) = mpi.recv(Some(1), Some(8)).await;
                assert_eq!(st.source, 1);
                data
            } else {
                let (st, data) = mpi.recv(Some(0), Some(7)).await;
                assert_eq!(st.tag, 7);
                assert_eq!(data, b"ping");
                mpi.send(b"pong", 0, 8).await;
                data
            }
        })
        .unwrap();
        assert_eq!(out.results[0], b"pong");
        assert_eq!(out.results[1], b"ping");
    }
}

#[test]
fn rendezvous_large_message_all_schemes() {
    for scheme in FlowControlScheme::ALL {
        let cfg = MpiConfig::scheme(scheme, 10);
        let n = 300_000usize;
        let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async move |mpi| {
            if mpi.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                mpi.send(&data, 1, 1).await;
                0u64
            } else {
                let (st, data) = mpi.recv(Some(0), Some(1)).await;
                assert_eq!(st.len, n);
                data.iter()
                    .enumerate()
                    .map(|(i, &b)| ((i % 251) as u8 == b) as u64)
                    .sum()
            }
        })
        .unwrap();
        assert_eq!(out.results[1], n as u64, "all bytes intact ({scheme:?})");
        // Large message must have used zero-copy rendezvous.
        let r0 = &out.stats.ranks[0];
        assert!(
            r0.conns[1].rndz_sent.get() >= 1,
            "{scheme:?} should rendezvous"
        );
        assert!(r0.rndz_bytes.get() >= n as u64);
    }
}

#[test]
fn message_ordering_same_tag() {
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 4);
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            for i in 0..50u32 {
                mpi.send(&i.to_le_bytes(), 1, 3).await;
            }
            Vec::new()
        } else {
            let mut got = Vec::with_capacity(50);
            for _ in 0..50u32 {
                let (_, d) = mpi.recv(Some(0), Some(3)).await;
                got.push(u32::from_le_bytes(d.try_into().unwrap()));
            }
            got
        }
    })
    .unwrap();
    assert_eq!(
        out.results[1],
        (0..50).collect::<Vec<u32>>(),
        "MPI ordering violated"
    );
}

#[test]
fn tag_matching_out_of_order() {
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.send(b"first", 1, 1).await;
            mpi.send(b"second", 1, 2).await;
            Vec::new()
        } else {
            // Receive tag 2 before tag 1: needs the unexpected queue.
            let (_, second) = mpi.recv(Some(0), Some(2)).await;
            let (_, first) = mpi.recv(Some(0), Some(1)).await;
            vec![first.into_vec(), second.into_vec()]
        }
    })
    .unwrap();
    assert_eq!(out.results[1], vec![b"first".to_vec(), b"second".to_vec()]);
}

#[test]
fn wildcard_source_and_tag() {
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(3, cfg, FabricParams::mt23108(), async |mpi| {
        match mpi.rank() {
            0 => {
                let mut froms = Vec::new();
                for _ in 0..2 {
                    let (st, data) = mpi.recv(None, None).await;
                    froms.push((st.source, st.tag, data.into_vec()));
                }
                froms.sort();
                froms
            }
            r => {
                mpi.send(format!("from{r}").as_bytes(), 0, 10 + r as i32)
                    .await;
                Vec::new()
            }
        }
    })
    .unwrap();
    let got = &out.results[0];
    assert_eq!(got.len(), 2);
    assert_eq!(got[0], (1, 11, b"from1".to_vec()));
    assert_eq!(got[1], (2, 12, b"from2".to_vec()));
}

#[test]
fn nonblocking_isend_irecv_waitall() {
    let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 4);
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            let reqs: Vec<_> = (0..20u32)
                .map(|i| mpi.isend(&i.to_le_bytes(), 1, i as i32))
                .collect();
            mpi.waitall(&reqs).await;
            0
        } else {
            let mut sum = 0u64;
            // Post all receives up front (reverse tag order to stress
            // matching), then wait.
            let reqs: Vec<_> = (0..20u32)
                .rev()
                .map(|i| mpi.irecv(Some(0), Some(i as i32)))
                .collect();
            for r in reqs {
                let (_, d) = mpi.wait_recv(r).await;
                sum += u32::from_le_bytes(d.try_into().unwrap()) as u64;
            }
            sum
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (0..20).sum::<u32>() as u64);
}

#[test]
fn sendrecv_exchange_ring() {
    let cfg = MpiConfig::default();
    let n = 5;
    let out = MpiWorld::run(n, cfg, FabricParams::mt23108(), async move |mpi| {
        let me = mpi.rank();
        let right = (me + 1) % mpi.size();
        let left = (me + mpi.size() - 1) % mpi.size();
        let (st, data) = mpi
            .sendrecv(&(me as u64).to_le_bytes(), right, 0, Some(left), Some(0))
            .await;
        assert_eq!(st.source, left);
        u64::from_le_bytes(data.try_into().unwrap())
    })
    .unwrap();
    for (me, &got) in out.results.iter().enumerate() {
        assert_eq!(got as usize, (me + n - 1) % n);
    }
}

#[test]
fn recv_into_and_typed_helpers() {
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            let xs: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
            mpi.send_scalars(&xs, 1, 0).await;
            0.0
        } else {
            let mut buf = vec![0.0f64; 1000];
            mpi.recv_scalars_into(&mut buf, Some(0), Some(0)).await;
            buf.iter().sum::<f64>()
        }
    })
    .unwrap();
    let expect: f64 = (0..1000).map(|i| i as f64 * 0.5).sum();
    assert!((out.results[1] - expect).abs() < 1e-9);
}

#[test]
fn iprobe_sees_unexpected() {
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.send(b"probe-me", 1, 42).await;
            true
        } else {
            // Spin until the probe sees it.
            loop {
                if let Some(st) = mpi.iprobe(Some(0), Some(42)) {
                    assert_eq!(st.len, 8);
                    break;
                }
                mpi.compute(ibsim::SimDuration::micros(1)).await;
            }
            let (_, d) = mpi.recv(Some(0), Some(42)).await;
            d == b"probe-me"
        }
    })
    .unwrap();
    assert!(out.results[1]);
}

#[test]
fn pin_down_cache_hits_on_reuse() {
    // Repeated large sends from the same buffer: first pins, rest hit.
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            let data = vec![7u8; 100_000];
            for _ in 0..5 {
                mpi.send(&data, 1, 0).await;
            }
        } else {
            let mut buf = vec![0u8; 100_000];
            for _ in 0..5 {
                mpi.recv_into(&mut buf, Some(0), Some(0)).await;
            }
            assert_eq!(buf[99_999], 7);
        }
    })
    .unwrap();
    let s = &out.stats.ranks[0];
    assert!(
        s.regcache_hits.get() >= 4,
        "sender should hit the pin-down cache, hits={}",
        s.regcache_hits.get()
    );
    let r = &out.stats.ranks[1];
    assert!(
        r.regcache_hits.get() >= 4,
        "receiver recv_into should hit too, hits={}",
        r.regcache_hits.get()
    );
}

#[test]
fn deterministic_end_times() {
    let run = || {
        let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 2);
        MpiWorld::run(4, cfg, FabricParams::mt23108(), async |mpi| {
            let me = mpi.rank();
            for peer in 0..mpi.size() {
                if peer != me {
                    mpi.send(&[me as u8; 100], peer, 0).await;
                }
            }
            for _ in 0..mpi.size() - 1 {
                let _ = mpi.recv(None, Some(0)).await;
            }
            mpi.now().as_nanos()
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.end_time, b.end_time, "simulation must be deterministic");
    assert_eq!(a.results, b.results);
    assert_eq!(a.events, b.events);
}

#[test]
fn single_rank_world() {
    let out = MpiWorld::run(
        1,
        MpiConfig::default(),
        FabricParams::mt23108(),
        async |mpi| {
            assert_eq!(mpi.size(), 1);
            mpi.rank()
        },
    )
    .unwrap();
    assert_eq!(out.results, vec![0]);
}

#[test]
fn empty_message() {
    let out = MpiWorld::run(
        2,
        MpiConfig::default(),
        FabricParams::mt23108(),
        async |mpi| {
            if mpi.rank() == 0 {
                mpi.send(&[], 1, 0).await;
                0
            } else {
                let (st, data) = mpi.recv(Some(0), Some(0)).await;
                assert_eq!(st.len, 0);
                data.len()
            }
        },
    )
    .unwrap();
    assert_eq!(out.results[1], 0);
}

#[test]
fn exact_eager_threshold_boundary() {
    let cfg = MpiConfig::default();
    let thr = cfg.eager_threshold();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async move |mpi| {
        if mpi.rank() == 0 {
            mpi.send(&vec![1u8; thr], 1, 0).await; // exactly eager
            mpi.send(&vec![2u8; thr + 1], 1, 1).await; // first rendezvous size
            (0, 0)
        } else {
            let (a, da) = mpi.recv(Some(0), Some(0)).await;
            let (b, db) = mpi.recv(Some(0), Some(1)).await;
            assert!(da.iter().all(|&x| x == 1));
            assert!(db.iter().all(|&x| x == 2));
            (a.len, b.len)
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (thr, thr + 1));
    let s = &out.stats.ranks[0].conns[1];
    // One eager data message plus the finalize barrier's round.
    assert_eq!(s.eager_sent.get(), 2);
    assert_eq!(s.rndz_sent.get(), 1);
}

#[test]
fn ssend_is_synchronous() {
    // MPI_Ssend must not complete before the receiver matches: with the
    // receiver sleeping 200us, the sender's ssend return time must be
    // after that, even for a tiny message (which plain send would have
    // buffered instantly).
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.ssend(b"sync", 1, 0).await;
            mpi.now().as_nanos()
        } else {
            mpi.compute(ibsim::SimDuration::micros(200)).await;
            let (_, d) = mpi.recv(Some(0), Some(0)).await;
            assert_eq!(d, b"sync");
            0
        }
    })
    .unwrap();
    assert!(
        out.results[0] > 200_000,
        "ssend returned at {}ns, before the receiver matched",
        out.results[0]
    );
}

#[test]
fn plain_send_of_small_messages_is_buffered_by_contrast() {
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.send(b"async", 1, 0).await;
            mpi.now().as_nanos()
        } else {
            mpi.compute(ibsim::SimDuration::micros(200)).await;
            let (_, d) = mpi.recv(Some(0), Some(0)).await;
            assert_eq!(d, b"async");
            0
        }
    })
    .unwrap();
    assert!(
        out.results[0] < 50_000,
        "small standard-mode send should return immediately, took {}ns",
        out.results[0]
    );
}

#[test]
fn bsend_returns_before_large_transfer_completes() {
    let cfg = MpiConfig::default();
    let n = 256 * 1024;
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async move |mpi| {
        if mpi.rank() == 0 {
            let data = vec![3u8; n];
            mpi.bsend(&data, 1, 0).await;
            mpi.now().as_nanos()
        } else {
            mpi.compute(ibsim::SimDuration::micros(500)).await;
            let (st, d) = mpi.recv(Some(0), Some(0)).await;
            assert_eq!(st.len, n);
            assert!(d.iter().all(|&b| b == 3));
            0
        }
    })
    .unwrap();
    // The 256KB transfer itself takes ~300us once the receiver matches at
    // 500us; a buffered send must return well before any of that.
    assert!(
        out.results[0] < 200_000,
        "bsend should return at copy time, took {}ns",
        out.results[0]
    );
}

#[test]
fn rsend_delivers_like_send() {
    let cfg = MpiConfig::default();
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            let (_, d) = mpi.recv(Some(1), Some(9)).await;
            d.into_vec()
        } else {
            mpi.rsend(b"ready", 0, 9).await;
            Vec::new()
        }
    })
    .unwrap();
    assert_eq!(out.results[0], b"ready");
}
