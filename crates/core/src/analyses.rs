//! Every path a caller takes through a credit obligation, walked in a live
//! two-rank world. Paper §4.2's rule — a credit consumed reaches the peer
//! — is held by `conn.rs`: a window's consume operations are reached only
//! inside the two calls that post what they took (`post_frame`, on the
//! slab or the ring lane, and `send_rdma_credit_update`). These tests
//! watch those calls from outside, one synchronous call at a time, so
//! what a call took and what it posted are read with nothing in between.

mod tests {
    use crate::{CreditMsgMode, FlowControlScheme, MpiConfig, MpiRank, MpiWorld, WorldStats};
    use ibfabric::FabricParams;

    /// Runs `body` on two ranks and checks every connection's ledger at
    /// the end of the run.
    fn run2(cfg: MpiConfig, body: impl AsyncFn(&mut MpiRank) + 'static) -> WorldStats {
        let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), body).unwrap();
        assert!(out.stats.all_ledgers_conserved());
        out.stats
    }

    #[test]
    fn consume_then_send_is_clean() {
        for scheme in [
            FlowControlScheme::UserStatic,
            FlowControlScheme::UserDynamic,
        ] {
            run2(MpiConfig::scheme(scheme, 4), async |mpi| {
                if mpi.rank() == 1 {
                    mpi.send(&[1; 8], 0, 0).await;
                    mpi.recv(Some(0), Some(1)).await;
                    return;
                }
                // The frame from rank 1 leaves a buffer credit owed to it,
                // below the explicit-return threshold.
                mpi.recv(Some(1), Some(0)).await;
                let before = mpi.conn(1).credits;
                let stats = &mpi.conn(1).stats;
                let (sent, piggybacked) = (stats.eager_sent.get(), stats.credits_piggybacked.get());
                assert!(before.held > 0 && before.pending > 0, "{before:?}");

                let req = mpi.isend(&[2; 8], 1, 1);
                // One call spent the credit and posted the frame that
                // carries it, with every pending return piggybacked.
                let c = mpi.conn(1);
                assert_eq!(c.stats.eager_sent.get(), sent + 1);
                assert_eq!(c.credits.held, before.held - 1);
                assert_eq!(c.credits.spent_total, before.spent_total + 1);
                assert_eq!(c.credits.pending, 0);
                let returned = u64::from(before.pending);
                assert_eq!(c.credits.returned_total, before.returned_total + returned);
                assert_eq!(c.stats.credits_piggybacked.get(), piggybacked + returned);
                assert!(c.credits.conserved());
                mpi.wait(req).await;
            });
        }
    }

    #[test]
    fn branch_where_both_arms_send_is_clean() {
        // Ring slots and buffer credits are both 2 deep: a burst of six
        // takes the ring arm, then the converted-rendezvous arm, then the
        // backlog.
        const BURST: u8 = 6;
        let cfg = MpiConfig::scheme(FlowControlScheme::RdmaChannel, 2);
        run2(cfg, async |mpi| {
            if mpi.rank() == 1 {
                for _ in 0..BURST {
                    mpi.recv(Some(0), Some(0)).await;
                }
                return;
            }
            let taken = |mpi: &MpiRank| {
                let c = mpi.conn(1);
                [
                    c.ring.spent_total,
                    c.stats.ring_sent.get(),
                    c.credits.spent_total,
                    c.stats.rndz_sent.get(),
                    c.stats.backlogged.get(),
                ]
            };
            let (mut ring_arm, mut rndz_arm) = (0, 0);
            let mut reqs = Vec::new();
            for i in 0..BURST {
                let before = taken(mpi);
                reqs.push(mpi.isend(&[i; 8], 1, 0));
                let after = taken(mpi);
                let [ring_spent, ring_sent, credit_spent, rndz_sent, backlogged] =
                    std::array::from_fn(|k| after[k] - before[k]);
                // Whichever arm the send took, the unit it spent left on
                // a frame it posted: a ring slot on a ring write, a buffer
                // credit on a rendezvous start. A queued send takes nothing
                // (the backlog may post a credit-less optimistic start).
                assert_eq!(ring_spent, ring_sent, "send {i}");
                assert!(credit_spent <= rndz_sent, "send {i}");
                assert!(ring_sent + rndz_sent + backlogged > 0, "send {i}");
                ring_arm += ring_sent;
                rndz_arm += credit_spent;
            }
            assert!(
                ring_arm > 0 && rndz_arm > 0,
                "ring {ring_arm}, rendezvous {rndz_arm}"
            );
            mpi.waitall(&reqs).await;
        });
    }

    #[test]
    fn bare_post_send_discharges_mailbox_returns_but_not_spends() {
        for scheme in [
            FlowControlScheme::UserStatic,
            FlowControlScheme::RdmaChannel,
        ] {
            let cfg = MpiConfig {
                credit_msg_mode: CreditMsgMode::Rdma,
                ..MpiConfig::scheme(scheme, 4)
            };
            run2(cfg, async |mpi| {
                if mpi.rank() == 0 {
                    mpi.send(&[1; 8], 1, 0).await;
                    mpi.recv(Some(1), Some(1)).await;
                    return;
                }
                mpi.recv(Some(0), Some(0)).await;
                let before = [mpi.conn(0).credits, mpi.conn(0).ring];
                let updates = mpi.conn(0).stats.rdma_credit_updates.get();
                assert!(before.iter().any(|w| w.pending > 0), "{before:?}");

                mpi.send_rdma_credit_update(0);
                let c = mpi.conn(0);
                assert_eq!(c.stats.rdma_credit_updates.get(), updates + 1);
                for (b, a) in before.iter().zip([c.credits, c.ring]) {
                    // The write carries every pending return ...
                    let returned = u64::from(b.pending);
                    assert_eq!(a.pending, 0);
                    assert_eq!(a.mailbox_sent_total, b.mailbox_sent_total + returned);
                    assert_eq!(a.returned_total, b.returned_total + returned);
                    // ... and spends nothing.
                    assert_eq!(
                        (a.held, a.spent_total, a.granted_total),
                        (b.held, b.spent_total, b.granted_total)
                    );
                    assert!(a.conserved());
                }
                mpi.send(&[2; 8], 0, 1).await;
            });
        }
    }

    #[test]
    fn ring_growth_install_stage_publish_is_clean() {
        const BURST: u8 = 24;
        // Capped at the one growth below, so the burst grows nothing more.
        let cfg = MpiConfig {
            rdma_ring_max_slots: 8,
            ..MpiConfig::scheme(FlowControlScheme::RdmaChannelDyn, 4)
        };
        let stats = run2(cfg, async |mpi| {
            if mpi.rank() == 0 {
                for i in 0..BURST {
                    mpi.send(&[i; 8], 1, 0).await;
                }
                mpi.recv(Some(1), Some(1)).await;
                // The publication reached the sender: it writes into the
                // grown ring.
                let c = mpi.conn(1);
                assert_eq!((c.peer_ring_gen, c.peer_ring_slots), (1, 8));
                return;
            }
            // Grow rank 1's receive ring the way the progress engine does.
            let (old_mr, old_slots, owed) = {
                let c = mpi.conn(0);
                (c.live_ring().mr, c.live_ring().slots, c.ring.pending)
            };
            let slots = old_slots * 2;
            let (node, len) = (mpi.node, slots as usize * mpi.cfg.buf_size);
            let mr = mpi
                .proc
                .with(|ctx| ctx.world.register(node, len, ibfabric::Access::FULL));
            mpi.conn_mut(0).install_grown_ring(mr, slots);
            let c = mpi.conn(0);
            // The install kept the displaced generation polled: frames
            // still in flight against the old rkey land and drain there.
            let staged: Vec<_> = c.rings.iter().map(|r| (r.gen, r.mr, r.slots)).collect();
            assert_eq!(staged, [(0, old_mr, old_slots), (1, mr, slots)]);
            assert_eq!(c.ring.pending, owed + slots - old_slots);

            // Publishing carries the slot grant with the new ring.
            mpi.send_rdma_credit_update(0);
            assert_eq!(mpi.conn(0).ring.pending, 0);
            for i in 0..BURST {
                let (_, data) = mpi.recv(Some(0), Some(0)).await;
                assert_eq!(data, [i; 8]);
            }
            mpi.send(&[], 0, 1).await;
        });
        // The sender's acknowledgement retired the drained generation.
        let grown = &stats.ranks[1].conns[0];
        assert_eq!(grown.ring_growth_events.get(), 1);
        assert_eq!(grown.rings_retired.get(), 1);
    }
}
