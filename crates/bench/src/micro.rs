//! The paper's micro-benchmarks (§6.2): ping-pong latency and windowed
//! bandwidth, in blocking and non-blocking variants.

use ibfabric::FabricParams;
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};

/// Parameters shared by the micro-benchmarks.
#[derive(Clone, Debug)]
pub struct MicroParams {
    /// Flow control scheme under test.
    pub scheme: FlowControlScheme,
    /// Pre-posted buffers per connection.
    pub prepost: u32,
    /// Measured iterations.
    pub iters: u32,
    /// Warm-up iterations (excluded from timing; lets the dynamic scheme
    /// adapt and the pin-down cache fill, as real benchmarks do).
    pub warmup: u32,
}

impl MicroParams {
    /// Defaults matching the paper's setup.
    pub fn new(scheme: FlowControlScheme, prepost: u32) -> Self {
        MicroParams {
            scheme,
            prepost,
            iters: 40,
            warmup: 4,
        }
    }

    fn config(&self) -> MpiConfig {
        MpiConfig::scheme(self.scheme, self.prepost)
    }
}

/// One period of the bytes message `index` of iteration `it` carries:
/// byte `i` of the message is `period[i % 256]`. Every message of a run
/// differs from its neighbours in every byte, so a receive handed another
/// message's bytes cannot pass [`check_payload`]; virtual time depends on
/// lengths only, so the figures do not move. (A period, because filling
/// and comparing by 256-byte blocks runs at `memcpy` speed — byte-at-a-time
/// arithmetic tripled the host time of Figs 7/8.)
fn payload_period(it: u32, index: u32) -> [u8; 256] {
    let base = it.wrapping_mul(61).wrapping_add(index.wrapping_mul(7)) as u8;
    std::array::from_fn(|i| base.wrapping_add(i as u8))
}

/// Writes message `index` of iteration `it` into `buf`.
fn fill_payload(buf: &mut [u8], it: u32, index: u32) {
    let period = payload_period(it, index);
    for block in buf.chunks_mut(period.len()) {
        block.copy_from_slice(&period[..block.len()]);
    }
}

/// Panics unless `data` is exactly what [`fill_payload`] wrote for
/// `(it, index)` at `size` bytes: a figure measured over a wrong delivery
/// is not a measurement.
fn check_payload(data: &[u8], size: usize, it: u32, index: u32) {
    let period = payload_period(it, index);
    let intact = data.len() == size
        && data
            .chunks(period.len())
            .all(|block| block == &period[..block.len()]);
    assert!(
        intact,
        "iteration {it}, message {index}: {} bytes delivered for a {size}-byte message, or not its payload",
        data.len()
    );
}

/// Ping-pong latency: blocking send/recv of `size` bytes both ways;
/// returns the average one-way latency in microseconds.
pub fn latency_test(p: &MicroParams, size: usize, fabric: FabricParams) -> f64 {
    let iters = p.iters;
    let warmup = p.warmup;
    let out = MpiWorld::run(2, p.config(), fabric, async move |mpi| {
        let peer = 1 - mpi.rank();
        let mut payload = vec![0u8; size];
        let mut buf = vec![0u8; size];
        let mut measured_ns = 0u64;
        for it in 0..(warmup + iters) {
            // The ping is message 0 of its iteration, the pong message 1.
            fill_payload(&mut payload, it, mpi.rank() as u32);
            let t0 = mpi.now();
            if mpi.rank() == 0 {
                mpi.send(&payload, peer, 1).await;
                mpi.recv_into(&mut buf, Some(peer), Some(1)).await;
            } else {
                mpi.recv_into(&mut buf, Some(peer), Some(1)).await;
                mpi.send(&payload, peer, 1).await;
            }
            check_payload(&buf, size, it, peer as u32);
            if it >= warmup {
                measured_ns += mpi.now().since(t0).as_nanos();
            }
        }
        measured_ns
    })
    .expect("latency run");
    // One-way = round-trip / 2, averaged over iterations (rank 0's clock).
    out.results[0] as f64 / (2.0 * p.iters as f64) / 1_000.0
}

/// One bandwidth measurement.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthResult {
    /// Payload bandwidth in MB/s (10^6 bytes per second).
    pub mb_per_s: f64,
    /// Messages per second.
    pub msg_rate: f64,
}

/// Windowed bandwidth test: the sender pushes `window` back-to-back
/// messages of `size` bytes, the receiver replies with 4 bytes once it has
/// them all; repeated `iters` times (paper §6.2.2).
///
/// `blocking` selects `MPI_Send`/`MPI_Recv`; otherwise `MPI_Isend`/
/// `MPI_Irecv` + waitall on both sides (the receiver waits request by
/// request, which is what `waitall` does, to take and check each payload).
pub fn bandwidth_test(
    p: &MicroParams,
    size: usize,
    window: u32,
    blocking: bool,
    fabric: FabricParams,
) -> BandwidthResult {
    let iters = p.iters;
    let warmup = p.warmup;
    let out = MpiWorld::run(2, p.config(), fabric, async move |mpi| {
        let peer = 1 - mpi.rank();
        let mut payload = vec![0u8; size];
        let mut measured_ns = 0u64;
        for it in 0..(warmup + iters) {
            let t0 = mpi.now();
            if mpi.rank() == 0 {
                if blocking {
                    for index in 0..window {
                        fill_payload(&mut payload, it, index);
                        mpi.send(&payload, peer, 2).await;
                    }
                } else {
                    let reqs: Vec<_> = (0..window)
                        .map(|index| {
                            fill_payload(&mut payload, it, index);
                            mpi.isend(&payload, peer, 2)
                        })
                        .collect();
                    mpi.waitall(&reqs).await;
                }
                let (_, _reply) = mpi.recv(Some(peer), Some(3)).await;
            } else {
                if blocking {
                    for index in 0..window {
                        let (_, data) = mpi.recv(Some(peer), Some(2)).await;
                        check_payload(&data, size, it, index);
                    }
                } else {
                    let reqs: Vec<_> = (0..window)
                        .map(|_| mpi.irecv(Some(peer), Some(2)))
                        .collect();
                    for (index, r) in (0..window).zip(reqs) {
                        let (_, data) = mpi.wait_recv(r).await;
                        check_payload(&data, size, it, index);
                    }
                }
                mpi.send(&[0u8; 4], peer, 3).await;
            }
            if it >= warmup {
                measured_ns += mpi.now().since(t0).as_nanos();
            }
        }
        measured_ns
    })
    .expect("bandwidth run");
    let secs = out.results[0] as f64 / 1e9;
    let total_msgs = (p.iters as u64) * window as u64;
    let total_bytes = total_msgs * size as u64;
    BandwidthResult {
        mb_per_s: total_bytes as f64 / secs / 1e6,
        msg_rate: total_msgs as f64 / secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_in_testbed_band() {
        // The calibration target: the paper's send/recv-based
        // implementation measures ~7.5us small-message latency.
        let p = MicroParams::new(FlowControlScheme::UserStatic, 100);
        let lat = latency_test(&p, 4, FabricParams::mt23108());
        assert!(
            (6.5..8.5).contains(&lat),
            "4-byte latency {lat:.2}us outside the calibrated 6.5-8.5us band"
        );
    }

    #[test]
    fn schemes_comparable_at_high_prepost() {
        // Fig 2's claim: all three schemes within a few percent.
        let base = latency_test(
            &MicroParams::new(FlowControlScheme::Hardware, 100),
            4,
            FabricParams::mt23108(),
        );
        for scheme in [
            FlowControlScheme::UserStatic,
            FlowControlScheme::UserDynamic,
        ] {
            let l = latency_test(&MicroParams::new(scheme, 100), 4, FabricParams::mt23108());
            let delta = (l - base).abs() / base;
            assert!(
                delta < 0.05,
                "{scheme:?} latency {l:.2} vs hardware {base:.2}: {delta:.2}"
            );
        }
    }

    #[test]
    fn large_message_bandwidth_near_dma_limit() {
        // Fig 8 regime: 32KB non-blocking sits at ~650-700 MB/s on the
        // testbed generation (the ~870 MB/s PCI-X plateau only appears at
        // 128KB+), which the next assertion checks.
        let p = MicroParams {
            iters: 10,
            warmup: 2,
            ..MicroParams::new(FlowControlScheme::UserStatic, 100)
        };
        let bw = bandwidth_test(&p, 32 * 1024, 16, false, FabricParams::mt23108());
        assert!(
            (580.0..760.0).contains(&bw.mb_per_s),
            "32KB nonblocking bandwidth {:.0} MB/s outside 580-760",
            bw.mb_per_s
        );
        let peak = bandwidth_test(&p, 1 << 20, 4, false, FabricParams::mt23108());
        assert!(
            (820.0..900.0).contains(&peak.mb_per_s),
            "1MB bandwidth {:.0} MB/s should sit at the ~870 MB/s PCI-X plateau",
            peak.mb_per_s
        );
    }

    #[test]
    fn nonblocking_beats_blocking_for_large_messages() {
        // Fig 7 vs Fig 8.
        let p = MicroParams {
            iters: 8,
            warmup: 2,
            ..MicroParams::new(FlowControlScheme::UserStatic, 10)
        };
        let b = bandwidth_test(&p, 32 * 1024, 8, true, FabricParams::mt23108());
        let nb = bandwidth_test(&p, 32 * 1024, 8, false, FabricParams::mt23108());
        assert!(
            nb.mb_per_s > b.mb_per_s * 1.15,
            "non-blocking ({:.0}) should clearly beat blocking ({:.0})",
            nb.mb_per_s,
            b.mb_per_s
        );
    }
}
