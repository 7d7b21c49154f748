//! Allocation budget of the point-to-point fast paths and of world
//! construction.
//!
//! A message's bytes exist once on the host between the sender and the
//! wire. An eager send that posts at once is framed straight from the
//! caller's slice and keeps nothing. A rendezvous carries one `Arc<[u8]>`
//! from producer to consumer: the buffer an owned send handed over (or
//! the one copy a borrowed send made), which the RDMA WRITE work
//! request, the in-flight entry and the delivery event share, which the
//! landing region adopts, and which `wait_recv` returns. The RC transport
//! keeps its per-work-request bookkeeping off the heap. This test holds
//! that in place with exact counts from a counting global allocator: the
//! same technique as `benchmark/`'s traced reps, in an integration test
//! because the libraries deny `unsafe`.
//!
//! Steady state is measured as a difference: the same body runs for a
//! short and a long number of windows, and the extra allocations of the
//! long run divided by its extra messages is the per-message cost with
//! bootstrap, warm-up growth and teardown cancelled exactly. The counts
//! repeat run to run, so the bounds are asserted, not sampled.
//!
//! World construction is held to a byte budget the same way: a memory
//! region costs the host what has been written into it, not what was
//! registered, so booting 16 ranks allocates bookkeeping and no receive
//! memory, and a slab's resident extent follows the posted pool.
//!
//! The rendezvous path is held to its region budget too: a burst of
//! posted receives lands in one region per receive, the regions are reused
//! window after window, and a region whose message was handed to the
//! application holds nothing. A byte collective built on it sends the
//! chunks it is handed and hands back the payloads it received, copying
//! neither, and a typed receive decodes in place.
//!
//! One `#[test]` only: a second test on another thread would be counted
//! too.

use ibfabric::{Fabric, FabricParams, NodeId};
use mpib::{Endpoint, FlowControlScheme, MpiConfig, MpiWorld};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TAG_DATA: i32 = 7;
const TAG_ACK: i32 = 8;

/// What one whole two-rank run cost the host.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RunCost {
    allocs: u64,
    bytes: u64,
    /// `(Fabric::mr_count, Fabric::registered_bytes)` at the end.
    regions: (usize, usize),
    /// Bytes resident at the end in the regions that are no connection's
    /// endpoint (its slab, mailbox and ring each way) — the pinned send
    /// source and the landing lanes.
    landed: usize,
}

/// The cost of one whole two-rank run: rank 0 posts `window` `isend`s of
/// `size` bytes and waits for a 4-byte ack, rank 1 posts `window`
/// `irecv`s, takes the payloads and acks; `windows` times.
fn run_cost(
    scheme: FlowControlScheme,
    prepost: u32,
    size: usize,
    window: usize,
    windows: usize,
) -> RunCost {
    let before = (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = MpiWorld::run(
        2,
        MpiConfig::scheme(scheme, prepost),
        FabricParams::mt23108(),
        async move |mpi| {
            let peer = 1 - mpi.rank();
            let buf = vec![0xA5u8; size];
            let mut reqs = Vec::with_capacity(window);
            let mut received = 0usize;
            for _ in 0..windows {
                reqs.clear();
                if mpi.rank() == 0 {
                    reqs.extend((0..window).map(|_| mpi.isend(&buf, peer, TAG_DATA)));
                    mpi.waitall(&reqs).await;
                    mpi.recv(Some(peer), Some(TAG_ACK)).await;
                } else {
                    reqs.extend((0..window).map(|_| mpi.irecv(Some(peer), Some(TAG_DATA))));
                    for &r in &reqs {
                        let (_, data) = mpi.wait_recv(r).await;
                        assert_eq!(data.len(), size);
                        received += 1;
                    }
                    mpi.send(&[0; 4], peer, TAG_ACK).await;
                }
            }
            received
        },
    );
    COUNTING.store(false, Ordering::Relaxed);
    let out = out.expect("clean run");
    assert_eq!(out.results[1], window * windows);
    RunCost {
        allocs: ALLOC_COUNT.load(Ordering::Relaxed) - before.0,
        bytes: ALLOC_BYTES.load(Ordering::Relaxed) - before.1,
        regions: (out.fabric.mr_count(), out.fabric.registered_bytes()),
        landed: out.fabric.resident_bytes()
            - Endpoint::all(&out.fabric)
                .flat_map(|e| [e.slab, e.mailbox, e.ring])
                .map(|mr| out.fabric.mr_bytes(mr).len())
                .sum::<usize>(),
    }
}

/// Bytes allocated by a whole empty-body run: world construction (verbs
/// objects, 240 connections on 16 ranks, the pre-posted pool), finalize and
/// teardown, nothing else.
fn bootstrap_bytes(nprocs: usize, scheme: FlowControlScheme, prepost: u32) -> u64 {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = MpiWorld::run(
        nprocs,
        MpiConfig::scheme(scheme, prepost),
        FabricParams::mt23108(),
        async |_mpi| (),
    );
    COUNTING.store(false, Ordering::Relaxed);
    out.expect("clean run");
    ALLOC_BYTES.load(Ordering::Relaxed) - before
}

/// Resident extent of rank 1's receive slab for rank 0 after `n` eager
/// messages from rank 0 landed in it under `UserStatic`: `n - 1` 4-byte
/// sends, one at a time, and the one message of the finalize barrier.
fn slab_extent_after(n: usize, prepost: u32) -> usize {
    let out = MpiWorld::run(
        2,
        MpiConfig::scheme(FlowControlScheme::UserStatic, prepost),
        FabricParams::mt23108(),
        async move |mpi| {
            for _ in 1..n {
                if mpi.rank() == 0 {
                    mpi.send(&[0xA5; 4], 1, TAG_DATA).await;
                } else {
                    mpi.recv(Some(0), Some(TAG_DATA)).await;
                }
            }
        },
    )
    .expect("clean run");
    out.fabric.mr_bytes(endpoint_on(&out.fabric, 1).slab).len()
}

/// The endpoint of a two-rank world's one connection on rank `rank`'s node.
fn endpoint_on(fabric: &Fabric, rank: usize) -> Endpoint {
    Endpoint::all(fabric)
        .find(|e| fabric.qp(e.qp).node() == NodeId::from_index(rank))
        .expect("the pair is established")
}

/// Bytes allocated by a whole four-rank run of `reps` `alltoallv_bytes`
/// calls, each rank building a `chunk`-byte `Arc<[u8]>` for every member
/// and handing them over by value.
fn alltoallv_bytes_cost(chunk: usize, reps: usize) -> u64 {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = MpiWorld::run(
        4,
        MpiConfig::scheme(FlowControlScheme::UserStatic, 10),
        FabricParams::mt23108(),
        async move |mpi| {
            let world = mpib::Comm::world(mpi);
            for _ in 0..reps {
                let chunks: Vec<Arc<[u8]>> = (0..4)
                    .map(|_| std::iter::repeat_n(0xA5, chunk).collect())
                    .collect();
                let got = mpib::collectives::alltoallv_bytes(mpi, &world, chunks).await;
                assert!(got.iter().all(|c| c.len() == chunk));
            }
        },
    );
    COUNTING.store(false, Ordering::Relaxed);
    out.expect("clean run");
    ALLOC_BYTES.load(Ordering::Relaxed) - before
}

/// Bytes allocated by a whole two-rank run in which rank 0 sends `msgs`
/// messages of `len` `f64`s, each encoded with `encode_shared` and handed
/// to `isend_owned`, and rank 1 takes each with `recv_scalars_into`.
fn typed_pt2pt_cost(len: usize, msgs: usize) -> u64 {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = MpiWorld::run(
        2,
        MpiConfig::scheme(FlowControlScheme::UserStatic, 10),
        FabricParams::mt23108(),
        async move |mpi| {
            let mut xs: Vec<f64> = (0..len).map(|i| i as f64).collect();
            for m in 0..msgs {
                if mpi.rank() == 0 {
                    xs[0] = m as f64;
                    let req = mpi.isend_owned(mpib::encode_shared(&xs), 1, TAG_DATA);
                    mpi.wait(req).await;
                } else {
                    mpi.recv_scalars_into(&mut xs, Some(0), Some(TAG_DATA))
                        .await;
                    assert_eq!((xs[0], xs[len - 1]), (m as f64, (len - 1) as f64));
                }
            }
        },
    );
    COUNTING.store(false, Ordering::Relaxed);
    out.expect("clean run");
    ALLOC_BYTES.load(Ordering::Relaxed) - before
}

/// Steady-state `(allocations, bytes)` per received message, in
/// thousandths (exact integers: the counts repeat, and a window's ack is
/// spread over its messages).
fn per_message_milli(
    scheme: FlowControlScheme,
    prepost: u32,
    size: usize,
    window: usize,
    (short, long): (usize, usize),
) -> (u64, u64) {
    let a = run_cost(scheme, prepost, size, window, short);
    let b = run_cost(scheme, prepost, size, window, long);
    assert_eq!(
        b,
        run_cost(scheme, prepost, size, window, long),
        "allocation counts must repeat exactly"
    );
    let msgs = ((long - short) * window) as u64;
    (
        (b.allocs - a.allocs) * 1000 / msgs,
        (b.bytes - a.bytes) * 1000 / msgs,
    )
}

#[test]
fn fast_paths_stay_within_their_allocation_budget() {
    // (0) World construction. A receive slab is registered `max_prepost`
    // slots long (512 x 2 KB = 1 MiB per directed pair, 240 pairs on 16
    // ranks) and a ring beside it, but registration allocates nothing and
    // nothing lands during an empty body. Bytes allocated by the whole run:
    //
    //   scheme        pre-post   parent (PR 13)   this change
    //   UserDynamic   1          268 506 822      1 132 710
    //   UserDynamic   100        270 411 462      3 037 350
    //   RdmaChannel   1          253 760 710      1 132 198
    //   RdmaChannel   100        303 834 310      3 036 838
    //
    // What is left is per-connection bookkeeping: the free-slot stack of
    // each slab, the receive queue of each QP (which is what grows with
    // the pre-post depth), the rank coroutines.
    for scheme in [
        FlowControlScheme::UserDynamic,
        FlowControlScheme::RdmaChannel,
    ] {
        for (prepost, budget) in [(1, 4u64 << 20), (100, 8 << 20)] {
            let bytes = bootstrap_bytes(16, scheme, prepost);
            assert!(
                bytes <= budget,
                "{} pre-post {prepost}: {bytes} bytes to boot 16 ranks, budget {budget}",
                scheme.label()
            );
        }
    }

    // (0') Resident memory follows the posted pool: slots are posted
    // 0, 1, 2 ... and reposted in the order they were consumed, so after
    // `n` eager messages the slab is materialised through slot
    // `min(n, prepost) - 1` and no further, however long the run.
    const BUF_SIZE: usize = 2048;
    for (n, prepost) in [(1usize, 10u32), (7, 10), (10, 10), (250, 10), (40, 100)] {
        let touched = n.min(prepost as usize);
        let extent = slab_extent_after(n, prepost);
        assert!(
            (touched - 1) * BUF_SIZE < extent && extent <= touched * BUF_SIZE,
            "{n} messages at pre-post {prepost}: slab resident through byte {extent}, \
             expected within slot {}",
            touched - 1
        );
    }

    // (a) 4 B eager, window 64, pre-post 100 (the benchmark's
    // `eager_small` shape). Allocations per received message, measured
    // with this body (the benchmark's own harness, whose body allocates
    // a little itself, read 15.19 before):
    //
    //   scheme        PR 12    PR 13    eager sends keep no snapshot
    //   UserStatic    16.062   6.843    5.828
    //   RdmaChannel   14.828   6.843    5.828
    //
    // What is left: the frame (built straight from the caller's slice;
    // the send posts at once, so its request keeps nothing), three boxed
    // simulator events (delivery, DMA placement, ACK), the copy-out, and a
    // window's ack spread over its 64 messages. The short run is 120 windows because
    // warm-up now includes the receive slab materialising out to its
    // posted pool: slots are consumed in posting order, so under
    // RdmaChannel (where little traffic takes the slab) the hundredth slot
    // is first touched some hundred windows in, and each doubling of the
    // region's prefix on the way there is one reallocation.
    for (scheme, budget_milli) in [
        (FlowControlScheme::UserStatic, 5828),
        (FlowControlScheme::RdmaChannel, 5828),
    ] {
        let (count, _) = per_message_milli(scheme, 100, 4, 64, (120, 220));
        assert!(
            count <= budget_milli,
            "{}: {count} milli-allocations per eager message, budget {budget_milli}",
            scheme.label()
        );
    }

    // (b) 256 KB rendezvous, window 16, pre-post 10 (the benchmark's
    // `rndv_large` shape): one snapshot at `isend`, placed in the landing
    // region by reference and handed over by fin's take, so the payload
    // `wait_recv` returns is that snapshot, plus small change: 262 919 B per
    // message. A take that copies the prefix out instead allocates exactly
    // one payload more (525 063 B).
    const SIZE: usize = 256 << 10;
    let (_, bytes) = per_message_milli(FlowControlScheme::UserStatic, 10, SIZE, 16, (2, 6));
    assert!(
        bytes <= (SIZE as u64 + (8 << 10)) * 1000,
        "{} bytes allocated per 256 KB rendezvous message",
        bytes / 1000
    );

    // (c) The same shape, by regions: 16 posted receives take 16 landing
    // lanes (lane 0 from the pin-down cache and 15 beside it) and every
    // later window lands in those, so once a window has had all 16 in
    // flight the region table of a run does not depend on how many windows
    // follow. Under `Hardware` that is the first window. Under
    // `UserStatic` the number in flight itself ramps 11, 12 ... 16 over
    // the first six windows — ten credits plus the one credit-less start,
    // and each window's credit-less start leaves the sender a credit
    // richer — and is flat from there. And a lane is resident only between
    // its WRITE and its fin: once every receive has been waited, no region
    // outside the connection's endpoints holds a byte (before landing
    // lanes the staging region kept a 256 KB payload for ever).
    //
    // Regions of a two-rank world: slab, mailbox and ring each way (6),
    // the sender's pinned source (1), the lanes (16).
    for (scheme, settled) in [
        (FlowControlScheme::Hardware, 1),
        (FlowControlScheme::UserStatic, 6),
    ] {
        let first = run_cost(scheme, 10, SIZE, 16, settled);
        assert_eq!(first.regions.0, 6 + 1 + 16, "{}", scheme.label());
        assert_eq!(first.landed, 0, "{}", scheme.label());
        for windows in [settled + 1, settled + 6] {
            let later = run_cost(scheme, 10, SIZE, 16, windows);
            assert_eq!(
                (later.regions, later.landed),
                (first.regions, 0),
                "{}: (regions, registered bytes) and landed bytes after {windows} windows \
                 against {settled}: a lane leaked or kept its payload",
                scheme.label()
            );
        }
    }

    // (d) A byte collective takes its chunks by value: a four-rank
    // `alltoallv_bytes` of 64 KiB chunks (rendezvous-sized, like FT's
    // transposes at class W), each an `Arc<[u8]>` the body builds, costs
    // per call and rank the four chunks built — each sent chunk travels as
    // built and reaches its receiver as the allocation the WRITE placed,
    // and the rank's own chunk comes back as built (a `Bytes` adopts the
    // `Arc`) — plus bookkeeping: about 66 150 B per returned chunk, about
    // 0.8 KB and 16 allocations per message. A copy of the own chunk adds
    // a quarter payload per returned chunk; a send that snapshots its
    // chunk, or a receive that copies its payload out, three quarters.
    //
    // The window starts at the fourth call: in the second and third, each
    // connection's receive slab materialises out to its posted pool (one
    // reallocation of its doubling prefix per call, 16 then 32 KiB per
    // message), which a window starting at the second call spread as
    // 9 KB of "bookkeeping" per message over the next four.
    const CHUNK: usize = 64 << 10;
    let (short, long) = (4, 8);
    let per_chunk = (alltoallv_bytes_cost(CHUNK, long) - alltoallv_bytes_cost(CHUNK, short))
        / ((long - short) * 16) as u64;
    assert!(
        per_chunk <= CHUNK as u64 + (1 << 10),
        "{per_chunk} bytes allocated per 64 KiB chunk an all-to-all returns"
    );

    // (e) Scalars encoded straight into the buffer the wire carries are
    // decoded straight from the payload the receive is handed: 256 KB of
    // `f64`s encoded with `encode_shared`, sent with `isend_owned` and
    // taken with `recv_scalars_into` cost one payload per message (the
    // encode, which the WRITE carries, the landing region adopts and the
    // decode reads) plus bookkeeping: 262 904 B. Copying the payload before
    // decoding it, or snapshotting the encoding, adds a payload. The
    // window starts once the receive slabs have materialised out to their
    // ten posted slots (three control frames per message land in them).
    const LEN: usize = 32 << 10;
    let (short, long) = (12, 24);
    let per_message =
        (typed_pt2pt_cost(LEN, long) - typed_pt2pt_cost(LEN, short)) / (long - short) as u64;
    assert!(
        per_message <= (LEN * 8) as u64 + (1 << 10),
        "{per_message} bytes allocated per 256 KB typed message"
    );
}
