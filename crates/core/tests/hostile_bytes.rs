//! Hostile bytes finish: a whole IBCK container with seeded bit flips
//! or two of its sections swapped, and a framed wire header with bits
//! flipped or its tail cut off, either decodes to something valid or is
//! refused with a typed error — never a panic, never an allocation sized
//! by a number the bytes merely claim.
//!
//! The container goes through the real entry points
//! ([`Snapshot::from_bytes`], then [`MpiWorld::restore`]) with a body
//! that panics as soon as any rank runs: a restore that gets that far
//! decoded every section, which is the "valid decode" outcome (a flipped
//! payload byte or statistics counter is still a well-formed snapshot),
//! and the engine reports the body's panic as a typed
//! [`SimError::ProcPanicked`] carrying its marker. A panic anywhere
//! else — a decoder, the fabric rebuild, `apply_image` — either escapes
//! the property or carries a different message, and fails it.
//!
//! Allocation is watched by a global allocator that records the largest
//! single request the calling thread makes while a case is armed — a
//! simulation runs on its caller's thread, and per-thread records keep
//! the two tests apart (integration test, because the libraries deny
//! `unsafe`; same technique as `alloc_budget.rs`).

use ibfabric::FabricParams;
use ibsim::SimError;
use mpib::{
    CkptRun, CkptStart, FlowControlScheme, MpiConfig, MpiRank, MpiRunError, MpiWorld, MsgHeader,
    MsgKind, RestoreOptions, Snapshot, WireError, HEADER_LEN,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use testutil::prop::{check, shrink, Case, Gen};

struct PeakAlloc;

thread_local! {
    // Const-initialised and without destructors, so reading them from
    // inside the allocator neither allocates nor outlives the thread.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    if ARMED.get() {
        LARGEST.set(LARGEST.get().max(size));
    }
}

/// Runs `f` armed and returns its result with the largest single
/// allocation it made on this thread.
fn watched<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (out, LARGEST.get())
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the statistic touches no allocator state.
unsafe impl GlobalAlloc for PeakAlloc {
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
static ALLOC: PeakAlloc = PeakAlloc;

/// No single allocation of a restore may exceed this, whatever the bytes
/// claim. An honest restore of the containers below peaks at the size of
/// the container itself (tens of kilobytes); every count a decoder reads
/// is bounded by the bytes left in its section, so a hostile one can
/// inflate that by the in-memory size of an element at most — nowhere
/// near the 2^31 and up that a flipped high bit claims.
const LARGEST_ALLOWED: usize = 16 << 20;

const NPROCS: usize = 3;
const RAN: &str = "hostile_bytes: a rank ran";

fn cfg(scheme: FlowControlScheme) -> MpiConfig {
    MpiConfig::scheme(scheme, 4)
}

/// Ring traffic on both protocols, one unexpected eager message left in
/// every rank's queue, then the checkpoint: connection, credit, ring,
/// pin-down-cache and unexpected-queue state are all non-trivial in the
/// snapshot.
async fn traffic(mpi: &mut MpiRank, _start: CkptStart) {
    let n = mpi.size();
    let next = (mpi.rank() + 1) % n;
    let prev = (mpi.rank() + n - 1) % n;
    let small: Vec<_> = (0..6u32)
        .map(|i| mpi.isend(&i.to_le_bytes(), next, 1))
        .collect();
    for _ in 0..6 {
        mpi.recv(Some(prev), Some(1)).await;
    }
    mpi.waitall(&small).await;
    let big = mpi.isend(&vec![mpi.rank() as u8 + 1; 24 * 1024], next, 2);
    mpi.recv(Some(prev), Some(2)).await;
    mpi.wait(big).await;
    let late = mpi.isend(b"unmatched at the fence", next, 3);
    mpi.wait(late).await;
    mpi.checkpoint(b"app state").await;
    mpi.recv(Some(prev), Some(3)).await;
}

fn container(scheme: FlowControlScheme) -> Vec<u8> {
    let run = MpiWorld::run_with_checkpoints(
        NPROCS,
        cfg(scheme),
        FabricParams::mt23108(),
        Default::default(),
        Some(1),
        traffic,
    );
    match run.expect("snapshot leg") {
        CkptRun::Snapshot(s) => s.to_bytes(),
        CkptRun::Completed(_) => panic!("no checkpoint reached"),
    }
}

async fn must_not_run(_: &mut MpiRank, _: CkptStart) {
    panic!("{RAN}")
}

/// Feeds `bytes` to the real entry points: `false` for a typed decode
/// error (from the container or a section), `true` when everything
/// decoded and a rank was started.
fn decodes(scheme: FlowControlScheme, bytes: &[u8]) -> bool {
    let (run, largest) = watched(|| {
        Snapshot::from_bytes(bytes)
            .map_err(MpiRunError::from)
            .and_then(|snap| {
                MpiWorld::restore(
                    &snap,
                    cfg(scheme),
                    FabricParams::mt23108(),
                    Default::default(),
                    RestoreOptions::default(),
                    must_not_run,
                )
            })
    });
    assert!(
        largest <= LARGEST_ALLOWED,
        "a single allocation of {largest} bytes from a {}-byte container",
        bytes.len()
    );
    match run {
        Err(MpiRunError::Snapshot(_)) => false,
        Err(MpiRunError::Sim(SimError::ProcPanicked { message, .. })) if message == RAN => true,
        Err(e) => panic!("neither a typed decode error nor a started rank: {e}"),
        Ok(_) => panic!("the run finished although every rank body panics"),
    }
}

fn u64_at(buf: &[u8], at: usize) -> usize {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize
}

/// The `tag u32 | len u64 | body` frames laid end to end in `buf[span]`.
fn frames(buf: &[u8], span: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut at = span.start;
    while at < span.end {
        let end = at + 12 + u64_at(buf, at + 4);
        out.push(at..end);
        at = end;
    }
    assert_eq!(at, span.end, "frames do not tile their span");
    out
}

/// Every run of sibling sections in an honest container: the three
/// top-level ones, the fabric image's, and each rank blob's.
fn sibling_runs(buf: &[u8]) -> Vec<Vec<Range<usize>>> {
    // magic u32 | version u32 | META | FABRIC | RANKS
    let top = frames(buf, 8..buf.len());
    assert_eq!(top.len(), 3);
    // FABRIC body: image length u64 | image = one outer frame of sections.
    let image = top[1].start + 12 + 8..top[1].end;
    let outer = frames(buf, image);
    assert_eq!(outer.len(), 1);
    let fabric = frames(buf, outer[0].start + 12..outer[0].end);
    let mut runs = vec![top.clone(), fabric];
    // RANKS body: count u64 | (blob length u64 | blob = version u32 | sections)*
    let mut at = top[2].start + 12;
    let count = u64_at(buf, at);
    at += 8;
    for _ in 0..count {
        let len = u64_at(buf, at);
        runs.push(frames(buf, at + 8 + 4..at + 8 + len));
        at += 8 + len;
    }
    assert_eq!(at, top[2].end);
    runs
}

/// `buf` with the byte ranges `a` and `b` (disjoint, `a` first) exchanged.
fn swapped(buf: &[u8], a: &Range<usize>, b: &Range<usize>) -> Vec<u8> {
    let mut out = Vec::with_capacity(buf.len());
    out.extend_from_slice(&buf[..a.start]);
    out.extend_from_slice(&buf[b.clone()]);
    out.extend_from_slice(&buf[a.end..b.start]);
    out.extend_from_slice(&buf[a.clone()]);
    out.extend_from_slice(&buf[b.end..]);
    out
}

/// Positions are drawn as raw `u64`s and reduced modulo whatever they
/// index, so a case does not depend on the container's length.
#[derive(Clone, Debug)]
enum Damage {
    /// Flip these bits (bit index modulo the container's bit length).
    Flips(Vec<u64>),
    /// Swap two sibling sections: (run, first, second), each modulo.
    Swap(u64, u64, u64),
}

#[derive(Clone, Debug)]
struct HostileContainer {
    scheme_idx: usize,
    damage: Damage,
}

impl Case for HostileContainer {
    fn generate(g: &mut Gen) -> Self {
        let damage = if g.index(4) == 0 {
            Damage::Swap(
                g.u64_in(0..u64::MAX),
                g.u64_in(0..u64::MAX),
                g.u64_in(0..u64::MAX),
            )
        } else {
            Damage::Flips(g.vec(1..5, |g| g.u64_in(0..u64::MAX)))
        };
        HostileContainer {
            scheme_idx: g.index(FlowControlScheme::ALL.len()),
            damage,
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let Damage::Flips(flips) = &self.damage else {
            return Vec::new();
        };
        shrink::vec_candidates(flips, 1, |_| Vec::new())
            .into_iter()
            .map(|flips| HostileContainer {
                scheme_idx: self.scheme_idx,
                damage: Damage::Flips(flips),
            })
            .collect()
    }
}

/// Keeps the expected panic of a started rank off stderr: several
/// hundred reports of it would bury a real failure, and the test
/// harness's capture buffer growing under them is an allocation this
/// thread would be charged for. Every other panic prints as usual.
fn silence_started_ranks() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<String>().map(String::as_str) != Some(RAN) {
            default(info);
        }
    }));
}

#[test]
fn damaged_container_is_refused_or_decodes() {
    silence_started_ranks();
    let honest: Vec<Vec<u8>> = FlowControlScheme::ALL
        .iter()
        .map(|&s| container(s))
        .collect();
    for (bytes, &scheme) in honest.iter().zip(&FlowControlScheme::ALL) {
        assert!(decodes(scheme, bytes), "{scheme:?}: the honest container");
    }
    check::<HostileContainer>("ckpt::hostile_container", 400, |c| {
        let scheme = FlowControlScheme::ALL[c.scheme_idx];
        let bytes = &honest[c.scheme_idx];
        match &c.damage {
            Damage::Flips(flips) => {
                let mut bad = bytes.clone();
                for f in flips {
                    let bit = (f % (bad.len() as u64 * 8)) as usize;
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
                decodes(scheme, &bad);
            }
            Damage::Swap(run, i, j) => {
                let runs = sibling_runs(bytes);
                let run = &runs[(run % runs.len() as u64) as usize];
                let i = (i % run.len() as u64) as usize;
                let j = (j % (run.len() as u64 - 1)) as usize;
                // Two distinct siblings, in stream order.
                let j = if j >= i { j + 1 } else { j };
                let (a, b) = (&run[i.min(j)], &run[i.max(j)]);
                // Sections are read in a fixed order by tag, so any
                // exchange is refused — there is no valid reading of it.
                assert!(
                    !decodes(scheme, &swapped(bytes, a, b)),
                    "sections at {a:?} and {b:?} swapped, and it decoded"
                );
            }
        }
    });
}

const KINDS: [MsgKind; 5] = [
    MsgKind::Eager,
    MsgKind::RndzStart,
    MsgKind::RndzReply,
    MsgKind::RndzFin,
    MsgKind::Credit,
];

/// An honest frame (`seed` spread over the header's fields, a short
/// payload), then bits flipped anywhere in it and its tail cut at `keep`.
#[derive(Clone, Debug)]
struct HostileFrame {
    seed: u64,
    payload_len: u32,
    flips: Vec<u64>,
    keep: u64,
}

impl Case for HostileFrame {
    fn generate(g: &mut Gen) -> Self {
        HostileFrame {
            seed: g.u64_in(0..u64::MAX),
            payload_len: g.u32_in(0..200),
            flips: g.vec(0..6, |g| g.u64_in(0..u64::MAX)),
            // One case in four is cut short, sometimes inside the header.
            keep: if g.index(4) == 0 {
                g.u64_in(0..u64::MAX)
            } else {
                u64::MAX
            },
        }
    }

    fn shrink(&self) -> Vec<Self> {
        shrink::vec_candidates(&self.flips, 0, |_| Vec::new())
            .into_iter()
            .map(|flips| HostileFrame {
                flips,
                ..self.clone()
            })
            .collect()
    }
}

#[test]
fn damaged_frame_is_refused_or_decodes() {
    check::<HostileFrame>("wire::hostile_frame", 2000, |c| {
        let s = c.seed;
        let mut h = MsgHeader::new(KINDS[(s % 5) as usize], (s >> 8) as u16 as usize);
        h.backlog_flag = s & 1 != 0;
        h.ring_backlog = s & 2 != 0;
        h.credits = (s >> 24) as u16;
        h.tag = (s >> 16) as i32;
        h.payload_len = c.payload_len;
        h.seq = (s >> 32) as u32;
        h.rndz_id = s.rotate_left(17);
        h.data_len = s.rotate_left(41);
        let payload = vec![0xA5; c.payload_len as usize];
        let mut bytes = h.frame(&payload).expect("honest frame").to_vec();
        for f in &c.flips {
            let bit = (f % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        if c.keep != u64::MAX {
            bytes.truncate((c.keep % (bytes.len() as u64 + 1)) as usize);
        }

        let (decoded, largest) = watched(|| MsgHeader::decode(&bytes));
        match decoded {
            Err(WireError::ShortHeader { len }) => {
                assert!(len < HEADER_LEN && len == bytes.len());
            }
            Err(WireError::BadKind(k)) => {
                // The five kinds are numbered 0..=4.
                assert!(k == bytes[0] && usize::from(k) >= KINDS.len());
            }
            Err(e @ WireError::FieldOverflow { .. }) => panic!("decode reported {e:?}"),
            Ok(got) => {
                // Valid means it is a header this layer could have sent:
                // it encodes, to the very bytes it was read from (flag
                // bits and bytes the format does not assign aside).
                let again = got.try_encode().expect("a decoded header encodes");
                assert_eq!(MsgHeader::decode(&again), Ok(got));
                assert_eq!(again[0], bytes[0]);
                assert_eq!(again[1], bytes[1] & 0b111);
                assert_eq!(again[2..58], bytes[2..58]);
            }
        }
        // Decoding a header never touches the heap, whatever
        // `payload_len` and `data_len` claim.
        assert_eq!(largest, 0);
    });
}
