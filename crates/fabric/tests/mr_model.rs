//! Differential property test of demand-materialised memory regions.
//!
//! A region holds only the prefix that writes have reached; everything
//! past it is zero and unallocated. The reference here is what a region
//! used to be — a plain `Vec<u8>` of the registered length — driven with
//! the same random sequence of host writes, HCA placements (an RDMA WRITE
//! from a connected peer, which the region may adopt by reference), reads,
//! takes, whole-region pokes and snapshot round trips. After every step
//! the two must agree on logical contents, on the encoded image, and on
//! which accesses are out of range, and every payload ever placed must
//! still hold the bytes it was posted with. (The eager vector lives only
//! in this test; the library has one path.)

use ibfabric::*;
use ibsim::codec::{Reader, Writer};
use ibsim::{Sim, SimConfig};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use testutil::prop::{check, shrink, Case, Gen};

const CASES: u32 = 96;

/// Where an access starts, resolved against the region's state when the
/// step runs so that the interesting boundaries are hit on purpose.
#[derive(Clone, Copy, Debug)]
enum Anchor {
    /// Offset 0.
    Start,
    /// Exactly at the materialised prefix (a pure append).
    Prefix,
    /// Past the prefix, leaving a gap of this many bytes plus one.
    PastPrefix(usize),
    /// Placed so the access ends exactly at the registered length.
    EndAligned,
    /// This many thousandths of the way through the region.
    Permille(usize),
    /// Past the registered end by this many bytes plus one.
    BeyondEnd(usize),
    /// `usize::MAX`: `offset + len` overflows.
    Max,
}

impl Anchor {
    fn generate(g: &mut Gen) -> Anchor {
        match g.index(9) {
            0 => Anchor::Start,
            1 | 2 => Anchor::Prefix,
            3 => Anchor::PastPrefix(g.usize_in(0..6000)),
            4 => Anchor::EndAligned,
            5..=7 => Anchor::Permille(g.usize_in(0..1000)),
            _ if g.bool() => Anchor::BeyondEnd(g.usize_in(0..64)),
            _ => Anchor::Max,
        }
    }

    fn resolve(self, n: usize, len: usize, prefix: usize) -> usize {
        match self {
            Anchor::Start => 0,
            Anchor::Prefix => prefix,
            Anchor::PastPrefix(gap) => prefix + 1 + gap,
            Anchor::EndAligned => len.saturating_sub(n),
            Anchor::Permille(x) => x * len / 1000,
            Anchor::BeyondEnd(d) => len - n.min(len) + 1 + d,
            Anchor::Max => usize::MAX,
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    /// `n` bytes derived from `fill` (0 writes zeros: they materialise the
    /// range but a restore may trim them again).
    Write {
        at: Anchor,
        n: usize,
        fill: u8,
    },
    /// `n` bytes derived from `fill`, placed by the HCA from one shared
    /// payload (an RDMA WRITE). Biased toward offset 0, where a payload at
    /// least as long as the prefix is adopted instead of copied.
    Place {
        at: Anchor,
        n: usize,
        fill: u8,
    },
    Read {
        at: Anchor,
        n: usize,
    },
    /// `Fabric::mr_take` of the first `n` bytes, or of exactly the
    /// materialised prefix when `n` is `None` (what a rendezvous fin takes).
    Take {
        n: Option<usize>,
    },
    /// One byte stored through the whole-region mutable view.
    Poke {
        permille: usize,
        value: u8,
    },
    /// `encode_fabric` → `restore_fabric` onto a freshly built rig; later
    /// steps run on the restored fabric, whose prefix has been trimmed to
    /// its last non-zero byte.
    RoundTrip,
}

#[derive(Clone, Debug)]
struct MrCase {
    len: usize,
    steps: Vec<Step>,
}

impl Case for MrCase {
    fn generate(g: &mut Gen) -> Self {
        // Up to a few zero-scan blocks (4 KiB) and a ragged head.
        let len = match g.index(8) {
            0 => g.usize_in(0..3),
            _ => g.usize_in(1..20_000),
        };
        let steps = g.vec(1..40, |g| {
            let n = match g.index(6) {
                0 => 0,
                1 => g.usize_in(1..9000),
                _ => g.usize_in(1..300),
            };
            let fill = |g: &mut Gen| {
                if g.index(5) == 0 {
                    0
                } else {
                    g.index(256) as u8
                }
            };
            match g.index(14) {
                0..=3 => Step::Write {
                    at: Anchor::generate(g),
                    n,
                    fill: fill(g),
                },
                4..=6 => Step::Place {
                    at: if g.bool() {
                        Anchor::Start
                    } else {
                        Anchor::generate(g)
                    },
                    n,
                    fill: fill(g),
                },
                7..=9 => Step::Read {
                    at: Anchor::generate(g),
                    n,
                },
                10 => Step::Take {
                    n: g.bool().then_some(n),
                },
                11 => Step::Poke {
                    permille: g.usize_in(0..1000),
                    value: g.index(256) as u8,
                },
                _ => Step::RoundTrip,
            }
        });
        MrCase { len, steps }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = shrink::vec_candidates(&self.steps, 1, |_| Vec::new())
            .into_iter()
            .map(|steps| MrCase {
                len: self.len,
                steps,
            })
            .collect();
        for len in shrink::usize_toward(self.len, 0) {
            out.push(MrCase {
                len,
                steps: self.steps.clone(),
            });
        }
        out
    }
}

fn data(n: usize, fill: u8) -> Vec<u8> {
    if fill == 0 {
        return vec![0; n];
    }
    // Non-zero fills still carry a zero byte every 256 positions.
    (0..n).map(|i| fill.wrapping_add(i as u8)).collect()
}

/// The eager model's bounds rule: the slice's own.
fn model_range(model: &[u8], offset: usize, n: usize) -> Option<std::ops::Range<usize>> {
    let end = offset.checked_add(n)?;
    (end <= model.len()).then_some(offset..end)
}

/// The image with the rig's region live.
fn image(f: &Fabric) -> Vec<u8> {
    let mut w = Writer::new();
    encode_fabric(f, |_| true, &mut w);
    w.finish()
}

/// The image's region section — tag `0xFAB4`, body length, then the one
/// registration (node 0, full access, the model's length) and the live
/// records: the region's, the model cut at its last non-zero byte as a
/// length-prefixed string, or none when that is empty — must appear
/// exactly as the dense model dictates: the image is a function of the
/// logical contents alone.
fn assert_image_is_canonical(img: &[u8], model: &[u8]) {
    let used = model.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    body.push(Access::FULL.bits());
    body.extend_from_slice(&(model.len() as u64).to_le_bytes());
    body.extend_from_slice(&u64::from(used > 0).to_le_bytes());
    if used > 0 {
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&(used as u64).to_le_bytes());
        body.extend_from_slice(&model[..used]);
    }
    let mut record = 0xFAB4u32.to_le_bytes().to_vec();
    record.extend_from_slice(&(body.len() as u64).to_le_bytes());
    record.extend_from_slice(&body);
    assert!(
        img.windows(record.len()).any(|w| w == record),
        "image does not carry the canonical region section"
    );
    // Two nodes, two CQs and the connected QP pair, all quiescent, are
    // the rest of the image.
    assert!(
        img.len() < record.len() + 1024,
        "image of {} bytes for a {}-byte record",
        img.len(),
        record.len()
    );
}

fn check_agreement(f: &Fabric, mr: MrId, model: &[u8], high_water: usize) {
    assert_eq!(f.mr_len(mr), model.len());
    assert_eq!(f.registered_bytes(), model.len());
    let prefix = f.mr_bytes(mr);
    assert_eq!(f.resident_bytes(), prefix.len());
    assert!(
        prefix.len() <= high_water,
        "prefix {} beyond the highest written end {high_water}",
        prefix.len()
    );
    assert_eq!(prefix, &model[..prefix.len()]);
    assert!(model[prefix.len()..].iter().all(|&b| b == 0));
    assert_eq!(f.mr_read_vec(mr, 0, model.len()), model);
    assert_image_is_canonical(&image(f), model);
}

/// The region under test on node 0, and a QP on node 1 connected to one
/// on node 0 whose RDMA WRITEs place payloads into it.
struct Rig {
    mr: MrId,
    qp: QpId,
    cq: CqId,
}

/// The rig's nodes and completion queues — what a restore rebuilds — with
/// node 0 and its queue, then node 1 and its queue.
fn nodes_and_cqs() -> (Fabric, [(NodeId, CqId); 2]) {
    let mut f = Fabric::new(FabricParams::mt23108());
    let node = f.add_node();
    let peer = f.add_node();
    let cq = f.create_cq(peer);
    let cq_node = f.create_cq(node);
    (f, [(node, cq_node), (peer, cq)])
}

fn build(len: usize) -> (Fabric, Rig) {
    let (mut f, [(node, cq_node), (peer, cq)]) = nodes_and_cqs();
    let mr = f.register(node, len, Access::FULL);
    let qp = f.create_qp(peer, cq, cq, QpAttrs::default());
    let qp_node = f.create_qp(node, cq_node, cq_node, QpAttrs::default());
    let sim = Sim::new(f, SimConfig::default());
    sim.with_world(|ctx| connect(ctx, qp, qp_node));
    (sim.into_world(), Rig { mr, qp, cq })
}

/// One RDMA WRITE of `payload` to `offset`, run to its completion.
fn place(f: Fabric, rig: &Rig, offset: usize, payload: &Arc<[u8]>) -> Fabric {
    let mut sim = Sim::new(f, SimConfig::default());
    let wr = SendWr {
        wr_id: 0,
        op: SendOp::RdmaWrite {
            payload: Arc::clone(payload),
            rkey: rig.mr,
            remote_offset: offset,
        },
        signaled: true,
    };
    sim.with_world(|ctx| post_send(ctx, rig.qp, wr).expect("the rig's QP is connected"));
    sim.run().expect("one WRITE cannot deadlock");
    let mut f = sim.into_world();
    let cqes = f.poll_cq(rig.cq, 4);
    assert!(
        cqes.len() == 1 && cqes[0].is_success(),
        "WRITE to {offset}: {cqes:?}"
    );
    f
}

/// How often a step found the region's prefix shared with a payload, per
/// kind of step: the transitions a by-reference placement has to survive.
#[derive(Default, Debug)]
struct Coverage {
    adopted: Cell<u32>,
    written: Cell<u32>,
    read: Cell<u32>,
    /// Shared prefix taken at another length: cut or zero-extended, a copy.
    taken: Cell<u32>,
    /// Shared prefix taken whole: handed over by reference.
    handed_over: Cell<u32>,
    round_tripped: Cell<u32>,
}

fn bump(c: &Cell<u32>) {
    c.set(c.get() + 1);
}

fn run_case(c: &MrCase, seen: &Coverage) {
    let (mut f, rig) = build(c.len);
    let mr = rig.mr;
    let mut model = vec![0u8; c.len];
    let mut high_water = 0usize;
    // Every payload placed so far, with the bytes it was posted with.
    let mut placed: Vec<(Arc<[u8]>, Vec<u8>)> = Vec::new();
    check_agreement(&f, mr, &model, high_water);

    for step in &c.steps {
        let prefix = f.mr_bytes(mr).len();
        let shared = prefix > 0
            && placed
                .iter()
                .any(|(p, _)| p.as_ptr() == f.mr_bytes(mr).as_ptr());
        match *step {
            Step::Write { at, n, fill } => {
                let offset = at.resolve(n, c.len, prefix);
                let bytes = data(n, fill);
                let lazy = catch_unwind(AssertUnwindSafe(|| f.mr_write(mr, offset, &bytes)));
                match model_range(&model, offset, n) {
                    Some(r) => {
                        assert!(lazy.is_ok(), "in-range write {offset}+{n} refused");
                        if n > 0 {
                            high_water = high_water.max(r.end);
                            if shared {
                                bump(&seen.written);
                            }
                        }
                        model[r].copy_from_slice(&bytes);
                    }
                    None => {
                        assert!(lazy.is_err(), "out-of-range write {offset}+{n} accepted")
                    }
                }
            }
            Step::Place { at, n, fill } => {
                let offset = at.resolve(n, c.len, prefix);
                // Out of range, the responder refuses the WRITE and fails
                // the QP (transport.rs covers that); nothing to place.
                if let Some(r) = model_range(&model, offset, n) {
                    let bytes = data(n, fill);
                    let payload: Arc<[u8]> = bytes.as_slice().into();
                    f = place(f, &rig, offset, &payload);
                    if f.mr_bytes(mr).as_ptr() == payload.as_ptr() {
                        assert!(offset == 0 && n >= prefix, "adopted a partial payload");
                        bump(&seen.adopted);
                    }
                    if n > 0 {
                        high_water = high_water.max(r.end);
                    }
                    model[r].copy_from_slice(&bytes);
                    placed.push((payload, bytes));
                }
            }
            Step::Read { at, n } => {
                let offset = at.resolve(n, c.len, prefix);
                let mut into = vec![0xEE; n];
                let lazy = catch_unwind(AssertUnwindSafe(|| {
                    f.mr_read_into(mr, offset, &mut into);
                    f.mr_read_vec(mr, offset, n)
                }));
                match model_range(&model, offset, n) {
                    Some(r) => {
                        let got = lazy.expect("in-range read refused");
                        assert_eq!(got, &model[r.clone()]);
                        assert_eq!(into, &model[r]);
                        if shared {
                            bump(&seen.read);
                        }
                    }
                    None => {
                        assert!(lazy.is_err(), "out-of-range read {offset}+{n} accepted")
                    }
                }
                assert_eq!(f.mr_bytes(mr).len(), prefix, "a read materialised memory");
            }
            Step::Take { n } => {
                let n = n.unwrap_or(prefix);
                let landed = f.mr_bytes(mr).as_ptr();
                let lazy = catch_unwind(AssertUnwindSafe(|| f.mr_take(mr, n)));
                match model_range(&model, 0, n) {
                    Some(r) => {
                        let got = lazy.expect("in-range take refused");
                        assert_eq!(*got, model[r]);
                        model.fill(0);
                        assert!(f.mr_bytes(mr).is_empty(), "a take left bytes behind");
                        if shared && n == prefix {
                            assert_eq!(got.as_ptr(), landed, "a whole shared prefix was copied");
                            bump(&seen.handed_over);
                        } else if shared {
                            bump(&seen.taken);
                        }
                    }
                    None => {
                        assert!(lazy.is_err(), "out-of-range take of {n} accepted");
                        assert_eq!(f.mr_bytes(mr).len(), prefix, "a refused take moved bytes");
                    }
                }
            }
            Step::Poke { permille, value } => {
                let whole = f.mr_bytes_mut(mr);
                assert_eq!(whole.len(), c.len);
                if c.len > 0 {
                    let at = permille * c.len / 1000;
                    whole[at] = value;
                    model[at] = value;
                }
                high_water = c.len;
            }
            Step::RoundTrip => {
                let img = image(&f);
                let (mut restored, _) = nodes_and_cqs();
                restore_fabric(&mut restored, &mut Reader::new(&img)).unwrap();
                assert_eq!(image(&restored), img, "re-snapshot differs");
                assert!(restored.resident_bytes() <= f.resident_bytes());
                if shared {
                    bump(&seen.round_tripped);
                }
                f = restored;
            }
        }
        check_agreement(&f, mr, &model, high_water);
        for (payload, bytes) in &placed {
            assert_eq!(
                **payload, **bytes,
                "a placed payload changed under the region"
            );
        }
    }
}

#[test]
fn lazy_region_matches_the_eager_model() {
    let seen = Coverage::default();
    check(
        "lazy_region_matches_the_eager_model",
        CASES,
        |c: &MrCase| run_case(c, &seen),
    );
    // The generator must reach every step with a shared prefix, or the
    // property says nothing about placement by reference.
    for (what, n) in [
        ("adopt", &seen.adopted),
        ("write", &seen.written),
        ("read", &seen.read),
        ("cut or extended take", &seen.taken),
        ("whole take", &seen.handed_over),
        ("round trip", &seen.round_tripped),
    ] {
        assert!(
            n.get() > 0,
            "no {what} of a shared prefix in {CASES} cases: {seen:?}"
        );
    }
}

/// The path a rendezvous landing region takes, spelled out: a payload
/// adopted by reference, a host store into it, a read, the take at fin and
/// a snapshot round trip of the emptied region — then a shared prefix read,
/// snapshotted, adopted over and taken at another length (a copy), and
/// last a shared prefix taken whole (handed over by reference).
#[test]
fn adopt_write_read_take_round_trip() {
    let place_whole = |fill| Step::Place {
        at: Anchor::Start,
        n: 600,
        fill,
    };
    let case = MrCase {
        len: 1000,
        steps: vec![
            place_whole(7),
            Step::Write {
                at: Anchor::Permille(300),
                n: 20,
                fill: 9,
            },
            Step::Read {
                at: Anchor::Start,
                n: 1000,
            },
            Step::Take { n: Some(600) },
            Step::RoundTrip,
            place_whole(8),
            Step::Read {
                at: Anchor::Permille(100),
                n: 50,
            },
            Step::RoundTrip,
            place_whole(9),
            Step::Take { n: Some(650) },
            place_whole(10),
            Step::Take { n: None },
        ],
    };
    let seen = Coverage::default();
    run_case(&case, &seen);
    assert_eq!(
        (
            seen.adopted.get(),
            seen.written.get(),
            seen.read.get(),
            seen.taken.get(),
            seen.handed_over.get(),
            seen.round_tripped.get()
        ),
        (4, 1, 1, 1, 1, 1),
        "{seen:?}"
    );
}
