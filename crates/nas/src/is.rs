//! IS — parallel integer (bucket) sort.
//!
//! Each rank holds a block of uniformly distributed keys. Per iteration:
//! local histogram over rank-owned key ranges, an all-to-all of bucket
//! counts, and an all-to-all-v of the keys themselves; a final full sort
//! with boundary verification. The communication signature is a small
//! number of large messages — which is why IS is insensitive to the
//! pre-post depth in the paper's Figure 10 and needs only ~4 dynamic
//! buffers in Table 2.
//!
//! # Host cost
//!
//! Ranking is charged to virtual time (`charge_flops`), so the host only
//! has to produce the bytes that travel and the facts that verify. The
//! naive form — a `Vec<u32>` per destination filled with two divisions
//! per key, `encode_slice` over each, every received chunk decoded into
//! a fresh vector every iteration, a comparison sort at the end — was
//! over 40% of the whole NAS battery's wall. Here instead:
//!
//! * keys are bucketed in one pass straight into the per-destination
//!   wire buffers, which persist across iterations; the bucket index is a
//!   multiply and a shift proved equal to `key / range` (`BucketIndex`);
//! * bucket counts are the buffer lengths;
//! * an iteration reads nothing of what it receives but the chunk
//!   lengths; the keys are decoded once, after the last exchange;
//! * the final sort counts over the rank's own key range, which is also
//!   the "every key is mine" check — a foreign key makes the run
//!   unverified instead of indexing out of range.
//!
//! Payload bytes, counts and every `charge_flops` argument are those of
//! the naive form, which the tests keep as the reference.

use crate::common::{charge_flops, global_checksum, timed, Kernel, KernelOutput, NasClass};
use ibsim::rng::det_rng;
use mpib::collectives::{allreduce_scalars, alltoallv_bytes};
use mpib::{decode_extend, decode_slice, encode_slice, Bytes, Comm, MpiRank, ReduceOp};

/// Problem shape for one class.
#[derive(Clone, Copy, Debug)]
pub struct IsConfig {
    /// Keys per rank.
    pub keys_per_rank: usize,
    /// Key space is `[0, 2^log2_max_key)`.
    pub log2_max_key: u32,
    /// Ranking iterations before the final sort.
    pub iters: usize,
}

impl IsConfig {
    /// Shape for `class`.
    pub fn for_class(class: NasClass) -> IsConfig {
        match class {
            NasClass::Test => IsConfig {
                keys_per_rank: 2_048,
                log2_max_key: 11,
                iters: 3,
            },
            NasClass::W => IsConfig {
                keys_per_rank: 131_072,
                log2_max_key: 16,
                iters: 10,
            },
            NasClass::A => IsConfig {
                keys_per_rank: 524_288,
                log2_max_key: 19,
                iters: 10,
            },
        }
    }
}

/// Destination rank of a key, `k / range`, as a multiply and a shift.
///
/// `recip = ceil(2^40 / range)`, so `recip * range = 2^40 + e` with
/// `e < range` and `k * recip / 2^40 = k / range + k * e / (range * 2^40)`.
/// Flooring that gives `k / range` as long as the excess stays under
/// `1 / range`, the smallest gap to the next integer, i.e. `k * e < 2^40`
/// — which holds for every key below `max_key <= 2^20`, whatever `range`
/// a process count leaves (power of two or not). One path for every `p`
/// and class; the tests compare it with the division over the whole key
/// space.
struct BucketIndex {
    recip: u64,
}

impl BucketIndex {
    const SHIFT: u32 = 40;

    fn new(range: u32, max_key: u32) -> BucketIndex {
        assert!(
            range > 0 && range <= max_key && max_key <= 1 << (Self::SHIFT / 2),
            "key space 2^20 at most, or the reciprocal is not exact"
        );
        BucketIndex {
            recip: (1u64 << Self::SHIFT).div_ceil(u64::from(range)),
        }
    }

    #[inline]
    fn of(&self, key: u32) -> usize {
        ((u64::from(key) * self.recip) >> Self::SHIFT) as usize
    }
}

/// One empty wire buffer per destination. Uniform keys give every
/// destination `keys / p` of them; the slack covers the spread, and a
/// skewed input only reallocates.
fn wire_buffers(keys: usize, p: usize) -> Vec<Vec<u8>> {
    let share = keys / p;
    (0..p)
        .map(|_| Vec::with_capacity((share + share / 8 + 16) * 4))
        .collect()
}

/// Buckets `keys` by destination straight into the wire buffers: each
/// key's little-endian bytes are appended to `bufs[key / range]`, in key
/// order — the bytes `encode_slice` would make of a `Vec<u32>` per
/// destination, without the vectors or the second pass. Buffers keep
/// their capacity from one iteration to the next.
fn bucket_into(keys: &[u32], index: &BucketIndex, bufs: &mut [Vec<u8>]) {
    for b in bufs.iter_mut() {
        b.clear();
    }
    for &k in keys {
        bufs[index.of(k)].extend_from_slice(&k.to_le_bytes());
    }
}

/// Sorts `keys` by counting over `[lo, lo + range)`, the range this rank
/// owns. A key outside it (a neighbour's, after a misrouted exchange) is
/// reported as `false` and `keys` left unsorted, never used as an index.
fn counting_sort(keys: &mut [u32], lo: u32, range: u32) -> bool {
    let mut counts = vec![0u32; range as usize];
    for &k in keys.iter() {
        match counts.get_mut(k.wrapping_sub(lo) as usize) {
            Some(c) => *c += 1,
            None => return false,
        }
    }
    let mut rest = keys;
    for (key, &c) in (lo..).zip(&counts) {
        let (run, tail) = rest.split_at_mut(c as usize);
        run.fill(key);
        rest = tail;
    }
    true
}

/// Runs IS over the world communicator.
pub async fn run(mpi: &mut MpiRank, class: NasClass) -> KernelOutput {
    let cfg = IsConfig::for_class(class);
    let world = Comm::world(mpi);
    let p = world.size();
    let me = world.my_rank(mpi);
    let max_key = 1u32 << cfg.log2_max_key;
    let range = (max_key as usize).div_ceil(p) as u32;
    // Every key is below `max_key`, so every bucket index is below `p`.
    assert!(range as usize * p >= max_key as usize);
    let index = BucketIndex::new(range, max_key);

    let mut rng = det_rng(0x15_5EED, me as u64);
    let mut keys: Vec<u32> = (0..cfg.keys_per_rank)
        .map(|_| rng.gen_range(0..max_key))
        .collect();

    let (verified, time) = timed(mpi, &world, async |mpi| {
        let mut bufs = wire_buffers(keys.len(), p);
        let mut got: Vec<Bytes> = Vec::new();
        let mut owned_len = 0;
        for it in 0..cfg.iters {
            // NPB IS perturbs two keys per iteration.
            let i1 = it % keys.len();
            let i2 = (it * 31 + 7) % keys.len();
            keys[i1] = (keys[i1] ^ 0x5A5A) % max_key;
            keys[i2] = (keys[i2] ^ 0x0F0F) % max_key;

            // Bucket by destination rank.
            bucket_into(&keys, &index, &mut bufs);
            charge_flops(mpi, keys.len() as f64 * 4.0).await;

            // Bucket-size exchange (alltoall of counts), as in NPB IS.
            let counts: Vec<u64> = bufs.iter().map(|b| (b.len() / 4) as u64).collect();
            let _total_counts = allreduce_scalars(mpi, &world, ReduceOp::Sum, &counts).await;

            // Key exchange. Ranking only needs how many keys arrived; the
            // keys themselves are read once, after the last exchange.
            got = alltoallv_bytes(mpi, &world, &bufs).await;
            owned_len = got.iter().map(|c| c.len()).sum::<usize>() / 4;
            charge_flops(mpi, owned_len as f64 * 2.0).await;
        }
        let mut owned: Vec<u32> = Vec::with_capacity(owned_len);
        for c in &got {
            decode_extend(c, &mut owned);
        }

        // Final: full local sort and distributed order verification.
        // 1. Every owned key is in my range (the sort checks as it counts).
        let in_range = counting_sort(&mut owned, me as u32 * range, range);
        charge_flops(
            mpi,
            owned.len() as f64 * (owned.len().max(2) as f64).log2() * 2.0,
        )
        .await;

        // 2. Boundary order with neighbours.
        let my_max = *owned.last().unwrap_or(&0);
        let boundary_ok = if p > 1 {
            let right = world.world_rank((me + 1) % p);
            let left = world.world_rank((me + p - 1) % p);
            let (_, data) = mpi
                .sendrecv(&encode_slice(&[my_max]), right, 77, Some(left), Some(77))
                .await;
            let left_max = decode_slice::<u32>(&data)[0];
            // Wrap-around pair (last -> first) is exempt.
            me == 0 || owned.first().is_none_or(|&min| left_max <= min)
        } else {
            true
        };
        // 3. Global key conservation.
        let total = allreduce_scalars(mpi, &world, ReduceOp::Sum, &[owned.len() as u64]).await[0];
        let conserved = total as usize == cfg.keys_per_rank * p;
        in_range && boundary_ok && conserved
    })
    .await;

    // Checksum: position-weighted sum of a sample of owned keys, reduced.
    let local: f64 = keys
        .iter()
        .take(1024)
        .enumerate()
        .map(|(i, &k)| (i + 1) as f64 * k as f64)
        .sum();
    let checksum = global_checksum(mpi, &world, local).await;
    KernelOutput {
        name: Kernel::Is.name(),
        verified,
        checksum,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::prop::{check, Case, Gen};

    const CLASSES: [NasClass; 3] = [NasClass::Test, NasClass::W, NasClass::A];
    const PROCS: [usize; 6] = [1, 2, 3, 5, 8, 16];

    /// Bucketing as first written: a `Vec<u32>` per destination, two
    /// divisions per key, then `encode_slice` over each.
    fn bucket_naive(keys: &[u32], range: u32, p: usize) -> Vec<Vec<u8>> {
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); p];
        for &k in keys {
            buckets[(k / range) as usize % p].push(k);
        }
        buckets.iter().map(|b| encode_slice(b)).collect()
    }

    #[test]
    fn class_sizes_scale() {
        let t = IsConfig::for_class(NasClass::Test);
        let w = IsConfig::for_class(NasClass::W);
        let a = IsConfig::for_class(NasClass::A);
        assert!(t.keys_per_rank < w.keys_per_rank && w.keys_per_rank < a.keys_per_rank);
    }

    #[test]
    fn bucket_index_is_the_division_for_every_key() {
        for class in CLASSES {
            let max_key = 1u32 << IsConfig::for_class(class).log2_max_key;
            for p in PROCS {
                let range = (max_key as usize).div_ceil(p) as u32;
                let index = BucketIndex::new(range, max_key);
                for k in 0..max_key {
                    assert_eq!(index.of(k), (k / range) as usize, "k={k} range={range}");
                }
            }
        }
        // The largest key space the proof covers, at the ranges where the
        // reciprocal's rounding error is largest relative to the range.
        let max_key = 1u32 << 20;
        for range in [
            1,
            2,
            3,
            5,
            7,
            1000,
            1023,
            1025,
            max_key / 3,
            max_key - 1,
            max_key,
        ] {
            let index = BucketIndex::new(range, max_key);
            for k in 0..max_key {
                assert_eq!(index.of(k), (k / range) as usize, "k={k} range={range}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "reciprocal is not exact")]
    fn bucket_index_refuses_a_key_space_it_cannot_prove() {
        let _ = BucketIndex::new(1 << 18, 1 << 21);
    }

    /// A key set for one class and process count.
    #[derive(Clone, Debug)]
    struct Keys {
        class: usize,
        procs: usize,
        /// All keys in one destination's range instead of uniform.
        skewed: bool,
        len: usize,
        seed: u64,
    }

    impl Case for Keys {
        fn generate(g: &mut Gen) -> Self {
            Keys {
                class: g.index(CLASSES.len()),
                procs: g.index(PROCS.len()),
                skewed: g.bool(),
                len: g.usize_in(0..6000),
                seed: g.u64_in(0..u64::MAX),
            }
        }

        fn shrink(&self) -> Vec<Self> {
            testutil::prop::shrink::usize_toward(self.len, 0)
                .into_iter()
                .map(|len| Keys {
                    len,
                    ..self.clone()
                })
                .collect()
        }
    }

    impl Keys {
        fn shape(&self) -> (u32, u32, usize) {
            let max_key = 1u32 << IsConfig::for_class(CLASSES[self.class]).log2_max_key;
            let p = PROCS[self.procs];
            ((max_key as usize).div_ceil(p) as u32, max_key, p)
        }

        fn draw(&self, stream: u64) -> Vec<u32> {
            let (range, max_key, p) = self.shape();
            let mut rng = det_rng(self.seed, stream);
            let (lo, hi) = if self.skewed {
                let d = rng.gen_range(0..p) as u32;
                (d * range, ((d + 1) * range).min(max_key))
            } else {
                (0, max_key)
            };
            (0..self.len).map(|_| rng.gen_range(lo..hi)).collect()
        }
    }

    #[test]
    fn bucketing_into_wire_buffers_matches_the_naive_form() {
        check("is bucket_into", 300, |c: &Keys| {
            let (range, max_key, p) = c.shape();
            let index = BucketIndex::new(range, max_key);
            let mut bufs = wire_buffers(c.len, p);
            let guess = bufs[0].capacity();
            // Twice through the same buffers, as the iterations do.
            for stream in 0..2 {
                let keys = c.draw(stream);
                bucket_into(&keys, &index, &mut bufs);
                assert_eq!(bufs, bucket_naive(&keys, range, p));
                let total: usize = bufs.iter().map(Vec::len).sum();
                assert_eq!(total, keys.len() * 4);
            }
            if c.skewed && p > 1 && c.len > 100 {
                assert!(
                    bufs.iter().any(|b| b.len() > guess),
                    "a skewed key set must outgrow the uniform guess"
                );
            }
        });
    }

    #[test]
    fn counting_sort_matches_sort_unstable() {
        check("is counting_sort", 300, |c: &Keys| {
            let (range, _, _) = c.shape();
            let skewed = Keys {
                skewed: true,
                ..c.clone()
            };
            let mut keys = skewed.draw(0);
            let lo = keys.first().map_or(0, |k| k / range * range);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert!(counting_sort(&mut keys, lo, range));
            assert_eq!(keys, expect);
        });
    }

    #[test]
    fn counting_sort_reports_a_foreign_key() {
        let (lo, range) = (4096u32, 1024u32);
        let own: Vec<u32> = (0..500).map(|i| lo + (i * 37) % range).collect();
        for foreign in [0, lo - 1, lo + range, lo + range + 7, u32::MAX] {
            for at in [0, 250, 500] {
                let mut keys = own.clone();
                keys.insert(at, foreign);
                let before = keys.clone();
                assert!(!counting_sort(&mut keys, lo, range), "key {foreign}");
                assert_eq!(keys, before, "a refused sort leaves the keys alone");
            }
        }
        let mut keys = own;
        assert!(counting_sort(&mut keys, lo, range));
        assert!(keys.is_sorted());
        assert!(counting_sort(&mut [], lo, range));
    }
}
