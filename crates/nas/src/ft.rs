//! FT — 3D FFT with slab decomposition and all-to-all transpose.
//!
//! The grid is distributed as z-slabs. A forward 3D transform does the x
//! and y lines locally, transposes z↔x with one all-to-all (the paper's
//! large-message rendezvous traffic), and finishes the z lines locally.
//! The spectrum is then evolved `iters` times with per-iteration global
//! checksums, exactly mirroring the NPB FT phase structure. Distributed
//! verification: a forward+inverse round trip must reproduce the initial
//! field.

use crate::common::{charge_flops, global_checksum, timed, Kernel, KernelOutput, NasClass};
use ibsim::rng::det_rng;
use mpib::collectives::alltoallv_bytes;
use mpib::{decode_slice, encode_shared, Comm, MpiRank};
use std::sync::Arc;

pub mod fft {
    //! Minimal iterative radix-2 complex FFT.

    /// A transform of one length and direction: the twiddle step
    /// `(cos, sin)` of `±2π / len` for every stage `len = 2, 4, .., n`.
    ///
    /// The steps depend on nothing but the length and the direction, so a
    /// kernel that transforms thousands of lines of three lengths builds
    /// six plans per run instead of calling `cos` and `sin` once per stage
    /// per line; the values, and so every output bit, are the same.
    pub struct Plan {
        n: usize,
        inverse: bool,
        steps: Vec<(f64, f64)>,
    }

    impl Plan {
        /// Plan for lines of length `n`, a power of two; forward
        /// (`inverse = false`) or inverse.
        pub fn new(n: usize, inverse: bool) -> Plan {
            assert!(n.is_power_of_two(), "FFT length must be a power of two");
            let sign = if inverse { 1.0 } else { -1.0 };
            let steps = (1..=n.trailing_zeros())
                .map(|stage| {
                    let ang = sign * 2.0 * std::f64::consts::PI / (1usize << stage) as f64;
                    (ang.cos(), ang.sin())
                })
                .collect();
            Plan { n, inverse, steps }
        }

        /// Transforms `re/im` in place. The inverse includes the 1/n
        /// scaling.
        pub fn run(&self, re: &mut [f64], im: &mut [f64]) {
            let n = self.n;
            assert_eq!(n, re.len());
            assert_eq!(n, im.len());
            if n <= 1 {
                return;
            }
            // Bit-reversal permutation.
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    re.swap(i, j);
                    im.swap(i, j);
                }
            }
            let mut len = 2;
            for &(wr, wi) in &self.steps {
                let mut i = 0;
                while i < n {
                    let (mut cr, mut ci) = (1.0f64, 0.0f64);
                    for j in 0..len / 2 {
                        let a = i + j;
                        let b = i + j + len / 2;
                        let tr = re[b] * cr - im[b] * ci;
                        let ti = re[b] * ci + im[b] * cr;
                        re[b] = re[a] - tr;
                        im[b] = im[a] - ti;
                        re[a] += tr;
                        im[a] += ti;
                        let ncr = cr * wr - ci * wi;
                        ci = cr * wi + ci * wr;
                        cr = ncr;
                    }
                    i += len;
                }
                len <<= 1;
            }
            if self.inverse {
                let s = 1.0 / n as f64;
                for v in re.iter_mut().chain(im.iter_mut()) {
                    *v *= s;
                }
            }
        }
    }

    /// In-place forward (`inverse = false`) or inverse (`true`) transform
    /// of `re/im` (lengths must be equal powers of two). The inverse
    /// includes the 1/n scaling. One-off form of [`Plan`].
    pub fn fft_inplace(re: &mut [f64], im: &mut [f64], inverse: bool) {
        Plan::new(re.len(), inverse).run(re, im);
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn naive_dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
            let n = re.len();
            let mut or = vec![0.0; n];
            let mut oi = vec![0.0; n];
            for k in 0..n {
                for t in 0..n {
                    let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    or[k] += re[t] * ang.cos() - im[t] * ang.sin();
                    oi[k] += re[t] * ang.sin() + im[t] * ang.cos();
                }
            }
            (or, oi)
        }

        /// The transform as first written: `cos` and `sin` of every
        /// stage's angle taken on every call.
        fn fft_per_call(re: &mut [f64], im: &mut [f64], inverse: bool) {
            let n = re.len();
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    re.swap(i, j);
                    im.swap(i, j);
                }
            }
            let sign = if inverse { 1.0 } else { -1.0 };
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let mut i = 0;
                while i < n {
                    let (mut cr, mut ci) = (1.0f64, 0.0f64);
                    for j in 0..len / 2 {
                        let a = i + j;
                        let b = i + j + len / 2;
                        let tr = re[b] * cr - im[b] * ci;
                        let ti = re[b] * ci + im[b] * cr;
                        re[b] = re[a] - tr;
                        im[b] = im[a] - ti;
                        re[a] += tr;
                        im[a] += ti;
                        let ncr = cr * wr - ci * wi;
                        ci = cr * wi + ci * wr;
                        cr = ncr;
                    }
                    i += len;
                }
                len <<= 1;
            }
            if inverse {
                let s = 1.0 / n as f64;
                for v in re.iter_mut().chain(im.iter_mut()) {
                    *v *= s;
                }
            }
        }

        #[test]
        fn a_reused_plan_gives_the_per_call_bits() {
            for n in [2usize, 8, 32, 64, 128] {
                for inverse in [false, true] {
                    let plan = Plan::new(n, inverse);
                    for line in 0..3 {
                        let re: Vec<f64> =
                            (0..n).map(|i| ((i + line) as f64 * 0.7).sin()).collect();
                        let im: Vec<f64> =
                            (0..n).map(|i| ((i * line) as f64 * 1.3).cos()).collect();
                        let (mut pr, mut pi) = (re.clone(), im.clone());
                        plan.run(&mut pr, &mut pi);
                        let (mut rr, mut ri) = (re, im);
                        fft_per_call(&mut rr, &mut ri, inverse);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&pr), bits(&rr), "re, n={n} inverse={inverse}");
                        assert_eq!(bits(&pi), bits(&ri), "im, n={n} inverse={inverse}");
                    }
                }
            }
        }

        #[test]
        fn matches_naive_dft() {
            let n = 16;
            let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            let (er, ei) = naive_dft(&re, &im);
            let (mut fr, mut fi) = (re.clone(), im.clone());
            fft_inplace(&mut fr, &mut fi, false);
            for i in 0..n {
                assert!((fr[i] - er[i]).abs() < 1e-9, "re[{i}]");
                assert!((fi[i] - ei[i]).abs() < 1e-9, "im[{i}]");
            }
        }

        #[test]
        fn roundtrip_identity() {
            let n = 64;
            let re: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64).collect();
            let im: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
            let (mut fr, mut fi) = (re.clone(), im.clone());
            fft_inplace(&mut fr, &mut fi, false);
            fft_inplace(&mut fr, &mut fi, true);
            for i in 0..n {
                assert!((fr[i] - re[i]).abs() < 1e-10);
                assert!((fi[i] - im[i]).abs() < 1e-10);
            }
        }

        #[test]
        #[should_panic(expected = "power of two")]
        fn non_power_of_two_rejected() {
            let mut re = vec![0.0; 6];
            let mut im = vec![0.0; 6];
            fft_inplace(&mut re, &mut im, false);
        }
    }
}

/// Problem shape for one class.
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Grid extents (x, y, z); all powers of two.
    pub nx: usize,
    /// Grid extent y.
    pub ny: usize,
    /// Grid extent z.
    pub nz: usize,
    /// Evolution iterations.
    pub iters: usize,
}

impl FtConfig {
    /// Shape for `class`.
    pub fn for_class(class: NasClass) -> FtConfig {
        match class {
            NasClass::Test => FtConfig {
                nx: 16,
                ny: 8,
                nz: 16,
                iters: 2,
            },
            NasClass::W => FtConfig {
                nx: 64,
                ny: 32,
                nz: 64,
                iters: 4,
            },
            NasClass::A => FtConfig {
                nx: 128,
                ny: 64,
                nz: 128,
                iters: 6,
            },
        }
    }
}

/// A z-slab-distributed complex field with x-line-major layout:
/// index (x, y, z_local) -> ((z_local * ny) + y) * nx + x.
struct Slab {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// Transpose helper: exchange so that slabs along z become slabs along x.
/// Layout after: ((x_local * ny + y) * nz + z) for x_local in my x-range.
async fn transpose_z_to_x(
    mpi: &mut MpiRank,
    world: &Comm,
    s: &Slab,
    nx: usize,
    ny: usize,
    nz_l: usize,
) -> Slab {
    let p = world.size();
    let me = world.my_rank(mpi);
    let nx_l = nx / p;
    // Build the P outgoing chunks: chunk d carries (x in d's range, all y,
    // my z planes), as interleaved (re, im) pairs in (x_l, y, z) order.
    let mut chunks: Vec<Arc<[u8]>> = Vec::with_capacity(p);
    let mut flat = Vec::with_capacity(nx_l * ny * nz_l * 2);
    for d in 0..p {
        let x0 = d * nx_l;
        flat.clear();
        for xl in 0..nx_l {
            for y in 0..ny {
                for zl in 0..nz_l {
                    let idx = (zl * ny + y) * nx + (x0 + xl);
                    flat.push(s.re[idx]);
                    flat.push(s.im[idx]);
                }
            }
        }
        chunks.push(encode_shared(&flat));
    }
    charge_flops(mpi, (nx * ny * nz_l) as f64 * 2.0).await;
    let got = alltoallv_bytes(mpi, world, chunks).await;
    // Reassemble: from src rank r we got (my x range, all y, r's z range).
    let nz = nz_l * p;
    let mut out = Slab {
        re: vec![0.0; nx_l * ny * nz],
        im: vec![0.0; nx_l * ny * nz],
    };
    for (src, chunk) in got.iter().enumerate() {
        let vals: Vec<f64> = decode_slice(chunk);
        let z0 = src * nz_l;
        let mut it = vals.chunks_exact(2);
        for xl in 0..nx_l {
            for y in 0..ny {
                for zl in 0..nz_l {
                    let pair = it.next().expect("chunk size mismatch");
                    let idx = (xl * ny + y) * nz + (z0 + zl);
                    out.re[idx] = pair[0];
                    out.im[idx] = pair[1];
                }
            }
        }
    }
    charge_flops(mpi, (nx_l * ny * nz) as f64 * 2.0).await;
    let _ = me;
    out
}

/// Inverse of [`transpose_z_to_x`].
async fn transpose_x_to_z(
    mpi: &mut MpiRank,
    world: &Comm,
    s: &Slab,
    nx: usize,
    ny: usize,
    nz: usize,
) -> Slab {
    let p = world.size();
    let nx_l = nx / p;
    let nz_l = nz / p;
    let mut chunks: Vec<Arc<[u8]>> = Vec::with_capacity(p);
    let mut flat = Vec::with_capacity(nx_l * ny * nz_l * 2);
    for d in 0..p {
        let z0 = d * nz_l;
        flat.clear();
        for zl in 0..nz_l {
            for y in 0..ny {
                for xl in 0..nx_l {
                    let idx = (xl * ny + y) * nz + (z0 + zl);
                    flat.push(s.re[idx]);
                    flat.push(s.im[idx]);
                }
            }
        }
        chunks.push(encode_shared(&flat));
    }
    charge_flops(mpi, (nx_l * ny * nz) as f64 * 2.0).await;
    let got = alltoallv_bytes(mpi, world, chunks).await;
    let mut out = Slab {
        re: vec![0.0; nx * ny * nz_l],
        im: vec![0.0; nx * ny * nz_l],
    };
    for (src, chunk) in got.iter().enumerate() {
        let vals: Vec<f64> = decode_slice(chunk);
        let x0 = src * nx_l;
        let mut it = vals.chunks_exact(2);
        for zl in 0..nz_l {
            for y in 0..ny {
                for xl in 0..nx_l {
                    let pair = it.next().expect("chunk size mismatch");
                    let idx = (zl * ny + y) * nx + (x0 + xl);
                    out.re[idx] = pair[0];
                    out.im[idx] = pair[1];
                }
            }
        }
    }
    charge_flops(mpi, (nx * ny * nz_l) as f64 * 2.0).await;
    out
}

/// The line transforms of one direction, one per grid extent.
struct Plans {
    x: fft::Plan,
    y: fft::Plan,
    z: fft::Plan,
}

impl Plans {
    fn new(cfg: &FtConfig, inverse: bool) -> Plans {
        Plans {
            x: fft::Plan::new(cfg.nx, inverse),
            y: fft::Plan::new(cfg.ny, inverse),
            z: fft::Plan::new(cfg.nz, inverse),
        }
    }
}

/// FFT over every x-line and y-line of a z-slab field.
async fn fft_xy(mpi: &mut MpiRank, s: &mut Slab, nx: usize, ny: usize, nz_l: usize, plans: &Plans) {
    // x lines are contiguous.
    for zy in 0..nz_l * ny {
        let a = zy * nx;
        plans.x.run(&mut s.re[a..a + nx], &mut s.im[a..a + nx]);
    }
    // y lines are strided: gather/scatter through a scratch buffer.
    let mut tr = vec![0.0f64; ny];
    let mut ti = vec![0.0f64; ny];
    for zl in 0..nz_l {
        for x in 0..nx {
            for y in 0..ny {
                let idx = (zl * ny + y) * nx + x;
                tr[y] = s.re[idx];
                ti[y] = s.im[idx];
            }
            plans.y.run(&mut tr, &mut ti);
            for y in 0..ny {
                let idx = (zl * ny + y) * nx + x;
                s.re[idx] = tr[y];
                s.im[idx] = ti[y];
            }
        }
    }
    let pts = (nx * ny * nz_l) as f64;
    charge_flops(mpi, 5.0 * pts * ((nx as f64).log2() + (ny as f64).log2())).await;
}

/// FFT over every z-line of an x-slab field (contiguous in that layout).
async fn fft_z(mpi: &mut MpiRank, s: &mut Slab, nx_l: usize, ny: usize, nz: usize, plans: &Plans) {
    for xy in 0..nx_l * ny {
        let a = xy * nz;
        plans.z.run(&mut s.re[a..a + nz], &mut s.im[a..a + nz]);
    }
    charge_flops(mpi, 5.0 * (nx_l * ny * nz) as f64 * (nz as f64).log2()).await;
}

/// Runs FT over the world communicator.
pub async fn run(mpi: &mut MpiRank, class: NasClass) -> KernelOutput {
    let cfg = FtConfig::for_class(class);
    let world = Comm::world(mpi);
    let p = world.size();
    let me = world.my_rank(mpi);
    let (nx, ny, nz) = (cfg.nx, cfg.ny, cfg.nz);
    assert!(
        nz % p == 0 && nx % p == 0,
        "grid must divide over {p} ranks"
    );
    let nz_l = nz / p;
    let nx_l = nx / p;

    // Deterministic initial field on my z-slab.
    let mut rng = det_rng(0xF7_5EED, me as u64);
    let mut u = Slab {
        re: (0..nx * ny * nz_l)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
        im: (0..nx * ny * nz_l)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
    };
    let orig_re = u.re.clone();
    let orig_im = u.im.clone();

    let (forward, inverse) = (Plans::new(&cfg, false), Plans::new(&cfg, true));

    let ((verified, local_ck), time) = timed(mpi, &world, async |mpi| {
        // Forward 3D FFT.
        fft_xy(mpi, &mut u, nx, ny, nz_l, &forward).await;
        let mut spec = transpose_z_to_x(mpi, &world, &u, nx, ny, nz_l).await;
        fft_z(mpi, &mut spec, nx_l, ny, nz, &forward).await;

        // Evolution iterations with per-iteration checksums (NPB style).
        let mut local_ck = 0.0f64;
        let x0 = me * nx_l;
        for t in 1..=cfg.iters {
            let tau = 1e-6 * t as f64;
            for xl in 0..nx_l {
                let kx = freq(x0 + xl, nx);
                for y in 0..ny {
                    let ky = freq(y, ny);
                    for z in 0..nz {
                        let kz = freq(z, nz);
                        let damp = (-tau * ((kx * kx + ky * ky + kz * kz) as f64)).exp();
                        let idx = (xl * ny + y) * nz + z;
                        spec.re[idx] *= damp;
                        spec.im[idx] *= damp;
                    }
                }
            }
            charge_flops(mpi, (nx_l * ny * nz) as f64 * 8.0).await;
            // Sampled checksum, NPB-style deterministic stride.
            let stride = (nx_l * ny * nz / 128).max(1);
            local_ck += spec.re.iter().step_by(stride).sum::<f64>()
                + spec.im.iter().step_by(stride).sum::<f64>() * 0.5;
        }

        // Inverse transform: verifies the whole distributed pipeline.
        fft_z(mpi, &mut spec, nx_l, ny, nz, &inverse).await;
        let mut back = transpose_x_to_z(mpi, &world, &spec, nx, ny, nz).await;
        fft_xy(mpi, &mut back, nx, ny, nz_l, &inverse).await;

        // Compare against an evolution applied directly in... the damping
        // makes an exact roundtrip impossible; with tiny tau the field
        // must come back close to the original, and more importantly the
        // roundtrip error must be dominated by the (known) damping, not
        // by transpose bugs. Cheap and strong: max |back - orig| bounded.
        let max_err = back
            .re
            .iter()
            .zip(&orig_re)
            .chain(back.im.iter().zip(&orig_im))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let tau_total: f64 = (1..=cfg.iters).map(|t| 1e-6 * t as f64).sum();
        let kmax2 = 3.0 * (nx.max(ny).max(nz) as f64 / 2.0).powi(2);
        let bound = 1.0 - (-tau_total * kmax2).exp() + 1e-9;
        (max_err <= bound + 1e-6, local_ck)
    })
    .await;

    let checksum = global_checksum(mpi, &world, local_ck).await;
    KernelOutput {
        name: Kernel::Ft.name(),
        verified,
        checksum,
        time,
    }
}

/// Signed frequency index for dimension of extent `n`.
fn freq(i: usize, n: usize) -> i64 {
    if i <= n / 2 {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_is_signed() {
        assert_eq!(freq(0, 8), 0);
        assert_eq!(freq(4, 8), 4);
        assert_eq!(freq(5, 8), -3);
        assert_eq!(freq(7, 8), -1);
    }
}
