//! LU — pipelined SSOR wavefront, the paper's flow control outlier.
//!
//! The NPB LU benchmark solves the Navier–Stokes equations with a
//! symmetric successive over-relaxation sweep whose data dependency is a
//! 3D wavefront: point `(i,j,k)` needs the already-updated `(i-1,j,k)`,
//! `(i,j-1,k)` and `(i,j,k-1)`. With a 2D process decomposition over
//! `(i,j)`, every k-plane forces each process to *receive* boundary
//! pencils from its north and west neighbours, compute, and *send* to
//! south and east — hundreds of small, strictly one-directional messages
//! per sweep. That asymmetry starves credit piggybacking (Table 1: ~18 %
//! of LU's messages are explicit credit returns) and the per-plane bursts
//! drive the dynamic scheme's buffer pool far beyond every other kernel
//! (Table 2: 63 buffers vs ≤ 7).
//!
//! This implementation keeps the exact dependency structure and message
//! pattern on a scalar field (the Fortran original carries 5 variables
//! per point; the pencil sizes here are scaled accordingly), and its
//! sweep is bit-reproducible against a sequential reference.

use crate::common::{charge_flops, global_checksum, timed, Kernel, KernelOutput, NasClass};
use mpib::{Comm, MpiRank};

/// Problem shape for one class.
#[derive(Clone, Copy, Debug)]
pub struct LuConfig {
    /// Global grid edge (nx = ny = nz = n).
    pub n: usize,
    /// SSOR iterations.
    pub iters: usize,
}

impl LuConfig {
    /// Shape for `class`.
    pub fn for_class(class: NasClass) -> LuConfig {
        match class {
            NasClass::Test => LuConfig { n: 12, iters: 2 },
            NasClass::W => LuConfig { n: 32, iters: 6 },
            NasClass::A => LuConfig { n: 48, iters: 10 },
        }
    }
}

/// The SSOR update constants (fixed; chosen to keep the field bounded).
const OMEGA: f64 = 0.8;
const COUPLE: f64 = 0.11;

/// Modelled SSOR flops per grid point per sweep (per flow variable).
const FLOPS_PER_CELL: f64 = 30.0;

/// Picks the 2D process grid (px, py) with px >= py, both dividing the
/// world as evenly as possible (8 -> 4x2, 16 -> 4x4, 4 -> 2x2, 2 -> 2x1).
pub fn proc_grid(p: usize) -> (usize, usize) {
    let mut best = (p, 1);
    for py in 1..=p {
        if p.is_multiple_of(py) {
            let px = p / py;
            if px >= py {
                best = (px, py);
            } else {
                break;
            }
        }
    }
    best
}

struct Local {
    /// Field, indexed [i][j][k] flattened: ((i * ny_l) + j) * nz + k.
    u: Vec<f64>,
    nx_l: usize,
    ny_l: usize,
    nz: usize,
    x0: usize,
    y0: usize,
}

impl Local {
    #[inline]
    fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.u[(i * self.ny_l + j) * self.nz + k]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        self.u[(i * self.ny_l + j) * self.nz + k] = v;
    }
}

fn init_value(gi: usize, gj: usize, gk: usize, n: usize) -> f64 {
    // Smooth deterministic initial field in (0, 1].
    let f = |x: usize| (x + 1) as f64 / (n + 1) as f64;
    0.25 * (f(gi) + f(gj) * f(gj) + f(gk).sqrt() + f(gi) * f(gj) * f(gk))
}

/// Runs LU over the world communicator.
pub async fn run(mpi: &mut MpiRank, class: NasClass) -> KernelOutput {
    let cfg = LuConfig::for_class(class);
    let world = Comm::world(mpi);
    let p = world.size();
    let (px, py) = proc_grid(p);
    assert_eq!(px * py, p);
    let me = world.my_rank(mpi);
    let (cx, cy) = (me % px, me / px);
    let n = cfg.n;
    assert!(
        n.is_multiple_of(px) && n.is_multiple_of(py),
        "grid {n} must divide process grid {px}x{py}"
    );
    let (nx_l, ny_l) = (n / px, n / py);

    let mut loc = Local {
        u: vec![0.0; nx_l * ny_l * n],
        nx_l,
        ny_l,
        nz: n,
        x0: cx * nx_l,
        y0: cy * ny_l,
    };
    for i in 0..nx_l {
        for j in 0..ny_l {
            for k in 0..n {
                loc.set(i, j, k, init_value(loc.x0 + i, loc.y0 + j, k, n));
            }
        }
    }

    let west = (cx > 0).then(|| world.world_rank(cy * px + cx - 1));
    let east = (cx + 1 < px).then(|| world.world_rank(cy * px + cx + 1));
    let north = (cy > 0).then(|| world.world_rank((cy - 1) * px + cx));
    let south = (cy + 1 < py).then(|| world.world_rank((cy + 1) * px + cx));

    let (_, time) = timed(mpi, &world, async |mpi| {
        for _ in 0..cfg.iters {
            lower_sweep(mpi, &mut loc, west, east, north, south).await;
            upper_sweep(mpi, &mut loc, west, east, north, south).await;
        }
    })
    .await;

    let local_sum: f64 = loc.u.iter().sum();
    let checksum = global_checksum(mpi, &world, local_sum).await;
    KernelOutput {
        name: Kernel::Lu.name(),
        verified: checksum.is_finite() && checksum != 0.0,
        checksum,
        time,
    }
}

/// The NPB original sends pencils of 5 flow variables; our field is
/// scalar, so pencil payloads are padded by this factor to keep message
/// sizes faithful.
const VARS: usize = 5;

fn pencil_tag(sweep: u8, k: usize) -> i32 {
    ((sweep as i32) << 20) | k as i32
}

async fn lower_sweep(
    mpi: &mut MpiRank,
    loc: &mut Local,
    west: Option<usize>,
    east: Option<usize>,
    north: Option<usize>,
    south: Option<usize>,
) {
    let (nx_l, ny_l, nz) = (loc.nx_l, loc.ny_l, loc.nz);
    let mut wbuf = vec![0.0f64; ny_l * VARS];
    let mut nbuf = vec![0.0f64; nx_l * VARS];
    for k in 0..nz {
        // Receive the updated boundary pencils for this plane.
        if let Some(w) = west {
            mpi.recv_scalars_into(&mut wbuf, Some(w), Some(pencil_tag(0, k)))
                .await;
        }
        if let Some(nn) = north {
            mpi.recv_scalars_into(&mut nbuf, Some(nn), Some(pencil_tag(1, k)))
                .await;
        }
        // Wavefront update within the plane (Gauss–Seidel order).
        for i in 0..nx_l {
            for j in 0..ny_l {
                let uw = if i > 0 {
                    loc.at(i - 1, j, k)
                } else if west.is_some() {
                    wbuf[j * VARS]
                } else {
                    0.0
                };
                let un = if j > 0 {
                    loc.at(i, j - 1, k)
                } else if north.is_some() {
                    nbuf[i * VARS]
                } else {
                    0.0
                };
                let ub = if k > 0 { loc.at(i, j, k - 1) } else { 0.0 };
                let v = (1.0 - OMEGA) * loc.at(i, j, k) + COUPLE * (uw + un + ub);
                loc.set(i, j, k, v);
            }
        }
        charge_flops(mpi, (nx_l * ny_l) as f64 * FLOPS_PER_CELL * VARS as f64).await;
        // Forward the updated boundary pencils.
        if let Some(e) = east {
            let mut buf = vec![0.0f64; ny_l * VARS];
            for j in 0..ny_l {
                buf[j * VARS] = loc.at(nx_l - 1, j, k);
            }
            mpi.send_scalars(&buf, e, pencil_tag(0, k)).await;
        }
        if let Some(s) = south {
            let mut buf = vec![0.0f64; nx_l * VARS];
            for i in 0..nx_l {
                buf[i * VARS] = loc.at(i, ny_l - 1, k);
            }
            mpi.send_scalars(&buf, s, pencil_tag(1, k)).await;
        }
    }
}

async fn upper_sweep(
    mpi: &mut MpiRank,
    loc: &mut Local,
    west: Option<usize>,
    east: Option<usize>,
    north: Option<usize>,
    south: Option<usize>,
) {
    let (nx_l, ny_l, nz) = (loc.nx_l, loc.ny_l, loc.nz);
    let mut ebuf = vec![0.0f64; ny_l * VARS];
    let mut sbuf = vec![0.0f64; nx_l * VARS];
    for kk in 0..nz {
        let k = nz - 1 - kk;
        if let Some(e) = east {
            mpi.recv_scalars_into(&mut ebuf, Some(e), Some(pencil_tag(2, k)))
                .await;
        }
        if let Some(s) = south {
            mpi.recv_scalars_into(&mut sbuf, Some(s), Some(pencil_tag(3, k)))
                .await;
        }
        for ii in 0..nx_l {
            let i = nx_l - 1 - ii;
            for jj in 0..ny_l {
                let j = ny_l - 1 - jj;
                let ue = if i + 1 < nx_l {
                    loc.at(i + 1, j, k)
                } else if east.is_some() {
                    ebuf[j * VARS]
                } else {
                    0.0
                };
                let us = if j + 1 < ny_l {
                    loc.at(i, j + 1, k)
                } else if south.is_some() {
                    sbuf[i * VARS]
                } else {
                    0.0
                };
                let ut = if k + 1 < nz { loc.at(i, j, k + 1) } else { 0.0 };
                let v = (1.0 - OMEGA) * loc.at(i, j, k) + COUPLE * (ue + us + ut);
                loc.set(i, j, k, v);
            }
        }
        charge_flops(mpi, (nx_l * ny_l) as f64 * FLOPS_PER_CELL * VARS as f64).await;
        if let Some(w) = west {
            let mut buf = vec![0.0f64; ny_l * VARS];
            for j in 0..ny_l {
                buf[j * VARS] = loc.at(0, j, k);
            }
            mpi.send_scalars(&buf, w, pencil_tag(2, k)).await;
        }
        if let Some(nn) = north {
            let mut buf = vec![0.0f64; nx_l * VARS];
            for i in 0..nx_l {
                buf[i * VARS] = loc.at(i, 0, k);
            }
            mpi.send_scalars(&buf, nn, pencil_tag(3, k)).await;
        }
    }
}

/// Sequential reference for the same sweeps (tests compare checksums).
pub fn sequential_checksum(cfg: LuConfig) -> f64 {
    let n = cfg.n;
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    let mut u = vec![0.0f64; n * n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                u[idx(i, j, k)] = init_value(i, j, k, n);
            }
        }
    }
    for _ in 0..cfg.iters {
        // Lower.
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let uw = if i > 0 { u[idx(i - 1, j, k)] } else { 0.0 };
                    let un = if j > 0 { u[idx(i, j - 1, k)] } else { 0.0 };
                    let ub = if k > 0 { u[idx(i, j, k - 1)] } else { 0.0 };
                    u[idx(i, j, k)] = (1.0 - OMEGA) * u[idx(i, j, k)] + COUPLE * (uw + un + ub);
                }
            }
        }
        // Upper.
        for kk in 0..n {
            let k = n - 1 - kk;
            for ii in 0..n {
                let i = n - 1 - ii;
                for jj in 0..n {
                    let j = n - 1 - jj;
                    let ue = if i + 1 < n { u[idx(i + 1, j, k)] } else { 0.0 };
                    let us = if j + 1 < n { u[idx(i, j + 1, k)] } else { 0.0 };
                    let ut = if k + 1 < n { u[idx(i, j, k + 1)] } else { 0.0 };
                    u[idx(i, j, k)] = (1.0 - OMEGA) * u[idx(i, j, k)] + COUPLE * (ue + us + ut);
                }
            }
        }
    }
    u.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_grids() {
        assert_eq!(proc_grid(8), (4, 2));
        assert_eq!(proc_grid(16), (4, 4));
        assert_eq!(proc_grid(4), (2, 2));
        assert_eq!(proc_grid(2), (2, 1));
        assert_eq!(proc_grid(1), (1, 1));
    }

    #[test]
    fn sequential_reference_is_finite_and_stable() {
        let a = sequential_checksum(LuConfig { n: 8, iters: 2 });
        let b = sequential_checksum(LuConfig { n: 8, iters: 2 });
        assert!(a.is_finite());
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
