//! MG — multigrid V-cycles on a 3D Poisson problem.
//!
//! The grid is decomposed along z; every smoothing sweep exchanges one
//! boundary plane with each z-neighbour (symmetric `sendrecv` halos), and
//! the exchanges repeat across all V-cycle levels — which is exactly the
//! multi-level halo signature that costs the hardware scheme dearly at
//! pre-post = 1 in the paper's Figure 10 (bursts of halo messages between
//! compute phases) while the dynamic scheme needs only ~6 buffers.
//! (The Fortran original decomposes in 3D; the 1D layout preserves the
//! per-level halo cadence at these scales.)

use crate::common::{charge_flops, global_checksum, timed, Kernel, KernelOutput, NasClass};
use mpib::collectives::allreduce_scalars;
use mpib::{Comm, MpiRank, ReduceOp};

/// Problem shape for one class.
#[derive(Clone, Copy, Debug)]
pub struct MgConfig {
    /// Grid edge (nx = ny = nz = n), a power of two.
    pub n: usize,
    /// V-cycles.
    pub cycles: usize,
}

impl MgConfig {
    /// Shape for `class`.
    pub fn for_class(class: NasClass) -> MgConfig {
        match class {
            NasClass::Test => MgConfig { n: 16, cycles: 2 },
            NasClass::W => MgConfig { n: 64, cycles: 4 },
            NasClass::A => MgConfig { n: 128, cycles: 4 },
        }
    }
}

/// One level's field: local z-planes (nz_l of them) of an n×n plane,
/// plus two halo planes (z-1 and z+1 neighbours).
struct Level {
    n: usize,
    nz_l: usize,
    /// Values, indexed ((zl + 1) * n + y) * n + x with halo planes at
    /// zl = -1 and zl = nz_l.
    u: Vec<f64>,
    rhs: Vec<f64>,
}

impl Level {
    fn new(n: usize, nz_l: usize) -> Level {
        Level {
            n,
            nz_l,
            u: vec![0.0; (nz_l + 2) * n * n],
            rhs: vec![0.0; nz_l * n * n],
        }
    }

    #[inline]
    fn uat(&self, x: usize, y: usize, zl: isize) -> f64 {
        self.u[((zl + 1) as usize * self.n + y) * self.n + x]
    }

    #[inline]
    fn uset(&mut self, x: usize, y: usize, zl: isize, v: f64) {
        self.u[((zl + 1) as usize * self.n + y) * self.n + x] = v;
    }

    fn plane(&self, zl: isize) -> Vec<f64> {
        let base = (zl + 1) as usize * self.n * self.n;
        self.u[base..base + self.n * self.n].to_vec()
    }

    fn set_plane(&mut self, zl: isize, vals: &[f64]) {
        let base = (zl + 1) as usize * self.n * self.n;
        self.u[base..base + self.n * self.n].copy_from_slice(vals);
    }
}

/// Exchanges halo planes with the z neighbours (periodic ring, matching
/// the NPB periodic boundary conditions).
async fn halo_exchange(mpi: &mut MpiRank, world: &Comm, lvl: &mut Level, tag: i32) {
    let p = world.size();
    if p == 1 {
        // Periodic wrap within the local block.
        let top = lvl.plane(lvl.nz_l as isize - 1);
        let bottom = lvl.plane(0);
        lvl.set_plane(-1, &top);
        lvl.set_plane(lvl.nz_l as isize, &bottom);
        return;
    }
    let me = world.my_rank(mpi);
    let up = world.world_rank((me + 1) % p);
    let down = world.world_rank((me + p - 1) % p);
    // NPB comm3 style: post both receives, fire both sends, then wait —
    // the sends are not paced by the opposite direction's arrival, which
    // is what exposes small pre-post pools at the coarse levels.
    let r_lower = mpi.irecv(Some(down), Some(tag));
    let r_upper = mpi.irecv(Some(up), Some(tag + 1));
    let top = mpib::encode_slice(&lvl.plane(lvl.nz_l as isize - 1));
    let bottom = mpib::encode_slice(&lvl.plane(0));
    let s_up = mpi.isend(&top, up, tag);
    let s_down = mpi.isend(&bottom, down, tag + 1);
    mpi.wait(s_up).await;
    mpi.wait(s_down).await;
    let (_, lower) = mpi.wait_recv(r_lower).await;
    let (_, upper) = mpi.wait_recv(r_upper).await;
    lvl.set_plane(-1, &mpib::decode_slice::<f64>(&lower));
    lvl.set_plane(lvl.nz_l as isize, &mpib::decode_slice::<f64>(&upper));
}

/// One Jacobi smoothing sweep (7-point stencil, periodic in x/y).
async fn smooth(mpi: &mut MpiRank, world: &Comm, lvl: &mut Level, tag: i32) {
    halo_exchange(mpi, world, lvl, tag).await;
    let n = lvl.n;
    let mut new = vec![0.0f64; lvl.nz_l * n * n];
    for zl in 0..lvl.nz_l {
        for y in 0..n {
            for x in 0..n {
                let xm = lvl.uat((x + n - 1) % n, y, zl as isize);
                let xp = lvl.uat((x + 1) % n, y, zl as isize);
                let ym = lvl.uat(x, (y + n - 1) % n, zl as isize);
                let yp = lvl.uat(x, (y + 1) % n, zl as isize);
                let zm = lvl.uat(x, y, zl as isize - 1);
                let zp = lvl.uat(x, y, zl as isize + 1);
                let rhs = lvl.rhs[(zl * n + y) * n + x];
                new[(zl * n + y) * n + x] = (xm + xp + ym + yp + zm + zp - rhs) / 6.0;
            }
        }
    }
    for zl in 0..lvl.nz_l {
        for y in 0..n {
            for x in 0..n {
                lvl.uset(x, y, zl as isize, new[(zl * n + y) * n + x]);
            }
        }
    }
    charge_flops(mpi, (lvl.nz_l * n * n) as f64 * 8.0).await;
}

/// Residual r = rhs - A u (for verification and restriction).
async fn residual(mpi: &mut MpiRank, world: &Comm, lvl: &mut Level, tag: i32) -> Vec<f64> {
    halo_exchange(mpi, world, lvl, tag).await;
    let n = lvl.n;
    let mut r = vec![0.0f64; lvl.nz_l * n * n];
    for zl in 0..lvl.nz_l {
        for y in 0..n {
            for x in 0..n {
                let lap = lvl.uat((x + n - 1) % n, y, zl as isize)
                    + lvl.uat((x + 1) % n, y, zl as isize)
                    + lvl.uat(x, (y + n - 1) % n, zl as isize)
                    + lvl.uat(x, (y + 1) % n, zl as isize)
                    + lvl.uat(x, y, zl as isize - 1)
                    + lvl.uat(x, y, zl as isize + 1)
                    - 6.0 * lvl.uat(x, y, zl as isize);
                r[(zl * n + y) * n + x] = lvl.rhs[(zl * n + y) * n + x] - lap;
            }
        }
    }
    charge_flops(mpi, (lvl.nz_l * n * n) as f64 * 9.0).await;
    r
}

async fn rnorm(mpi: &mut MpiRank, world: &Comm, r: &[f64]) -> f64 {
    let local: f64 = r.iter().map(|v| v * v).sum();
    charge_flops(mpi, r.len() as f64 * 2.0).await;
    allreduce_scalars(mpi, world, ReduceOp::Sum, &[local]).await[0].sqrt()
}

/// Runs MG over the world communicator.
pub async fn run(mpi: &mut MpiRank, class: NasClass) -> KernelOutput {
    let cfg = MgConfig::for_class(class);
    let world = Comm::world(mpi);
    let p = world.size();
    let me = world.my_rank(mpi);
    let n = cfg.n;
    assert!(n.is_multiple_of(p), "nz must divide over ranks");
    let nz_l = n / p;

    // RHS: NPB-style +1/-1 point charges at deterministic positions.
    let mut top = Level::new(n, nz_l);
    let z0 = me * nz_l;
    for (sx, sy, sz, v) in [
        (n / 4, n / 3, n / 5, 1.0),
        (2 * n / 3, n / 7 + 1, n / 2, -1.0),
        (n / 2, 3 * n / 4, 4 * n / 5, 1.0),
        (n / 8 + 1, n / 2, n / 3, -1.0),
    ] {
        if sz >= z0 && sz < z0 + nz_l {
            top.rhs[((sz - z0) * n + sy) * n + sx] = v;
        }
    }

    let (result, time) = timed(mpi, &world, async |mpi| {
        let r0 = {
            let r = residual(mpi, &world, &mut top, 100).await;
            rnorm(mpi, &world, &r).await
        };
        let mut tag = 200;
        for _ in 0..cfg.cycles {
            vcycle(mpi, &world, &mut top, &mut tag).await;
            // NPB MG evaluates the residual norm every iteration
            // (norm2u3); the allreduce interleaves with the halo traffic.
            let r = residual(mpi, &world, &mut top, tag).await;
            tag += 10;
            let _ = rnorm(mpi, &world, &r).await;
        }
        let rn = {
            let r = residual(mpi, &world, &mut top, 101).await;
            rnorm(mpi, &world, &r).await
        };
        (r0, rn)
    })
    .await;
    let (r0, rn) = result;

    let local: f64 = top.u.iter().sum();
    let checksum = global_checksum(mpi, &world, local).await;
    // Verified: V-cycles contracted the residual at a genuine multigrid
    // rate. With injection restriction and piecewise-constant
    // prolongation the asymptotic factor is ~0.3-0.5 per cycle; anything
    // under 0.55 per cycle proves the distributed hierarchy works.
    let verified = rn.is_finite() && rn < r0 * 0.55f64.powi(cfg.cycles as i32);
    KernelOutput {
        name: Kernel::Mg.name(),
        verified,
        checksum,
        time,
    }
}

/// One V-cycle on `lvl`, recursing while the local extent allows
/// coarsening (the NPB code restricts participation on coarse grids; we
/// cap the depth instead and smooth harder at the bottom).
async fn vcycle(mpi: &mut MpiRank, world: &Comm, lvl: &mut Level, tag: &mut i32) {
    let t = *tag;
    *tag += 10;
    smooth(mpi, world, lvl, t).await;
    smooth(mpi, world, lvl, t + 2).await;
    if lvl.n >= 8 && lvl.nz_l >= 2 {
        let r = residual(mpi, world, lvl, t + 4).await;
        // Restrict (injection averaging) to the half grid.
        let (n, nz_l) = (lvl.n, lvl.nz_l);
        let (cn, cnz) = (n / 2, nz_l / 2);
        let mut coarse = Level::new(cn, cnz);
        for zl in 0..cnz {
            for y in 0..cn {
                for x in 0..cn {
                    let mut s = 0.0;
                    for (dx, dy, dz) in [
                        (0, 0, 0),
                        (1, 0, 0),
                        (0, 1, 0),
                        (0, 0, 1),
                        (1, 1, 0),
                        (1, 0, 1),
                        (0, 1, 1),
                        (1, 1, 1),
                    ] {
                        s += r[((2 * zl + dz) * n + 2 * y + dy) * n + 2 * x + dx];
                    }
                    coarse.rhs[(zl * cn + y) * cn + x] = s * 0.5; // 4 * (1/8)
                }
            }
        }
        charge_flops(mpi, (cnz * cn * cn) as f64 * 9.0).await;
        Box::pin(vcycle(mpi, world, &mut coarse, tag)).await;
        // Prolongate (piecewise-constant) and correct.
        for zl in 0..nz_l {
            for y in 0..n {
                for x in 0..n {
                    let c = coarse.uat(x / 2, y / 2, (zl / 2) as isize);
                    let cur = lvl.uat(x, y, zl as isize);
                    lvl.uset(x, y, zl as isize, cur + c);
                }
            }
        }
        charge_flops(mpi, (nz_l * n * n) as f64 * 2.0).await;
    } else if lvl.n >= 8 {
        // The z extent no longer divides over the ranks: gather the
        // residual problem onto every rank and finish the hierarchy with
        // a replicated sequential solve (the NPB code similarly restricts
        // participation on coarse grids). One allgather down, no traffic
        // below.
        let r = residual(mpi, world, lvl, t + 4).await;
        let full_r = gather_field(mpi, world, &r, lvl.n, lvl.nz_l).await;
        charge_flops(mpi, (lvl.n * lvl.n * lvl.n) as f64 * 2.0).await;
        let mut e = vec![0.0f64; full_r.len()];
        for _ in 0..2 {
            seq_vcycle(mpi, lvl.n, &mut e, &full_r).await;
        }
        let me = world.my_rank(mpi);
        let z0 = me * lvl.nz_l;
        let n = lvl.n;
        for zl in 0..lvl.nz_l {
            for y in 0..n {
                for x in 0..n {
                    let c = e[((z0 + zl) * n + y) * n + x];
                    let cur = lvl.uat(x, y, zl as isize);
                    lvl.uset(x, y, zl as isize, cur + c);
                }
            }
        }
    } else {
        // Tiny grid: extra smoothing is enough.
        for s in 0..4 {
            smooth(mpi, world, lvl, t + 6 + s).await;
        }
    }
    smooth(mpi, world, lvl, t + 102).await;
}

/// Allgathers a z-distributed field (`nz_l` planes of n×n per rank) into
/// the full n³ array in global z order.
async fn gather_field(
    mpi: &mut MpiRank,
    world: &Comm,
    mine: &[f64],
    n: usize,
    nz_l: usize,
) -> Vec<f64> {
    debug_assert_eq!(mine.len(), nz_l * n * n);
    let chunks = mpib::collectives::allgather_bytes(mpi, world, &mpib::encode_slice(mine)).await;
    let mut full = Vec::with_capacity(n * n * world.size() * nz_l);
    for c in &chunks {
        full.extend(mpib::decode_slice::<f64>(c));
    }
    full
}

/// Sequential (replicated) multigrid pieces for the coarse tail.
fn seq_smooth(n: usize, nz: usize, u: &mut [f64], rhs: &[f64]) {
    let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
    let old = u.to_vec();
    for z in 0..nz {
        for y in 0..n {
            for x in 0..n {
                let s = old[idx((x + n - 1) % n, y, z)]
                    + old[idx((x + 1) % n, y, z)]
                    + old[idx(x, (y + n - 1) % n, z)]
                    + old[idx(x, (y + 1) % n, z)]
                    + old[idx(x, y, (z + nz - 1) % nz)]
                    + old[idx(x, y, (z + 1) % nz)];
                u[idx(x, y, z)] = (s - rhs[idx(x, y, z)]) / 6.0;
            }
        }
    }
}

fn seq_residual(n: usize, nz: usize, u: &[f64], rhs: &[f64]) -> Vec<f64> {
    let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
    let mut r = vec![0.0f64; u.len()];
    for z in 0..nz {
        for y in 0..n {
            for x in 0..n {
                let lap = u[idx((x + n - 1) % n, y, z)]
                    + u[idx((x + 1) % n, y, z)]
                    + u[idx(x, (y + n - 1) % n, z)]
                    + u[idx(x, (y + 1) % n, z)]
                    + u[idx(x, y, (z + nz - 1) % nz)]
                    + u[idx(x, y, (z + 1) % nz)]
                    - 6.0 * u[idx(x, y, z)];
                r[idx(x, y, z)] = rhs[idx(x, y, z)] - lap;
            }
        }
    }
    r
}

/// Replicated V-cycle on the full cubic grid (periodic, edge n).
async fn seq_vcycle(mpi: &mut MpiRank, n: usize, u: &mut [f64], rhs: &[f64]) {
    charge_flops(mpi, (n * n * n) as f64 * 30.0).await;
    seq_smooth(n, n, u, rhs);
    seq_smooth(n, n, u, rhs);
    if n >= 8 {
        let r = seq_residual(n, n, u, rhs);
        let cn = n / 2;
        let mut crhs = vec![0.0f64; cn * cn * cn];
        for z in 0..cn {
            for y in 0..cn {
                for x in 0..cn {
                    let mut s = 0.0;
                    for dz in 0..2 {
                        for dy in 0..2 {
                            for dx in 0..2 {
                                s += r[((2 * z + dz) * n + 2 * y + dy) * n + 2 * x + dx];
                            }
                        }
                    }
                    crhs[(z * cn + y) * cn + x] = s * 0.5;
                }
            }
        }
        let mut ce = vec![0.0f64; cn * cn * cn];
        Box::pin(seq_vcycle(mpi, cn, &mut ce, &crhs)).await;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    u[(z * n + y) * n + x] += ce[((z / 2) * cn + y / 2) * cn + x / 2];
                }
            }
        }
    } else {
        for _ in 0..20 {
            seq_smooth(n, n, u, rhs);
        }
    }
    seq_smooth(n, n, u, rhs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_indexing_with_halos() {
        let mut l = Level::new(4, 2);
        l.uset(1, 2, -1, 7.5);
        l.uset(3, 3, 2, 8.5);
        assert_eq!(l.uat(1, 2, -1), 7.5);
        assert_eq!(l.uat(3, 3, 2), 8.5);
        let p = l.plane(-1);
        assert_eq!(p[2 * 4 + 1], 7.5);
    }
}
