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
//!
//! # Host cost
//!
//! The stencil work is charged to virtual time (`charge_flops`); what the
//! host computes is needed only for the halo bytes and the verification.
//! The naive form addressed every cell's six neighbours through
//! `((z * n + y) * n + x)` with a `% n` per wrapped coordinate — four
//! modulos and seven bounds-checked index computations per cell, ~10 ns
//! where the arithmetic is under 1 ns. `sweep` walks row slices instead:
//! the y and z neighbours of a row are rows, the x neighbours are the row
//! shifted by one, and only the two end cells wrap. One `sweep` serves
//! the smoother and the residual, distributed and replicated; restriction
//! and prolongation walk rows the same way; a level keeps one scratch
//! array instead of allocating per sweep; halo planes are encoded from,
//! and decoded into, the field in place.
//!
//! Every cell is computed by the same operations on the same operands in
//! the same order as before — floating-point addition does not
//! associate, and the checksum is compared bit for bit — and the tests
//! keep the per-cell loops as the reference.

use crate::common::{charge_flops, global_checksum, timed, Kernel, KernelOutput, NasClass};
use mpib::collectives::{allgather_bytes, allreduce_scalars};
use mpib::{decode_extend, decode_into, encode_slice, Comm, MpiRank, ReduceOp};

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
    /// What the last sweep wrote, one value per local cell: the smoothed
    /// field before it is copied back into `u`, or the residual.
    work: Vec<f64>,
}

impl Level {
    fn new(n: usize, nz_l: usize) -> Level {
        Level {
            n,
            nz_l,
            u: vec![0.0; (nz_l + 2) * n * n],
            rhs: vec![0.0; nz_l * n * n],
            work: vec![0.0; nz_l * n * n],
        }
    }

    fn plane_range(&self, zl: isize) -> std::ops::Range<usize> {
        let base = (zl + 1) as usize * self.n * self.n;
        base..base + self.n * self.n
    }

    fn plane(&self, zl: isize) -> &[f64] {
        &self.u[self.plane_range(zl)]
    }

    fn plane_mut(&mut self, zl: isize) -> &mut [f64] {
        let range = self.plane_range(zl);
        &mut self.u[range]
    }

    /// Where the local planes sit in `u`, between the two halos.
    fn interior(&self) -> std::ops::Range<usize> {
        let plane = self.n * self.n;
        plane..(self.nz_l + 1) * plane
    }

    fn interior_mut(&mut self) -> &mut [f64] {
        let range = self.interior();
        &mut self.u[range]
    }

    /// Stencil plane triples of the local planes: the halos are planes 0
    /// and `nz_l + 1` of `u`.
    fn haloed(&self) -> impl Iterator<Item = [usize; 3]> {
        (0..self.nz_l).map(|zl| [zl, zl + 1, zl + 2])
    }

    /// One Jacobi sweep over the local planes; the halos must be current.
    fn smooth_local(&mut self) {
        sweep(
            self.n,
            &self.u,
            self.haloed(),
            &self.rhs,
            &mut self.work,
            smoothed,
        );
        let interior = self.interior();
        self.u[interior].copy_from_slice(&self.work);
    }

    /// Leaves r = rhs - A u in `work`; the halos must be current.
    fn residual_local(&mut self) {
        sweep(
            self.n,
            &self.u,
            self.haloed(),
            &self.rhs,
            &mut self.work,
            residual_at,
        );
    }
}

/// The operands of one cell's 7-point stencil.
#[derive(Clone, Copy)]
struct Cell {
    xm: f64,
    xp: f64,
    ym: f64,
    yp: f64,
    zm: f64,
    zp: f64,
    c: f64,
    rhs: f64,
}

/// Jacobi update of one cell. The order of the additions is part of the
/// result: every checksum downstream is compared bit for bit.
#[inline(always)]
fn smoothed(p: Cell) -> f64 {
    (p.xm + p.xp + p.ym + p.yp + p.zm + p.zp - p.rhs) / 6.0
}

/// rhs - A u at one cell, in the same fixed order.
#[inline(always)]
fn residual_at(p: Cell) -> f64 {
    let lap = p.xm + p.xp + p.ym + p.yp + p.zm + p.zp - 6.0 * p.c;
    p.rhs - lap
}

/// Applies `cell` to every cell of a periodic-in-x/y field of n×n planes
/// and writes the results, a row at a time, to `out`. `planes` yields,
/// for each output plane in turn, the indices in `u` of the planes
/// below, at and above it; `rhs` and `out` hold one row per stencil row.
///
/// Works on row slices: the y and z neighbours of a row are whole rows,
/// the x neighbours are the row itself shifted by one, and only the two
/// cells at the row's ends wrap — so the inner loop has no modulo and no
/// index arithmetic, and reads the operands the per-cell form read.
#[inline(always)]
fn sweep(
    n: usize,
    u: &[f64],
    planes: impl Iterator<Item = [usize; 3]>,
    rhs: &[f64],
    out: &mut [f64],
    cell: impl Fn(Cell) -> f64,
) {
    assert!(n >= 2, "a row needs two ends");
    let row = |z: usize, y: usize| &u[(z * n + y) * n..][..n];
    let mut rows = out.chunks_exact_mut(n).zip(rhs.chunks_exact(n));
    for [below, at, above] in planes {
        for y in 0..n {
            let (out, rhs) = rows.next().expect("a row of rhs and out per stencil row");
            let c = row(at, y);
            let (ym, yp) = (row(at, (y + n - 1) % n), row(at, (y + 1) % n));
            let (zm, zp) = (row(below, y), row(above, y));
            let at_x = |x: usize, xm: usize, xp: usize| {
                cell(Cell {
                    xm: c[xm],
                    xp: c[xp],
                    ym: ym[x],
                    yp: yp[x],
                    zm: zm[x],
                    zp: zp[x],
                    c: c[x],
                    rhs: rhs[x],
                })
            };
            out[0] = at_x(0, n - 1, 1);
            for (x, o) in out[1..n - 1].iter_mut().enumerate() {
                *o = at_x(x + 1, x, x + 2);
            }
            out[n - 1] = at_x(n - 1, n - 2, 0);
        }
    }
    assert!(rows.next().is_none(), "rhs and out longer than the planes");
}

/// The order in which the distributed restriction adds a coarse cell's
/// eight fine cells, as (dx, dy, dz); the replicated tail adds them in
/// [`SEQ_RESTRICT_ORDER`]. Floating-point sums depend on it.
const RESTRICT_ORDER: [(usize, usize, usize); 8] = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
];

/// x fastest, then y, then z.
const SEQ_RESTRICT_ORDER: [(usize, usize, usize); 8] = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (1, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
];

/// Restricts the fine field `r` (planes of n×n, no halos) to the half
/// grid `coarse`: each coarse cell is half the sum (4 × 1/8) of its eight
/// fine cells, added in `order`.
fn restrict(r: &[f64], n: usize, order: [(usize, usize, usize); 8], coarse: &mut [f64]) {
    let cn = n / 2;
    let fine = |z: usize, y: usize| &r[(z * n + y) * n..][..n];
    for (zy, out) in coarse.chunks_exact_mut(cn).enumerate() {
        let (z, y) = (zy / cn, zy % cn);
        let rows = [
            [fine(2 * z, 2 * y), fine(2 * z, 2 * y + 1)],
            [fine(2 * z + 1, 2 * y), fine(2 * z + 1, 2 * y + 1)],
        ];
        for (x, o) in out.iter_mut().enumerate() {
            let mut s = 0.0;
            for (dx, dy, dz) in order {
                s += rows[dz][dy][2 * x + dx];
            }
            *o = s * 0.5;
        }
    }
}

/// Piecewise-constant prolongation: adds to each cell of `fine` (planes
/// of n×n, no halos) the cell of `coarse` (half grid, no halos) over it.
fn prolongate(fine: &mut [f64], n: usize, coarse: &[f64]) {
    let cn = n / 2;
    for (zy, row) in fine.chunks_exact_mut(n).enumerate() {
        let (z, y) = (zy / n, zy % n);
        let over = &coarse[((z / 2) * cn + y / 2) * cn..][..cn];
        for (pair, &c) in row.chunks_exact_mut(2).zip(over) {
            pair[0] += c;
            pair[1] += c;
        }
    }
}

/// Exchanges halo planes with the z neighbours (periodic ring, matching
/// the NPB periodic boundary conditions).
async fn halo_exchange(mpi: &mut MpiRank, world: &Comm, lvl: &mut Level, tag: i32) {
    let p = world.size();
    let last = lvl.nz_l as isize - 1;
    if p == 1 {
        // Periodic wrap within the local block.
        let (top, bottom) = (lvl.plane_range(last), lvl.plane_range(0));
        let (below, above) = (lvl.plane_range(-1), lvl.plane_range(last + 1));
        lvl.u.copy_within(top, below.start);
        lvl.u.copy_within(bottom, above.start);
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
    let top = encode_slice(lvl.plane(last));
    let bottom = encode_slice(lvl.plane(0));
    let s_up = mpi.isend(&top, up, tag);
    let s_down = mpi.isend(&bottom, down, tag + 1);
    mpi.wait(s_up).await;
    mpi.wait(s_down).await;
    let (_, lower) = mpi.wait_recv(r_lower).await;
    let (_, upper) = mpi.wait_recv(r_upper).await;
    decode_into(&lower, lvl.plane_mut(-1));
    decode_into(&upper, lvl.plane_mut(last + 1));
}

/// One Jacobi smoothing sweep (7-point stencil, periodic in x/y).
async fn smooth(mpi: &mut MpiRank, world: &Comm, lvl: &mut Level, tag: i32) {
    halo_exchange(mpi, world, lvl, tag).await;
    lvl.smooth_local();
    charge_flops(mpi, (lvl.nz_l * lvl.n * lvl.n) as f64 * 8.0).await;
}

/// Residual r = rhs - A u (for verification and restriction), left in
/// `lvl.work`.
async fn residual(mpi: &mut MpiRank, world: &Comm, lvl: &mut Level, tag: i32) {
    halo_exchange(mpi, world, lvl, tag).await;
    lvl.residual_local();
    charge_flops(mpi, (lvl.nz_l * lvl.n * lvl.n) as f64 * 9.0).await;
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
        residual(mpi, &world, &mut top, 100).await;
        let r0 = rnorm(mpi, &world, &top.work).await;
        let mut tag = 200;
        for _ in 0..cfg.cycles {
            vcycle(mpi, &world, &mut top, &mut tag).await;
            // NPB MG evaluates the residual norm every iteration
            // (norm2u3); the allreduce interleaves with the halo traffic.
            residual(mpi, &world, &mut top, tag).await;
            tag += 10;
            let _ = rnorm(mpi, &world, &top.work).await;
        }
        residual(mpi, &world, &mut top, 101).await;
        let rn = rnorm(mpi, &world, &top.work).await;
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
        residual(mpi, world, lvl, t + 4).await;
        // Restrict (injection averaging) to the half grid.
        let (n, nz_l) = (lvl.n, lvl.nz_l);
        let (cn, cnz) = (n / 2, nz_l / 2);
        let mut coarse = Level::new(cn, cnz);
        restrict(&lvl.work, n, RESTRICT_ORDER, &mut coarse.rhs);
        charge_flops(mpi, (cnz * cn * cn) as f64 * 9.0).await;
        Box::pin(vcycle(mpi, world, &mut coarse, tag)).await;
        // Prolongate (piecewise-constant) and correct.
        prolongate(lvl.interior_mut(), n, &coarse.u[coarse.interior()]);
        charge_flops(mpi, (nz_l * n * n) as f64 * 2.0).await;
    } else if lvl.n >= 8 {
        // The z extent no longer divides over the ranks: gather the
        // residual problem onto every rank and finish the hierarchy with
        // a replicated sequential solve (the NPB code similarly restricts
        // participation on coarse grids). One allgather down, no traffic
        // below.
        residual(mpi, world, lvl, t + 4).await;
        let full_r = gather_field(mpi, world, &lvl.work, lvl.n, lvl.nz_l).await;
        charge_flops(mpi, (lvl.n * lvl.n * lvl.n) as f64 * 2.0).await;
        let mut e = vec![0.0f64; full_r.len()];
        for _ in 0..2 {
            seq_vcycle(mpi, lvl.n, &mut e, &full_r).await;
        }
        let mine = world.my_rank(mpi) * lvl.nz_l * lvl.n * lvl.n;
        for (u, &c) in lvl.interior_mut().iter_mut().zip(&e[mine..]) {
            *u += c;
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
    let chunks = allgather_bytes(mpi, world, &encode_slice(mine)).await;
    let mut full = Vec::with_capacity(n * n * world.size() * nz_l);
    for c in &chunks {
        decode_extend(c, &mut full);
    }
    full
}

/// Stencil plane triples of a cube that is periodic in z as well.
fn periodic(n: usize) -> impl Iterator<Item = [usize; 3]> {
    (0..n).map(move |z| [(z + n - 1) % n, z, (z + 1) % n])
}

/// One Jacobi sweep of the replicated cube `u` (edge n, no halos);
/// `work` is scratch of the same size.
fn seq_smooth(n: usize, u: &mut [f64], work: &mut [f64], rhs: &[f64]) {
    sweep(n, u, periodic(n), rhs, work, smoothed);
    u.copy_from_slice(work);
}

/// Replicated V-cycle on the full cubic grid (periodic, edge n).
async fn seq_vcycle(mpi: &mut MpiRank, n: usize, u: &mut [f64], rhs: &[f64]) {
    charge_flops(mpi, (n * n * n) as f64 * 30.0).await;
    let mut work = vec![0.0f64; u.len()];
    seq_smooth(n, u, &mut work, rhs);
    seq_smooth(n, u, &mut work, rhs);
    if n >= 8 {
        sweep(n, u, periodic(n), rhs, &mut work, residual_at);
        let cn = n / 2;
        let mut crhs = vec![0.0f64; cn * cn * cn];
        restrict(&work, n, SEQ_RESTRICT_ORDER, &mut crhs);
        let mut ce = vec![0.0f64; cn * cn * cn];
        Box::pin(seq_vcycle(mpi, cn, &mut ce, &crhs)).await;
        prolongate(u, n, &ce);
    } else {
        for _ in 0..20 {
            seq_smooth(n, u, &mut work, rhs);
        }
    }
    seq_smooth(n, u, &mut work, rhs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim::rng::{det_rng, DetRng};
    use testutil::prop::{check, Case, Gen};

    impl Level {
        fn uat(&self, x: usize, y: usize, zl: isize) -> f64 {
            self.u[((zl + 1) as usize * self.n + y) * self.n + x]
        }

        fn uset(&mut self, x: usize, y: usize, zl: isize, v: f64) {
            self.u[((zl + 1) as usize * self.n + y) * self.n + x] = v;
        }
    }

    /// The loops as first written — one cell at a time, every neighbour's
    /// index computed with a modulo — kept as the oracle the row-sliced
    /// forms must match bit for bit.
    mod reference {
        use super::Level;

        pub fn smooth(lvl: &mut Level) {
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
        }

        pub fn residual(lvl: &Level) -> Vec<f64> {
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
            r
        }

        /// The coarse right-hand side of a fine residual of `nz_l` planes.
        pub fn restrict(r: &[f64], n: usize, nz_l: usize) -> Vec<f64> {
            let (cn, cnz) = (n / 2, nz_l / 2);
            let mut coarse = vec![0.0f64; cnz * cn * cn];
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
                        coarse[(zl * cn + y) * cn + x] = s * 0.5; // 4 * (1/8)
                    }
                }
            }
            coarse
        }

        pub fn prolongate(lvl: &mut Level, coarse: &Level) {
            for zl in 0..lvl.nz_l {
                for y in 0..lvl.n {
                    for x in 0..lvl.n {
                        let c = coarse.uat(x / 2, y / 2, (zl / 2) as isize);
                        let cur = lvl.uat(x, y, zl as isize);
                        lvl.uset(x, y, zl as isize, cur + c);
                    }
                }
            }
        }

        pub fn seq_smooth(n: usize, nz: usize, u: &mut [f64], rhs: &[f64]) {
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

        pub fn seq_residual(n: usize, nz: usize, u: &[f64], rhs: &[f64]) -> Vec<f64> {
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

        pub fn seq_restrict(r: &[f64], n: usize) -> Vec<f64> {
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
            crhs
        }

        pub fn seq_prolongate(u: &mut [f64], n: usize, ce: &[f64]) {
            let cn = n / 2;
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        u[(z * n + y) * n + x] += ce[((z / 2) * cn + y / 2) * cn + x / 2];
                    }
                }
            }
        }
    }

    /// Seed of one random field per grid shape.
    #[derive(Clone, Debug)]
    struct FieldSeed(u64);

    impl Case for FieldSeed {
        fn generate(g: &mut Gen) -> Self {
            FieldSeed(g.u64_in(0..u64::MAX))
        }
    }

    /// Values spread over twelve decades and both signs, so that any two
    /// orders of adding six of them round differently somewhere.
    fn random_values(rng: &mut DetRng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-6i32..7)))
            .collect()
    }

    fn random_level(rng: &mut DetRng, n: usize, nz_l: usize) -> Level {
        Level {
            n,
            nz_l,
            u: random_values(rng, (nz_l + 2) * n * n),
            rhs: random_values(rng, nz_l * n * n),
            work: random_values(rng, nz_l * n * n),
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const EDGES: [usize; 4] = [2, 4, 8, 64];

    #[test]
    fn level_indexing_with_halos() {
        let mut l = Level::new(4, 2);
        l.uset(1, 2, -1, 7.5);
        l.uset(3, 3, 2, 8.5);
        assert_eq!(l.uat(1, 2, -1), 7.5);
        assert_eq!(l.uat(3, 3, 2), 8.5);
        assert_eq!(l.plane(-1)[2 * 4 + 1], 7.5);
        l.plane_mut(2)[0] = 9.5;
        assert_eq!(l.uat(0, 0, 2), 9.5);
        assert_eq!(l.interior_mut().len(), 2 * 16);
    }

    #[test]
    fn row_sliced_sweeps_match_the_per_cell_loops() {
        // At n = 2 both x neighbours of a cell are the same cell, and
        // both y neighbours the same row.
        check("mg smooth/residual", 6, |seed: &FieldSeed| {
            for n in EDGES {
                for nz_l in [1, 2, 8] {
                    let mut rng = det_rng(seed.0, (n * 100 + nz_l) as u64);
                    let mut fast = random_level(&mut rng, n, nz_l);
                    let mut slow = Level {
                        u: fast.u.clone(),
                        rhs: fast.rhs.clone(),
                        work: Vec::new(),
                        ..fast
                    };
                    fast.residual_local();
                    assert_eq!(
                        bits(&fast.work),
                        bits(&reference::residual(&slow)),
                        "residual at n={n} nz_l={nz_l}"
                    );
                    fast.smooth_local();
                    reference::smooth(&mut slow);
                    assert_eq!(bits(&fast.u), bits(&slow.u), "smooth at n={n} nz_l={nz_l}");
                }
            }
        });
    }

    #[test]
    fn row_sliced_transfers_match_the_per_cell_loops() {
        check("mg restrict/prolongate", 6, |seed: &FieldSeed| {
            for n in EDGES {
                for nz_l in [2, 8] {
                    let mut rng = det_rng(seed.0, (n * 100 + nz_l) as u64);
                    let (cn, cnz) = (n / 2, nz_l / 2);
                    let r = random_values(&mut rng, nz_l * n * n);
                    let mut coarse = random_level(&mut rng, cn, cnz);
                    restrict(&r, n, RESTRICT_ORDER, &mut coarse.rhs);
                    assert_eq!(
                        bits(&coarse.rhs),
                        bits(&reference::restrict(&r, n, nz_l)),
                        "restrict at n={n} nz_l={nz_l}"
                    );
                    let mut fast = random_level(&mut rng, n, nz_l);
                    let mut slow = Level {
                        u: fast.u.clone(),
                        rhs: Vec::new(),
                        work: Vec::new(),
                        ..fast
                    };
                    prolongate(fast.interior_mut(), n, &coarse.u[coarse.interior()]);
                    reference::prolongate(&mut slow, &coarse);
                    assert_eq!(
                        bits(&fast.u),
                        bits(&slow.u),
                        "prolongate at n={n} nz_l={nz_l}"
                    );
                }
            }
        });
    }

    #[test]
    fn replicated_tail_matches_the_per_cell_loops() {
        check("mg sequential pieces", 6, |seed: &FieldSeed| {
            for n in [2usize, 4, 8, 16] {
                let mut rng = det_rng(seed.0, n as u64);
                let cells = n * n * n;
                let rhs = random_values(&mut rng, cells);
                let mut fast = random_values(&mut rng, cells);
                let mut slow = fast.clone();
                let mut work = random_values(&mut rng, cells);

                sweep(n, &fast, periodic(n), &rhs, &mut work, residual_at);
                let r = reference::seq_residual(n, n, &slow, &rhs);
                assert_eq!(bits(&work), bits(&r), "seq residual at n={n}");

                seq_smooth(n, &mut fast, &mut work, &rhs);
                reference::seq_smooth(n, n, &mut slow, &rhs);
                assert_eq!(bits(&fast), bits(&slow), "seq smooth at n={n}");

                let cn = n / 2;
                let mut crhs = random_values(&mut rng, cn * cn * cn);
                restrict(&r, n, SEQ_RESTRICT_ORDER, &mut crhs);
                assert_eq!(
                    bits(&crhs),
                    bits(&reference::seq_restrict(&r, n)),
                    "seq restrict at n={n}"
                );

                prolongate(&mut fast, n, &crhs);
                reference::seq_prolongate(&mut slow, n, &crhs);
                assert_eq!(bits(&fast), bits(&slow), "seq prolongate at n={n}");
            }
        });
    }

    #[test]
    fn the_two_restriction_orders_are_distinguishable() {
        // The orders differ only in where (0,0,1) and (1,1,0) fall; a
        // field on which that changes the rounding keeps the property
        // tests above from passing with the orders swapped.
        let mut rng = det_rng(7, 7);
        let r = random_values(&mut rng, 8 * 8 * 8);
        let (mut a, mut b) = (vec![0.0; 64], vec![0.0; 64]);
        restrict(&r, 8, RESTRICT_ORDER, &mut a);
        restrict(&r, 8, SEQ_RESTRICT_ORDER, &mut b);
        assert_ne!(bits(&a), bits(&b));
    }
}
