//! `bt` — NAS block-tridiagonal kernel (Table 4: 46% vect, avg VL 7.0,
//! VLs 5/10/12, 70% opportunity).
//!
//! Per grid cell: a 5x5 block-matrix/vector product (VL 5, column-major
//! FMA), heavy scalar pivot arithmetic (reciprocals, diagonal updates),
//! and a VL-10 paired-cell relaxation; every fourth cell also touches a
//! VL-12 boundary stencil.
//!
//! Lint note: the prologue once computed the `[cell0, cell_end)` range
//! (`li`/`mul`/`add` into `x11`/`x12`/`x13`) that `pass_loop` immediately
//! recomputes — `vlint`'s dead-write pass caught the redundant writes and
//! the prologue copy was removed.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{
    data_doubles, expect_f64s, read_f64s, read_u64s, rng_stream, serial_golden, Built, Scale,
};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Bt;

const B: usize = 5; // block dimension
const BSLOT: usize = 32; // storage stride per cell's block (5x5 padded)

fn a_data(cells: usize) -> Vec<f64> {
    rng_stream(0xB7A, cells * BSLOT).into_iter().map(|v| ((v % 32) as f64 - 15.0) / 4.0).collect()
}

fn x_data(cells: usize) -> Vec<f64> {
    rng_stream(0xB7B, cells * 8).into_iter().map(|v| ((v % 16) as f64 + 1.0) / 2.0).collect()
}

fn bdy_data(n: usize) -> Vec<f64> {
    rng_stream(0xB7C, n).into_iter().map(|v| (v % 100) as f64 / 16.0).collect()
}

struct Golden {
    y: Vec<f64>,
    diag: Vec<f64>,
    relax: Vec<f64>,
    bdy: Vec<f64>,
}

fn golden(cells: usize) -> Golden {
    let a = a_data(cells);
    let x = x_data(cells);
    let mut y = vec![0.0f64; cells * 8];
    let mut diag = vec![0.0f64; cells];
    for c in 0..cells {
        // y = A^T-columns FMA: for k, y[0..5] += col_k * x[k].
        for k in 0..B {
            let xv = x[c * 8 + k];
            for e in 0..B {
                let col = a[c * BSLOT + k * B + e];
                y[c * 8 + e] = col.mul_add(xv, y[c * 8 + e]);
            }
        }
        // Scalar pivot arithmetic (one reciprocal per cell).
        let p = 1.0 / (y[c * 8] + 2.0);
        let q = (y[c * 8 + 1] - y[c * 8 + 2]) * p;
        diag[c] = q * q + p;
    }
    // VL-10 paired relaxation over the y array (pairs of cells = 10 lanes).
    let mut relax = vec![0.0f64; cells / 2 * 10];
    for pair in 0..cells / 2 {
        for e in 0..10 {
            let (c, ee) = (pair * 2 + e / B, e % B);
            relax[pair * 10 + e] = y[c * 8 + ee] * 0.25;
        }
    }
    // VL-12 boundary stencil, one strip per 4 cells.
    let strips = cells / 4;
    let bsrc = bdy_data(strips * 12 + 12);
    let mut bdy = vec![0.0f64; strips * 12];
    for s in 0..strips {
        for e in 0..12 {
            bdy[s * 12 + e] = bsrc[s * 12 + e] + bsrc[s * 12 + e + 1];
        }
    }
    Golden { y, diag, relax, bdy }
}

impl Workload for Bt {
    fn name(&self) -> &'static str {
        "bt"
    }

    fn vectorizable(&self) -> bool {
        true
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            pct_vect: Some(46.0),
            avg_vl: Some(7.0),
            common_vls: &[5, 10, 12],
            opportunity: Some(70.0),
            description: "block tridiagonal benchmark",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let vltcfg = crate::common::vltcfg_operand(threads, clusters);
        let cells: usize = scale.pick(32, 512, 1024);
        assert!(cells.is_multiple_of(4 * threads));
        let strips = cells / 4;
        let src = format!(
            r#"
        .data
    {a_data}
    {x_data}
    {bsrc_data}
    y:
        .zero {ybytes}
    diag:
        .zero {dbytes}
    relax:
        .zero {rbytes}
    bdy:
        .zero {bbytes}
    serial_out:
        .zero 8
        .text
        # the boundary-stencil strip base rolls through the pass loop; the
        # race checker's walk sees each thread's per-epoch access sets
        # disjoint, so no allow is needed.
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        la      x20, a
        la      x21, x
        la      x22, y
        la      x23, diag
        li      x18, 2
        fcvt.f.x f10, x18          # 2.0
        li      x18, 1
        fcvt.f.x f11, x18          # 1.0
        region  1
        li      x31, 3             # passes (iterative solver sweeps)
    pass_loop:
        # ---- phase 1: 5x5 block mat-vec + scalar pivoting ----
        li      x11, {cells_per_thread}
        mul     x12, x10, x11
        add     x13, x12, x11
        li      x3, {b}
        setvl   x2, x3
        mv      x14, x12           # cell
    cellloop:
        li      x4, {bslot}
        mul     x5, x14, x4
        slli    x5, x5, 3
        add     x15, x20, x5       # &A[cell]
        slli    x6, x14, 6         # cell * 8 elems * 8 bytes
        add     x16, x21, x6       # &x[cell]
        add     x17, x22, x6       # &y[cell]
        vxor.vv v4, v4, v4         # y acc
        # fully unrolled 5-column mat-vec (fits more cells in the window)
        fld     f1, 0(x16)
        vld     v1, x15
        vfma.vs v4, v1, f1
        addi    x15, x15, 40
        fld     f2, 8(x16)
        vld     v2, x15
        vfma.vs v4, v2, f2
        addi    x15, x15, 40
        fld     f3, 16(x16)
        vld     v1, x15
        vfma.vs v4, v1, f3
        addi    x15, x15, 40
        fld     f4, 24(x16)
        vld     v2, x15
        vfma.vs v4, v2, f4
        addi    x15, x15, 40
        fld     f5, 32(x16)
        vld     v1, x15
        vfma.vs v4, v1, f5
        vst     v4, x17
        # scalar pivot arithmetic (the non-vectorizable half of bt)
        fld     f1, 0(x17)         # y0
        fadd    f2, f1, f10
        fdiv    f3, f11, f2        # p
        fld     f4, 8(x17)
        fld     f5, 16(x17)
        fsub    f4, f4, f5
        fmul    f4, f4, f3         # q
        fmul    f6, f4, f4
        fadd    f8, f6, f3         # q*q + p
        slli    x4, x14, 3
        add     x5, x23, x4
        fsd     f8, 0(x5)
        addi    x14, x14, 1
        blt     x14, x13, cellloop
        barrier

        # ---- phase 2: VL-10 paired relaxation ----
        # Cells are stored in 8-element slots, so a pair's 2x5 elements are
        # not unit-stride: gather them with an index vector
        # idx[e] = e*8 + (e >= 5 ? 24 : 0) bytes.
        li      x3, 10
        setvl   x2, x3
        la      x24, relax
        li      x4, 1
        fcvt.f.x f1, x4
        li      x4, 4
        fcvt.f.x f2, x4
        fdiv    f1, f1, f2         # 0.25
        vid     v1
        li      x6, 3
        vsll.vs v2, v1, x6         # e*8
        li      x6, {b}
        vsplat  v3, x6
        vsge.vv v1, v3             # mask: e >= 5
        li      x6, 24
        vadd.vs v2, v2, x6, vm     # skip the 3-element slot padding
        li      x11, {pairs_per_thread}
        mul     x14, x10, x11      # pair
        add     x13, x14, x11
    pairloop:
        slli    x4, x14, 7         # pair * 2 cells * 64 bytes
        add     x5, x22, x4        # &y[pair's first cell]
        vldx    v4, x5, v2         # gather 10 elements
        vfmul.vs v4, v4, f1
        li      x4, 80
        mul     x5, x14, x4
        add     x5, x24, x5
        vst     v4, x5
        addi    x14, x14, 1
        blt     x14, x13, pairloop
        barrier

        # ---- phase 3: VL-12 boundary stencil, one strip per 4 cells ----
        li      x3, 12
        setvl   x2, x3
        la      x25, bsrc
        la      x26, bdy
        li      x11, {strips_per_thread}
        mul     x14, x10, x11      # strip
        add     x13, x14, x11
    striploop:
        li      x4, 96             # 12 doubles
        mul     x5, x14, x4
        add     x6, x25, x5
        vld     v1, x6
        addi    x6, x6, 8
        vld     v2, x6
        vfadd.vv v3, v1, v2
        add     x6, x26, x5
        vst     v3, x6
        addi    x14, x14, 1
        blt     x14, x13, striploop
        addi    x31, x31, -1
        bnez    x31, pass_loop
{serial}
        halt
    "#,
            serial =
                crate::common::serial_phase("y", cells * 8 + cells + cells / 2 * 10, "serial_out"),
            a_data = data_doubles("a", &a_data(cells)),
            x_data = data_doubles("x", &x_data(cells)),
            bsrc_data = data_doubles("bsrc", &bdy_data(strips * 12 + 12)),
            ybytes = 8 * cells * 8,
            dbytes = 8 * cells,
            rbytes = 8 * (cells / 2) * 10,
            bbytes = 8 * strips * 12,
            b = B,
            bslot = BSLOT,
            cells_per_thread = cells / threads,
            pairs_per_thread = (cells / 2) / threads,
            strips_per_thread = strips / threads,
        );
        let program = assemble(&src).unwrap_or_else(|e| panic!("bt: {e}"));
        let verifier = Box::new(move |sim: &FuncSim| {
            let g = golden(cells);
            expect_f64s(&read_f64s(sim, "y", cells * 8), &g.y, "bt y")?;
            expect_f64s(&read_f64s(sim, "diag", cells), &g.diag, "bt diag")?;
            expect_f64s(&read_f64s(sim, "relax", cells / 2 * 10), &g.relax, "bt relax")?;
            expect_f64s(&read_f64s(sim, "bdy", strips * 12), &g.bdy, "bt bdy")?;
            // The serial walk covers y, then diag, then relax (contiguous
            // in the data segment).
            let mut words: Vec<u64> = g.y.iter().map(|v| v.to_bits()).collect();
            words.extend(g.diag.iter().map(|v| v.to_bits()));
            words.extend(g.relax.iter().map(|v| v.to_bits()));
            let want = serial_golden(&words);
            crate::common::expect_u64s(&read_u64s(sim, "serial_out", 1), &[want], "bt serial")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Bt.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        Bt.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }
}
