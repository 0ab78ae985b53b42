//! `ocean` — eddy currents in an ocean basin (Table 4: not vectorized,
//! 96% opportunity).
//!
//! Gauss-Seidel/SOR relaxation sweeps on a 2-D grid, written as scalar
//! loops (the paper's compiler does not vectorize them — the j-loop carries
//! a true dependence through the freshly updated west neighbour). Per-point
//! ILP is therefore limited to the serial FP chain, which is what lets 8
//! simple lane cores beat two wide OOO cores (Figure 6): the compiler
//! software-pipelines the neighbour loads one point ahead, hiding the
//! lanes' L2 latency under the chain.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{
    data_doubles, expect_f64s, read_f64s, read_u64s, rng_stream, serial_golden, Built, Scale,
};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Ocean;

fn initial(n: usize) -> Vec<f64> {
    rng_stream(0x0CEA, n * n).into_iter().map(|v| (v % 512) as f64 / 16.0).collect()
}

/// Golden model: row-parallel Gauss-Seidel. Within a row, each point uses
/// the *new* west value; across rows, the previous sweep's values
/// (row-Jacobi), so threads can own row blocks.
fn golden(n: usize, steps: usize) -> Vec<f64> {
    let mut cur = initial(n);
    let mut next = cur.clone();
    for _ in 0..steps {
        for i in 1..n - 1 {
            let mut west = cur[i * n]; // left boundary
            for j in 1..n - 1 {
                let up = cur[(i - 1) * n + j];
                let down = cur[(i + 1) * n + j];
                let right = cur[i * n + j + 1];
                // Kernel order: t = up + down; w = west + right;
                // west' = (w + t) * 0.25.
                let t = up + down;
                let w = west + right;
                west = (w + t) * 0.25;
                next[i * n + j] = west;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

impl Workload for Ocean {
    fn name(&self) -> &'static str {
        "ocean"
    }

    fn vectorizable(&self) -> bool {
        false
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            pct_vect: None,
            avg_vl: None,
            common_vls: &[],
            opportunity: Some(96.0),
            description: "eddy currents in ocean basin",
        }
    }

    fn build_spread(&self, threads: usize, _clusters: usize, scale: Scale) -> Built {
        let n: usize = scale.pick(18, 130, 194); // grid edge
        let steps: usize = scale.pick(2, 3, 4);
        let interior = n - 2;
        assert!(interior.is_multiple_of(threads));
        assert!(interior.is_multiple_of(2), "point loop is unrolled by two");
        let u0 = initial(n);
        let src = format!(
            r#"
        .eq N, {n}
        .data
    {u0_data}
    {u1_data}
    serial_out:
        .zero 8
        .text
        # cur/next swap between u0 and u1 every sweep, and the stencil
        # deliberately reads the up/down rows owned by neighbouring threads
        # — from the *previous* sweep's grid. The race checker's walk
        # sees the reads and the neighbours' writes in different barrier
        # epochs, so no allow is needed.
        tid     x10
        li      x11, {rows_per_thread}
        mul     x12, x10, x11
        addi    x12, x12, 1        # row lo
        add     x13, x12, x11      # row hi
        la      x21, u0            # cur
        la      x22, u1            # next
        li      x4, 1
        fcvt.f.x f10, x4
        li      x4, 4
        fcvt.f.x f11, x4
        fdiv    f10, f10, f11      # 0.25
        li      x28, {steps}
        li      x20, N
        region  1
    step:
        mv      x14, x12           # i
    rowloop:
        # row pointers: x5 = &cur[i][1], x6 = up row, x7 = down row,
        # x8 = &next[i][1]
        mul     x4, x14, x20
        slli    x4, x4, 3
        add     x5, x21, x4
        addi    x5, x5, 8
        li      x19, {row_bytes}
        sub     x6, x5, x19
        add     x7, x5, x19
        add     x8, x22, x4
        addi    x8, x8, 8
        fld     f5, -8(x5)         # west = left boundary (new chain seed)
        # software-pipelined prologue: neighbours of the first point
        fld     f1, 0(x6)          # up(j)
        fld     f2, 0(x7)          # down(j)
        fld     f3, 8(x5)          # right(j)
        li      x15, {interior_pairs}
    ptloop:
        # load neighbours of the NEXT point while computing this one
        fld     f6, 8(x6)          # up(j+1)
        fld     f7, 8(x7)          # down(j+1)
        fld     f8, 16(x5)         # right(j+1)
        fadd    f1, f1, f2         # t = up + down
        fadd    f5, f5, f3         # w = west + right
        fadd    f5, f5, f1         # w + t
        fmul    f5, f5, f10        # west'
        fsd     f5, 0(x8)
        # second point of the pair (B regs), loading for j+2 (A regs)
        fld     f1, 16(x6)
        fld     f2, 16(x7)
        fld     f3, 24(x5)
        fadd    f6, f6, f7
        fadd    f5, f5, f8
        fadd    f5, f5, f6
        fmul    f5, f5, f10
        fsd     f5, 8(x8)
        addi    x5, x5, 16
        addi    x6, x6, 16
        addi    x7, x7, 16
        addi    x8, x8, 16
        addi    x15, x15, -1
        bnez    x15, ptloop
        addi    x14, x14, 1
        blt     x14, x13, rowloop
        barrier
        mv      x4, x21
        mv      x21, x22
        mv      x22, x4
        addi    x28, x28, -1
        bnez    x28, step
{serial}
        halt
    "#,
            u0_data = data_doubles("u0", &u0),
            u1_data = data_doubles("u1", &u0),
            rows_per_thread = interior / threads,
            row_bytes = 8 * n,
            interior_pairs = interior / 2,
            serial = crate::common::serial_phase(
                if steps.is_multiple_of(2) { "u0" } else { "u1" },
                n * n / 8,
                "serial_out"
            ),
        );
        let program = assemble(&src).unwrap_or_else(|e| panic!("ocean: {e}"));
        let result_sym = if steps.is_multiple_of(2) { "u0" } else { "u1" };
        let verifier = Box::new(move |sim: &FuncSim| {
            let g = golden(n, steps);
            expect_f64s(&read_f64s(sim, result_sym, n * n), &g, "ocean u")?;
            let words: Vec<u64> = g[..n * n / 8].iter().map(|v| v.to_bits()).collect();
            let want = serial_golden(&words);
            crate::common::expect_u64s(&read_u64s(sim, "serial_out", 1), &[want], "ocean serial")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Ocean.build(1, Scale::Test).run_functional(1, 20_000_000).unwrap();
    }

    #[test]
    fn eight_threads_verify() {
        Ocean.build(8, Scale::Test).run_functional(8, 20_000_000).unwrap();
    }

    #[test]
    fn golden_boundaries_fixed() {
        let n = 10;
        let g = golden(n, 2);
        let init = initial(n);
        for j in 0..n {
            assert_eq!(g[j], init[j]);
            assert_eq!(g[(n - 1) * n + j], init[(n - 1) * n + j]);
        }
    }

    #[test]
    fn golden_has_west_dependence() {
        // Gauss-Seidel differs from Jacobi: the chain ripples along the row
        // within one sweep. Recompute row 1 manually and compare.
        let n = 10;
        let a = golden(n, 1);
        let init = initial(n);
        let mut west = init[n];
        for j in 1..n - 1 {
            let t = init[j] + init[2 * n + j];
            let w = west + init[n + j + 1];
            west = (w + t) * 0.25;
        }
        assert_eq!(a[n + n - 2], west);
    }
}
