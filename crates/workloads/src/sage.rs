//! `sage` — hydrodynamics-style stencil sweeps (Table 4: 94% vect, VL 63.8).
//!
//! Repeated smoothing sweeps over a large 1-D field with fixed boundaries:
//! `u'[i] = 0.5 * (u[i-1] + u[i+1])`, ping-ponging between two arrays.
//! Long unit-stride vectors; threads split the interior with a barrier per
//! timestep.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_doubles, expect_f64s, read_f64s, rng_stream, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Sage;

fn initial(n: usize) -> Vec<f64> {
    rng_stream(0x5A6E, n).into_iter().map(|v| (v % 1000) as f64 / 8.0).collect()
}

fn golden(n: usize, steps: usize) -> Vec<f64> {
    let mut cur = initial(n);
    let mut next = vec![0.0f64; n];
    for _ in 0..steps {
        next[0] = cur[0];
        next[n - 1] = cur[n - 1];
        for i in 1..n - 1 {
            // vfadd then vfmul.vs 0.5
            next[i] = (cur[i - 1] + cur[i + 1]) * 0.5;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

impl Workload for Sage {
    fn name(&self) -> &'static str {
        "sage"
    }

    fn vectorizable(&self) -> bool {
        true
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            pct_vect: Some(94.0),
            avg_vl: Some(63.8),
            common_vls: &[64],
            opportunity: None,
            description: "hydrodynamics modeling",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let vltcfg = crate::common::vltcfg_operand(threads, clusters);
        let n: usize = scale.pick(258, 8194, 16386);
        let steps: usize = scale.pick(2, 5, 5);
        let interior = n - 2;
        assert!(interior.is_multiple_of(threads), "interior must divide across threads");
        let u0 = initial(n);
        let src = format!(
            r#"
        .data
    {u0_data}
    u1:
        .zero {bytes}
        .text
        # cur/next swap between u0 and u1 every timestep; the race
        # checker's walk separates the two grids per barrier epoch, so no
        # allow is needed.
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        li      x11, {per_thread}
        mul     x12, x10, x11
        addi    x12, x12, 1        # lo (skip boundary)
        add     x13, x12, x11      # hi
        la      x21, u0            # cur
        la      x22, u1            # next
        li      x18, 1
        fcvt.f.x f1, x18
        li      x18, 2
        fcvt.f.x f2, x18
        fdiv    f1, f1, f2         # 0.5
        li      x28, {steps}
        region  1
    step:
        # boundaries: thread 0 copies [0], last thread copies [n-1]
        bnez    x10, notfirst
        fld     f3, 0(x21)
        fsd     f3, 0(x22)
    notfirst:
        li      x19, {threads_m1}
        bne     x10, x19, notlast
        li      x19, {last_off}
        add     x24, x21, x19
        fld     f3, 0(x24)
        add     x24, x22, x19
        fsd     f3, 0(x24)
    notlast:
        mv      x14, x12           # i
    chunk:
        sub     x3, x13, x14
        setvl   x2, x3
        slli    x15, x14, 3
        add     x16, x21, x15
        addi    x17, x16, -8
        vld     v1, x17            # u[i-1 ..]
        addi    x17, x16, 8
        vld     v2, x17            # u[i+1 ..]
        vfadd.vv v3, v1, v2
        vfmul.vs v3, v3, f1
        add     x17, x22, x15
        vst     v3, x17
        add     x14, x14, x2
        blt     x14, x13, chunk
        barrier
        # swap cur/next
        mv      x19, x21
        mv      x21, x22
        mv      x22, x19
        addi    x28, x28, -1
        bnez    x28, step
        region  0
        barrier
        halt
    "#,
            u0_data = data_doubles("u0", &u0),
            bytes = 8 * n,
            per_thread = interior / threads,
            threads_m1 = threads - 1,
            last_off = 8 * (n - 1),
        );
        let program = assemble(&src).unwrap_or_else(|e| panic!("sage: {e}"));
        let result_sym = if steps.is_multiple_of(2) { "u0" } else { "u1" };
        let verifier = Box::new(move |sim: &FuncSim| {
            expect_f64s(&read_f64s(sim, result_sym, n), &golden(n, steps), "sage u")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Sage.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        Sage.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }

    #[test]
    fn golden_smooths() {
        let g = golden(64, 3);
        let i = initial(64);
        // Boundaries fixed.
        assert_eq!(g[0], i[0]);
        assert_eq!(g[63], i[63]);
    }
}
