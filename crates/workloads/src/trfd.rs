//! `trfd` — two-electron integral transformation (Table 4: 73% vect,
//! avg VL 22.7, VLs 4/20/30/35, 99% opportunity).
//!
//! Triangular loop nest over rows of varying length: each row is scaled
//! and accumulated (`z += v * y`), reduced into a diagonal term, and tagged
//! with triangular index arithmetic — the classic pattern of medium/short
//! vectors riding on heavy scalar index bookkeeping.
//!
//! Lint note: the "symmetric pair bookkeeping" scalar block inside the
//! row loop models trfd's index-transformation workload and deliberately
//! discards its result, so the kernel carries `.eq vlint.allow.dead_write`
//! rather than storing a value no phase consumes. Everything else must
//! stay lint-clean (`verify_suite` enforces it).

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_doubles, data_dwords, expect_f64s, read_f64s, rng_stream, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Trfd;

/// Row lengths cycle through the paper's common VLs.
const ROW_LENGTHS: [usize; 4] = [35, 30, 20, 4];

fn row_len(r: usize) -> usize {
    ROW_LENGTHS[r % ROW_LENGTHS.len()]
}

fn offsets(rows: usize) -> Vec<u64> {
    let mut offs = Vec::with_capacity(rows + 1);
    let mut acc = 0u64;
    for r in 0..rows {
        offs.push(acc);
        acc += row_len(r) as u64;
    }
    offs.push(acc);
    offs
}

fn y_data(total: usize) -> Vec<f64> {
    rng_stream(0x7FD, total).into_iter().map(|v| (v % 64) as f64 / 4.0).collect()
}

fn v_data(rows: usize) -> Vec<f64> {
    rng_stream(0x7FE, rows).into_iter().map(|v| (v % 16) as f64 / 8.0).collect()
}

/// Transformation passes over the arrays (iterative application: the data
/// stays L2-resident after the first sweep).
pub const PASSES: usize = 3;

/// Golden model. Rows longer than `mvl` (the VLT register-file partition)
/// are strip-mined exactly as the kernel does, so the chunked reduction
/// order matches bit-for-bit. `z` accumulates across the passes; `d` holds
/// the last pass's reductions.
fn golden(rows: usize, mvl: usize) -> (Vec<f64>, Vec<f64>) {
    let offs = offsets(rows);
    let total = offs[rows] as usize;
    let y = y_data(total);
    let v = v_data(rows);
    let mut z = vec![0.0f64; total];
    let mut d = vec![0.0f64; rows];
    for _pass in 0..PASSES {
        for r in 0..rows {
            let (o, l) = (offs[r] as usize, row_len(r));
            let mut red = 0.0f64;
            let mut done = 0;
            while done < l {
                let vl = (l - done).min(mvl);
                let mut chunk_red = 0.0f64;
                for e in done..done + vl {
                    // vfma.vs: z += y * v  (computed as y.mul_add(v, z))
                    z[o + e] = y[o + e].mul_add(v[r], z[o + e]);
                    chunk_red += z[o + e]; // vfredsum order: ascending
                }
                red += chunk_red;
                done += vl;
            }
            let tri = (r * (r + 1) / 2) as f64;
            d[r] = red + tri;
        }
    }
    (z, d)
}

impl Workload for Trfd {
    fn name(&self) -> &'static str {
        "trfd"
    }

    fn vectorizable(&self) -> bool {
        true
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            pct_vect: Some(73.0),
            avg_vl: Some(22.7),
            common_vls: &[4, 20, 30, 35],
            opportunity: Some(99.0),
            description: "two-electron integral transformation",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let vltcfg = crate::common::vltcfg_operand(threads, clusters);
        let rows: usize = scale.pick(32, 512, 1024);
        assert!(rows.is_multiple_of(threads.max(ROW_LENGTHS.len())));
        let offs = offsets(rows);
        let total = offs[rows] as usize;
        let src = format!(
            r#"
        .data
    {y_data}
    {v_data}
    {off_data}
    z:
        .zero {zbytes}
    d:
        .zero {dbytes}
        .text
        # the symmetric-pair bookkeeping below is modeled work whose result
        # is intentionally unused; see the module docs
        .eq vlint.allow.dead_write, 1
        # row starts come from the offs table loaded at run time; the race
        # checker's walk follows them and sees the per-thread row ranges
        # disjoint, so no allow is needed.
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        li      x11, {rows_per_thread}
        mul     x12, x10, x11      # r0
        add     x13, x12, x11      # r_end
        la      x20, y
        la      x21, v
        la      x22, offs
        la      x23, z
        la      x24, d
        # Row lengths cycle {{35, 30, 20, 4}}; pack them into one register
        # so the length (and thus setvl) comes from register arithmetic —
        # the compiler strength-reduces the offset table out of the loop
        # and keeps the y/z cursors rolling incrementally.
        li      x29, {packed_lengths}
        region  1
        li      x31, {passes}
    pass_loop:
        # my starting cursor: offs[r0] (loaded once per pass, off the
        # critical path)
        slli    x4, x12, 3
        add     x5, x22, x4
        ld      x6, 0(x5)
        slli    x6, x6, 3
        add     x15, x20, x6       # y cursor
        add     x16, x23, x6       # z cursor
        mv      x14, x12           # r
    rloop:
        andi    x4, x14, 3
        slli    x4, x4, 3
        srl     x8, x29, x4
        andi    x8, x8, 255        # row length
        slli    x4, x14, 3
        add     x5, x21, x4
        fld     f1, 0(x5)          # v[r]
        fcvt.f.x f2, x0            # row reduction accumulator = 0.0
        li      x27, 0             # elements processed (strip-mining)
    chunkloop:
        sub     x28, x8, x27
        setvl   x2, x28
        vld     v1, x15
        vld     v2, x16
        vfma.vs v2, v1, f1
        vst     v2, x16
        vfredsum f4, v2
        fadd    f2, f2, f4
        slli    x28, x2, 3
        add     x15, x15, x28
        add     x16, x16, x28
        add     x27, x27, x2
        blt     x27, x8, chunkloop
        # triangular index arithmetic (the scalar bookkeeping trfd is
        # known for): tri = r*(r+1)/2, folded into the diagonal term
        addi    x17, x14, 1
        mul     x18, x14, x17
        srli    x18, x18, 1
        fcvt.f.x f3, x18
        fadd    f2, f2, f3
        add     x5, x24, x4
        fsd     f2, 0(x5)
        # extra index transformation work (symmetric pair bookkeeping)
        mul     x25, x14, x14
        add     x25, x25, x17
        srli    x25, x25, 1
        xor     x26, x25, x18
        and     x26, x26, x17
        addi    x14, x14, 1
        blt     x14, x13, rloop
        addi    x31, x31, -1
        bnez    x31, pass_loop
        region  0
        barrier
        halt
    "#,
            y_data = data_doubles("y", &y_data(total)),
            v_data = data_doubles("v", &v_data(rows)),
            off_data = data_dwords("offs", &offs),
            passes = PASSES,
            packed_lengths = 68427299,
            zbytes = 8 * total,
            dbytes = 8 * rows,
            rows_per_thread = rows / threads,
        );
        let program = assemble(&src).unwrap_or_else(|e| panic!("trfd: {e}"));
        let mvl = vlt_isa::MAX_VL / threads;
        let verifier = Box::new(move |sim: &FuncSim| {
            let (z, d) = golden(rows, mvl);
            expect_f64s(&read_f64s(sim, "z", total), &z, "trfd z")?;
            expect_f64s(&read_f64s(sim, "d", rows), &d, "trfd d")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Trfd.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        Trfd.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }

    #[test]
    fn offsets_are_cumulative() {
        let o = offsets(8);
        assert_eq!(o[0], 0);
        assert_eq!(o[1], 35);
        assert_eq!(o[2], 65);
        assert_eq!(o[8], 2 * (35 + 30 + 20 + 4));
    }

    #[test]
    fn row_lengths_cycle_table4_vls() {
        assert_eq!(row_len(0), 35);
        assert_eq!(row_len(3), 4);
        assert_eq!(row_len(4), 35);
    }
}
