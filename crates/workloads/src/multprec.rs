//! `multprec` — multiprecision array arithmetic (Table 4: 71% vect,
//! avg VL 25.2, VLs 23/24/64, 81% opportunity).
//!
//! Big-number addition over arrays of 23- and 24-limb numbers (base 2^32
//! limbs held in 64-bit elements): the limb adds vectorize at the number
//! width; carry *detection* vectorizes too, but carry *propagation* is a
//! scalar ripple executed only for numbers whose vector check finds a
//! carry. A VL-64 normalization copy closes each batch.
//!
//! Lint note: the prologue once computed the `[num0, num_end)` range that
//! `pass_loop` immediately recomputes; `vlint`'s dead-write pass caught
//! the redundant prologue writes and they were removed.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

use crate::common::{data_dwords, expect_u64s, read_u64s, rng_stream, serial_golden, Built, Scale};
use crate::suite::{PaperRow, Workload};

/// The workload singleton.
pub struct Multprec;

/// Limb widths alternate between the paper's common VLs.
fn width(num: usize) -> usize {
    if num.is_multiple_of(2) {
        24
    } else {
        23
    }
}

const SLOT: usize = 24; // storage stride per number (limbs)

/// Operand limbs: most numbers are carry-free (31-bit limbs); every fourth
/// number uses full 32-bit limbs so carries ripple.
fn operand(seed: u64, nums: usize) -> Vec<u64> {
    let raw = rng_stream(seed, nums * SLOT);
    let mut out = vec![0u64; nums * SLOT];
    for num in 0..nums {
        let mask: u64 = if num % 4 == 0 { 0xFFFF_FFFF } else { 0x7FFF_FFFF };
        for l in 0..width(num) {
            out[num * SLOT + l] = raw[num * SLOT + l] & mask;
        }
    }
    out
}

fn golden(nums: usize) -> (Vec<u64>, Vec<u64>) {
    let a = operand(0x111, nums);
    let b = operand(0x222, nums);
    let mut c = vec![0u64; nums * SLOT];
    for num in 0..nums {
        let w = width(num);
        let base = num * SLOT;
        // Vector limb add, then scalar ripple only if any limb overflows.
        for l in 0..w {
            c[base + l] = a[base + l] + b[base + l];
        }
        if (0..w).any(|l| c[base + l] >> 32 != 0) {
            let mut carry = 0u64;
            for l in 0..w {
                let t = c[base + l] + carry;
                c[base + l] = t & 0xFFFF_FFFF;
                carry = t >> 32;
            }
            // Carry out of the top limb is folded into the spare slot.
            if w < SLOT {
                c[base + w] = carry;
            }
        }
    }
    // Normalization copy: out[i] = c[i] ^ 1 over the full array (VL 64).
    let out: Vec<u64> = c.iter().map(|v| v ^ 1).collect();
    (c, out)
}

impl Workload for Multprec {
    fn name(&self) -> &'static str {
        "multprec"
    }

    fn vectorizable(&self) -> bool {
        true
    }

    fn paper_row(&self) -> PaperRow {
        PaperRow {
            pct_vect: Some(71.0),
            avg_vl: Some(25.2),
            common_vls: &[23, 24, 64],
            opportunity: Some(81.0),
            description: "multiprecision array arithmetic",
        }
    }

    fn build_spread(&self, threads: usize, clusters: usize, scale: Scale) -> Built {
        let vltcfg = crate::common::vltcfg_operand(threads, clusters);
        let nums: usize = scale.pick(16, 256, 512);
        assert!(nums.is_multiple_of(2 * threads));
        let total = nums * SLOT;
        let src = format!(
            r#"
        .data
    {a_data}
    {b_data}
    c:
        .zero {bytes}
    outp:
        .zero {bytes}
    serial_out:
        .zero 8
        .text
        # the carry ripple is a data-dependent scalar walk whose limb
        # cursor joins back into the vector phase; the race checker's walk
        # sees the per-number partition disjoint, so no allow is needed.
        li      x9, {vltcfg}
        vltcfg  x9
        tid     x10
        la      x20, a
        la      x21, b
        la      x22, c
        region  1
        li      x31, 3             # passes (iterative application)
    pass_loop:
        li      x11, {nums_per_thread}
        mul     x12, x10, x11
        add     x13, x12, x11
        mv      x14, x12           # num
    nloop:
        # width: 24 for even numbers, 23 for odd
        andi    x4, x14, 1
        li      x5, 24
        sub     x5, x5, x4         # w
        li      x6, {slot}
        mul     x7, x14, x6
        slli    x7, x7, 3          # byte base of this number
        add     x15, x20, x7       # &a
        add     x16, x21, x7       # &b
        add     x17, x22, x7       # &c
        # vector limb add + carry detection, strip-mined to the VLT
        # register partition (integer adds are chunking-independent)
        li      x29, 0             # limbs processed
        li      x18, 0             # carry-detect accumulator
    addchunk:
        sub     x3, x5, x29
        setvl   x2, x3
        vld     v1, x15
        vld     v2, x16
        vadd.vv v3, v1, v2
        vst     v3, x17
        li      x4, 32
        vsrl.vs v4, v3, x4
        vredsum x4, v4
        add     x18, x18, x4
        slli    x4, x2, 3
        add     x15, x15, x4
        add     x16, x16, x4
        add     x17, x17, x4
        add     x29, x29, x2
        blt     x29, x5, addchunk
        beqz    x18, nocarry
        # scalar ripple propagation
        li      x19, 0             # limb index
        li      x24, 0             # carry
        li      x28, 1
        slli    x28, x28, 32
        addi    x28, x28, -1       # 0xFFFFFFFF
        add     x25, x22, x7       # &c[num][0]
    ripple:
        ld      x26, 0(x25)
        add     x26, x26, x24
        and     x27, x26, x28
        sd      x27, 0(x25)
        srli    x24, x26, 32
        addi    x25, x25, 8
        addi    x19, x19, 1
        blt     x19, x5, ripple
        # store carry-out in the spare slot (width-23 numbers only)
        li      x4, {slot}
        bge     x5, x4, nocarry
        sd      x24, 0(x25)
    nocarry:
        addi    x14, x14, 1
        blt     x14, x13, nloop
        barrier

        # ---- normalization copy (VL 64): out[i] = c[i] ^ 1 ----
        li      x11, {elems_per_thread}
        mul     x12, x10, x11
        add     x13, x12, x11
        la      x23, outp
        mv      x14, x12
    cloop:
        sub     x3, x13, x14
        setvl   x2, x3
        slli    x4, x14, 3
        add     x5, x22, x4
        vld     v1, x5
        li      x6, 1
        vxor.vs v1, v1, x6
        add     x5, x23, x4
        vst     v1, x5
        add     x14, x14, x2
        blt     x14, x13, cloop
        addi    x31, x31, -1
        bnez    x31, pass_loop
{serial}
        halt
    "#,
            serial = crate::common::serial_phase("outp", total / 6, "serial_out"),
            a_data = data_dwords("a", &operand(0x111, nums)),
            b_data = data_dwords("b", &operand(0x222, nums)),
            bytes = 8 * total,
            slot = SLOT,
            nums_per_thread = nums / threads,
            elems_per_thread = total / threads,
        );
        let program = assemble(&src).unwrap_or_else(|e| panic!("multprec: {e}"));
        let verifier = Box::new(move |sim: &FuncSim| {
            let (c, out) = golden(nums);
            expect_u64s(&read_u64s(sim, "c", total), &c, "multprec c")?;
            expect_u64s(&read_u64s(sim, "outp", total), &out, "multprec out")?;
            let want = serial_golden(&out[..total / 6]);
            expect_u64s(&read_u64s(sim, "serial_out", 1), &[want], "multprec serial")
        });
        Built { program, verifier }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_verifies() {
        Multprec.build(1, Scale::Test).run_functional(1, 10_000_000).unwrap();
    }

    #[test]
    fn four_threads_verify() {
        Multprec.build(4, Scale::Test).run_functional(4, 10_000_000).unwrap();
    }

    #[test]
    fn golden_carries_ripple() {
        let (c, _) = golden(4);
        // Every third number uses 32-bit limbs: its limbs must be masked
        // back below 2^32 after propagation.
        for (l, &limb) in c.iter().enumerate().take(width(0)) {
            assert!(limb < 1 << 32, "limb {l} = {limb:#x}");
        }
    }

    #[test]
    fn widths_alternate() {
        assert_eq!(width(0), 24);
        assert_eq!(width(1), 23);
    }
}
