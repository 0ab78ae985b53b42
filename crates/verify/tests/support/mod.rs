//! The seeded-defect corpora shared by the verifier's integration tests.
//!
//! `mutations` asserts that every lint mutant fires its expected codes,
//! `race_mutations` does the same for the race mutants, and
//! `report_digest` pins the exact report text of all of them. Each test
//! binary includes this module and uses only part of it.
#![allow(dead_code)]

use vlt_verify::Code;

/// One seeded defect: an assembly source and the codes it must fire.
pub struct Mutant {
    /// What the defect is.
    pub name: &'static str,
    /// The mutated program.
    pub src: String,
    /// Codes the verifier must report for it.
    pub codes: &'static [Code],
}

fn mutant(name: &'static str, src: impl Into<String>, codes: &'static [Code]) -> Mutant {
    Mutant { name, src: src.into(), codes }
}

/// Apply a single textual mutation to `base`.
fn mutate(base: &str, from: &str, to: &str) -> String {
    assert!(base.contains(from), "mutation site `{from}` not in base");
    base.replacen(from, to, 1)
}

/// The defect-free lint base kernel: a realistic strip-mined SPMD saxpy
/// (64 doubles of x and y, y += 2*x) with `vltcfg` partitioning,
/// per-thread ranges off `tid`, constant-folded `la`/`li` address
/// arithmetic, a `setvl` strip loop, and a converged barrier — the same
/// shapes the nine workloads use.
pub const LINT_BASE: &str = r#"
    .data
xs: .double 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
    .zero 448
ys: .double 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
    .zero 448
    .text
    li      x9, 4
    vltcfg  x9
    tid     x10
    li      x11, 16            # elems per thread
    mul     x12, x10, x11      # lo
    add     x13, x12, x11      # hi
    la      x20, xs
    la      x21, ys
    li      x4, 2
    fcvt.f.x f1, x4            # a = 2.0
    mv      x14, x12           # i
loop:
    sub     x3, x13, x14
    setvl   x2, x3
    slli    x4, x14, 3
    add     x5, x20, x4
    vld     v1, x5             # x[i..]
    add     x6, x21, x4
    vld     v2, x6             # y[i..]
    vfma.vs v2, v1, f1         # y += a*x
    vst     v2, x6
    add     x14, x14, x2
    blt     x14, x13, loop
    barrier
    halt
"#;

/// Lint mutants: each seeded defect and the code(s) the verifier must
/// report for it.
pub fn lint_mutants() -> Vec<Mutant> {
    let m = |from: &str, to: &str| mutate(LINT_BASE, from, to);
    vec![
        // --- vl / vltcfg state defects ---
        // The strip loop runs at the reset MVL and the loop induction
        // reads an undefined trip register.
        mutant("dropped setvl", m("    setvl   x2, x3\n", ""), &[Code::VlReset, Code::UndefRead]),
        mutant(
            "dropped li feeding the range",
            m("    li      x11, 16            # elems per thread\n", ""),
            &[Code::UndefRead],
        ),
        mutant("setvl of constant zero", "li x1, 0\nsetvl x2, x1\nhalt\n", &[Code::ZeroVl]),
        mutant("vltcfg 3", m("li      x9, 4", "li      x9, 3"), &[Code::BadVltCfg]),
        mutant(
            "vltcfg of uninitialized register",
            m("    li      x9, 4\n", ""),
            &[Code::UndefRead],
        ),
        mutant(
            "vltcfg after setvl",
            "li x1, 64\nsetvl x2, x1\nli x9, 4\nvltcfg x9\nsd x2, -8(sp)\nhalt\n",
            &[Code::VltcfgClampsVl],
        ),
        mutant(
            "setvl x0 with request > MVL",
            "li x9, 4\nvltcfg x9\nli x1, 64\nsetvl x0, x1\nhalt\n",
            &[Code::SetvlDiscardsClamp],
        ),
        // --- def-before-use defects ---
        // `add x5, x20, x4` mistyped so the base comes from a never-written reg.
        mutant(
            "swapped base register",
            m("add     x5, x20, x4", "add     x5, x25, x4"),
            &[Code::UndefRead],
        ),
        mutant(
            "f1 read but never written",
            m("    li      x4, 2\n    fcvt.f.x f1, x4            # a = 2.0\n", ""),
            &[Code::UndefRead],
        ),
        // The FMA consumes v3, which no instruction writes.
        mutant(
            "v3 read but never written",
            m("vfma.vs v2, v1, f1", "vfma.vs v2, v3, f1"),
            &[Code::UndefRead],
        ),
        mutant(
            "x5 written on one branch side only",
            "tid x1\nbeqz x1, skip\nli x5, 7\nskip:\nsd x5, -8(sp)\nhalt\n",
            &[Code::MaybeUndefRead],
        ),
        // --- memory defects ---
        // The vld base overwritten with a small constant: the load walks
        // the unmapped zero page (silent zeros at runtime).
        mutant("bogus base address", m("add     x5, x20, x4", "li      x5, 64"), &[Code::OobRead]),
        mutant(
            "store far past the data image",
            ".data\nxs: .dword 1\n.text\nla x1, xs\nsd x0, 4096(x1)\nhalt\n",
            &[Code::OobWrite],
        ),
        mutant(
            "ld at offset 3",
            ".data\nxs: .dword 1\n.text\nla x1, xs\nld x2, 3(x1)\nsd x2, -8(sp)\nhalt\n",
            &[Code::Misaligned],
        ),
        mutant(
            "vld footprint past the data image",
            ".data\nys: .dword 1\n.text\nli x1, 32\nsetvl x0, x1\nla x2, ys\nvld v1, x2\nhalt\n",
            &[Code::OobRead],
        ),
        mutant(
            "strided store with a huge stride",
            ".data\nys: .zero 64\n.text\nli x1, 8\nsetvl x0, x1\nvid v1\nla x2, ys\n\
             li x3, 4096\nvsts v1, x2, x3\nhalt\n",
            &[Code::OobWrite],
        ),
        // --- SPMD convergence defects ---
        // Only threads with tid != 0 reach the barrier: static deadlock risk.
        mutant(
            "barrier on one branch side",
            m(
                "    barrier\n",
                "    bnez    x10, join\n    j       out\njoin:\n    barrier\nout:\n",
            ),
            &[Code::DivergentBarrier],
        ),
        mutant(
            "vltcfg on one branch side",
            "tid x1\nbnez x1, cfg\nj done\ncfg:\nli x2, 4\nvltcfg x2\ndone:\nhalt\n",
            &[Code::DivergentVltcfg],
        ),
        // --- structural defects ---
        mutant(
            "no halt at the end",
            m("    barrier\n    halt\n", "    barrier\n"),
            &[Code::OffEnd],
        ),
        mutant("branch to a wild offset", "beq x0, x0, 4000\nhalt\n", &[Code::BadTarget]),
        mutant("code after halt", "halt\nli x1, 1\nsd x1, -8(sp)\nhalt\n", &[Code::Unreachable]),
        mutant(
            "result vector never stored",
            m("vst     v2, x6", "vst     v1, x6"),
            &[Code::DeadWrite],
        ),
        mutant(
            "masked op with vm at reset",
            "li x1, 8\nsetvl x0, x1\nvid v1\nvadd.vv v2, v1, v1, vm\nvst v2, sp\nhalt\n",
            &[Code::MaskReset],
        ),
        mutant("vector op before setvl", "vid v1\nvst v1, sp\nhalt\n", &[Code::VlReset]),
        mutant("jr present", "li x1, 4096\njr x1\nhalt\n", &[Code::IndirectFlow]),
    ]
}

/// Thread counts the race corpus is checked at (the base is clean at both).
pub const RACE_THREADS: [usize; 2] = [2, 4];

/// The race-free base kernel: a two-phase SPMD reduction in the same
/// shape the nine workloads use. Phase 1 strip-mines `y += a*x` over a
/// per-thread contiguous slice (64 doubles, 16 per thread at 4 threads)
/// and scatters per-thread partials into an interleaved (strided) table;
/// a `barrier` publishes the writes; phase 2 reads the *whole* shared
/// array and stores one result per thread.
pub const RACE_BASE: &str = r#"
    .data
xs: .double 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
    .zero 448
ys: .double 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
    .zero 448
tab:
    .zero 512
out:
    .zero 64
    .text
    tid     x10
    li      x11, 16            # elems per thread
    mul     x12, x10, x11      # lo
    add     x13, x12, x11      # hi
    la      x20, xs
    la      x21, ys
    li      x4, 2
    fcvt.f.x f1, x4            # a = 2.0
    mv      x14, x12           # i
loop:
    sub     x3, x13, x14
    setvl   x2, x3
    slli    x4, x14, 3
    add     x5, x20, x4
    vld     v1, x5             # x[i..]
    add     x6, x21, x4
    vld     v2, x6             # y[i..]
    vfma.vs v2, v1, f1         # y += a*x
    vst     v2, x6
    add     x14, x14, x2
    blt     x14, x13, loop
    # interleaved partial table: tab[t + 4*e], one strided store per thread
    li      x3, 16
    setvl   x2, x3
    la      x7, tab
    slli    x4, x10, 3
    add     x7, x7, x4         # tab + 8*tid
    li      x8, 32             # byte stride = 8 * nthr_max
    vsts    v2, x7, x8
    barrier
    # phase 2: every thread reduces the whole of ys into its own out slot
    li      x3, 64
    setvl   x2, x3
    vxor.vv v3, v3, v3
    li      x14, 0
    li      x13, 64
loop2:
    sub     x3, x13, x14
    setvl   x2, x3
    slli    x4, x14, 3
    add     x5, x21, x4
    vld     v1, x5             # ys[i..] (written by all threads in epoch 0)
    vadd.vv v3, v3, v1
    add     x14, x14, x2
    blt     x14, x13, loop2
    vredsum x4, v3
    la      x5, out
    slli    x6, x10, 3
    add     x5, x5, x6
    sd      x4, 0(x5)          # out[tid]
    halt
"#;

/// Race mutants: each perturbs exactly one spot of [`RACE_BASE`] and must
/// fire its code at every thread count in [`RACE_THREADS`].
pub fn race_mutants() -> Vec<Mutant> {
    let m = |from: &str, to: &str| mutate(RACE_BASE, from, to);
    vec![
        // --- partitioning defects ---
        // One extra element per slice: thread t's last write lands on
        // thread t+1's first element.
        mutant(
            "slice hi off by one",
            m("add     x13, x12, x11      # hi", "addi    x13, x12, 17       # hi"),
            &[Code::RaceWw],
        ),
        // Every thread strips from 0 instead of its own lo: full overlap.
        mutant(
            "wrong induction start",
            m("mv      x14, x12           # i", "li      x14, 0             # i"),
            &[Code::RaceWw],
        ),
        // The partial-table stride collapses from 8*nthr to 8: the
        // interleave becomes a dense overlap of every thread's 16 elements.
        mutant(
            "strided scatter with collapsed stride",
            m("li      x8, 32             # byte stride = 8 * nthr_max", "li      x8, 8"),
            &[Code::RaceWw],
        ),
        // The strip request ignores the remaining count: vl jumps to the
        // full MVL and the stores run far past the thread's slice.
        mutant(
            "setvl request ignores remaining count",
            m(
                "    sub     x3, x13, x14\n    setvl   x2, x3\n    slli    x4, x14, 3",
                "    li      x3, 64\n    setvl   x2, x3\n    slli    x4, x14, 3",
            ),
            &[Code::RaceWw],
        ),
        // --- synchronization defects ---
        // Phase 2 reads the whole of ys with nothing separating it from
        // the other threads' phase-1 writes.
        mutant("missing barrier", m("    barrier\n", ""), &[Code::RaceRw]),
        // The y-load slips one element up: the top of each strip reads the
        // neighbor thread's first element while the neighbor is writing it.
        mutant(
            "shifted read crosses the slice seam",
            m("    vld     v2, x6             # y[i..]\n", "    addi    x7, x6, 8\n    vld     v2, x7\n"),
            &[Code::RaceRw],
        ),
        // Every thread stores its reduction to out[0] instead of out[tid].
        mutant(
            "shared accumulator store",
            m("    slli    x6, x10, 3\n    add     x5, x5, x6\n", ""),
            &[Code::RaceWw],
        ),
        // --- data-dependent addressing ---
        // The partial table is scattered through an index vector loaded
        // from the table itself. It starts zeroed, so in thread order each
        // thread scatters into its own slot, which the lower threads' index
        // loads read in the same epoch.
        mutant(
            "scatter through loaded indices",
            m(
                "    li      x8, 32             # byte stride = 8 * nthr_max\n    vsts    v2, x7, x8\n",
                "    vld     v4, x7\n    vstx    v2, x7, v4\n",
            ),
            &[Code::RaceRw],
        ),
    ]
}

/// The race mutant named `name`.
pub fn race_mutant(name: &str) -> Mutant {
    race_mutants().into_iter().find(|m| m.name == name).expect("race mutant in the corpus")
}
