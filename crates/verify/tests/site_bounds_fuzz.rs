//! Differential fuzz for the race checker's access sets: whenever the
//! walk certifies, [`vlt_verify::dlp::site_bounds`] must hold every byte
//! a real execution touches at each `(thread, site, barrier epoch)`.
//!
//! Programs come from the same deterministic generator the engine- and
//! DLP-differential fuzzes use (`crates/exec/tests/support/progen.rs`),
//! which emits content-steered indexed traffic — gathers, scatters, and
//! scalar accesses whose offsets are *loaded from a table* — inside
//! tid-sliced strip-mined loops. Each program is stepped thread by thread
//! under `FuncSim` while every access is collected from the dynamic
//! trace, then checked against the walk's set for its thread, site and
//! epoch. (The strip loops redefine `vl`, so the walk runs them
//! concretely; the extrapolated spans of accelerated loops are checked by
//! the `dlp.rs` unit tests.)
//!
//! The contract: the sets over-approximate (`static ⊇ dynamic`), and the
//! walk certifies these race-free programs, so the check is not vacuous.

use vlt_exec::{DynKind, FuncSim, Step};
use vlt_isa::asm::assemble;
use vlt_verify::dlp::{site_bounds, RangeSet};

#[path = "../../exec/tests/support/progen.rs"]
mod progen;
use progen::gen_program;

const SEEDS: u64 = 40;
const BUDGET: u64 = 4_000_000;

/// One dynamic access: thread, site, barrier epoch, byte range.
type Access = (usize, usize, u64, u64, u64);

/// Run the program in the walk's epoch-synchronous thread order and
/// collect every byte access.
fn dynamic_accesses(sim: &mut FuncSim, threads: usize) -> Vec<Access> {
    let mut out = Vec::new();
    let mut epochs = vec![0u64; threads];
    let mut steps = 0u64;
    while !sim.all_halted() {
        for (t, epoch) in epochs.iter_mut().enumerate() {
            while let Step::Inst(d) =
                sim.step_thread(t).expect("generated programs execute cleanly")
            {
                let sidx = d.sidx as usize;
                match d.kind {
                    DynKind::Mem { addr, size } => {
                        out.push((t, sidx, *epoch, addr, addr + u64::from(size)));
                    }
                    DynKind::VMem { addrs } => {
                        for &a in sim.addrs(addrs) {
                            out.push((t, sidx, *epoch, a, a + 8));
                        }
                    }
                    DynKind::Barrier => {
                        *epoch += 1;
                        break;
                    }
                    _ => {}
                }
                steps += 1;
                assert!(steps < BUDGET, "runaway program");
            }
        }
    }
    out
}

/// Does `set` hold every byte of `[lo, hi)`? The ranges are coalesced, so
/// one range must contain it.
fn holds(set: &RangeSet, lo: u64, hi: u64) -> bool {
    set.ranges().iter().any(|&(s, e)| s <= lo && hi <= e)
}

/// Check one program; returns the number of dynamic accesses checked, or
/// `None` when the walk did not certify.
fn check_case(seed: u64, threads: usize) -> Option<usize> {
    let src = gen_program(seed, threads);
    let prog = assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: bad program: {e}\n{src}"));
    let bounds = site_bounds(&prog, threads)?;
    let mut sim = FuncSim::new(&prog, threads);
    let observed = dynamic_accesses(&mut sim, threads);
    assert!(!observed.is_empty(), "seed {seed} x{threads}: program touched no memory");
    for &(t, sidx, e, lo, hi) in &observed {
        let set = bounds[t].get(&sidx).and_then(|per| per.get(&e)).unwrap_or_else(|| {
            panic!("seed {seed} x{threads}: tid {t} sidx {sidx} epoch {e} has no access set\n{src}")
        });
        assert!(
            holds(set, lo, hi),
            "seed {seed} x{threads}: tid {t} sidx {sidx} epoch {e}: dynamic [{lo:#x}, {hi:#x}) \
             escapes the set {:?}\n{src}",
            set.ranges()
        );
    }
    Some(observed.len())
}

/// 120 generated indexed programs: `SEEDS` seeds × three thread counts.
#[test]
fn site_bounds_cover_dynamic_accesses() {
    let mut certified = 0usize;
    let mut accesses = 0usize;
    for seed in 0..SEEDS {
        for threads in [1usize, 2, 4] {
            if let Some(n) = check_case(seed * 131 + threads as u64, threads) {
                certified += 1;
                accesses += n;
            }
        }
    }
    // The generated programs are race-free, so the walk must certify them
    // all, with plenty of dynamic traffic to check.
    assert_eq!(certified, 3 * SEEDS as usize, "the walk refused race-free programs");
    assert!(accesses > 10_000, "only {accesses} dynamic accesses observed");
}

/// A content-steered scatter: each thread scatters through an index
/// table into its own 1024-byte slice. The walk's set for the scatter is
/// exactly the indexed bytes, so its lowest and highest bytes are the
/// table's extremes inside the thread's slice.
#[test]
fn steered_scatter_stays_in_each_slice() {
    let src = "
        .data
    buf:
        .zero 2048
    idx:
        .dword 0, 64, 128, 896, 8, 72, 800, 16
        .text
        tid  x1
        la   x2, buf
        slli x3, x1, 10
        add  x2, x2, x3
        li   x13, 8
        setvl x15, x13
        la   x13, idx
        vld  v1, x13
        vid  v2
        vstx v2, x2, v1
        halt
    ";
    let prog = assemble(src).unwrap();
    let buf = prog.symbol("buf").unwrap();
    let scatter = prog.decoded().iter().position(|i| i.op == vlt_isa::Op::Vstx).unwrap();
    let bounds = site_bounds(&prog, 2).expect("disjoint slices certify");
    for (tid, sets) in bounds.iter().enumerate() {
        let set = &sets[&scatter][&0];
        let base = buf + 1024 * tid as u64;
        let (lo, hi) = (set.ranges()[0].0, set.ranges().last().unwrap().1);
        assert_eq!((lo, hi), (base, base + 904), "tid {tid}: {:?}", set.ranges());
        for off in [0u64, 64, 128, 896, 8, 72, 800, 16] {
            assert!(holds(set, base + off, base + off + 8), "tid {tid}: offset {off} missing");
        }
    }
}
