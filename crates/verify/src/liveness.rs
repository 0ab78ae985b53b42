//! Backward liveness analysis for the dead-write lint.
//!
//! A write is *dead* when no path from the defining instruction reaches a
//! read of the register before the next full overwrite (or thread halt).
//! The lattice is the powerset of register slots (bitsets per file plus
//! `vl`/`vm`), joined by union; the transfer is the usual
//! `gen ∪ (out ∖ kill)` with two VLT-specific refinements:
//!
//! * **Partial defs don't kill.** `vinsert`/`vfinsert` and masked vector
//!   writes leave part of the old destination value live, so they cannot
//!   retire an earlier write (see [`Inst::is_partial_def`]).
//! * **Zero idioms don't gen.** `xor x5, x5, x5` produces zero regardless
//!   of the source, so it does not keep an earlier write of `x5` alive
//!   (see [`Inst::is_zero_idiom`]).
//!
//! The pass declines to run on programs with indirect jumps (`jr`/`jalr`):
//! the continuation of an indirect jump is statically unknown, so nothing
//! can soundly be called dead.

use vlt_isa::{Inst, Op, OpClass, RegRef};

use crate::absint::RawDiag;
use crate::cfg::{Cfg, Term};
use crate::diag::Code;

/// Live-register set: one bit per architectural slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Live {
    x: u32,
    f: u32,
    v: u32,
    vl: bool,
    vm: bool,
}

impl Live {
    fn union(self, o: Live) -> Live {
        Live {
            x: self.x | o.x,
            f: self.f | o.f,
            v: self.v | o.v,
            vl: self.vl || o.vl,
            vm: self.vm || o.vm,
        }
    }

    fn contains(&self, r: RegRef) -> bool {
        match r {
            RegRef::I(i) => self.x & (1 << i) != 0,
            RegRef::F(i) => self.f & (1 << i) != 0,
            RegRef::V(i) => self.v & (1 << i) != 0,
            RegRef::Vl => self.vl,
            RegRef::Vm => self.vm,
        }
    }

    fn set(&mut self, r: RegRef) {
        match r {
            RegRef::I(i) => self.x |= 1 << i,
            RegRef::F(i) => self.f |= 1 << i,
            RegRef::V(i) => self.v |= 1 << i,
            RegRef::Vl => self.vl = true,
            RegRef::Vm => self.vm = true,
        }
    }

    fn clear(&mut self, r: RegRef) {
        match r {
            RegRef::I(i) => self.x &= !(1 << i),
            RegRef::F(i) => self.f &= !(1 << i),
            RegRef::V(i) => self.v &= !(1 << i),
            RegRef::Vl => self.vl = false,
            RegRef::Vm => self.vm = false,
        }
    }
}

/// Backward transfer of instruction `i` over a live-out set.
fn step_back(cfg: &Cfg, i: usize, live: &mut Live) {
    let inst = &cfg.insts[i];
    let (defs, uses) = &cfg.regs[i];
    if !inst.is_partial_def() {
        for &d in defs {
            live.clear(d);
        }
    }
    if !inst.is_zero_idiom() {
        for &u in uses {
            live.set(u);
        }
    }
}

/// True if flagging this instruction's write as dead is meaningful: the
/// instruction exists *only* to produce its register results (no memory
/// traffic, no control transfer, no machine-state side effects).
fn pure_def(inst: &Inst) -> bool {
    !matches!(inst.op.class(), OpClass::Store | OpClass::VStore | OpClass::Load | OpClass::VLoad)
        && !inst.is_control()
        && !matches!(
            inst.op,
            Op::SetVl | Op::VltCfg | Op::Barrier | Op::Region | Op::Halt | Op::Nop
        )
}

/// Run the dead-write pass. Returns raw findings in text order.
pub fn dead_writes(cfg: &Cfg) -> Vec<RawDiag> {
    if cfg.has_indirect {
        return Vec::new(); // continuations unknown: nothing is provably dead
    }
    let nb = cfg.blocks.len();
    let reachable = cfg.reachable();

    // Fixpoint: live-in per block, propagated to predecessors.
    let mut live_in: Vec<Live> = vec![Live::default(); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut live = block_out(cfg, &live_in, b);
            for i in (cfg.blocks[b].start..cfg.blocks[b].end).rev() {
                step_back(cfg, i, &mut live);
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }

    // Emission: replay each reachable block backwards and flag pure defs
    // whose every destination is dead at that point.
    let mut out: Vec<RawDiag> = Vec::new();
    for (b, _) in reachable.iter().enumerate().filter(|(_, r)| **r) {
        let mut live = block_out(cfg, &live_in, b);
        let mut found: Vec<RawDiag> = Vec::new();
        for i in (cfg.blocks[b].start..cfg.blocks[b].end).rev() {
            let inst = &cfg.insts[i];
            let defs = &cfg.regs[i].0;
            if pure_def(inst) && !defs.is_empty() && defs.iter().all(|d| !live.contains(*d)) {
                let names: Vec<String> = defs.iter().map(|d| format!("{d}")).collect();
                found.push((
                    Code::DeadWrite,
                    i,
                    format!("{} is written but never read afterwards", names.join(", ")),
                ));
            }
            step_back(cfg, i, &mut live);
        }
        found.reverse();
        out.extend(found);
    }
    out
}

/// The live-out set of block `b`: union of successors' live-ins. Blocks
/// ending in `halt` (or falling off the end) have empty live-out — the
/// thread is done and only memory survives.
fn block_out(cfg: &Cfg, live_in: &[Live], b: usize) -> Live {
    match cfg.blocks[b].term {
        Term::Halt | Term::OffEnd | Term::Indirect => Live::default(),
        _ => cfg.blocks[b].succs.iter().fold(Live::default(), |acc, &s| acc.union(live_in[s])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_isa::asm::assemble;

    fn raw(src: &str) -> Vec<RawDiag> {
        let p = assemble(src).unwrap();
        dead_writes(&Cfg::build(p.decoded()))
    }

    fn flags_idx(diags: &[RawDiag], i: usize) -> bool {
        diags.iter().any(|(c, s, _)| *c == Code::DeadWrite && *s == i)
    }

    #[test]
    fn dead_write_flagged() {
        let d = raw("li x1, 7\nli x1, 8\nsd x1, -8(sp)\nhalt\n");
        assert!(flags_idx(&d, 0), "{d:?}");
        assert!(!flags_idx(&d, 1));
    }

    #[test]
    fn store_keeps_value_live() {
        let d = raw("li x1, 7\nsd x1, -8(sp)\nhalt\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn loop_carried_value_live() {
        let d = raw("li x1, 4\nloop:\naddi x1, x1, -1\nbnez x1, loop\nhalt\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unread_result_at_halt_flagged() {
        let d = raw("li x1, 3\nadd x2, x1, x1\nhalt\n");
        assert!(flags_idx(&d, 1), "{d:?}");
    }

    #[test]
    fn masked_write_not_dead() {
        // The masked add partially overwrites v1; the vsplat stays live.
        let d = raw("li x1, 4\nsetvl x0, x1\nli x2, 5\nvsplat v1, x2\nvid v2\nvid v3\n\
             vseq.vv v2, v3\nvadd.vv v1, v2, v3, vm\nvst v1, sp\nhalt\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn indirect_disables_pass() {
        let d = raw("li x1, 7\njr x31\n");
        assert!(d.is_empty());
    }
}
