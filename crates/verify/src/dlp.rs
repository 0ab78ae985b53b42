//! Static DLP & occupancy analysis, and the concrete walk behind the race
//! checker's site bounds (DESIGN.md §13).
//!
//! Predicts, without running the functional simulator, the Table-4
//! quantities of the paper — the VL histogram, the vectorization
//! percentage, the scalar/vector operation ratio, and the stride/bank
//! behavior of vector memory ops — per program, per `region` marker, and
//! per barrier epoch, and turns them into VLTCFG partition advice
//! (`vladvise` in `vlt-bench`, `vlint --dlp` here). The same walk
//! certifies the per-(site, epoch) access sets [`site_bounds`] hands the
//! race analysis.
//!
//! # How the analysis stays exact
//!
//! The walker drives the real interpreter ([`vlt_exec::interp::step`]), so
//! every count it produces is *by construction* the count
//! [`vlt_exec::RunSummary`] would report — there is no separate abstract
//! semantics to drift out of sync. Two things are layered on top:
//!
//! * a **knownness shadow**: every register and byte of memory is tracked
//!   as trusted or untrusted. Values become untrusted when loop
//!   acceleration summarizes them. The walk *bails* the moment an
//!   untrusted value would steer control flow, address memory, or set `vl`
//!   — so a completed walk is exact, and an incomplete one is reported as
//!   a partial lower bound ([`DlpProfile::exact`] = false, `dlp-inexact`).
//! * **loop acceleration**: a self-looping basic block whose integer
//!   effect is verified linear (two trial iterations with equal deltas, a
//!   fixed point of the block's affine update, hence stable forever) has
//!   its remaining trip count solved in closed form from the loop branch,
//!   and `k` iterations of statistics are committed in O(1). Values the
//!   summary cannot reproduce (FP/vector state, moving stores) are marked
//!   untrusted rather than guessed, and the solved `k` is clamped to
//!   windows in which the closed form provably matches the wrapping
//!   machine arithmetic — underestimating `k` is always safe because the
//!   loop simply continues concretely. A walk that an untrusted value
//!   poisons is retried once with acceleration off.
//!
//! # Threads: one schedule that stands for all of them
//!
//! With [`DlpOptions::threads`] > 1 every thread steps its own
//! architectural state and knownness shadow over one shared memory image
//! and one set of untrusted bytes, in a fixed *epoch-synchronous*
//! schedule: each live thread, in thread order, runs up to and including
//! its next `barrier` (or to `halt`); then the barrier opens and the next
//! epoch starts. Each thread records, per (site, barrier epoch), the
//! bytes it accessed; an accelerated loop contributes its extrapolated
//! span, a superset of what the skipped iterations touched.
//!
//! Programs are deterministic given a schedule; the only nondeterminism
//! is how threads interleave between barriers. Call a *conflict* two
//! threads touching a common byte in the same epoch, at least one of them
//! writing. Induction over epochs: if no epoch `< k` has a conflict
//! (compared as sets, so the claim does not depend on the order inside an
//! epoch), memory at the start of epoch `k` is the same under every
//! schedule, each thread's epoch-`k` execution depends only on that
//! memory and its own state, and its epoch-`k` accesses are the same
//! under every schedule. A walk in which every thread reaches `halt`
//! unpoisoned and whose recorded sets hold no conflict is therefore
//! exact for every interleaving: its counts are the functional
//! simulator's, and its sets bound every access any schedule makes
//! ([`site_bounds`]). A conflict leaves the profile inexact with a note
//! naming the epoch and one site of each thread; a conflicting
//! accelerated walk is retried without acceleration, whose sets are
//! exact.

use std::collections::BTreeMap;

use vlt_exec::{
    interp, AddrArena, ArchState, DecodedProgram, DynInst, DynKind, Memory, StaticInst,
};
use vlt_isa::{disasm, Op, OpClass, Program, RegRef, VMemPattern, MAX_VL};

use crate::cfg::{Cfg, Term};
use crate::diag::{Code, Diagnostic};

/// Upper bound on a single committed trip count, far above any real loop
/// but small enough that `k * per_iteration_counts` cannot overflow `u64`.
const K_CAP: i128 = 1 << 40;

/// L2 bank count for the bank-conflict classification of strided and
/// indexed vector memory ops. The timing model's L2 has 16 banks
/// (`MemConfig::l2_banks`); matching it would change the
/// `dlp-stride-conflict` findings, so it waits for a deliberate change to
/// the model.
const DLP_BANKS: usize = 8;

/// Maximum number of per-barrier-epoch profiles kept; later epochs
/// accumulate into the last slot.
const EPOCH_CAP: usize = 64;

/// A (site, epoch) access set of more ranges than this collapses to its
/// hull. The cap must comfortably exceed the element count of the
/// scatters the race analysis' permutation lemma certifies: a hull can
/// only prune, never tell interleaved-but-disjoint sets apart.
const MAX_RANGES: usize = 8192;

/// Per-thread cap on distinct (site, epoch) access sets.
const MAX_KEYS: usize = 1 << 16;

/// Concrete steps per thread the [`site_bounds`] walk may take.
const BOUNDS_BUDGET: u64 = 20_000_000;

/// Options for [`analyze`].
#[derive(Debug, Clone)]
pub struct DlpOptions {
    /// Thread count to analyze under (1 = the serial walk).
    pub threads: usize,
    /// Concrete interpreter steps allowed per thread before the profile is
    /// cut off as a partial lower bound.
    pub budget: u64,
}

impl Default for DlpOptions {
    fn default() -> Self {
        DlpOptions { threads: 1, budget: 50_000_000 }
    }
}

// ---------------------------------------------------------------------------
// Byte-range sets
// ---------------------------------------------------------------------------

/// A set of bytes: disjoint, coalesced half-open ranges sorted by start.
/// Tracks the walk's untrusted memory and each site's access set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet(Vec<(u64, u64)>);

impl RangeSet {
    /// Add `[lo, hi)`, merging every range it overlaps or touches.
    pub(crate) fn insert(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        let i = self.0.partition_point(|&(_, e)| e < lo);
        let (mut lo, mut hi, mut j) = (lo, hi, i);
        while j < self.0.len() && self.0[j].0 <= hi {
            lo = lo.min(self.0[j].0);
            hi = hi.max(self.0[j].1);
            j += 1;
        }
        self.0.splice(i..j, [(lo, hi)]);
    }

    /// Drop `[lo, hi)`, trimming the ranges that straddle its ends.
    pub(crate) fn remove(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        let i = self.0.partition_point(|&(_, e)| e <= lo);
        let j = i + self.0[i..].partition_point(|&(s, _)| s < hi);
        if i < j {
            let (s, e) = (self.0[i].0, self.0[j - 1].1);
            self.0.splice(i..j, [(s, lo), (hi, e)].into_iter().filter(|&(a, b)| a < b));
        }
    }

    /// Does the set hold a byte of `[lo, hi)`?
    pub(crate) fn intersects(&self, lo: u64, hi: u64) -> bool {
        let i = self.0.partition_point(|&(_, e)| e <= lo);
        lo < hi && self.0.get(i).is_some_and(|&(s, _)| s < hi)
    }

    /// Do the two sets share a byte?
    pub fn overlaps(&self, other: &RangeSet) -> bool {
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].0 < b[j].1 && b[j].0 < a[i].1 {
                return true;
            }
            if a[i].1 <= b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// The ranges, sorted by start.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.0
    }

    /// The union of several sets.
    fn union<'a>(sets: impl IntoIterator<Item = &'a RangeSet>) -> RangeSet {
        let mut all: Vec<(u64, u64)> = sets.into_iter().flat_map(|s| s.0.iter().copied()).collect();
        all.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(all.len());
        for (lo, hi) in all {
            match out.last_mut() {
                Some((_, e)) if lo <= *e => *e = (*e).max(hi),
                _ => out.push((lo, hi)),
            }
        }
        RangeSet(out)
    }
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// Operation counts in exactly the shape of [`vlt_exec::RunSummary`]: the
/// statistic methods reproduce its formulas so static and dynamic numbers
/// are comparable digit for digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Dynamic instructions (including barriers/halts, like `RunSummary`).
    pub insts: u64,
    /// Scalar operations (vector bookkeeping/system ops excluded).
    pub scalar_ops: u64,
    /// Vector instructions issued.
    pub vector_insts: u64,
    /// Vector element operations (post-mask).
    pub elem_ops: u64,
    /// `vl_histogram[v]` = vector instructions executed at VL `v`.
    pub vl_histogram: [u64; MAX_VL + 1],
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            insts: 0,
            scalar_ops: 0,
            vector_insts: 0,
            elem_ops: 0,
            vl_histogram: [0; MAX_VL + 1],
        }
    }
}

impl Profile {
    /// Record one dynamic instruction, mirroring the functional
    /// simulator's `record_into` (plus the `insts` count).
    fn record(&mut self, class: OpClass, d: &DynInst) {
        self.insts += 1;
        if class.is_vector() {
            self.vector_insts += 1;
            self.elem_ops += d.elems() as u64;
            if d.vl > 0 {
                self.vl_histogram[(d.vl as usize).min(MAX_VL)] += 1;
            }
        } else if !matches!(d.kind, DynKind::Barrier | DynKind::Halt | DynKind::VltCfg { .. }) {
            self.scalar_ops += 1;
        }
    }

    /// Add `k` copies of `other` (loop-acceleration commit, merging).
    fn add_scaled(&mut self, other: &Profile, k: u64) {
        self.insts += other.insts * k;
        self.scalar_ops += other.scalar_ops * k;
        self.vector_insts += other.vector_insts * k;
        self.elem_ops += other.elem_ops * k;
        for (a, b) in self.vl_histogram.iter_mut().zip(other.vl_histogram.iter()) {
            *a += b * k;
        }
    }

    /// Percentage of operations executed as vector element operations.
    pub fn pct_vectorization(&self) -> f64 {
        let total = (self.scalar_ops + self.elem_ops) as f64;
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.elem_ops as f64 / total
        }
    }

    /// Average vector length over vector instructions with a VL.
    pub fn avg_vl(&self) -> f64 {
        let count: u64 = self.vl_histogram.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let weighted: u64 = self.vl_histogram.iter().enumerate().map(|(vl, n)| vl as u64 * n).sum();
        weighted as f64 / count as f64
    }

    /// The most frequent vector lengths, most common first (up to `k`).
    pub fn common_vls(&self, k: usize) -> Vec<usize> {
        let mut pairs: Vec<(usize, u64)> = self
            .vl_histogram
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(vl, n)| (vl, *n))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.into_iter().take(k).map(|(vl, _)| vl).collect()
    }
}

/// Per-`region` profile with an anchor for diagnostics.
#[derive(Debug, Clone)]
pub struct RegionProfile {
    /// The `region` marker value (0 = unannotated/serial).
    pub region: u32,
    /// First static instruction executed under this region.
    pub first_sidx: usize,
    /// Operation counts attributed to the region.
    pub profile: Profile,
}

/// Static profile of one vector memory instruction site.
#[derive(Debug, Clone)]
pub struct VMemSite {
    /// Static instruction index.
    pub sidx: usize,
    /// Unit/strided/indexed address pattern.
    pub pattern: VMemPattern,
    /// True for stores.
    pub write: bool,
    /// Dynamic executions of this site.
    pub execs: u64,
    /// Element accesses issued by this site (post-mask).
    pub elems: u64,
    /// Smallest byte stride observed (unit stride records 8; indexed 0).
    pub min_stride: i64,
    /// Largest byte stride observed.
    pub max_stride: i64,
    /// Executions whose element addresses piled onto few L2 banks
    /// (fewer than half the banks while moving at least a bank's worth
    /// of elements).
    pub conflict_execs: u64,
}

/// Static profile of one `setvl` site.
#[derive(Debug, Clone)]
pub struct SetVlSite {
    /// Static instruction index.
    pub sidx: usize,
    /// Dynamic executions.
    pub execs: u64,
    /// Smallest requested length observed (pre-clamp).
    pub min_request: u64,
    /// Largest requested length observed.
    pub max_request: u64,
    /// Whether the clamped result register was ever subsequently read —
    /// a site that discards it cannot re-chunk under a smaller MVL.
    pub result_read: bool,
}

/// The static DLP profile of a program: totals, per-region and per-epoch
/// splits, and per-site memory/`setvl` behavior.
#[derive(Debug, Clone)]
pub struct DlpProfile {
    /// True when every thread reached `halt` without trusting an unknown
    /// value and no two threads conflicted within a barrier epoch: all
    /// counts equal what the functional simulator reports. False
    /// profiles are partial lower bounds.
    pub exact: bool,
    /// Human-readable reasons the walk went inexact, if any.
    pub notes: Vec<String>,
    /// Thread count the analysis ran under.
    pub threads: usize,
    /// Whole-program counts (all threads).
    pub total: Profile,
    /// Per-region counts, sorted by region id.
    pub regions: Vec<RegionProfile>,
    /// Per-barrier-epoch counts (index = epoch; the 64th slot also holds
    /// every later epoch).
    pub epoch_profiles: Vec<Profile>,
    /// Barrier epochs entered (max over threads).
    pub epochs: u64,
    /// Vector memory sites, sorted by static index.
    pub vmem_sites: Vec<VMemSite>,
    /// `setvl` sites, sorted by static index.
    pub setvl_sites: Vec<SetVlSite>,
}

// ---------------------------------------------------------------------------
// The walker
// ---------------------------------------------------------------------------

/// One thread's share of a walk.
#[derive(Debug, Clone, Default)]
struct WalkOut {
    total: Profile,
    regions: BTreeMap<u32, RegionProfile>,
    epoch_profiles: Vec<Profile>,
    epochs: u64,
    vmem_sites: BTreeMap<usize, VMemSite>,
    setvl_sites: BTreeMap<usize, SetVlSite>,
    /// Per-(site, barrier-epoch) access sets, kept when the walk records
    /// them.
    sets: SiteBounds,
    /// Distinct (site, epoch) keys in `sets`.
    keys: usize,
}

impl WalkOut {
    /// Add `[lo, lo + len)` to site `sidx`'s access set in `epoch`.
    fn record(&mut self, sidx: usize, epoch: u64, lo: u64, len: u64) -> Result<(), Bail> {
        let Some(hi) = lo.checked_add(len) else {
            return Err(Bail::Fatal(format!(
                "access at {lo:#x} wraps the address space (sidx {sidx})"
            )));
        };
        let per = self.sets.entry(sidx).or_default();
        if !per.contains_key(&epoch) {
            self.keys += 1;
            if self.keys > MAX_KEYS {
                return Err(Bail::Fatal(format!("more than {MAX_KEYS} (site, epoch) access sets")));
            }
        }
        let set = per.entry(epoch).or_default();
        set.insert(lo, hi);
        if set.0.len() > MAX_RANGES {
            // A hull is a superset: sound for pruning, and a false
            // conflict only costs exactness.
            *set = RangeSet(vec![(set.0[0].0, set.0[set.0.len() - 1].1)]);
        }
        Ok(())
    }
}

/// Why a walk stopped before `halt`.
enum Bail {
    /// An untrusted value was about to steer execution. A walk without
    /// acceleration may still succeed.
    Poison(String),
    /// Concrete step budget exhausted.
    Budget,
    /// The program faulted, provably never terminates, or outgrew the
    /// access-set caps.
    Fatal(String),
}

/// One accelerable self-loop block.
#[derive(Debug, Clone, Copy)]
struct AccelBlock {
    head: usize,
    branch: usize, // last sidx; conditional branch whose taken target is `head`
}

/// What kind of memory record a trial run captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Load,
    /// Scalar integer store: `value` is the full pre-truncation register
    /// value, extrapolable when the address is loop-invariant.
    IntStore {
        value: u64,
    },
    /// FP or vector store: values are not extrapolable.
    OtherStore,
}

#[derive(Debug, Clone, Copy)]
struct SiteRec {
    sidx: usize,
    lo: u64,
    hi: u64, // exclusive
    elems: u64,
    conflict: bool,
    kind: SiteKind,
}

/// Trial state for one candidate loop block: two fully recorded runs.
struct Trial {
    block: AccelBlock,
    runs: usize,
    /// Head-state snapshots: entry of run 0, entry of run 1.
    x: [[u64; 32]; 2],
    prof: [Profile; 2],
    /// Input values of non-affine integer-writing instructions, in
    /// execution order (must repeat exactly between runs).
    nl_vals: [Vec<u64>; 2],
    sites: [Vec<SiteRec>; 2],
    /// Loop-branch operand values (rs1, rs2) per run.
    branch_vals: [[u64; 2]; 2],
}

/// What every thread of one walk shares.
struct Shared<'a> {
    prog: &'a DecodedProgram,
    budget: u64,
    mem: Memory,
    arena: AddrArena,
    /// Bytes whose contents the walk no longer tracks.
    unknown: RangeSet,
    /// Loop blocks to accelerate (empty = a fully concrete walk).
    accel_blocks: BTreeMap<usize, AccelBlock>,
    /// Keep per-(site, epoch) access sets.
    record: bool,
}

/// One thread's walk state.
struct Thread {
    st: ArchState,
    /// Knownness shadow: bit r set = register holds its true value.
    xk: u32,
    fk: u32,
    vk: u32,
    vm_known: bool,
    steps: u64,
    epoch: usize,
    out: WalkOut,
    /// `setvl` result provenance: which site last wrote each x register.
    setvl_origin: [Option<usize>; 32],
    trial: Option<Trial>,
}

/// Identify self-looping straight-line blocks whose dynamics the trial
/// machinery can verify: no instruction may change `vl`/`vm`/the system
/// state, pull loop-varying data from memory into the integer file, or
/// move lane data into it (those paths defeat the two-run linearity
/// argument — see the module docs).
fn accel_candidates(prog: &DecodedProgram) -> BTreeMap<usize, AccelBlock> {
    let mut out = BTreeMap::new();
    if prog.insts.is_empty() {
        // No text, no CFG: the walk leaves the text segment at its first
        // step and reports an empty, inexact profile.
        return out;
    }
    let insts: Vec<_> = prog.insts.iter().map(|si| si.inst).collect();
    let cfg = Cfg::build(insts);
    'blocks: for (bid, b) in cfg.blocks.iter().enumerate() {
        let Term::Branch { taken, .. } = b.term else { continue };
        if taken != bid || b.end == b.start {
            continue;
        }
        for si in &prog.insts[b.start..b.end] {
            let op = si.inst.op;
            let bad = matches!(si.class, OpClass::Sys | OpClass::Jump)
                || matches!(op, Op::Ld | Op::Lw | Op::Lwu | Op::Lb | Op::Lbu)
                || op.scalar_result_from_lanes()
                || si.defs.iter().any(|d| matches!(d, RegRef::Vm | RegRef::Vl));
            if bad {
                continue 'blocks;
            }
            // An indexed vector access whose index register is rewritten
            // inside the block has non-rigid per-element addresses.
            if matches!(op, Op::Vldx | Op::Vstx)
                && prog.insts[b.start..b.end]
                    .iter()
                    .any(|o| o.defs.contains(&RegRef::V(si.inst.rs2)))
            {
                continue 'blocks;
            }
        }
        out.insert(b.start, AccelBlock { head: b.start, branch: b.end - 1 });
    }
    out
}

/// Is `op` one of the vector-compare opcodes (partial mask writers)?
fn is_vcmp(op: Op) -> bool {
    matches!(op, Op::Vseq | Op::Vsne | Op::Vslt | Op::Vsge | Op::Vfeq | Op::Vflt | Op::Vfle)
}

impl Thread {
    fn new(prog: &DecodedProgram, tid: usize, nthr: usize) -> Self {
        Thread {
            st: ArchState::new(prog.program.entry, tid, nthr),
            xk: u32::MAX,
            fk: u32::MAX,
            vk: u32::MAX,
            vm_known: true,
            steps: 0,
            epoch: 0,
            out: WalkOut { epoch_profiles: vec![Profile::default()], ..WalkOut::default() },
            setvl_origin: [None; 32],
            trial: None,
        }
    }

    #[inline]
    fn known_x(&self, r: u8) -> bool {
        r == 0 || self.xk & (1 << r) != 0
    }

    #[inline]
    fn set_known_x(&mut self, r: u8, k: bool) {
        if r != 0 {
            if k {
                self.xk |= 1 << r;
            } else {
                self.xk &= !(1 << r);
            }
        }
    }

    /// Would executing `si` let an untrusted value steer the walk?
    fn unknown_critical(&self, prog: &DecodedProgram, si: &StaticInst) -> Option<String> {
        let inst = &si.inst;
        let bad_x = |r: u8| !self.known_x(r);
        let reason = match si.class {
            OpClass::Branch if bad_x(inst.rs1) || bad_x(inst.rs2) => "branch condition",
            OpClass::Jump if matches!(inst.op, Op::Jr | Op::Jalr) && bad_x(inst.rs1) => {
                "indirect jump target"
            }
            OpClass::Load | OpClass::Store if bad_x(inst.rs1) => "scalar access address",
            OpClass::VLoad | OpClass::VStore => {
                if bad_x(inst.rs1) {
                    "vector access base"
                } else if matches!(inst.op, Op::Vlds | Op::Vsts) && bad_x(inst.rs2) {
                    "vector access stride"
                } else if matches!(inst.op, Op::Vldx | Op::Vstx) && self.vk & (1 << inst.rs2) == 0 {
                    "vector access index"
                } else if inst.masked && !self.vm_known {
                    "vector access mask"
                } else {
                    return None;
                }
            }
            _ if inst.op == Op::SetVl && bad_x(inst.rs1) => "setvl request",
            _ if inst.op == Op::VltCfg && bad_x(inst.rs1) => "vltcfg operand",
            _ => return None,
        };
        Some(format!("{reason} depends on a value the walk no longer tracks (sidx {})", {
            prog.index_of(self.st.pc).unwrap_or(0)
        }))
    }

    /// Step up to and including the next `barrier`, or to `halt`.
    fn run_to_barrier(&mut self, sh: &mut Shared) -> Result<(), Bail> {
        let prog = sh.prog;
        while !self.st.halted {
            let Some(sidx) = prog.index_of(self.st.pc) else {
                return Err(Bail::Fatal(format!(
                    "walk left the text segment at pc {:#x}",
                    self.st.pc
                )));
            };
            let si = prog.get(sidx);

            if let Some(reason) = self.unknown_critical(prog, si) {
                return Err(Bail::Poison(reason));
            }
            if self.steps >= sh.budget {
                return Err(Bail::Budget);
            }

            // Trial bookkeeping: abandon a trial whose control left the
            // block, start one at a candidate head.
            if let Some(t) = &self.trial {
                if sidx < t.block.head || sidx > t.block.branch {
                    self.trial = None;
                }
            }
            if self.trial.is_none() {
                if let Some(&block) = sh.accel_blocks.get(&sidx) {
                    self.trial = Some(Trial {
                        block,
                        runs: 0,
                        x: [self.st.x, [0; 32]],
                        prof: [Profile::default(), Profile::default()],
                        nl_vals: [Vec::new(), Vec::new()],
                        sites: [Vec::new(), Vec::new()],
                        branch_vals: [[0; 2]; 2],
                    });
                }
            }

            // Pre-capture trial inputs (the step may overwrite its own
            // sources) and the stored value / stride for site records.
            let mut nl_capture: Option<Vec<u64>> = None;
            let mut store_value = 0u64;
            if let Some(t) = &self.trial {
                if t.runs < 2 {
                    let inst = &si.inst;
                    let writes_x = si.defs.iter().any(|d| matches!(d, RegRef::I(_)));
                    if writes_x && !matches!(inst.op, Op::Add | Op::Sub | Op::Addi) {
                        let vals: Vec<u64> = si
                            .uses
                            .iter()
                            .filter_map(|u| match u {
                                RegRef::I(r) => Some(self.st.get_x(*r)),
                                _ => None,
                            })
                            .collect();
                        nl_capture = Some(vals);
                    }
                    // Strided vector accesses must also hold their stride
                    // constant for span extrapolation to be rigid.
                    if matches!(inst.op, Op::Vlds | Op::Vsts) {
                        nl_capture.get_or_insert_with(Vec::new).push(self.st.get_x(inst.rs2));
                    }
                    if matches!(inst.op, Op::Sd | Op::Sw | Op::Sb) {
                        store_value = self.st.get_x(inst.rd);
                    }
                    if sidx == t.block.branch {
                        let vals = [self.st.get_x(inst.rs1), self.st.get_x(inst.rs2)];
                        if let Some(t) = &mut self.trial {
                            t.branch_vals[t.runs] = vals;
                        }
                    }
                }
            }

            let d = interp::step(&mut self.st, &mut sh.mem, prog, &mut sh.arena)
                .map_err(|e| Bail::Fatal(format!("fault: {e}")))?;
            self.steps += 1;
            self.absorb(sh, si, &d, nl_capture, store_value)?;
            if d.kind == DynKind::Barrier {
                break;
            }
        }
        Ok(())
    }

    /// Record one concretely executed instruction: statistics, knownness
    /// propagation, site bookkeeping, and trial progress.
    fn absorb(
        &mut self,
        sh: &mut Shared,
        si: &StaticInst,
        d: &DynInst,
        nl_capture: Option<Vec<u64>>,
        store_value: u64,
    ) -> Result<(), Bail> {
        let sidx = d.sidx as usize;
        let inst = &si.inst;

        // ---- statistics ----
        self.out.total.record(si.class, d);
        let region = self.st.region;
        let entry = self.out.regions.entry(region).or_insert_with(|| RegionProfile {
            region,
            first_sidx: sidx,
            profile: Profile::default(),
        });
        entry.profile.record(si.class, d);
        let ei = self.epoch.min(EPOCH_CAP - 1).min(self.out.epoch_profiles.len() - 1);
        self.out.epoch_profiles[ei].record(si.class, d);
        let ek = self.epoch as u64;
        if matches!(d.kind, DynKind::Barrier) {
            self.epoch += 1;
            self.out.epochs = self.out.epochs.max(self.epoch as u64);
            if self.epoch < EPOCH_CAP && self.epoch >= self.out.epoch_profiles.len() {
                self.out.epoch_profiles.push(Profile::default());
            }
        }

        // ---- setvl provenance & site stats ----
        for u in &si.uses {
            if let RegRef::I(r) = u {
                if let Some(site) = self.setvl_origin[*r as usize] {
                    if let Some(s) = self.out.setvl_sites.get_mut(&site) {
                        s.result_read = true;
                    }
                }
            }
        }
        for def in &si.defs {
            if let RegRef::I(r) = def {
                self.setvl_origin[*r as usize] = None;
            }
        }
        if inst.op == Op::SetVl {
            // Request value: reconstruct the pre-clamp request from rs1.
            // rs1 may equal rd (overwritten), so use the captured value if
            // a trial recorded it; otherwise the clamped result bounds it.
            let req = if inst.rs1 == inst.rd {
                self.st.vl as u64 // clamped: best available lower bound
            } else {
                self.st.get_x(inst.rs1)
            };
            let s = self.out.setvl_sites.entry(sidx).or_insert_with(|| SetVlSite {
                sidx,
                execs: 0,
                min_request: u64::MAX,
                max_request: 0,
                result_read: false,
            });
            s.execs += 1;
            s.min_request = s.min_request.min(req);
            s.max_request = s.max_request.max(req);
            if inst.rd != 0 {
                self.setvl_origin[inst.rd as usize] = Some(sidx);
            }
        }

        // ---- knownness propagation & access sets ----
        let inputs_known = si.uses.iter().all(|u| match u {
            RegRef::I(r) => self.known_x(*r),
            RegRef::F(r) => self.fk & (1 << r) != 0,
            RegRef::V(r) => self.vk & (1 << r) != 0,
            RegRef::Vm => self.vm_known,
            RegRef::Vl => true,
        });
        let mut site_rec: Option<SiteRec> = None;
        let mut loaded_tainted = false;
        match d.kind {
            DynKind::Mem { addr, size } => {
                if sh.record {
                    self.out.record(sidx, ek, addr, u64::from(size))?;
                }
                let (lo, hi) = (addr, addr.wrapping_add(size as u64));
                if si.class == OpClass::Load {
                    loaded_tainted = sh.unknown.intersects(lo, hi);
                    site_rec = Some(SiteRec {
                        sidx,
                        lo,
                        hi,
                        elems: 0,
                        conflict: false,
                        kind: SiteKind::Load,
                    });
                } else {
                    if inputs_known {
                        sh.unknown.remove(lo, hi);
                    } else {
                        sh.unknown.insert(lo, hi);
                    }
                    let kind = if matches!(inst.op, Op::Sd | Op::Sw | Op::Sb) {
                        SiteKind::IntStore { value: store_value }
                    } else {
                        SiteKind::OtherStore
                    };
                    site_rec = Some(SiteRec { sidx, lo, hi, elems: 0, conflict: false, kind });
                }
            }
            DynKind::VMem { addrs } => {
                let slice = sh.arena.slice(addrs);
                let elems = slice.len() as u64;
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                let mut banks_hit = 0u64;
                for &a in slice {
                    lo = lo.min(a);
                    hi = hi.max(a.wrapping_add(8));
                    banks_hit |= 1 << ((a >> 3) as usize % DLP_BANKS);
                }
                let write = si.class == OpClass::VStore;
                let conflict = {
                    let distinct = banks_hit.count_ones() as u64;
                    elems >= DLP_BANKS as u64 && distinct * 2 <= DLP_BANKS as u64
                };
                if elems > 0 {
                    if write {
                        // Per-element strong/weak update.
                        for &a in slice {
                            if inputs_known {
                                sh.unknown.remove(a, a.wrapping_add(8));
                            } else {
                                sh.unknown.insert(a, a.wrapping_add(8));
                            }
                        }
                    } else {
                        loaded_tainted =
                            slice.iter().any(|&a| sh.unknown.intersects(a, a.wrapping_add(8)));
                    }
                    if sh.record {
                        for &a in slice {
                            self.out.record(sidx, ek, a, 8)?;
                        }
                    }
                    site_rec = Some(SiteRec {
                        sidx,
                        lo,
                        hi,
                        elems,
                        conflict,
                        kind: if write { SiteKind::OtherStore } else { SiteKind::Load },
                    });
                }
                // Stride bookkeeping (Table 4's stride column).
                let stride = match inst.op.vmem_pattern() {
                    Some(VMemPattern::Unit) => 8,
                    Some(VMemPattern::Strided) => self.st.get_x(inst.rs2) as i64,
                    _ => 0,
                };
                let v = self.out.vmem_sites.entry(sidx).or_insert_with(|| VMemSite {
                    sidx,
                    pattern: inst.op.vmem_pattern().unwrap_or(VMemPattern::Unit),
                    write,
                    execs: 0,
                    elems: 0,
                    min_stride: i64::MAX,
                    max_stride: i64::MIN,
                    conflict_execs: 0,
                });
                v.execs += 1;
                v.elems += elems;
                v.min_stride = v.min_stride.min(stride);
                v.max_stride = v.max_stride.max(stride);
                v.conflict_execs += conflict as u64;
            }
            _ => {}
        }

        let ok = inputs_known && !loaded_tainted;
        for def in &si.defs {
            match def {
                RegRef::I(r) => self.set_known_x(*r, ok),
                RegRef::F(r) => {
                    if ok {
                        self.fk |= 1 << r;
                    } else {
                        self.fk &= !(1 << r);
                    }
                }
                RegRef::V(r) => {
                    let partial = inst.masked || (d.vl as usize) < MAX_VL;
                    let known = ok && (!partial || self.vk & (1 << r) != 0);
                    if known {
                        self.vk |= 1 << r;
                    } else {
                        self.vk &= !(1 << r);
                    }
                }
                RegRef::Vm => {
                    let partial = is_vcmp(inst.op) && (d.vl as usize) < MAX_VL;
                    self.vm_known = ok && (!partial || self.vm_known);
                }
                RegRef::Vl => {}
            }
        }

        // ---- trial progress ----
        if let Some(t) = &mut self.trial {
            if t.runs < 2 {
                let r = t.runs;
                t.prof[r].record(si.class, d);
                if let Some(vals) = nl_capture {
                    t.nl_vals[r].extend(vals);
                }
                if let Some(rec) = site_rec {
                    t.sites[r].push(rec);
                }
                if sidx == t.block.branch {
                    let completed = matches!(d.kind, DynKind::Branch { taken: true, .. });
                    if completed {
                        t.runs += 1;
                        if t.runs == 1 {
                            t.x[1] = self.st.x;
                        } else {
                            return self.try_commit(sh);
                        }
                    } else {
                        self.trial = None; // loop exited during trials
                    }
                }
            }
        }
        Ok(())
    }

    /// Two trial runs are complete: verify the block's integer dynamics
    /// are a stable linear recurrence, solve the loop branch for the
    /// remaining trip count, and commit it in O(1). On any verification
    /// failure the trial is simply dropped — execution continues
    /// concretely, which is always sound.
    fn try_commit(&mut self, sh: &mut Shared) -> Result<(), Bail> {
        let t = self.trial.take().expect("trial present");
        let head_x = self.st.x; // state after run 2, at block head

        // Per-register deltas must repeat: a fixed vector of the block's
        // affine update, hence the delta for every future iteration.
        let mut delta = [0u64; 32];
        for r in 0..32 {
            let d1 = t.x[1][r].wrapping_sub(t.x[0][r]);
            let d2 = head_x[r].wrapping_sub(t.x[1][r]);
            if d1 != d2 {
                return Ok(());
            }
            delta[r] = d1;
        }
        // Non-affine integer results must have had identical inputs, and
        // both runs must have followed the identical path.
        if t.nl_vals[0] != t.nl_vals[1] || t.prof[0] != t.prof[1] {
            return Ok(());
        }
        if t.sites[0].len() != t.sites[1].len() {
            return Ok(());
        }
        // Memory sites must translate rigidly between runs.
        let mut site_deltas: Vec<i64> = Vec::with_capacity(t.sites[1].len());
        for (a, b) in t.sites[0].iter().zip(t.sites[1].iter()) {
            if a.sidx != b.sidx || a.elems != b.elems {
                return Ok(());
            }
            let dlo = b.lo.wrapping_sub(a.lo) as i64;
            let dhi = b.hi.wrapping_sub(a.hi) as i64;
            if dlo != dhi {
                return Ok(());
            }
            site_deltas.push(dlo);
        }

        // Solve the loop branch: how many further iterations stay taken?
        let br = &sh.prog.get(t.block.branch).inst;
        let (a0, b0) = (t.branch_vals[1][0], t.branch_vals[1][1]);
        let (da, db) = (
            t.branch_vals[1][0].wrapping_sub(t.branch_vals[0][0]) as i64,
            t.branch_vals[1][1].wrapping_sub(t.branch_vals[0][1]) as i64,
        );
        let signed = matches!(br.op, Op::Blt | Op::Bge);
        let (av, bv): (i128, i128) =
            if signed { (a0 as i64 as i128, b0 as i64 as i128) } else { (a0 as i128, b0 as i128) };
        let (lo_w, hi_w): (i128, i128) =
            if signed { (i64::MIN as i128, i64::MAX as i128) } else { (0, u64::MAX as i128) };
        // Window in which the closed-form trajectory matches wrapping
        // machine arithmetic, per operand.
        let window = |v: i128, d: i128| -> Option<i128> {
            if d == 0 {
                None // unconstrained
            } else if d > 0 {
                Some((hi_w - v) / d)
            } else {
                Some((v - lo_w) / -d)
            }
        };
        let mut cap: Option<i128> = Some(K_CAP);
        let mut tighten = |w: Option<i128>| {
            if let Some(w) = w {
                cap = Some(cap.map_or(w, |c| c.min(w)));
            }
        };
        tighten(window(av, da as i128));
        tighten(window(bv, db as i128));
        // Extrapolated site endpoints must stay inside [0, 2^63).
        for (rec, &d) in t.sites[1].iter().zip(site_deltas.iter()) {
            if rec.lo as i128 >= 1 << 62 || rec.hi as i128 >= 1 << 62 {
                return Ok(());
            }
            tighten(window(rec.lo as i128, d as i128));
            tighten(window(rec.hi as i128, d as i128));
        }

        // g(j) = g0 + j*dg is the branch-operand difference after j more
        // iterations; the taken predicate in terms of g decides the count.
        let g0 = av - bv;
        let dg = (da as i128) - (db as i128);
        let n_cond: Option<i128> = match br.op {
            Op::Blt | Op::Bltu => {
                if dg <= 0 {
                    if g0 + dg < 0 {
                        None
                    } else {
                        Some(0)
                    }
                } else {
                    Some(((-1 - g0).div_euclid(dg)).max(0))
                }
            }
            Op::Bge | Op::Bgeu => {
                if dg >= 0 {
                    if g0 + dg >= 0 {
                        None
                    } else {
                        Some(0)
                    }
                } else {
                    Some((g0.div_euclid(-dg)).max(0))
                }
            }
            Op::Beq => {
                if dg == 0 {
                    if g0 == 0 {
                        None
                    } else {
                        Some(0)
                    }
                } else if g0 + dg == 0 {
                    Some(1)
                } else {
                    Some(0)
                }
            }
            Op::Bne => {
                if dg == 0 {
                    if g0 != 0 {
                        None
                    } else {
                        Some(0)
                    }
                } else {
                    let num = -g0;
                    if num % dg == 0 && num / dg >= 1 {
                        Some(num / dg - 1)
                    } else {
                        None
                    }
                }
            }
            _ => Some(0),
        };

        let k = match (n_cond, cap) {
            (None, None) => {
                // Nothing ever changes and the branch stays taken: the
                // program provably never terminates.
                return Err(Bail::Fatal(format!("non-terminating loop at sidx {}", t.block.head)));
            }
            (None, Some(c)) => c,
            (Some(n), None) => n,
            (Some(n), Some(c)) => n.min(c),
        };
        if k <= 0 {
            return Ok(());
        }
        let k = k as u64;

        // ---- commit ----
        let region = self.st.region;
        self.out.total.add_scaled(&t.prof[1], k);
        if let Some(e) = self.out.regions.get_mut(&region) {
            e.profile.add_scaled(&t.prof[1], k);
        }
        let ei = self.epoch.min(EPOCH_CAP - 1).min(self.out.epoch_profiles.len() - 1);
        self.out.epoch_profiles[ei].add_scaled(&t.prof[1], k);

        // Per-site extrapolation. Gather moving-store spans first so a
        // rigid store under one is conservatively poisoned, not replayed.
        let mut spans: Vec<(usize, u64, u64, i64)> = Vec::with_capacity(t.sites[1].len());
        for (rec, &d) in t.sites[1].iter().zip(site_deltas.iter()) {
            let (lo, hi) = (rec.lo as i128, rec.hi as i128);
            let (slo, shi) = if d >= 0 {
                (lo + d as i128, hi + (k as i128) * d as i128)
            } else {
                (lo + (k as i128) * d as i128, hi + d as i128)
            };
            debug_assert!(slo >= 0 && shi < 1 << 63);
            spans.push((rec.sidx, slo as u64, shi as u64, d));
        }
        let moving_stores: Vec<(u64, u64)> = t.sites[1]
            .iter()
            .zip(spans.iter())
            .filter(|(rec, (_, _, _, d))| !matches!(rec.kind, SiteKind::Load) && *d != 0)
            .map(|(_, &(_, lo, hi, _))| (lo, hi))
            .collect();
        let ek = self.epoch as u64; // accel blocks contain no barriers
        for (i, rec) in t.sites[1].iter().enumerate() {
            let (_, slo, shi, d) = spans[i];
            if sh.record {
                self.out.record(rec.sidx, ek, slo, shi - slo)?;
            }
            match rec.kind {
                SiteKind::Load => {}
                SiteKind::IntStore { value } => {
                    let covered = moving_stores.iter().any(|&(l, h)| l < rec.hi && rec.lo < h);
                    if d == 0 && !covered {
                        // Loop-invariant address: the stored integer is on
                        // the verified linear trajectory, so the final
                        // value is exact and the slot stays trusted.
                        let dv = value.wrapping_sub(match t.sites[0][i].kind {
                            SiteKind::IntStore { value: v0 } => v0,
                            _ => return Ok(()),
                        });
                        let fin = value.wrapping_add(dv.wrapping_mul(k));
                        match rec.hi - rec.lo {
                            8 => sh.mem.write_u64(rec.lo, fin),
                            4 => sh.mem.write_u32(rec.lo, fin as u32),
                            _ => sh.mem.write_u8(rec.lo, fin as u8),
                        }
                        sh.unknown.remove(rec.lo, rec.hi);
                    } else {
                        sh.unknown.insert(slo, shi);
                    }
                }
                SiteKind::OtherStore => sh.unknown.insert(slo, shi),
            }
            // Vector site dynamic counters scale with k.
            if let Some(v) = self.out.vmem_sites.get_mut(&rec.sidx) {
                if rec.elems > 0
                    || matches!(sh.prog.get(rec.sidx).class, OpClass::VLoad | OpClass::VStore)
                {
                    v.execs += k;
                    v.elems += rec.elems * k;
                    v.conflict_execs += rec.conflict as u64 * k;
                }
            }
        }

        // Integer state jumps k iterations ahead; FP/vector/mask state in
        // the block is summarized as untrusted.
        for (r, d) in delta.iter().enumerate().skip(1) {
            self.st.x[r] = self.st.x[r].wrapping_add(d.wrapping_mul(k));
        }
        for si in &sh.prog.insts[t.block.head..=t.block.branch] {
            for def in &si.defs {
                match def {
                    RegRef::F(r) => self.fk &= !(1 << r),
                    RegRef::V(r) => self.vk &= !(1 << r),
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// A finished walk: each thread's output, and why the walk is not exact
/// (no notes = exact).
struct Walk {
    outs: Vec<WalkOut>,
    notes: Vec<String>,
    /// The failure may not recur without acceleration: a poisoned value,
    /// or a conflict that extrapolated spans may have made up.
    retry: bool,
}

/// Walk every thread in the epoch-synchronous schedule (module docs) with
/// the given accelerable loops, then scan the access sets for a
/// conflict.
fn walk_once(
    prog: &DecodedProgram,
    opts: &DlpOptions,
    accel_blocks: BTreeMap<usize, AccelBlock>,
    record: bool,
) -> Walk {
    let nthr = opts.threads.max(1);
    let mut sh = Shared {
        prog,
        budget: opts.budget,
        mem: Memory::load(&prog.program),
        arena: AddrArena::new(nthr),
        unknown: RangeSet::default(),
        accel_blocks,
        record,
    };
    let mut threads: Vec<Thread> = (0..nthr).map(|t| Thread::new(prog, t, nthr)).collect();
    let mut bail = None;
    'epochs: while threads.iter().any(|t| !t.st.halted) {
        for (tid, t) in threads.iter_mut().enumerate() {
            if let Err(b) = t.run_to_barrier(&mut sh) {
                bail = Some((tid, b));
                break 'epochs;
            }
        }
    }
    let outs: Vec<WalkOut> = threads.into_iter().map(|t| t.out).collect();
    let (notes, retry) = match bail {
        Some((tid, b)) => {
            let retry = matches!(b, Bail::Poison(_));
            let why = match b {
                Bail::Poison(why) | Bail::Fatal(why) => why,
                Bail::Budget => format!("budget of {} concrete steps exhausted", opts.budget),
            };
            (vec![format!("thread {tid}: {why}")], retry)
        }
        None => match first_conflict(prog, &outs) {
            Some(note) => (vec![note], true),
            None => (Vec::new(), false),
        },
    };
    Walk { outs, notes, retry }
}

/// The walk: accelerated first; when that poisons or conflicts, once more
/// fully concrete, keeping whichever got further.
fn walk(prog: &DecodedProgram, opts: &DlpOptions, record: bool) -> Walk {
    let blocks = accel_candidates(prog);
    let accelerated = !blocks.is_empty();
    let w = walk_once(prog, opts, blocks, record);
    if w.retry && accelerated {
        let w2 = walk_once(prog, opts, BTreeMap::new(), record);
        let insts = |w: &Walk| w.outs.iter().map(|o| o.total.insts).sum::<u64>();
        if w2.notes.is_empty() || insts(&w2) > insts(&w) {
            return w2;
        }
    }
    w
}

/// The first same-epoch cross-thread conflict in the walk's access sets,
/// as a note naming the epoch and one site of each thread.
fn first_conflict(prog: &DecodedProgram, outs: &[WalkOut]) -> Option<String> {
    let is_write = |sidx: usize| matches!(prog.get(sidx).class, OpClass::Store | OpClass::VStore);
    // Per thread, per epoch: the union of its write sets and of its reads.
    let unions: Vec<BTreeMap<u64, (RangeSet, RangeSet)>> = outs
        .iter()
        .map(|o| {
            let mut per: BTreeMap<u64, (Vec<&RangeSet>, Vec<&RangeSet>)> = BTreeMap::new();
            for (&sidx, epochs) in &o.sets {
                for (&e, set) in epochs {
                    let slot = per.entry(e).or_default();
                    if is_write(sidx) {
                        slot.0.push(set);
                    } else {
                        slot.1.push(set);
                    }
                }
            }
            per.into_iter()
                .map(|(e, (w, r))| (e, (RangeSet::union(w), RangeSet::union(r))))
                .collect()
        })
        .collect();
    for t1 in 0..outs.len() {
        for t2 in t1 + 1..outs.len() {
            for (&e, (w1, r1)) in &unions[t1] {
                let Some((w2, r2)) = unions[t2].get(&e) else { continue };
                if !(w1.overlaps(w2) || w1.overlaps(r2) || r1.overlaps(w2)) {
                    continue;
                }
                let in_epoch = |t: usize| {
                    outs[t].sets.iter().filter_map(move |(&s, per)| Some((s, per.get(&e)?)))
                };
                let (s1, s2) = in_epoch(t1)
                    .flat_map(|a| in_epoch(t2).map(move |b| (a, b)))
                    .find(|((s1, a), (s2, b))| (is_write(*s1) || is_write(*s2)) && a.overlaps(b))
                    .map(|((s1, _), (s2, _))| (s1, s2))
                    .expect("overlapping unions have an overlapping pair of site sets");
                return Some(format!(
                    "threads {t1} and {t2} conflict in barrier epoch {e}: sidx {s1} and sidx \
                     {s2} touch the same bytes and at least one writes"
                ));
            }
        }
    }
    None
}

/// Statically predict the program's DLP profile (Table-4 quantities) by
/// the walk described in the module docs.
pub fn analyze(prog: &Program, opts: &DlpOptions) -> DlpProfile {
    let dec = DecodedProgram::new(prog);
    let w = walk(&dec, opts, opts.threads > 1);

    let mut total = Profile::default();
    let mut regions: BTreeMap<u32, RegionProfile> = BTreeMap::new();
    let mut epoch_profiles: Vec<Profile> = Vec::new();
    let mut vmem_sites: BTreeMap<usize, VMemSite> = BTreeMap::new();
    let mut setvl_sites: BTreeMap<usize, SetVlSite> = BTreeMap::new();
    let mut epochs = 0u64;
    for o in &w.outs {
        total.add_scaled(&o.total, 1);
        for (rid, rp) in &o.regions {
            regions
                .entry(*rid)
                .and_modify(|e| {
                    e.first_sidx = e.first_sidx.min(rp.first_sidx);
                    e.profile.add_scaled(&rp.profile, 1);
                })
                .or_insert_with(|| rp.clone());
        }
        for (i, p) in o.epoch_profiles.iter().enumerate() {
            if epoch_profiles.len() <= i {
                epoch_profiles.push(Profile::default());
            }
            epoch_profiles[i].add_scaled(p, 1);
        }
        epochs = epochs.max(o.epochs + 1);
        for (s, v) in &o.vmem_sites {
            vmem_sites
                .entry(*s)
                .and_modify(|e| {
                    e.execs += v.execs;
                    e.elems += v.elems;
                    e.min_stride = e.min_stride.min(v.min_stride);
                    e.max_stride = e.max_stride.max(v.max_stride);
                    e.conflict_execs += v.conflict_execs;
                })
                .or_insert_with(|| v.clone());
        }
        for (s, v) in &o.setvl_sites {
            setvl_sites
                .entry(*s)
                .and_modify(|e| {
                    e.execs += v.execs;
                    e.min_request = e.min_request.min(v.min_request);
                    e.max_request = e.max_request.max(v.max_request);
                    e.result_read |= v.result_read;
                })
                .or_insert_with(|| v.clone());
        }
    }

    DlpProfile {
        exact: w.notes.is_empty(),
        notes: w.notes,
        threads: opts.threads.max(1),
        total,
        regions: regions.into_values().collect(),
        epoch_profiles,
        epochs,
        vmem_sites: vmem_sites.into_values().collect(),
        setvl_sites: setvl_sites.into_values().collect(),
    }
}

/// One thread's access sets: static instruction index → barrier epoch →
/// the bytes the site touched in that epoch (exact, except that an
/// accelerated loop contributes each site's extrapolated span, and a set
/// of more than 8192 ranges collapses to its hull).
pub type SiteBounds = BTreeMap<usize, BTreeMap<u64, RangeSet>>;

/// Per-thread access sets for every (site, barrier-epoch) pair, over loads
/// and stores. `Some` only when the walk at `threads` threads certifies
/// (module docs): every thread halts unpoisoned within the step budget and
/// no two threads conflict within an epoch. The sets then bound the
/// accesses of every interleaving, and a site absent from a thread's map
/// is one that thread never executes, in any schedule.
pub fn site_bounds(prog: &Program, threads: usize) -> Option<Vec<SiteBounds>> {
    let opts = DlpOptions { threads, budget: BOUNDS_BUDGET };
    let w = walk(&DecodedProgram::new(prog), &opts, true);
    w.notes.is_empty().then(|| w.outs.into_iter().map(|o| o.sets).collect())
}

// ---------------------------------------------------------------------------
// Partition advisor
// ---------------------------------------------------------------------------

/// How a phase could exploit a VLT lane partition (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VltOpportunity {
    /// Region 0: unannotated/serial code — runs on one thread.
    Serial,
    /// A parallel region with no vector element work: scalar
    /// threads-on-lanes applies.
    ScalarParallel,
    /// Vector code at short average VL (at most half the machine MVL):
    /// partitioned lanes recover the idle elements.
    ShortVector,
    /// Long-vector code that already fills the lanes.
    LongVector,
}

/// One scored VLTCFG partition.
#[derive(Debug, Clone, Copy)]
pub struct PartitionScore {
    /// VLT threads.
    pub threads: usize,
    /// Lane clusters (0 = flat single-cluster machine).
    pub clusters: usize,
    /// Per-thread MVL under this partition.
    pub mvl: usize,
    /// Predicted relative cycles (cost-model units; lower is better).
    pub est_cycles: f64,
    /// Speedup over the 1-thread flat partition.
    pub speedup: f64,
}

/// Advice for one region.
#[derive(Debug, Clone)]
pub struct RegionAdvice {
    /// The region id.
    pub region: u32,
    /// Opportunity classification.
    pub opportunity: VltOpportunity,
    /// Region vectorization percentage.
    pub pct_vectorization: f64,
    /// Region average VL.
    pub avg_vl: f64,
    /// Most common VL, if any vector instruction ran.
    pub top_vl: Option<usize>,
    /// Best flat thread count for this region alone.
    pub best_threads: usize,
}

/// The advisor's output: per-region classification plus ranked partitions.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Per-region advice, sorted by region id.
    pub regions: Vec<RegionAdvice>,
    /// Flat partitions, ranked best first.
    pub ranking: Vec<PartitionScore>,
    /// Hierarchical (8 threads × c clusters) partitions, informational —
    /// they describe a larger machine and are priced separately.
    pub hierarchical: Vec<PartitionScore>,
    /// The recommended flat partition.
    pub best: PartitionScore,
    /// Largest flat thread count the program *as written* tolerates: a
    /// fixed `setvl` request whose clamped result is discarded cannot
    /// re-chunk under a smaller per-thread MVL. [`Advice::best`] may
    /// exceed this — it assumes the phase is re-chunked for the partition
    /// (the `dlp-setvl-clamp` diagnostic marks the site to fix).
    pub max_threads: usize,
    /// Percentage of predicted 1-thread time spent in parallel regions —
    /// the headroom VLT can attack (cf. `Workload::opportunity`).
    pub opportunity_pct: f64,
}

/// Relative per-instruction issue overhead of a vector instruction
/// (dead time the paper's short-vector analysis highlights).
const DEAD: f64 = 4.0;
/// Serialized overhead per extra chunk a long vector needs under a
/// reduced-MVL partition (extra strip-mine iterations).
const CHUNK: f64 = 2.0;
/// Lanes of the baseline flat machine.
const LANES: usize = 8;

/// Cost of running `q` on one thread with `lanes` lanes and MVL `mvl`.
fn cost_one(q: &Profile, lanes: usize, mvl: usize) -> (f64, f64) {
    let mut vec_cost = 0.0;
    let mut chunk_penalty = 0.0;
    for (vl, &n) in q.vl_histogram.iter().enumerate() {
        if n == 0 || vl == 0 {
            continue;
        }
        let chunks = vl.div_ceil(mvl);
        let mut passes = 0usize;
        let mut left = vl;
        while left > 0 {
            let c = left.min(mvl);
            passes += c.div_ceil(lanes);
            left -= c;
        }
        vec_cost += n as f64 * (DEAD + passes as f64);
        chunk_penalty += n as f64 * (chunks - 1) as f64;
    }
    (q.scalar_ops as f64 + vec_cost, CHUNK * chunk_penalty)
}

/// Predicted cycles for the whole program under a partition: serial
/// regions run one thread at full width; parallel regions divide their
/// work across `threads`, each with `lanes_per_thread` lanes and MVL
/// `mvl`, paying the serialized re-chunk penalty.
fn cost_total(p: &DlpProfile, threads: usize, lanes_per_thread: usize, mvl: usize) -> f64 {
    let mut total = 0.0;
    for r in &p.regions {
        if r.region == 0 {
            let (c, _) = cost_one(&r.profile, LANES, MAX_VL);
            total += c;
        } else {
            let (c, chunk) = cost_one(&r.profile, lanes_per_thread, mvl);
            total += c / threads as f64 + chunk;
        }
    }
    total
}

/// Classify one region's opportunity.
fn classify(region: u32, q: &Profile) -> VltOpportunity {
    if region == 0 {
        VltOpportunity::Serial
    } else if q.elem_ops == 0 {
        VltOpportunity::ScalarParallel
    } else if q.avg_vl() <= (MAX_VL / 2) as f64 {
        VltOpportunity::ShortVector
    } else {
        VltOpportunity::LongVector
    }
}

/// Rank VLTCFG partitions for a profiled program.
pub fn advise(p: &DlpProfile) -> Advice {
    // Heavy vectorization rules out the pure scalar-VLT 8-thread split
    // (the paper's vector designs stop at V4); a fixed setvl request
    // whose clamped result is discarded additionally pins the program
    // *as written* (reported, not enforced — see [`Advice::max_threads`]).
    let gate = if p.total.pct_vectorization() < 10.0 { 8 } else { 4 };
    let mut max_threads = gate;
    for s in &p.setvl_sites {
        if s.execs > 0 && s.min_request == s.max_request && !s.result_read {
            let mut t = 1;
            for cand in [2usize, 4, 8] {
                if (MAX_VL / cand) as u64 >= s.min_request {
                    t = cand;
                }
            }
            max_threads = max_threads.min(t.max(1));
        }
    }

    let candidates: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|&t| t == 1 || t <= gate).collect();
    let base = cost_total(p, 1, LANES, MAX_VL);
    let mut ranking: Vec<PartitionScore> = candidates
        .iter()
        .map(|&t| {
            let mvl = MAX_VL / t;
            let est = cost_total(p, t, (LANES / t).max(1), mvl);
            PartitionScore {
                threads: t,
                clusters: 0,
                mvl,
                est_cycles: est,
                speedup: if est > 0.0 { base / est } else { 1.0 },
            }
        })
        .collect();
    ranking.sort_by(|a, b| {
        a.est_cycles.partial_cmp(&b.est_cycles).unwrap().then(a.threads.cmp(&b.threads))
    });
    let best = ranking[0];

    // Hierarchical rows: an 8-thread partition spread over c clusters of
    // a larger machine (8c lanes). Informational — `vladvise` prices the
    // extra clusters with vlt-area.
    let hierarchical: Vec<PartitionScore> = [2usize, 4, 8]
        .into_iter()
        .map(|c| {
            let h = vlt_isa::vltcfg::Hierarchy { threads: 8, clusters: c as u8 };
            let mvl = vlt_isa::vltcfg::effective_mvl(MAX_VL, h);
            let est = cost_total(p, 8, c.max(1), mvl);
            PartitionScore {
                threads: 8,
                clusters: c,
                mvl,
                est_cycles: est,
                speedup: if est > 0.0 { base / est } else { 1.0 },
            }
        })
        .collect();

    let regions: Vec<RegionAdvice> = p
        .regions
        .iter()
        .map(|r| {
            let best_threads = if r.region == 0 {
                1
            } else {
                candidates
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let ca = {
                            let (c, ch) = cost_one(&r.profile, (LANES / a).max(1), MAX_VL / a);
                            c / a as f64 + ch
                        };
                        let cb = {
                            let (c, ch) = cost_one(&r.profile, (LANES / b).max(1), MAX_VL / b);
                            c / b as f64 + ch
                        };
                        ca.partial_cmp(&cb).unwrap().then(a.cmp(&b))
                    })
                    .unwrap_or(1)
            };
            RegionAdvice {
                region: r.region,
                opportunity: classify(r.region, &r.profile),
                pct_vectorization: r.profile.pct_vectorization(),
                avg_vl: r.profile.avg_vl(),
                top_vl: r.profile.common_vls(1).first().copied(),
                best_threads,
            }
        })
        .collect();

    let serial: f64 = p
        .regions
        .iter()
        .filter(|r| r.region == 0)
        .map(|r| cost_one(&r.profile, LANES, MAX_VL).0)
        .sum();
    let opportunity_pct = if base > 0.0 { 100.0 * (base - serial) / base } else { 0.0 };

    Advice { regions, ranking, hierarchical, best, max_threads, opportunity_pct }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Turn a profile into `vlint --dlp` diagnostics: a warning when the walk
/// went inexact, and advisory notes for partition opportunities and
/// hazards.
pub fn dlp_diagnostics(prog: &Program, p: &DlpProfile) -> Vec<Diagnostic> {
    let insts = prog.decoded();
    let at = |code: Code, sidx: usize, msg: String| Diagnostic {
        code,
        severity: code.severity(),
        sidx: Some(sidx),
        disasm: insts.get(sidx).map(disasm).unwrap_or_default(),
        msg,
    };
    let mut out = Vec::new();
    if !p.exact {
        out.push(Diagnostic {
            code: Code::DlpInexact,
            severity: Code::DlpInexact.severity(),
            sidx: None,
            disasm: String::new(),
            msg: if p.notes.is_empty() {
                "the static walk could not stay exact".to_string()
            } else {
                p.notes.join("; ")
            },
        });
    }
    for r in &p.regions {
        if r.region == 0 || r.profile.insts == 0 {
            continue;
        }
        match classify(r.region, &r.profile) {
            VltOpportunity::ScalarParallel => out.push(at(
                Code::DlpScalarRegion,
                r.first_sidx,
                format!(
                    "region {} runs {} scalar ops and no vector element work: scalar VLT applies",
                    r.region, r.profile.scalar_ops
                ),
            )),
            VltOpportunity::ShortVector => out.push(at(
                Code::DlpShortVl,
                r.first_sidx,
                format!(
                    "region {} averages VL {:.1} of {MAX_VL}: a lane partition recovers idle elements",
                    r.region,
                    r.profile.avg_vl()
                ),
            )),
            _ => {}
        }
    }
    for v in &p.vmem_sites {
        if v.pattern != VMemPattern::Unit && v.execs > 0 && v.conflict_execs * 2 > v.execs {
            out.push(at(
                Code::DlpStrideConflict,
                v.sidx,
                format!(
                    "{} vector {} (stride {}..{} bytes) piles elements onto few L2 banks in {}/{} executions",
                    match v.pattern {
                        VMemPattern::Strided => "strided",
                        _ => "indexed",
                    },
                    if v.write { "store" } else { "load" },
                    v.min_stride,
                    v.max_stride,
                    v.conflict_execs,
                    v.execs
                ),
            ));
        }
    }
    for s in &p.setvl_sites {
        if s.execs > 0
            && s.min_request == s.max_request
            && !s.result_read
            && s.min_request > (MAX_VL / 8) as u64
        {
            let mut max_t = 1usize;
            for cand in [2usize, 4, 8] {
                if (MAX_VL / cand) as u64 >= s.min_request {
                    max_t = cand;
                }
            }
            out.push(at(
                Code::DlpSetvlClamp,
                s.sidx,
                format!(
                    "fixed setvl request {} with unread result: the phase cannot re-chunk, pinning VLT to at most {} threads",
                    s.min_request, max_t
                ),
            ));
        }
    }
    out.sort_by_key(|d| (d.sidx, d.code));
    out
}

/// Convenience: analyze and diagnose in one call (the `vlint --dlp` path).
pub fn dlp_report(prog: &Program, opts: &DlpOptions) -> (DlpProfile, Vec<Diagnostic>) {
    let p = analyze(prog, opts);
    let d = dlp_diagnostics(prog, &p);
    (p, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlt_exec::FuncSim;
    use vlt_isa::asm::assemble;

    fn dynamic(prog: &Program) -> vlt_exec::RunSummary {
        let mut sim = FuncSim::new(prog, 1);
        sim.run_to_completion(100_000_000).expect("program halts")
    }

    fn assert_matches_dynamic(src: &str) -> DlpProfile {
        let prog = assemble(src).unwrap();
        let p = analyze(&prog, &DlpOptions::default());
        let s = dynamic(&prog);
        assert!(p.exact, "walk should be exact: {:?}", p.notes);
        assert_eq!(p.total.insts, s.insts, "insts");
        assert_eq!(p.total.scalar_ops, s.scalar_ops, "scalar_ops");
        assert_eq!(p.total.vector_insts, s.vector_insts, "vector_insts");
        assert_eq!(p.total.elem_ops, s.elem_ops, "elem_ops");
        assert_eq!(p.total.vl_histogram.as_slice(), s.vl_histogram.as_slice(), "vl histogram");
        p
    }

    #[test]
    fn range_set_basics() {
        let mut r = RangeSet::default();
        r.insert(10, 20);
        r.insert(30, 40);
        assert!(r.intersects(15, 16));
        assert!(!r.intersects(20, 30));
        r.insert(18, 32); // bridges both
        assert!(r.intersects(25, 26));
        r.remove(12, 35);
        assert!(r.intersects(10, 12));
        assert!(!r.intersects(12, 35));
        assert!(r.intersects(35, 40));
        assert_eq!(r.ranges(), &[(10, 12), (35, 40)]);
    }

    #[test]
    fn range_set_coalesces_and_access_sets_cap() {
        let mut l = RangeSet::default();
        l.insert(8, 16);
        l.insert(16, 24); // adjacent: coalesce
        l.insert(0, 4);
        assert_eq!(l.ranges(), &[(0, 4), (8, 24)]);
        l.insert(4, 8); // bridges the gap
        assert_eq!(l.ranges(), &[(0, 24)]);
        let mut out = WalkOut::default();
        for i in 0..=MAX_RANGES as u64 {
            assert!(out.record(3, 0, 100 + 16 * i, 8).is_ok());
        }
        assert_eq!(out.sets[&3][&0].ranges().len(), 1, "saturation collapses to the hull");
        assert!(out.record(3, 0, u64::MAX - 4, 8).is_err(), "a wrapping access is refused");
    }

    #[test]
    fn overlap_scan() {
        let set = |r: &[(u64, u64)]| RangeSet(r.to_vec());
        assert!(set(&[(0, 8), (16, 24)]).overlaps(&set(&[(20, 32)])));
        assert!(!set(&[(0, 8), (16, 24)]).overlaps(&set(&[(8, 16), (24, 40)])));
        assert!(!set(&[]).overlaps(&set(&[(0, 8)])));
        let u = RangeSet::union([&set(&[(0, 8), (20, 24)]), &set(&[(8, 12)])]);
        assert_eq!(u.ranges(), &[(0, 12), (20, 24)]);
    }

    #[test]
    fn straight_line_vector_profile_is_exact() {
        let p = assert_matches_dynamic(
            ".data\nxs: .dword 1, 2, 3, 4, 5, 6, 7, 8\n.text\n\
             li x1, 8\nsetvl x2, x1\nla x3, xs\nvld v1, x3\n\
             vadd.vv v2, v1, v1\nvst v2, x3\nhalt\n",
        );
        assert_eq!(p.total.vl_histogram[8], 3);
        assert_eq!(p.total.elem_ops, 24);
    }

    #[test]
    fn masked_ops_count_post_mask_elements() {
        // A mask with 2 of 8 bits set: the masked load counts 2 element
        // ops, the unmasked ALU op 8, and `vmsetb` itself (a vector
        // bookkeeping op at VL 8) another 8 — matching the simulator.
        let p = assert_matches_dynamic(
            ".data\nxs: .dword 1, 2, 3, 4, 5, 6, 7, 8\n.text\n\
             li x1, 8\nsetvl x2, x1\nli x4, 5\nvmsetb x4\n\
             la x3, xs\nvld v1, x3, vm\nvadd.vv v2, v1, v1\nhalt\n",
        );
        assert_eq!(p.total.elem_ops, 8 + 2 + 8);
    }

    #[test]
    fn loop_acceleration_matches_concrete_execution() {
        // 100k-iteration counting loop; the budget can only afford a few
        // thousand concrete steps, so only acceleration can finish it.
        let src = "li x1, 0\nli x2, 100000\nli x3, 0\n\
                   loop:\nadd x3, x3, x2\naddi x1, x1, 1\nbne x1, x2, loop\n\
                   sd x3, -8(sp)\nhalt\n";
        let prog = assemble(src).unwrap();
        let opts = DlpOptions { budget: 5_000, ..DlpOptions::default() };
        let p = analyze(&prog, &opts);
        assert!(p.exact, "accelerated walk should be exact: {:?}", p.notes);
        let s = dynamic(&prog);
        assert_eq!(p.total.insts, s.insts);
        assert_eq!(p.total.scalar_ops, s.scalar_ops);
    }

    #[test]
    fn accelerated_counter_store_keeps_final_value_exact() {
        // The loop stores its counter each iteration and the tail reloads
        // it into a branch: the rigid-store extrapolation must keep the
        // reloaded value trusted and exact.
        let src = "li x1, 0\nli x2, 50000\n\
                   loop:\naddi x1, x1, 1\nsd x1, -8(sp)\nbne x1, x2, loop\n\
                   ld x4, -8(sp)\nbne x4, x2, bad\nli x5, 1\nhalt\n\
                   bad:\nli x5, 2\nhalt\n";
        let prog = assemble(src).unwrap();
        let opts = DlpOptions { budget: 2_000, ..DlpOptions::default() };
        let p = analyze(&prog, &opts);
        assert!(p.exact, "{:?}", p.notes);
        let s = dynamic(&prog);
        assert_eq!(p.total.insts, s.insts);
        assert_eq!(p.total.scalar_ops, s.scalar_ops);
    }

    #[test]
    fn strip_mine_loop_histogram_is_exact() {
        // Classic strip-mined vector loop over 100 elements: 1 full VL-64
        // chunk and 1 tail chunk at VL 36.
        let src = ".data\nxs: .space 800\n.text\n\
                   li x1, 100\nla x2, xs\n\
                   loop:\nsetvl x3, x1\nvld v1, x2\nvadd.vs v2, v1, x1\nvst v2, x2\n\
                   slli x4, x3, 3\nadd x2, x2, x4\nsub x1, x1, x3\nbne x1, x0, loop\n\
                   halt\n";
        let p = assert_matches_dynamic(src);
        assert_eq!(p.total.vl_histogram[64], 3);
        assert_eq!(p.total.vl_histogram[36], 3);
        assert_eq!(p.total.elem_ops, 300);
        // The adaptive setvl site is seen as tolerant (result read).
        assert!(p.setvl_sites.iter().all(|s| s.result_read || s.execs == 0));
    }

    #[test]
    fn region_and_epoch_attribution() {
        let src = ".data\nxs: .dword 1, 2, 3, 4\n.text\n\
                   li x1, 4\nsetvl x2, x1\nregion 1\nla x3, xs\nvld v1, x3\nbarrier\n\
                   region 2\nvadd.vv v2, v1, v1\nhalt\n";
        let p = assert_matches_dynamic(src);
        assert_eq!(p.epochs, 2);
        assert_eq!(p.epoch_profiles.len(), 2);
        let r1 = p.regions.iter().find(|r| r.region == 1).unwrap();
        let r2 = p.regions.iter().find(|r| r.region == 2).unwrap();
        assert_eq!(r1.profile.vector_insts, 1);
        assert_eq!(r2.profile.vector_insts, 1);
        assert_eq!(p.epoch_profiles[0].vector_insts, 1);
        assert_eq!(p.epoch_profiles[1].vector_insts, 1);
    }

    #[test]
    fn fixed_unread_setvl_pins_partitions() {
        let src = ".data\nxs: .space 512\n.text\n\
                   li x1, 12\nsetvl x2, x1\nla x3, xs\nregion 1\nvld v1, x3\n\
                   vadd.vv v2, v1, v1\nvst v2, x3\nhalt\n";
        let prog = assemble(src).unwrap();
        let (p, diags) = dlp_report(&prog, &DlpOptions::default());
        assert!(p.exact);
        let site = &p.setvl_sites[0];
        assert_eq!((site.min_request, site.max_request), (12, 12));
        assert!(!site.result_read);
        assert!(diags.iter().any(|d| d.code == Code::DlpSetvlClamp), "{diags:?}");
        let a = advise(&p);
        assert!(a.max_threads <= 4, "mvl 8 cannot satisfy a fixed VL-12 phase");
    }

    #[test]
    fn stride_conflicts_flagged() {
        // Stride 512 bytes = 64 dwords: every element maps to one bank.
        let src = ".data\nxs: .space 8192\n.text\n\
                   li x1, 16\nsetvl x2, x1\nla x3, xs\nli x4, 512\n\
                   region 1\nvlds v1, x3, x4\nhalt\n";
        let prog = assemble(src).unwrap();
        let (p, diags) = dlp_report(&prog, &DlpOptions::default());
        assert!(p.exact);
        let site = p.vmem_sites.iter().find(|v| v.pattern == VMemPattern::Strided).unwrap();
        assert_eq!(site.min_stride, 512);
        assert!(site.conflict_execs > 0);
        assert!(diags.iter().any(|d| d.code == Code::DlpStrideConflict), "{diags:?}");
    }

    #[test]
    fn advisor_prefers_partitioning_short_vectors() {
        // A parallel phase stuck at VL 8 wants lanes split 4 ways; a
        // long-vector phase at VL 64 wants them whole.
        let short = ".data\nxs: .space 512\n.text\nli x1, 8\nsetvl x2, x1\nla x3, xs\n\
                     region 1\nli x5, 200\nloop:\nvld v1, x3\nvfma.vv v2, v1, v1\n\
                     addi x5, x5, -1\nbne x5, x0, loop\nhalt\n";
        let p = analyze(&assemble(short).unwrap(), &DlpOptions::default());
        assert!(p.exact, "{:?}", p.notes);
        let a = advise(&p);
        assert!(a.best.threads >= 4, "short vectors want a split: {:?}", a.ranking);
        let r1 = a.regions.iter().find(|r| r.region == 1).unwrap();
        assert_eq!(r1.opportunity, VltOpportunity::ShortVector);
    }

    #[test]
    fn advisor_keeps_scalar_code_on_eight_threads() {
        let scalar = "region 1\nli x1, 1000\nli x2, 0\nloop:\nadd x2, x2, x1\n\
                      addi x1, x1, -1\nbne x1, x0, loop\nsd x2, -8(sp)\nhalt\n";
        let p = analyze(&assemble(scalar).unwrap(), &DlpOptions::default());
        assert!(p.exact, "{:?}", p.notes);
        let a = advise(&p);
        assert_eq!(a.best.threads, 8, "{:?}", a.ranking);
        assert_eq!(
            a.regions.iter().find(|r| r.region == 1).unwrap().opportunity,
            VltOpportunity::ScalarParallel
        );
    }

    #[test]
    fn diverging_loop_reports_inexact_not_hang() {
        let src = "li x1, 1\nloop:\nadd x2, x2, x1\nbeq x0, x0, loop\nhalt\n";
        let prog = assemble(src).unwrap();
        let opts = DlpOptions { budget: 10_000, ..DlpOptions::default() };
        let p = analyze(&prog, &opts);
        assert!(!p.exact);
        assert!(!p.notes.is_empty());
    }

    #[test]
    fn shared_mode_disjoint_tiles_validate() {
        // Two threads write disjoint tid-indexed tiles: the walk certifies
        // and the merged totals must match the 2-thread run.
        let src = ".data\nxs: .space 1024\n.text\n\
                   tid x1\nnthr x2\nla x3, xs\nslli x4, x1, 6\nadd x3, x3, x4\n\
                   li x5, 8\nsetvl x6, x5\nregion 1\nvld v1, x3\nvadd.vv v2, v1, v1\n\
                   vst v2, x3\nbarrier\nhalt\n";
        let prog = assemble(src).unwrap();
        let opts = DlpOptions { threads: 2, ..DlpOptions::default() };
        let p = analyze(&prog, &opts);
        assert!(p.exact, "{:?}", p.notes);
        let mut sim = FuncSim::new(&prog, 2);
        let s = sim.run_to_completion(1_000_000).unwrap();
        assert_eq!(p.total.insts, s.insts);
        assert_eq!(p.total.elem_ops, s.elem_ops);
        // And the access sets are available for race pruning: both
        // threads' vector accesses live in epoch 0.
        let bounds = site_bounds(&prog, 2).expect("a certified walk gives bounds");
        assert_eq!(bounds.len(), 2);
        let vst = bounds
            .iter()
            .map(|m| m.values().filter_map(|epochs| epochs.get(&0)).cloned().collect::<Vec<_>>())
            .collect::<Vec<_>>();
        assert!(!vst[0].is_empty() && !vst[1].is_empty());
    }

    /// Thread 0 stores a flag that thread 1 loads and branches on after
    /// the barrier.
    const BARRIER_SEPARATED_FLAG: &str = ".data\nflag: .dword 0\n.text\n\
        tid x1\nla x2, flag\nbne x1, x0, reader\n\
        li x3, 1\nsd x3, 0(x2)\nbarrier\nhalt\n\
        reader:\nbarrier\nld x4, 0(x2)\nbne x4, x0, done\ndone:\nhalt\n";

    #[test]
    fn cross_thread_flag_across_a_barrier_is_exact() {
        // The communication is barrier-separated, so the shared-memory
        // walk follows it concretely: the profile is exact and equal to
        // the 2-thread run, and the access sets are certified.
        let prog = assemble(BARRIER_SEPARATED_FLAG).unwrap();
        let p = analyze(&prog, &DlpOptions { threads: 2, ..DlpOptions::default() });
        assert!(p.exact, "{:?}", p.notes);
        let s = FuncSim::new(&prog, 2).run_to_completion(1_000_000).unwrap();
        assert_eq!(p.total.insts, s.insts);
        assert_eq!(p.total.scalar_ops, s.scalar_ops);
        assert_eq!(p.total.vl_histogram.as_slice(), s.vl_histogram.as_slice());
        assert!(site_bounds(&prog, 2).is_some());
    }

    #[test]
    fn same_epoch_conflict_defeats_bounds() {
        // Both threads write the steering slot in the same epoch and then
        // load it back to index another access: the access sets hold a
        // same-epoch write/write conflict, so no bounds may be certified
        // and the 2-thread profile is inexact with a note naming it.
        let src = ".data\nidx: .dword 0\nxs: .space 64\n.text\n\
                   tid x1\nla x2, idx\nsd x1, 0(x2)\nld x3, 0(x2)\n\
                   la x4, xs\nslli x5, x3, 3\nadd x4, x4, x5\nld x6, 0(x4)\n\
                   barrier\nhalt\n";
        let prog = assemble(src).unwrap();
        assert!(site_bounds(&prog, 2).is_none());
        let p = analyze(&prog, &DlpOptions { threads: 2, ..DlpOptions::default() });
        assert!(!p.exact);
        let sd = prog.decoded().iter().position(|i| i.op == Op::Sd).unwrap();
        assert_eq!(
            p.notes,
            [format!(
                "threads 0 and 1 conflict in barrier epoch 0: sidx {sd} and sidx {sd} touch the \
                 same bytes and at least one writes"
            )]
        );
    }

    #[test]
    fn site_bounds_of_disjoint_tiles_stay_in_each_tile() {
        let src = ".data\nxs: .space 128\n.text\n\
                   tid x1\nla x2, xs\nslli x3, x1, 3\nadd x2, x2, x3\n\
                   sd x1, 0(x2)\nbarrier\nld x4, 0(x2)\nhalt\n";
        let prog = assemble(src).unwrap();
        let sets = site_bounds(&prog, 2).expect("disjoint tiles are conflict-free");
        assert_eq!(sets.len(), 2);
        // Every access either thread makes stays inside its own tile.
        let tile: Vec<RangeSet> =
            sets.iter().map(|m| RangeSet::union(m.values().flat_map(|per| per.values()))).collect();
        assert!(!tile[0].ranges().is_empty() && !tile[1].ranges().is_empty());
        assert!(!tile[0].overlaps(&tile[1]));
    }

    #[test]
    fn site_bounds_same_epoch_conflict_is_none() {
        let src = ".data\nxs: .dword 0\n.text\n\
                   la x2, xs\ntid x1\nsd x1, 0(x2)\nbarrier\nhalt\n";
        let prog = assemble(src).unwrap();
        assert!(site_bounds(&prog, 2).is_none(), "same-slot writes conflict");
        assert!(site_bounds(&prog, 1).is_some(), "single thread cannot conflict");
    }

    #[test]
    fn site_bounds_barrier_separated_flag_is_some() {
        let prog = assemble(BARRIER_SEPARATED_FLAG).unwrap();
        assert!(site_bounds(&prog, 2).is_some());
    }

    #[test]
    fn site_bounds_budget_and_faults_give_none() {
        // `site_bounds`' own budget is 20M steps; the same walk with a
        // small one shows that running out refuses certification.
        let p = assemble("loop:\nj loop\n").unwrap();
        let opts = DlpOptions { threads: 1, budget: 1000 };
        let w = walk(&DecodedProgram::new(&p), &opts, true);
        assert_eq!(w.notes, ["thread 0: budget of 1000 concrete steps exhausted"]);
        let p2 = assemble("jr x5\n").unwrap(); // wild jump faults
        assert!(site_bounds(&p2, 1).is_none());
    }
}
