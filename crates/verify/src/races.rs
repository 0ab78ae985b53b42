//! Cross-thread overlap analysis (the pairing half of vlrace).
//!
//! [`crate::footprint`] analyzes the program once per concrete thread id.
//! This module decides, for every pair of runs, which analysis variables
//! are *synchronized* — guaranteed to hold the same value in both threads
//! whenever the threads are in the same barrier epoch — and then tests
//! every (access, access) pair with at least one write for overlap:
//!
//! * the epoch difference must be able to reach 0 (otherwise the accesses
//!   are barrier-separated), and
//! * the address difference must be able to land inside the conflict
//!   window `(-size₂, size₁)`.
//!
//! Both tests use the same bound machinery as the footprint pass (hull
//! plus gcd residue), with a small-domain enumeration fallback for
//! anti-correlated variables (ping-pong buffers).
//!
//! Synchronized variables are the load-bearing idea: a loop whose body
//! crosses a barrier advances in lock-step across threads, so its join
//! variable is *one* variable (side 0), not two — thread A's epoch-e row
//! and thread B's epoch-e row are the same row function of it. A loop
//! with no barrier inside runs free, so its join variable is private to
//! each side and the two instances range independently.
//!
//! Debugging aids: set `VLRACE_DEBUG` to dump each per-tid run's
//! converged variable ranges, and `VLRACE_DEBUG_PAIRS` to dump every
//! (access, access) pair that survives the feasibility tests.

use std::collections::{BTreeMap, BTreeSet};

use vlt_isa::{decode, disasm, Inst, Program};

use crate::cfg::Cfg;
use crate::diag::{Code, Diagnostic, Options, Report};
use crate::dlp::SiteBounds;
use crate::footprint::{
    analyze_tid, clb, cub, div_ceil, div_floor, Access, Env, Form, Qty, Rng, SlotKind, TidRun, Var,
    VarId,
};
use crate::interval::{max_opt, min_opt};

/// Static race analysis with default options plus program-embedded allows.
pub fn check_races(prog: &Program, nthr: usize) -> Report {
    check_races_with(prog, nthr, &Options::default().with_program_allows(prog))
}

/// Static race analysis under explicit options.
pub fn check_races_with(prog: &Program, nthr: usize, opts: &Options) -> Report {
    let raw = analyze(prog, nthr);
    let mut report = Report::default();
    for d in raw.diags {
        if opts.allow.contains(&d.code) {
            report.suppressed += 1;
        } else {
            report.diags.push(d);
        }
    }
    report
}

/// The static-instruction indices that participate in any potential race
/// (ignoring allows). The dynamic race checker in `vlt-exec` asserts that
/// every conflict it observes at runtime involves only sites in this set.
pub fn predicted_race_sites(prog: &Program, nthr: usize) -> BTreeSet<usize> {
    analyze(prog, nthr).sites
}

struct RaceOut {
    diags: Vec<Diagnostic>,
    sites: BTreeSet<usize>,
}

const FOLD_ROUNDS: usize = 3;

fn analyze(prog: &Program, nthr: usize) -> RaceOut {
    let mut out = RaceOut { diags: Vec::new(), sites: BTreeSet::new() };
    if nthr <= 1 {
        return out;
    }

    // Undecodable words analyze as `nop`, mirroring `verify_with` so the
    // instruction indices line up with every other pass.
    let insts: Vec<Inst> = prog.text.iter().map(|&w| decode(w).unwrap_or(Inst::NOP)).collect();
    if insts.is_empty() {
        return out;
    }
    let cfg = Cfg::build(insts);

    if cfg.has_indirect {
        out.diags.push(Diagnostic {
            code: Code::RaceUnknown,
            severity: Code::RaceUnknown.severity(),
            sidx: None,
            disasm: String::new(),
            msg: "indirect control flow (`jr`/`jalr`): thread footprints cannot be \
                  bounded, any shared access may race"
                .to_string(),
        });
        collect_mem_sites(&cfg, &mut out.sites);
        return out;
    }

    let runs = converged_runs(&cfg, &prog.data, nthr);

    if runs.iter().any(|r| r.failed) {
        out.diags.push(Diagnostic {
            code: Code::RaceUnknown,
            severity: Code::RaceUnknown.severity(),
            sidx: None,
            disasm: String::new(),
            msg: "the footprint analysis did not converge: thread footprints cannot \
                  be bounded, any shared access may race"
                .to_string(),
        });
        collect_mem_sites(&cfg, &mut out.sites);
        return out;
    }

    let anchored = barrier_anchored(&cfg);
    let mut seen: BTreeSet<(usize, usize, Code)> = BTreeSet::new();
    for t1 in 0..nthr {
        for t2 in t1 + 1..nthr {
            check_pair(&cfg, &runs[t1], &runs[t2], &anchored, None, &mut seen, &mut out);
        }
    }

    // Lazy refinement: only when the symbolic pass still sees potential
    // conflicts, ask the DLP walk for certified, schedule-independent
    // per-thread access sets and re-check with provably-disjoint pairs
    // pruned. Clean programs never pay for the walk; tid-tiled kernels the
    // symbolic footprints over-approximate (e.g. emergent per-thread
    // bounds threaded through memory) come back clean here.
    if !out.sites.is_empty() {
        if let Some(bounds) = crate::dlp::site_bounds(prog, nthr) {
            let mut pruned = RaceOut { diags: Vec::new(), sites: BTreeSet::new() };
            let mut seen2: BTreeSet<(usize, usize, Code)> = BTreeSet::new();
            for t1 in 0..nthr {
                for t2 in t1 + 1..nthr {
                    check_pair(
                        &cfg,
                        &runs[t1],
                        &runs[t2],
                        &anchored,
                        Some((&bounds[t1], &bounds[t2])),
                        &mut seen2,
                        &mut pruned,
                    );
                }
            }
            out = pruned;
        }
    }

    out.diags.sort_by_key(|d| (d.sidx, d.code));
    out
}

/// Analyze every tid, iterating the store-value overlay to a fixpoint:
/// each round's runs report what their stores may write where, and the
/// next round's folds absorb those hulls (or fail, when an intersecting
/// store's value or address is unboundable). Converged means the runs
/// were produced under exactly the overlay they regenerate, so every
/// fold's value hull accounts for every store that can touch its span.
fn converged_runs(cfg: &Cfg, data: &[u8], nthr: usize) -> Vec<TidRun> {
    let mut overlay = crate::content::Overlay::default();
    let mut runs: Vec<TidRun> = Vec::new();
    for round in 0..=FOLD_ROUNDS {
        runs = (0..nthr).map(|tid| analyze_tid(cfg, data, tid, nthr, &overlay)).collect();
        let next = build_overlay(&runs);
        if next == overlay {
            break;
        }
        if round == FOLD_ROUNDS {
            // No fixpoint within the round budget: one last fully
            // conservative pass with a poisoned overlay (every fold whose
            // span any store might reach fails).
            overlay = crate::content::Overlay { poisoned: true, ranges: Vec::new() };
            runs = (0..nthr).map(|tid| analyze_tid(cfg, data, tid, nthr, &overlay)).collect();
            break;
        }
        overlay = next;
    }
    runs
}

/// The static byte-address hull of one memory access site, analyzed as one
/// concrete thread. Produced by [`footprint_hulls`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteHull {
    /// Static instruction index of the load/store.
    pub sidx: usize,
    /// The concrete thread id the program was analyzed as.
    pub tid: usize,
    /// True for stores.
    pub write: bool,
    /// Lowest byte address the site can touch (`None` = unbounded below).
    pub lo: Option<i64>,
    /// One past the highest byte address the site can touch (`None` =
    /// unbounded above).
    pub hi: Option<i64>,
}

impl SiteHull {
    /// True when both sides of the hull are finite.
    pub fn bounded(&self) -> bool {
        self.lo.is_some() && self.hi.is_some()
    }

    /// True when the byte address range `[lo, hi)` lies inside the hull.
    /// An unbounded side admits everything on that side.
    pub fn covers(&self, lo: i64, hi: i64) -> bool {
        self.lo.is_none_or(|l| l <= lo) && self.hi.is_none_or(|h| hi <= h)
    }
}

/// The content-aware footprint analysis as a public oracle: analyze the
/// program once per concrete thread id and report, for every reachable
/// memory access site, the hull of byte addresses it can touch in that
/// thread. This is exactly the address knowledge the race pairing tests
/// consume, so the soundness contract is directly testable: every address
/// a real run of thread `tid` issues at site `sidx` must fall inside the
/// site's hull (the differential `footprint_fuzz` suite enforces this over
/// randomized indexed programs).
///
/// Returns `None` when no sound hulls exist: indirect control flow
/// (`jr`/`jalr`) or a diverged fixpoint. Unreachable sites produce no
/// entry; a site the analysis cannot bound produces an entry with `None`
/// sides. Entries are ordered by `(tid, program order)`.
pub fn footprint_hulls(prog: &Program, nthr: usize) -> Option<Vec<SiteHull>> {
    let insts: Vec<Inst> = prog.text.iter().map(|&w| decode(w).unwrap_or(Inst::NOP)).collect();
    if insts.is_empty() {
        return Some(Vec::new());
    }
    let cfg = Cfg::build(insts);
    if cfg.has_indirect {
        return None;
    }
    let runs = converged_runs(&cfg, &prog.data, nthr);
    if runs.iter().any(|r| r.failed) {
        return None;
    }
    let mut out = Vec::new();
    for run in &runs {
        for acc in &run.accesses {
            let (lo, hi) = match &acc.addr {
                Some(f) => {
                    let env = run.env(&acc.refine);
                    let lo = clb(&env, f, &mut Vec::new());
                    let hi = cub(&env, f, &mut Vec::new());
                    (lo, hi.map(|h| h + i64::from(acc.esize)))
                }
                None => (None, None),
            };
            out.push(SiteHull { sidx: acc.sidx, tid: run.tid, write: acc.write, lo, hi });
        }
    }
    Some(out)
}

fn collect_mem_sites(cfg: &Cfg, sites: &mut BTreeSet<usize>) {
    let reach = cfg.reachable();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        for i in block.start..block.end {
            if cfg.insts[i].op.class().is_mem() {
                sites.insert(i);
            }
        }
    }
}

/// The store-value overlay of a set of runs: every store's address span
/// with the hull of values it may write, evaluated with each run's own
/// bounds. A store with no address bound (or a failed run) poisons the
/// overlay — no fold whose span a store might reach can then succeed.
fn build_overlay(runs: &[TidRun]) -> crate::content::Overlay {
    let mut ov = crate::content::Overlay::default();
    for run in runs {
        if run.failed {
            ov.poisoned = true;
            continue;
        }
        for acc in &run.accesses {
            if !acc.write {
                continue;
            }
            let Some(f) = &acc.addr else {
                ov.poisoned = true;
                continue;
            };
            let env = run.env(&acc.refine);
            let lo = clb(&env, f, &mut Vec::new());
            let hi = cub(&env, f, &mut Vec::new());
            let (Some(lo), Some(hi)) = (lo, hi) else {
                ov.poisoned = true;
                continue;
            };
            ov.ranges.push((lo, hi + i64::from(acc.esize), acc.val));
        }
    }
    // Canonical order so overlay equality is the convergence test.
    ov.ranges.sort_unstable();
    ov.ranges.dedup();
    if ov.poisoned {
        ov.ranges.clear();
    }
    ov
}

/// Blocks at which a loop-join variable advances in lock-step across
/// threads: the block contains a `barrier`, or it lies on no cycle that
/// avoids barrier blocks (so every revisit crossed a barrier).
fn barrier_anchored(cfg: &Cfg) -> Vec<bool> {
    let nb = cfg.blocks.len();
    let has_barrier: Vec<bool> = cfg
        .blocks
        .iter()
        .map(|b| (b.start..b.end).any(|i| cfg.insts[i].op == vlt_isa::Op::Barrier))
        .collect();
    let mut anchored = vec![false; nb];
    for b in 0..nb {
        if has_barrier[b] {
            anchored[b] = true;
            continue;
        }
        // On a barrier-free cycle iff b reaches itself through non-barrier
        // blocks. Programs are small; a DFS per block is fine.
        let mut stack: Vec<usize> =
            cfg.blocks[b].succs.iter().copied().filter(|&s| !has_barrier[s]).collect();
        let mut seen = vec![false; nb];
        let mut cyclic = false;
        while let Some(n) = stack.pop() {
            if n == b {
                cyclic = true;
                break;
            }
            if seen[n] {
                continue;
            }
            seen[n] = true;
            stack.extend(cfg.blocks[n].succs.iter().copied().filter(|&s| !has_barrier[s]));
        }
        anchored[b] = !cyclic;
    }
    anchored
}

/// A form references only synchronized variables (all sides are 0 inside
/// a run, so cross-run structural equality plus this check is enough).
fn uniform(f: &Form, sync: &BTreeSet<VarId>) -> bool {
    f.t.iter().all(|(v, _)| sync.contains(&v.id))
}

/// Compute the synchronized-variable set for a pair of runs: the greatest
/// set such that every member's defining forms are uniform over the set.
fn sync_vars(a: &TidRun, b: &TidRun, anchored: &[bool]) -> BTreeSet<VarId> {
    // Optimistic candidates, then strip until stable (greatest fixpoint).
    let mut sync: BTreeSet<VarId> = BTreeSet::new();
    let mut blocks: Vec<usize> = Vec::new();
    for (&bb, ja) in &a.joins {
        let Some(jb) = b.joins.get(&bb) else { continue };
        if !anchored.get(bb).copied().unwrap_or(false) {
            continue;
        }
        // The anchor: the epoch must belong to the same slot in both runs
        // with the same coefficient, and that slot must be a strict
        // per-visit counter. Same epoch then implies same visit count.
        let (Some(ea), Some(eb)) = (ja.assign.get(&Qty::Epoch), jb.assign.get(&Qty::Epoch)) else {
            continue;
        };
        if ea.slot != eb.slot || ea.coef != eb.coef || ea.coef < 1 || ea.first != eb.first {
            continue;
        }
        let es = ea.slot as usize;
        let succ = Form::var(VarId::Slot { block: bb as u32, slot: ea.slot }).addc(1);
        let strict = |run: &TidRun| {
            let j = &run.joins[&bb];
            j.kinds.get(es) == Some(&SlotKind::Counter)
                && j.phi
                    .get(es)
                    .is_some_and(|edges| !edges.is_empty() && edges.values().all(|p| *p == succ))
        };
        if !strict(a) || !strict(b) {
            continue;
        }
        blocks.push(bb);
        // Candidate slots: structurally identical counters with the same
        // advance on every incoming edge.
        let ns = ja.kinds.len().min(jb.kinds.len());
        for s in 0..ns {
            if ja.kinds[s] != SlotKind::Counter || jb.kinds[s] != SlotKind::Counter {
                continue;
            }
            if ja.phi[s].is_empty() || ja.phi[s] != jb.phi[s] {
                continue;
            }
            let ma: Vec<_> = members_of(ja, s as u32);
            let mb: Vec<_> = members_of(jb, s as u32);
            if ma.is_empty() || ma != mb {
                continue;
            }
            sync.insert(VarId::Slot { block: bb as u32, slot: s as u32 });
        }
    }
    // `setvl` results synchronize when the request (the cap form) does;
    // folded loads when the address form does.
    for (id, ia) in &a.vars {
        match id {
            VarId::Vl(_) => {
                if let Some(ib) = b.vars.get(id) {
                    if ia.caps == ib.caps && !ia.caps.is_empty() && ia.lo == ib.lo && ia.hi == ib.hi
                    {
                        sync.insert(*id);
                    }
                }
            }
            VarId::Gen(s) => {
                let s = *s as usize;
                if let (Some(fa), Some(fb)) = (a.folds.get(&s), b.folds.get(&s)) {
                    // A widened fold absorbed concurrently-written ranges:
                    // its hull is sound, but mid-epoch the two threads can
                    // observe different values, so it never synchronizes.
                    if fa == fb && !fa.widened {
                        sync.insert(*id);
                    }
                }
            }
            _ => {}
        }
    }

    // Strip members whose defining forms reference non-sync variables.
    loop {
        let mut removed = false;
        let cur = sync.clone();
        for id in &cur {
            let ok = match id {
                VarId::Slot { block, slot } => {
                    let bb = *block as usize;
                    let ja = &a.joins[&bb];
                    let es = ja.assign[&Qty::Epoch].slot as usize;
                    let anchor_ok = uniform(&ja.assign[&Qty::Epoch].first, &cur)
                        && cur.contains(&VarId::Slot { block: *block, slot: es as u32 });
                    let edges = &ja.phi[*slot as usize];
                    anchor_ok && !edges.is_empty() && edges.values().all(|p| uniform(p, &cur))
                }
                VarId::Vl(_) => a.vars[id].caps.iter().all(|c| uniform(c, &cur)),
                VarId::Gen(s) => uniform(&a.folds[&(*s as usize)].addr, &cur),
                VarId::Lane(_) => false,
            };
            if !ok && sync.remove(id) {
                removed = true;
            }
        }
        if !removed {
            break;
        }
    }
    let _ = blocks;
    sync
}

/// Member quantities of one slot: `(qty, coef)` pairs, sorted by qty.
fn members_of(j: &crate::footprint::SlotState, slot: u32) -> Vec<(Qty, i64)> {
    j.assign.iter().filter(|(_, m)| m.slot == slot).map(|(q, m)| (*q, m.coef)).collect()
}

/// Retag a run-local form into the pair's shared form space: variables in
/// the sync set keep side 0, everything else becomes private to `side`.
fn retag(f: &Form, side: u8, sync: &BTreeSet<VarId>) -> Form {
    let mut t: Vec<(Var, i64)> =
        f.t.iter()
            .map(|&(v, k)| {
                let s = if sync.contains(&v.id) { 0 } else { side };
                (Var { side: s, id: v.id }, k)
            })
            .collect();
    t.sort_by_key(|&(v, _)| v);
    // Same id on both sides can collide only at side 0 (sync), where the
    // coefficients should then merge; rebuild via Form::add for safety.
    let mut out = Form { c: f.c, t: Vec::new() };
    for (v, k) in t {
        out = out.add(&Form { c: 0, t: vec![(v, k)] });
    }
    out
}

/// Bound environment for a pair of runs. Sync variables take the
/// intersection of both runs' knowledge (same concrete value in both);
/// private variables take their own run's.
struct PairEnv<'a> {
    a: &'a TidRun,
    b: &'a TidRun,
    ra: &'a crate::footprint::Refine,
    rb: &'a crate::footprint::Refine,
    sync: &'a BTreeSet<VarId>,
    pins: BTreeMap<Var, i64>,
}

impl PairEnv<'_> {
    fn run_rng(&self, run: &TidRun, refine: &crate::footprint::Refine, id: VarId) -> Rng {
        let g = run.vars.get(&id).map_or((None, None), |i| (i.lo, i.hi));
        let r = refine.get(&id).copied().unwrap_or((None, None));
        (max_opt(g.0, r.0), min_opt(g.1, r.1))
    }

    /// Residue step of a variable: every value is ≡ 0 (mod step). Pinned
    /// variables are already exact; sync variables must satisfy both
    /// runs' claims, so their gcd is sound.
    fn step(&self, v: Var) -> i64 {
        if self.pins.contains_key(&v) {
            return 1;
        }
        let of = |run: &TidRun| run.vars.get(&v.id).map_or(1, |i| i.step.max(1));
        match v.side {
            1 => of(self.a),
            2 => of(self.b),
            _ => crate::footprint::gcd(of(self.a), of(self.b)),
        }
    }
}

impl Env for PairEnv<'_> {
    fn rng(&self, v: Var) -> Rng {
        if let Some(&p) = self.pins.get(&v) {
            return (Some(p), Some(p));
        }
        match v.side {
            1 => self.run_rng(self.a, self.ra, v.id),
            2 => self.run_rng(self.b, self.rb, v.id),
            _ => {
                let x = self.run_rng(self.a, self.ra, v.id);
                let y = self.run_rng(self.b, self.rb, v.id);
                (max_opt(x.0, y.0), min_opt(x.1, y.1))
            }
        }
    }

    fn caps(&self, v: Var) -> Vec<Form> {
        let from = |run: &TidRun, side: u8| -> Vec<Form> {
            run.vars
                .get(&v.id)
                .map_or(Vec::new(), |i| i.caps.iter().map(|c| retag(c, side, self.sync)).collect())
        };
        match v.side {
            1 => from(self.a, 1),
            2 => from(self.b, 2),
            _ => {
                let mut c = from(self.a, 1);
                c.extend(from(self.b, 2));
                c
            }
        }
    }

    fn floors(&self, v: Var) -> Vec<Form> {
        let from = |run: &TidRun, side: u8| -> Vec<Form> {
            run.vars.get(&v.id).map_or(Vec::new(), |i| {
                i.floors.iter().map(|f| retag(f, side, self.sync)).collect()
            })
        };
        match v.side {
            1 => from(self.a, 1),
            2 => from(self.b, 2),
            _ => {
                let mut f = from(self.a, 1);
                f.extend(from(self.b, 2));
                f
            }
        }
    }
}

fn check_pair(
    cfg: &Cfg,
    a: &TidRun,
    b: &TidRun,
    anchored: &[bool],
    bounds: Option<(&SiteBounds, &SiteBounds)>,
    seen: &mut BTreeSet<(usize, usize, Code)>,
    out: &mut RaceOut,
) {
    let sync = sync_vars(a, b, anchored);
    for aa in &a.accesses {
        for ab in &b.accesses {
            if !aa.write && !ab.write {
                continue;
            }
            if let Some((ha, hb)) = bounds {
                // The certified per-(site, epoch) access sets of the DLP
                // walk (`dlp::site_bounds`). A site absent from a thread's
                // map was never executed by that thread. A conflict needs
                // both accesses in the same barrier epoch, so the pair
                // survives only if some epoch's sets share a byte. Two
                // lemmas fall out: *partition* (sets confined to
                // per-thread disjoint ranges never meet) and
                // *injectivity/permutation* (the hulls overlap, but the
                // element sets of a provably injective scatter — radix's
                // exclusive-prefix-sum shape — interleave without
                // meeting).
                let (Some(ea), Some(eb)) = (ha.get(&aa.sidx), hb.get(&ab.sidx)) else {
                    continue;
                };
                let overlap = ea.iter().any(|(e, la)| eb.get(e).is_some_and(|lb| la.overlaps(lb)));
                if !overlap {
                    continue;
                }
            }
            let code = if aa.write && ab.write { Code::RaceWw } else { Code::RaceRw };
            let de = retag(&aa.epoch, 1, &sync).sub(&retag(&ab.epoch, 2, &sync));
            let env = PairEnv {
                a,
                b,
                ra: &aa.refine,
                rb: &ab.refine,
                sync: &sync,
                pins: BTreeMap::new(),
            };
            match (&aa.addr, &ab.addr) {
                (Some(fa), Some(fb)) => {
                    let dd = retag(fa, 1, &sync).sub(&retag(fb, 2, &sync));
                    let win = (-(i64::from(ab.esize)), i64::from(aa.esize));
                    if conflict_possible(&env, &de, &dd, win) {
                        if std::env::var_os("VLRACE_DEBUG_PAIRS").is_some() {
                            eprintln!(
                                "pair #{}/#{} t{}/t{}\n  de={:?} [{:?},{:?}]\n  dd={:?} [{:?},{:?}] win={:?}",
                                aa.sidx, ab.sidx, a.tid, b.tid,
                                de, clb(&env, &de, &mut Vec::new()), cub(&env, &de, &mut Vec::new()),
                                dd, clb(&env, &dd, &mut Vec::new()), cub(&env, &dd, &mut Vec::new()),
                                win,
                            );
                        }
                        emit_pair(cfg, a.tid, b.tid, aa, ab, code, seen, out);
                    }
                }
                _ => {
                    // At least one unbounded footprint (and at least one
                    // write in the pair): epoch separation still excludes.
                    if maybe_zero(&env, &de) {
                        emit_unknown(cfg, a.tid, b.tid, aa, ab, seen, out);
                    }
                }
            }
        }
    }
}

/// Stratified integer feasibility: can `f` evaluate to a value in the
/// closed interval `[tlo, thi]`? Variables on opposite sides are
/// independent, each is an integer in its (refined) range, and each is a
/// multiple of its residue step — so a variable contributes
/// `(coef·step)·u` with `u` ranging over a contiguous integer interval.
/// Branching on the largest effective coefficient first makes
/// radix-structured address differences (row stride ≫ element size)
/// collapse to a handful of branches; this is exact separation the
/// interval hull cannot do (a row-partitioned matrix smears across row
/// boundaries the moment the column span exceeds one row). Unbounded
/// variables or fuel exhaustion fall back to "feasible".
fn strata_feasible(env: &PairEnv<'_>, f: &Form, tlo: i64, thi: i64) -> bool {
    let mut terms: Vec<(i128, i128, i128)> = Vec::new();
    for &(v, k) in &f.t {
        let (lo, hi) = env.rng(v);
        let (Some(lo), Some(hi)) = (lo, hi) else { return true };
        let s = env.step(v).max(1);
        let (ulo, uhi) = (div_ceil(lo, s), div_floor(hi, s));
        if ulo > uhi {
            // The range admits no multiple of the step: this refinement is
            // off every reachable path, so the pairing cannot conflict.
            return false;
        }
        let ce = i128::from(k) * i128::from(s);
        if ce == 0 {
            continue;
        }
        if ce > 0 {
            terms.push((ce, i128::from(ulo), i128::from(uhi)));
        } else {
            terms.push((-ce, -i128::from(uhi), -i128::from(ulo)));
        }
    }
    terms.sort_by_key(|&(ce, _, _)| std::cmp::Reverse(ce));
    let mut fuel = 4096u32;
    strata_rec(
        &terms,
        i128::from(tlo) - i128::from(f.c),
        i128::from(thi) - i128::from(f.c),
        &mut fuel,
    )
}

fn strata_rec(terms: &[(i128, i128, i128)], tlo: i128, thi: i128, fuel: &mut u32) -> bool {
    if tlo > thi {
        return false;
    }
    let Some((&(ce, ulo, uhi), rest)) = terms.split_first() else {
        return tlo <= 0 && 0 <= thi;
    };
    // Hull of the remaining strata (all effective coefficients positive).
    let (mut rlo, mut rhi) = (0i128, 0i128);
    for &(c, a, b) in rest {
        rlo = rlo.saturating_add(c.saturating_mul(a));
        rhi = rhi.saturating_add(c.saturating_mul(b));
    }
    // ce·u must land in [tlo - rhi, thi - rlo].
    let ua = div_ceil_128(tlo.saturating_sub(rhi), ce).max(ulo);
    let ub = div_floor_128(thi.saturating_sub(rlo), ce).min(uhi);
    if ua > ub {
        return false;
    }
    if ub - ua >= i128::from(*fuel) {
        return true;
    }
    let mut u = ua;
    while u <= ub {
        if *fuel == 0 {
            return true;
        }
        *fuel -= 1;
        let shift = ce.saturating_mul(u);
        if strata_rec(rest, tlo.saturating_sub(shift), thi.saturating_sub(shift), fuel) {
            return true;
        }
        u += 1;
    }
    false
}

fn div_floor_128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil_128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Can the epoch difference be zero?
fn maybe_zero(env: &PairEnv<'_>, de: &Form) -> bool {
    if let Some(l) = clb(env, de, &mut Vec::new()) {
        if l > 0 {
            return false;
        }
    }
    if let Some(u) = cub(env, de, &mut Vec::new()) {
        if u < 0 {
            return false;
        }
    }
    // Residue: de ≡ c (mod gcd of coefficients) regardless of ranges.
    let g = de.gcd_terms();
    if g > 0 && de.c.rem_euclid(g) != 0 {
        return false;
    }
    strata_feasible(env, de, 0, 0)
}

/// Can the address difference land inside the open window `(win.0, win.1)`?
fn window_possible(env: &PairEnv<'_>, dd: &Form, win: (i64, i64)) -> bool {
    if let Some(l) = clb(env, dd, &mut Vec::new()) {
        if l >= win.1 {
            return false;
        }
    }
    if let Some(u) = cub(env, dd, &mut Vec::new()) {
        if u <= win.0 {
            return false;
        }
    }
    let g = dd.gcd_terms();
    if g > 0 {
        let mut any = false;
        let mut w = win.0 + 1;
        while w < win.1 {
            if (w - dd.c).rem_euclid(g) == 0 {
                any = true;
                break;
            }
            w += 1;
        }
        if !any {
            return false;
        }
    }
    strata_feasible(env, dd, win.0 + 1, win.1 - 1)
}

/// Full conflict test: both the epoch and window tests pass, including an
/// enumeration fallback over up to two small-domain variables (this is
/// what resolves anti-correlated ping-pong indices, where the hull of the
/// difference straddles 0 but no single assignment reaches it).
fn conflict_possible(env: &PairEnv<'_>, de: &Form, dd: &Form, win: (i64, i64)) -> bool {
    if !maybe_zero(env, de) || !window_possible(env, dd, win) {
        return false;
    }
    // Pick enumeration candidates: finite span ≤ 3, preferring variables
    // that appear in both forms (correlation is what the hull loses).
    let mut cands: Vec<(Var, i64, i64, bool)> = Vec::new();
    let mut seen_vars: BTreeSet<Var> = BTreeSet::new();
    for f in [de, dd] {
        for &(v, _) in &f.t {
            if !seen_vars.insert(v) {
                continue;
            }
            let (lo, hi) = env.rng(v);
            if let (Some(l), Some(h)) = (lo, hi) {
                if h - l <= 3 {
                    let both =
                        de.t.iter().any(|&(w, _)| w == v) && dd.t.iter().any(|&(w, _)| w == v);
                    cands.push((v, l, h, both));
                }
            }
        }
    }
    if cands.is_empty() {
        return true;
    }
    cands.sort_by_key(|&(_, l, h, both)| (!both, h - l));
    cands.truncate(2);

    // Every assignment must be excluded for the conflict to be impossible.
    let mut assignments: Vec<BTreeMap<Var, i64>> = vec![BTreeMap::new()];
    for &(v, l, h, _) in &cands {
        let mut next = Vec::new();
        for asg in &assignments {
            for val in l..=h {
                let mut a2 = asg.clone();
                a2.insert(v, val);
                next.push(a2);
            }
        }
        assignments = next;
    }
    for pins in assignments {
        let mut de2 = de.clone();
        let mut dd2 = dd.clone();
        for (&v, &val) in &pins {
            let k = Form::konst(val);
            de2 = de2.subst(v, &k);
            dd2 = dd2.subst(v, &k);
        }
        let penv = PairEnv { a: env.a, b: env.b, ra: env.ra, rb: env.rb, sync: env.sync, pins };
        if maybe_zero(&penv, &de2) && window_possible(&penv, &dd2, win) {
            return true;
        }
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn emit_pair(
    cfg: &Cfg,
    t1: usize,
    t2: usize,
    aa: &Access,
    ab: &Access,
    code: Code,
    seen: &mut BTreeSet<(usize, usize, Code)>,
    out: &mut RaceOut,
) {
    out.sites.insert(aa.sidx);
    out.sites.insert(ab.sidx);
    let key = (aa.sidx.min(ab.sidx), aa.sidx.max(ab.sidx), code);
    if !seen.insert(key) {
        return;
    }
    let kind1 = if aa.write { "write" } else { "read" };
    let kind2 = if ab.write { "write" } else { "read" };
    out.diags.push(Diagnostic {
        code,
        severity: code.severity(),
        sidx: Some(aa.sidx),
        disasm: disasm(&cfg.insts[aa.sidx]),
        msg: format!(
            "this {kind1} (e.g. thread {t1}) may overlap the {kind2} at #{} \
             `{}` (e.g. thread {t2}) within the same barrier epoch",
            ab.sidx,
            disasm(&cfg.insts[ab.sidx]),
        ),
    });
}

fn emit_unknown(
    cfg: &Cfg,
    t1: usize,
    t2: usize,
    aa: &Access,
    ab: &Access,
    seen: &mut BTreeSet<(usize, usize, Code)>,
    out: &mut RaceOut,
) {
    out.sites.insert(aa.sidx);
    out.sites.insert(ab.sidx);
    // Anchor at the unbounded access; fall back to the other one.
    let (anchor, other, ta, to) =
        if aa.addr.is_none() { (aa, ab, t1, t2) } else { (ab, aa, t2, t1) };
    let key = (anchor.sidx, anchor.sidx, Code::RaceUnknown);
    if !seen.insert(key) {
        return;
    }
    let kind = if anchor.write { "write" } else { "read" };
    let okind = if other.write { "write" } else { "read" };
    out.diags.push(Diagnostic {
        code: Code::RaceUnknown,
        severity: Code::RaceUnknown.severity(),
        sidx: Some(anchor.sidx),
        disasm: disasm(&cfg.insts[anchor.sidx]),
        msg: format!(
            "this {kind} (e.g. thread {ta}) has no bounded footprint and shares an \
             epoch with the {okind} at #{} `{}` (e.g. thread {to})",
            other.sidx,
            disasm(&cfg.insts[other.sidx]),
        ),
    });
}
