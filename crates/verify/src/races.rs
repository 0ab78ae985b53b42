//! Barrier-epoch race checking (the static half of vlrace).
//!
//! VLT threads share memory and synchronize only at barriers, so a race
//! is two threads touching a common byte in one barrier epoch, at least
//! one of them writing. The DLP walk ([`crate::dlp`]) runs every thread in
//! the epoch-synchronous schedule and records each (site, epoch) access
//! set; its module docs show that a walk in which every thread halts and
//! no two sets conflict covers every interleaving. This module turns the
//! walk's [`RaceVerdict`] into diagnostics:
//!
//! * **certified**: the report is clean;
//! * **conflicts**: every conflicting site pair is a `race-ww` or
//!   `race-rw` at both sites, naming the threads, the epoch and the other
//!   site. A pair whose witness rests on a superset access set (an
//!   extrapolated loop span or a collapsed hull) is `race-unknown`;
//! * **any other failure to certify** (step budget, an untracked value
//!   steering the walk, a fault): one `race-unknown` with the walk's note.

use std::collections::BTreeSet;

use vlt_isa::{decode, disasm, Inst, OpClass, Program};

use crate::cfg::Cfg;
use crate::diag::{Code, Diagnostic, Options, Report};
use crate::dlp::{analyze_with_races, DlpOptions, DlpProfile, RaceVerdict};

/// Static race analysis with default options plus program-embedded allows.
pub fn check_races(prog: &Program, nthr: usize) -> Report {
    check_races_with(prog, nthr, &Options::default().with_program_allows(prog))
}

/// Static race analysis under explicit options: the walk at `nthr`
/// threads under the default DLP step budget.
pub fn check_races_with(prog: &Program, nthr: usize, opts: &Options) -> Report {
    if !may_race(prog, nthr) {
        return Report::default();
    }
    race_report(prog, &verdict(prog, nthr), opts)
}

/// [`check_races_with`] and [`crate::dlp::analyze`] at `nthr` threads
/// from one walk (`vlint --races --dlp=N`). Both results equal those of
/// the separate calls, which run the same walk under the same default
/// step budget.
pub fn check_races_and_profile(
    prog: &Program,
    nthr: usize,
    opts: &Options,
) -> (Report, DlpProfile) {
    let (profile, verdict) =
        analyze_with_races(prog, &DlpOptions { threads: nthr, ..DlpOptions::default() });
    let report =
        if may_race(prog, nthr) { race_report(prog, &verdict, opts) } else { Report::default() };
    (report, profile)
}

/// The static-instruction indices that participate in any potential race
/// (ignoring allows): none when the walk certifies, else every reachable
/// memory access site. The dynamic race checker in `vlt-exec` asserts
/// that every conflict it observes at runtime involves only sites in this
/// set.
pub fn predicted_race_sites(prog: &Program, nthr: usize) -> BTreeSet<usize> {
    if !may_race(prog, nthr) || verdict(prog, nthr) == RaceVerdict::Certified {
        return BTreeSet::new();
    }
    let insts: Vec<Inst> = prog.text.iter().map(|&w| decode(w).unwrap_or(Inst::NOP)).collect();
    let cfg = Cfg::build(insts);
    let reach = cfg.reachable();
    let mut sites = BTreeSet::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if reach[b] {
            sites.extend((block.start..block.end).filter(|&i| cfg.insts[i].op.class().is_mem()));
        }
    }
    sites
}

/// Whether races are possible at all: a single thread cannot race, and
/// an empty text segment executes no access.
fn may_race(prog: &Program, nthr: usize) -> bool {
    nthr > 1 && !prog.text.is_empty()
}

/// The walk's race verdict.
fn verdict(prog: &Program, nthr: usize) -> RaceVerdict {
    analyze_with_races(prog, &DlpOptions { threads: nthr, ..DlpOptions::default() }).1
}

/// Diagnostics for a verdict, sorted by site then code, with `opts`'
/// allows applied.
fn race_report(prog: &Program, verdict: &RaceVerdict, opts: &Options) -> Report {
    let insts: Vec<Inst> = prog.text.iter().map(|&w| decode(w).unwrap_or(Inst::NOP)).collect();
    let mut diags = Vec::new();
    match verdict {
        RaceVerdict::Certified => {}
        RaceVerdict::Unknown(note) => diags.push(Diagnostic {
            code: Code::RaceUnknown,
            severity: Code::RaceUnknown.severity(),
            sidx: None,
            disasm: String::new(),
            msg: format!(
                "the race walk could not certify the schedule ({note}): any shared access may race"
            ),
        }),
        RaceVerdict::Conflicts(conflicts) => {
            let write = |s: usize| matches!(insts[s].op.class(), OpClass::Store | OpClass::VStore);
            let kind = |s: usize| if write(s) { "write" } else { "read" };
            for c in conflicts {
                let (s1, s2) = c.sites;
                let code = match (c.exact, write(s1) && write(s2)) {
                    (false, _) => Code::RaceUnknown,
                    (true, true) => Code::RaceWw,
                    (true, false) => Code::RaceRw,
                };
                let witness = if c.exact {
                    format!("touch the same bytes in barrier epoch {}", c.epoch)
                } else {
                    format!(
                        "may touch the same bytes in barrier epoch {}: the walk's access set of \
                         one of them is a superset (an extrapolated loop span or a collapsed hull)",
                        c.epoch
                    )
                };
                let mut at = |(s, t): (usize, usize), (o, to): (usize, usize)| {
                    diags.push(Diagnostic {
                        code,
                        severity: code.severity(),
                        sidx: Some(s),
                        disasm: disasm(&insts[s]),
                        msg: format!(
                            "this {} (thread {t}) and the {} at #{o} `{}` (thread {to}) {witness}",
                            kind(s),
                            kind(o),
                            disasm(&insts[o]),
                        ),
                    });
                };
                at((s1, c.threads.0), (s2, c.threads.1));
                if s1 != s2 {
                    at((s2, c.threads.1), (s1, c.threads.0));
                }
            }
            diags.sort_by_key(|d| (d.sidx, d.code));
        }
    }
    let mut report = Report::default();
    for d in diags {
        if opts.allow.contains(&d.code) {
            report.suppressed += 1;
        } else {
            report.diags.push(d);
        }
    }
    report
}
