//! Byte-identity oracle for the verifier's reports: one FNV-1a digest over
//! the `Debug` text of `verify_with` for every seeded mutant (`support`),
//! and of `verify_with` and `check_races_with` for the race mutants and
//! the 13 kernels at Test scale × {1, 4, 8} threads. The analyses may get
//! faster; what they report must not change. A deliberate change to a
//! finding or a message updates `EXPECTED` in the same commit, with the
//! reason.
//!
//! The same programs, plus every `examples/asm` file, also check that the
//! one walk behind `vlint --races --dlp=N` reports what the separate race
//! and DLP calls do.

mod support;

use std::path::PathBuf;

use support::{lint_mutants, race_mutants, RACE_THREADS};
use vlt_isa::asm::assemble;
use vlt_isa::Program;
use vlt_verify::dlp::{analyze, DlpOptions};
use vlt_verify::{check_races_and_profile, check_races_with, verify_with, Options};
use vlt_workloads::{irregular_suite, suite, Scale};

/// Last changed when race checking became one walk: race messages now
/// name an epoch and a site pair, a conflict is reported at both sites,
/// and "scatter through loaded indices" is a `race-rw`, not a
/// `race-unknown`.
const EXPECTED: u64 = 0x1de6_1ba4_50db_78c5;

struct Fnv(u64);

impl Fnv {
    fn absorb(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold in the lint report and the race reports at `threads`.
    fn reports(&mut self, label: &str, prog: &Program, threads: &[usize]) {
        let opts = Options::default().with_program_allows(prog);
        self.absorb(label);
        self.absorb(&format!("{:?}", verify_with(prog, &opts)));
        for &t in threads {
            self.absorb(&format!("{:?}", check_races_with(prog, t, &opts)));
        }
    }
}

#[test]
fn reports_match_the_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Lint mutants are linted only: `jr present` never halts (it jumps back
    // to the entry), which sends the race check's DLP walk to its full
    // step budget.
    for (mutants, threads) in [(lint_mutants(), &[][..]), (race_mutants(), &RACE_THREADS[..])] {
        for m in mutants {
            let prog = assemble(&m.src).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            h.reports(m.name, &prog, threads);
        }
    }
    for k in suite().into_iter().chain(irregular_suite()) {
        for threads in [1, 4, 8] {
            // Eight vector threads need the two-cluster spread for their MVL.
            let clusters = if threads > k.max_threads() { 2 } else { 1 };
            let built = k.build_spread(threads, clusters, Scale::Test);
            h.reports(&format!("{} x{threads}", k.name()), &built.program, &[threads]);
        }
    }
    assert_eq!(h.0, EXPECTED, "verifier reports changed: digest {:#018x}", h.0);
}

/// Assert that one walk gives the race report and the DLP profile the
/// two separate calls give.
fn one_walk_matches_two(label: &str, prog: &Program, threads: usize) {
    let opts = Options::default().with_program_allows(prog);
    let (races, profile) = check_races_and_profile(prog, threads, &opts);
    let apart = check_races_with(prog, threads, &opts);
    assert_eq!(format!("{races:?}"), format!("{apart:?}"), "{label} x{threads}: race report");
    let apart = analyze(prog, &DlpOptions { threads, ..DlpOptions::default() });
    assert_eq!(format!("{profile:?}"), format!("{apart:?}"), "{label} x{threads}: DLP profile");
}

#[test]
fn one_walk_reports_what_two_walks_do() {
    for m in race_mutants() {
        for &threads in &RACE_THREADS {
            one_walk_matches_two(m.name, &assemble(&m.src).unwrap(), threads);
        }
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/asm must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "s"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .s files under examples/asm");
    for f in &files {
        let prog = assemble(&std::fs::read_to_string(f).unwrap()).unwrap();
        let threads = prog.symbol("vlint.threads").map_or(2, |v| v as usize);
        one_walk_matches_two(&f.display().to_string(), &prog, threads);
    }
    for k in suite().into_iter().chain(irregular_suite()) {
        for threads in [1, 4, 8] {
            let clusters = if threads > k.max_threads() { 2 } else { 1 };
            let built = k.build_spread(threads, clusters, Scale::Test);
            one_walk_matches_two(k.name(), &built.program, threads);
        }
    }
}
