//! Byte-identity oracle for the verifier's reports: one FNV-1a digest over
//! the `Debug` text of `verify_with` for every seeded mutant (`support`),
//! and of `verify_with` and `check_races_with` for the race mutants and
//! the 13 kernels at Test scale × {1, 4, 8} threads. The analyses may get
//! faster; what they report must not change. A deliberate change to a finding or a message updates
//! `EXPECTED` in the same commit, with the reason.

mod support;

use support::{lint_mutants, race_mutants, RACE_THREADS};
use vlt_isa::asm::assemble;
use vlt_isa::Program;
use vlt_verify::{check_races_with, verify_with, Options};
use vlt_workloads::{irregular_suite, suite, Scale};

const EXPECTED: u64 = 0x27e4_7551_ca3d_cdc7;

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
    // Lint mutants are linted only: some never halt (the dropped `setvl`
    // strips by an undefined zero), which sends the race check's DLP walk
    // to its full step budget.
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
