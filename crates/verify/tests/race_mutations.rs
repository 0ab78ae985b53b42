//! Race-mutant corpus: seeded concurrency defects
//! (`support::race_mutants`), each of which the static race analysis must
//! flag with the expected diagnostic code. The unmutated base kernel must
//! be race-clean at every tested thread count, so every finding is
//! attributable to the seeded defect.

mod support;

use support::{race_mutant, race_mutants, RACE_BASE, RACE_THREADS};
use vlt_isa::asm::assemble;
use vlt_verify::{check_races, Report};

fn races(src: &str, threads: usize) -> Report {
    let prog = assemble(src).unwrap_or_else(|e| panic!("assembly failed: {e}"));
    check_races(&prog, threads)
}

fn listing(r: &Report) -> String {
    r.diags.iter().map(|d| format!("  {d}\n")).collect()
}

#[test]
fn base_kernel_is_race_clean() {
    for t in RACE_THREADS {
        let r = races(RACE_BASE, t);
        assert_eq!(
            r.diags.len(),
            0,
            "base kernel must be race-clean at {t} threads:\n{}",
            listing(&r)
        );
    }
}

#[test]
fn every_mutant_races() {
    let mut missed = Vec::new();
    for m in race_mutants() {
        for t in RACE_THREADS {
            let r = races(&m.src, t);
            for &code in m.codes {
                if !r.diags.iter().any(|d| d.code == code) {
                    missed.push(format!(
                        "{}: expected {code} to fire at {t} threads, got {} diags:\n{}",
                        m.name,
                        r.diags.len(),
                        listing(&r)
                    ));
                }
            }
        }
    }
    assert!(missed.is_empty(), "{}", missed.join("\n"));
}

// --- the dynamic side sees the same defects ----------------------------

/// The two mutants whose races actually fire on the canonical schedule
/// must also be caught by the dynamic epoch checker, and every dynamic
/// conflict must be statically predicted (the `debug_assert` inside the
/// checker aborts a debug build otherwise).
#[test]
fn dynamic_checker_confirms_static_verdicts() {
    use vlt_exec::{FuncSim, RaceConfig};
    use vlt_verify::predicted_race_sites;

    for name in ["wrong induction start", "missing barrier"] {
        let prog = assemble(&race_mutant(name).src).unwrap();
        let predicted = predicted_race_sites(&prog, 4);
        let mut sim = FuncSim::new(&prog, 4);
        sim.enable_race_checker(RaceConfig {
            predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
        });
        sim.run_to_completion(1_000_000).unwrap();
        let rc = sim.race_checker().unwrap();
        assert!(!rc.is_clean(), "{name}: dynamic checker saw no conflict");
    }
}
