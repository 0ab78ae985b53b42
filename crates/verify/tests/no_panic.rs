//! Truncated programs get diagnosed, never a panic. Every line prefix of
//! each `examples/asm/*.s` that still assembles goes through the lint
//! pass, the race check at 2 and 4 threads, and the static DLP walk. The
//! prefixes cover the shapes an editor or a cut-off file produces: empty
//! text, data only, loops whose closing branch is gone, programs that fall
//! off the end.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use vlt_isa::asm::assemble;
use vlt_verify::dlp::{analyze, DlpOptions};
use vlt_verify::{check_races_with, verify, Options};

#[test]
fn every_assembling_prefix_is_analyzed_without_panic() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("examples/asm must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "s"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .s files under examples/asm");

    let mut checked = 0;
    let mut panics = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        for n in 0..=lines.len() {
            let prefix = lines[..n].join("\n");
            let Ok(prog) = assemble(&prefix) else { continue };
            checked += 1;
            let run = catch_unwind(AssertUnwindSafe(|| {
                verify(&prog);
                let opts = Options::default().with_program_allows(&prog);
                for threads in [2, 4] {
                    check_races_with(&prog, threads, &opts);
                }
                analyze(&prog, &DlpOptions::default());
            }));
            if run.is_err() {
                panics.push(format!("{} (first {n} lines)", path.display()));
            }
        }
    }
    assert!(checked > files.len(), "too few prefixes assembled: {checked}");
    assert!(panics.is_empty(), "analyses panicked on:\n{}", panics.join("\n"));
}

/// A data-only file: the lint pass reports `off-end`, and the DLP walk
/// returns an empty profile marked inexact with the reason.
#[test]
fn empty_text_gives_an_inexact_dlp_profile() {
    let prog = assemble(".data\nxs: .dword 1, 2\n").unwrap();
    assert!(prog.text.is_empty());
    assert!(verify(&prog).flags(vlt_verify::Code::OffEnd));
    let p = analyze(&prog, &DlpOptions::default());
    assert!(!p.exact);
    assert!(!p.notes.is_empty());
    assert_eq!(p.total.insts, 0);
}
