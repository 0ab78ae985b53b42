//! Mutation corpus: ~25 seeded kernel defects (`support::lint_mutants`),
//! each of which the verifier must flag with the expected lint code. The
//! unmutated base kernel must be completely clean, so every finding is
//! attributable to the seeded defect.

mod support;

use support::{lint_mutants, LINT_BASE};
use vlt_verify::{verify_source, Code};

#[test]
fn base_kernel_is_clean() {
    let r = verify_source(LINT_BASE).unwrap();
    assert_eq!(r.diags.len(), 0, "base kernel must be spotless:\n{r}");
}

#[test]
fn every_mutant_is_flagged() {
    let mut missed = Vec::new();
    for m in lint_mutants() {
        let r =
            verify_source(&m.src).unwrap_or_else(|e| panic!("{}: assembly failed: {e}", m.name));
        for &code in m.codes {
            if !r.flags(code) {
                missed.push(format!("{}: expected {code} to fire, got:\n{r}", m.name));
            }
        }
    }
    assert!(missed.is_empty(), "{}", missed.join("\n"));
}

#[test]
fn corrupt_encoding() {
    use vlt_isa::asm::assemble;
    let mut p = assemble(LINT_BASE).unwrap();
    p.text[3] = 0xFE00_0001; // no such opcode
    let r = vlt_verify::verify(&p);
    assert!(r.flags(Code::BadEncoding), "{r}");
}
