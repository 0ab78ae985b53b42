//! Machine-readable diagnostics — the `vlint --json` schema.
//!
//! Version 1 of the schema is one JSON object per checked file:
//!
//! ```json
//! {
//!   "schema": "vlint-report",
//!   "version": 1,
//!   "path": "kernels/spmv.s",
//!   "errors": 0,
//!   "warnings": 1,
//!   "infos": 0,
//!   "suppressed": 0,
//!   "diagnostics": [
//!     {
//!       "code": "dead-write",
//!       "severity": "warning",
//!       "sidx": 12,
//!       "pc": 4144,
//!       "disasm": "addi x5, x5, 8",
//!       "msg": "register written but the value can never be read afterwards"
//!     }
//!   ]
//! }
//! ```
//!
//! `sidx`/`pc` are `null` for unanchored findings; `disasm` may be empty.
//! `errors`/`warnings`/`infos` are derived counts included for consumers
//! that do not want to walk the array. The schema is append-only: later
//! versions may add fields but never rename or remove these.
//!
//! Decoding is left to a general JSON parser: `tests/vlint_json.rs`
//! reads every field back through `vlt_stats::json` — that round trip is
//! the schema-stability gate.

use std::fmt::Write as _;

use crate::diag::Report;

/// Current schema version emitted by [`report_to_json`].
pub const JSON_SCHEMA_VERSION: u64 = 1;

/// Serialize one file's verification outcome to a schema-v1 JSON object.
pub fn report_to_json(path: &str, report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"vlint-report\",");
    let _ = writeln!(s, "  \"version\": {JSON_SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"path\": {},", quote(path));
    let _ = writeln!(s, "  \"errors\": {},", report.errors());
    let _ = writeln!(s, "  \"warnings\": {},", report.warnings());
    let _ = writeln!(s, "  \"infos\": {},", report.infos());
    let _ = writeln!(s, "  \"suppressed\": {},", report.suppressed);
    s.push_str("  \"diagnostics\": [");
    for (i, d) in report.diags.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"code\": {},", quote(d.code.name()));
        let _ = writeln!(s, "      \"severity\": {},", quote(&d.severity.to_string()));
        match d.sidx {
            Some(i) => {
                let _ = writeln!(s, "      \"sidx\": {i},");
                let _ = writeln!(s, "      \"pc\": {},", d.pc().unwrap());
            }
            None => {
                let _ = writeln!(s, "      \"sidx\": null,");
                let _ = writeln!(s, "      \"pc\": null,");
            }
        }
        let _ = writeln!(s, "      \"disasm\": {},", quote(&d.disasm));
        let _ = writeln!(s, "      \"msg\": {}", quote(&d.msg));
        s.push_str("    }");
    }
    if !report.diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    s
}

/// JSON string literal with the escapes the schema needs.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
