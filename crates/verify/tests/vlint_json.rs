//! The `vlint --json` schema, read back through a general JSON parser
//! (`vlt_stats::json`): the emitter round-trips every field, frozen v1
//! documents keep decoding, and the CLI's output decodes into the reports
//! it printed.

use std::process::Command;

use vlt_stats::json::Json;
use vlt_verify::json::{quote, report_to_json, JSON_SCHEMA_VERSION};
use vlt_verify::{Code, Diagnostic, Report, Severity};

/// One file's outcome inside a `vlint --json` document.
#[derive(Debug)]
enum FileOutcome {
    /// The file assembled and was analyzed.
    Report(Report),
    /// The file failed to assemble (the message is the assembler error).
    AssemblyError(String),
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key)?.as_str().ok_or_else(|| format!("`{key}` is not a string"))
}

fn count(v: &Json, what: &str) -> Result<usize, String> {
    v.as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as usize)
        .ok_or_else(|| format!("`{what}` is not a non-negative integer"))
}

/// Check the `schema`/`version` header of a document or file entry.
fn check_header(v: &Json, schema: &str) -> Result<(), String> {
    let got = str_field(v, "schema")?;
    if got != schema {
        return Err(format!("unknown schema `{got}`"));
    }
    let version = count(field(v, "version")?, "version")?;
    if version as u64 != JSON_SCHEMA_VERSION {
        return Err(format!("unsupported schema version {version}"));
    }
    Ok(())
}

/// Rebuild a [`Report`] from a `vlint-report` object. Unknown fields are
/// ignored (the schema is append-only); codes and severities must resolve.
fn decode_report(v: &Json) -> Result<Report, String> {
    let mut report =
        Report { diags: Vec::new(), suppressed: count(field(v, "suppressed")?, "suppressed")? };
    let diags = field(v, "diagnostics")?.as_arr().ok_or("`diagnostics` is not an array")?;
    for d in diags {
        let name = str_field(d, "code")?;
        let code = Code::from_name(name).ok_or_else(|| format!("unknown lint code `{name}`"))?;
        let severity = match str_field(d, "severity")? {
            "info" => Severity::Info,
            "warning" => Severity::Warn,
            "error" => Severity::Error,
            other => return Err(format!("unknown severity `{other}`")),
        };
        let sidx = match d.get("sidx") {
            None | Some(Json::Null) => None,
            Some(n) => Some(count(n, "sidx")?),
        };
        report.diags.push(Diagnostic {
            code,
            severity,
            sidx,
            disasm: d.get("disasm").and_then(Json::as_str).unwrap_or("").to_string(),
            msg: str_field(d, "msg")?.to_string(),
        });
    }
    Ok(report)
}

/// Decode one `vlint-report` document into `(path, report)`.
fn report_from_json(text: &str) -> Result<(String, Report), String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    check_header(&v, "vlint-report")?;
    Ok((str_field(&v, "path")?.to_string(), decode_report(&v)?))
}

/// Decode a full `vlint --json` document into `(path, outcome)` pairs, in
/// CLI order.
fn vlint_output_from_json(text: &str) -> Result<Vec<(String, FileOutcome)>, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    check_header(&v, "vlint")?;
    let files = field(&v, "files")?.as_arr().ok_or("`files` is not an array")?;
    files
        .iter()
        .map(|f| {
            check_header(f, "vlint-report")?;
            let outcome = match f.get("assembly_error").and_then(Json::as_str) {
                Some(e) => FileOutcome::AssemblyError(e.to_string()),
                None => FileOutcome::Report(decode_report(f)?),
            };
            Ok((str_field(f, "path")?.to_string(), outcome))
        })
        .collect()
}

fn diag(code: Code, sidx: Option<usize>, disasm: &str, msg: &str) -> Diagnostic {
    Diagnostic { code, severity: code.severity(), sidx, disasm: disasm.into(), msg: msg.into() }
}

/// The schema-stability gate: emit → parse is the identity on every
/// field, including awkward characters in strings.
#[test]
fn report_round_trips() {
    let report = Report {
        diags: vec![
            diag(Code::ZeroVl, Some(4), "setvl x0, x3", "request is 0"),
            diag(Code::RaceWw, Some(17), "vstx v1, x2, v3", "quotes \" and \\ back\\slash"),
            diag(Code::RaceUnknown, None, "", "newline\nand tab\tand bell\u{7} and é\r"),
            diag(Code::DlpShortVl, Some(0), "vadd.vv v1, v2, v3", "短い VL"),
        ],
        suppressed: 3,
    };
    let text = report_to_json("dir/some file.s", &report);
    let (path, back) = report_from_json(&text).unwrap();
    assert_eq!(path, "dir/some file.s");
    assert_eq!(back.suppressed, report.suppressed);
    assert_eq!(back.diags.len(), report.diags.len());
    for (a, b) in report.diags.iter().zip(&back.diags) {
        assert_eq!(a.code, b.code);
        assert_eq!(a.severity, b.severity);
        assert_eq!(a.sidx, b.sidx);
        assert_eq!(a.disasm, b.disasm);
        assert_eq!(a.msg, b.msg);
    }
    // Derived counts were emitted consistently.
    assert!(text.contains("\"errors\": 1"));
    assert!(text.contains("\"warnings\": 2"));
    assert!(text.contains("\"infos\": 1"));
}

/// The emitter's string escaping is byte-identical to the general JSON
/// writer's.
#[test]
fn quote_matches_the_json_writer() {
    for s in ["plain", "q\"b\\s", "n\nr\rt\t", "bell\u{7} nul\u{0}", "é 短い"] {
        assert_eq!(quote(s), Json::Str(s.to_string()).pretty(), "{s:?}");
    }
}

#[test]
fn empty_report_round_trips() {
    let (path, back) = report_from_json(&report_to_json("x.s", &Report::default())).unwrap();
    assert_eq!(path, "x.s");
    assert!(back.diags.is_empty());
    assert_eq!(back.suppressed, 0);
}

/// A frozen v1 document must keep decoding forever (the schema is
/// append-only), including fields this version does not know about.
#[test]
fn frozen_v1_document_parses() {
    let doc = r#"{
        "schema": "vlint-report", "version": 1, "path": "a.s",
        "errors": 1, "warnings": 0, "infos": 0, "suppressed": 2,
        "future_field": [1, 2, {"x": true}],
        "diagnostics": [
            {"code": "oob-write", "severity": "error", "sidx": 3,
             "pc": 4108, "disasm": "sd x1, 0(x2)", "msg": "out of bounds"}
        ]
    }"#;
    let (path, r) = report_from_json(doc).unwrap();
    assert_eq!(path, "a.s");
    assert_eq!(r.suppressed, 2);
    assert_eq!(r.diags.len(), 1);
    assert_eq!(r.diags[0].code, Code::OobWrite);
    assert_eq!(r.diags[0].severity, Severity::Error);
    assert_eq!(r.diags[0].sidx, Some(3));
}

#[test]
fn rejects_malformed_documents() {
    assert!(report_from_json("").is_err());
    assert!(report_from_json("[]").is_err());
    assert!(report_from_json("{\"schema\": \"other\"}").is_err());
    assert!(report_from_json("{\"schema\": \"vlint-report\", \"version\": 99}").is_err());
    let bad_code = r#"{"schema": "vlint-report", "version": 1, "path": "a.s",
        "suppressed": 0, "diagnostics": [{"code": "nope", "severity": "error",
        "msg": "x"}]}"#;
    assert!(report_from_json(bad_code).is_err());
}

fn run_vlint(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vlint")).args(args).output().expect("vlint runs");
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn json_output_round_trips_through_the_library_parser() {
    let dir = std::env::temp_dir().join("vlint-json-test");
    std::fs::create_dir_all(&dir).unwrap();
    // One clean file, one with findings (undef read + dead write).
    let clean = dir.join("clean.s");
    std::fs::write(
        &clean,
        ".data\nbuf:\n.zero 64\n.text\nla x1, buf\nli x2, 7\nsd x2, 0(x1)\nld x3, 8(x1)\n\
         add x4, x2, x3\nsd x4, 16(x1)\nhalt\n",
    )
    .unwrap();
    let dirty = dir.join("dirty.s");
    std::fs::write(&dirty, "add x2, x7, x7\nhalt\n").unwrap();

    let (code, stdout) = run_vlint(&["--json", clean.to_str().unwrap(), dirty.to_str().unwrap()]);
    assert_eq!(code, Some(1), "dirty file has an error finding");

    let files = vlint_output_from_json(&stdout)
        .unwrap_or_else(|e| panic!("CLI emitted undecodable JSON ({e}):\n{stdout}"));
    assert_eq!(files.len(), 2, "expected two file reports:\n{stdout}");

    let (clean_path, clean_outcome) = &files[0];
    assert_eq!(clean_path, clean.to_str().unwrap());
    let FileOutcome::Report(clean_report) = clean_outcome else {
        panic!("clean file failed to assemble:\n{stdout}");
    };
    assert!(clean_report.diags.is_empty(), "clean file reported findings:\n{stdout}");

    let (dirty_path, dirty_outcome) = &files[1];
    assert_eq!(dirty_path, dirty.to_str().unwrap());
    let FileOutcome::Report(dirty_report) = dirty_outcome else {
        panic!("dirty file failed to assemble:\n{stdout}");
    };
    assert!(dirty_report.errors() >= 1, "undef read must surface as an error:\n{stdout}");
    assert!(
        dirty_report.diags.iter().any(|d| d.severity == Severity::Error && d.sidx == Some(0)),
        "error not anchored at sidx 0:\n{stdout}"
    );
}

#[test]
fn json_assembly_errors_are_structured() {
    let dir = std::env::temp_dir().join("vlint-json-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.s");
    std::fs::write(&bad, "bogus operand soup\n").unwrap();

    let (code, stdout) = run_vlint(&["--json", bad.to_str().unwrap()]);
    assert_eq!(code, Some(1), "assembly errors fail the run");
    let files = vlint_output_from_json(&stdout)
        .unwrap_or_else(|e| panic!("CLI emitted undecodable JSON ({e}):\n{stdout}"));
    assert_eq!(files.len(), 1);
    let FileOutcome::AssemblyError(msg) = &files[0].1 else {
        panic!("expected an assembly_error entry:\n{stdout}");
    };
    assert!(msg.contains("unknown mnemonic"), "unexpected message `{msg}`");
}

/// `--json` composes with the analysis flags: race and DLP diagnostics
/// appear in the same machine-readable stream.
#[test]
fn json_carries_race_and_dlp_findings() {
    let dir = std::env::temp_dir().join("vlint-json-test");
    std::fs::create_dir_all(&dir).unwrap();
    // Two threads both store to the same address every epoch: race-ww.
    let racy = dir.join("racy.s");
    std::fs::write(
        &racy,
        ".data\nbuf:\n.zero 64\n.text\nla x1, buf\nli x2, 1\nsd x2, 0(x1)\nhalt\n",
    )
    .unwrap();

    let (code, stdout) = run_vlint(&["--json", "--races=2", racy.to_str().unwrap()]);
    assert_eq!(code, Some(0), "races are warnings, not errors");
    let files = vlint_output_from_json(&stdout).unwrap();
    let FileOutcome::Report(report) = &files[0].1 else { panic!("assembled") };
    assert!(
        report.diags.iter().any(|d| d.code.name().starts_with("race-")),
        "race finding missing from JSON:\n{stdout}"
    );
}
