//! `vlint` — static verifier and lint driver for VLT assembly files.
//!
//! ```text
//! vlint [OPTIONS] <PATH>...
//!
//! Paths may be `.s` files or directories (scanned recursively for `.s`).
//!
//! Options:
//!   --strict          exit nonzero on warnings, not just errors
//!   --json            print machine-readable diagnostics (one
//!                     `vlint-report` object per file inside a top-level
//!                     `{"schema": "vlint", "version": 1, "files": [...]}`
//!                     document; see `vlt_verify::json` for the schema)
//!   --allow <code>    suppress a lint code (repeatable)
//!   --races[=N]       also run the barrier-epoch race analysis at N
//!                     threads (default: the program's `vlint.threads`
//!                     symbol, else 2)
//!   --dlp[=N]         also run the static DLP analysis at N threads
//!                     (default 1): prints the predicted Table-4 profile
//!                     and VLTCFG partition advice, and surfaces the
//!                     analyzer's diagnostics (`dlp-*` codes)
//!   --list-codes      print every lint code with severity and description
//!   -q, --quiet       print nothing for clean files
//! ```
//!
//! Exit status: 0 when every file is clean, 1 when any file has an
//! error-severity finding (or any finding under `--strict`), 2 on usage,
//! I/O, or internal analysis problems.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vlt_isa::asm::assemble;
use vlt_verify::dlp::{advise, dlp_report, DlpOptions};
use vlt_verify::json::{quote, report_to_json};
use vlt_verify::{check_races_with, verify_with, Code, Options};

struct Cli {
    strict: bool,
    quiet: bool,
    json: bool,
    /// `Some(None)` = `--races` (thread count from the program or 2);
    /// `Some(Some(n))` = `--races=n`.
    races: Option<Option<usize>>,
    /// `Some(None)` = `--dlp` (1 thread); `Some(Some(n))` = `--dlp=n`.
    dlp: Option<Option<usize>>,
    opts: Options,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: vlint [--strict] [--json] [--allow <code>] [--races[=N]] [--dlp[=N]] [--list-codes] \
     [-q|--quiet] <path>...\n\
     checks .s files (directories are scanned recursively)"
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        strict: false,
        quiet: false,
        json: false,
        races: None,
        dlp: None,
        opts: Options::default(),
        paths: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strict" => cli.strict = true,
            "--json" => cli.json = true,
            "-q" | "--quiet" => cli.quiet = true,
            "--races" => cli.races = Some(None),
            "--dlp" => cli.dlp = Some(None),
            "--list-codes" => {
                for &c in Code::ALL {
                    println!("{:7} {:22} {}", c.severity().to_string(), c.name(), c.describe());
                }
                return Ok(None);
            }
            "--allow" => {
                let v = args.next().ok_or("--allow needs a lint code".to_string())?;
                let code = Code::from_name(&v).ok_or(format!("unknown lint code `{v}`"))?;
                cli.opts.allow.insert(code);
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(None);
            }
            _ if a.starts_with("--dlp=") => {
                let v = &a["--dlp=".len()..];
                let n: usize =
                    v.parse().map_err(|_| format!("--dlp needs a thread count, got `{v}`"))?;
                // The walk keeps a shadow state and an address arena per
                // thread; 64 is the functional simulator's limit too.
                if !(1..=64).contains(&n) {
                    return Err(format!("--dlp thread count must be between 1 and 64, got {n}"));
                }
                cli.dlp = Some(Some(n));
            }
            _ if a.starts_with("--races=") => {
                let v = &a["--races=".len()..];
                let n: usize =
                    v.parse().map_err(|_| format!("--races needs a thread count, got `{v}`"))?;
                if n == 0 {
                    return Err("--races thread count must be at least 1".to_string());
                }
                cli.races = Some(Some(n));
            }
            _ if a.starts_with('-') => return Err(format!("unknown option `{a}`")),
            _ => cli.paths.push(PathBuf::from(a)),
        }
    }
    if cli.paths.is_empty() {
        return Err("no input paths".to_string());
    }
    Ok(Some(cli))
}

/// Collect `.s` files under `path` (recursively for directories).
fn collect(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for e in entries {
            if e.is_dir() || e.extension().is_some_and(|x| x == "s") {
                collect(&e, out)?;
            }
        }
    } else {
        out.push(path.to_path_buf());
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vlint: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut files = Vec::new();
    for p in &cli.paths {
        if let Err(e) = collect(p, &mut files) {
            eprintln!("vlint: {e}");
            return ExitCode::from(2);
        }
    }
    if files.is_empty() {
        eprintln!("vlint: no .s files found under the given paths");
        return ExitCode::from(2);
    }

    let mut failed = false;
    let mut json_files: Vec<String> = Vec::new();
    for f in &files {
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("vlint: {}: {e}", f.display());
                return ExitCode::from(2);
            }
        };
        let prog = match assemble(&src) {
            Ok(p) => p,
            Err(e) => {
                if cli.json {
                    json_files.push(assembly_error_json(&f.display().to_string(), &e.to_string()));
                } else {
                    println!("{}: assembly error: {e}", f.display());
                }
                failed = true;
                continue;
            }
        };
        let opts = cli.opts.clone().with_program_allows(&prog);
        // A panic inside the analyses is an internal error, not a finding:
        // report it and exit 2 so CI can tell "program has races" (1) from
        // "the checker itself fell over" (2).
        let analysis = std::panic::catch_unwind(|| {
            let mut report = verify_with(&prog, &opts);
            if let Some(n) = cli.races {
                let threads =
                    n.or_else(|| prog.symbol("vlint.threads").map(|v| v as usize)).unwrap_or(2);
                let races = check_races_with(&prog, threads, &opts);
                report.diags.extend(races.diags);
                report.suppressed += races.suppressed;
            }
            let dlp = cli.dlp.map(|n| {
                let threads = n.unwrap_or(1);
                let (profile, diags) =
                    dlp_report(&prog, &DlpOptions { threads, ..DlpOptions::default() });
                let mut kept = 0;
                for d in diags {
                    if opts.allow.contains(&d.code) {
                        report.suppressed += 1;
                    } else {
                        report.diags.push(d);
                        kept += 1;
                    }
                }
                let _ = kept;
                profile
            });
            (report, dlp)
        });
        let (report, dlp_profile) = match analysis {
            Ok(r) => r,
            Err(_) => {
                eprintln!(
                    "vlint: {}: internal error in analysis (this is a vlint bug)",
                    f.display()
                );
                return ExitCode::from(2);
            }
        };
        let bad = report.errors() > 0 || (cli.strict && report.warnings() > 0);
        failed |= bad;
        if cli.json {
            json_files.push(report_to_json(&f.display().to_string(), &report));
            continue;
        }
        if report.diags.is_empty() && report.suppressed == 0 && dlp_profile.is_none() {
            if !cli.quiet {
                println!("{}: clean", f.display());
            }
            continue;
        }
        println!("{}:", f.display());
        if let Some(p) = &dlp_profile {
            let t = &p.total;
            println!(
                "  dlp: {} | {} insts, {} epochs | {:.1}% vectorized, avg VL {:.1}, common VLs {:?}",
                if p.exact { "exact" } else { "inexact (partial lower bound)" },
                t.insts,
                p.epochs,
                t.pct_vectorization(),
                t.avg_vl(),
                t.common_vls(4),
            );
            let a = advise(p);
            for r in &a.regions {
                if r.region == 0 {
                    continue;
                }
                println!(
                    "  dlp: region {}: {:?}, {:.1}% vectorized, avg VL {:.1}, best {} thread(s)",
                    r.region, r.opportunity, r.pct_vectorization, r.avg_vl, r.best_threads,
                );
            }
            println!(
                "  dlp: advice: {} thread(s) x MVL {} (est. {:.2}x over serial, {:.1}% opportunity)",
                a.best.threads, a.best.mvl, a.best.speedup, a.opportunity_pct,
            );
        }
        for d in &report.diags {
            println!("  {d}");
        }
        println!(
            "  {} error(s), {} warning(s){}",
            report.errors(),
            report.warnings(),
            if report.suppressed > 0 {
                format!(", {} suppressed", report.suppressed)
            } else {
                String::new()
            }
        );
    }
    if cli.json {
        let body = json_files
            .iter()
            .map(|f| {
                let indented: Vec<String> = f.lines().map(|l| format!("    {l}")).collect();
                indented.join("\n")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        println!("{{\n  \"schema\": \"vlint\",\n  \"version\": 1,\n  \"files\": [");
        if !body.is_empty() {
            println!("{body}");
        }
        println!("  ]\n}}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// A file that failed to assemble, as a JSON object (no diagnostics —
/// the assembler stops at the first syntax error).
fn assembly_error_json(path: &str, err: &str) -> String {
    format!(
        "{{\n  \"schema\": \"vlint-report\",\n  \"version\": 1,\n  \"path\": {},\n  \
         \"assembly_error\": {}\n}}",
        quote(path),
        quote(err)
    )
}
