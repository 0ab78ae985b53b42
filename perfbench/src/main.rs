//! `vlt-perfbench`: run one workload of the simulator benchmark and print
//! its metrics as one JSON line.
//!
//! ```text
//! vlt-perfbench --workload <vlt-wide|dense-x1|profile|static-func>
//!               --seed N --seconds S --trace <0|1>
//! vlt-perfbench --record-digests
//! ```
//!
//! `--trace 0` repeats untraced passes for `S` seconds and reports the
//! end-to-end metrics: per-point medians across passes, scaled to the
//! reference host speed. `--trace 1` runs a warm-up pass, then
//! alternates untraced and traced passes, reports the per-layer metrics
//! (medians across traced passes) and the tracing overhead, prints the
//! per-layer table on stderr, and writes the spans as a Chrome trace under
//! `perfbench/out/`. `--record-digests` rewrites `perfbench/digests.txt`
//! from a fresh run of every point.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use vlt_obs::perfetto::validate_chrome_trace;
use vlt_perfbench::digest::{self, Digests};
use vlt_perfbench::trace::{obj, Tracer};
use vlt_perfbench::{measure, points, run_pass, Kind, Metrics, Run, Size};
use vlt_stats::json::Json;

const USAGE: &str = "usage: vlt-perfbench --workload <vlt-wide|dense-x1|profile|static-func> \
                     --seed N --seconds S --trace <0|1>\n       vlt-perfbench --record-digests";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(a) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--record-digests" => return Ok(None),
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::from_name(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    match (kind, seed, seconds, trace) {
        (Some(kind), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Some(Args { kind, seed, seconds, trace }))
        }
        _ => Err("--workload, --seed, --seconds and --trace are all required".into()),
    }
}

/// CPU model, core count, rustc version and git commit of this run.
fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The repository root; git must not look above it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench/ has a parent");
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    obj([
        ("cpu", Json::Str(cpu)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(run("rustc", &["-V"]))),
        ("git_commit", Json::Str(run("git", &["rev-parse", "HEAD"]))),
    ])
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, (v, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    )
}

/// Per-layer table: total and self seconds per span name, as a share of
/// the traced passes' time.
fn print_layer_table(tracer: &Tracer, overhead: f64) {
    let totals = tracer.totals_by_name();
    let traced = totals.get("pass").map_or(0.0, |t| t.0).max(1e-9);
    eprintln!("{:<14} {:>10} {:>10} {:>7}", "span", "total_s", "self_s", "share");
    for (name, (total, own)) in &totals {
        eprintln!("{name:<14} {total:>10.4} {own:>10.4} {:>6.1}%", 100.0 * own / traced);
    }
    eprintln!("tracing overhead: {overhead:+.4} s per pass (traced minus untraced wall)");
}

fn run(args: &Args) -> Result<Run, String> {
    let mut digests = Digests::committed()?;
    let run = measure(args.kind, Size::Bench, args.seed, args.seconds, args.trace, &mut digests)?;
    if let Some((name, _)) = run.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let Some(tracer) = &run.tracer else { return Ok(run) };
    print_layer_table(tracer, run.metrics["trace.overhead_s"].0);
    let doc = tracer.to_chrome_json(obj([
        ("workload", Json::Str(args.kind.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("host", fingerprint()),
    ]));
    validate_chrome_trace(&doc).map_err(|e| format!("benchmark trace invalid: {e}"))?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.kind.name(), args.seed));
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(run)
}

/// Rerun every point at both sizes and rewrite `digests.txt`.
fn record_digests() -> Result<(), String> {
    let mut digests = Digests::Record(Default::default());
    for size in [Size::Bench, Size::Test] {
        for kind in Kind::ALL {
            let pts = points(kind, size);
            let order: Vec<usize> = (0..pts.len()).collect();
            let pass = run_pass(&pts, &order, &mut digests, None);
            if pass.failed > 0 {
                return Err(format!("{} point(s) of {} failed", pass.failed, kind.name()));
            }
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("digests.txt");
    std::fs::write(&path, digest::render(digests.entries()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: recorded {} digests into {}", digests.entries().len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match record_digests() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(run) => {
            let host = fingerprint().pretty().split_whitespace().collect::<Vec<_>>().join(" ");
            println!("host: {host}");
            println!("{}", result_line(run.attempted, run.failed, &run.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
