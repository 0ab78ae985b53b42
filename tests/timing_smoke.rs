//! Whole-stack smoke test at Test scale: one point per machine shape the
//! hot path serves — SMT scalar units feeding a partitioned vector unit,
//! the two-cluster ultra-wide machine, and lane threads on in-order lane
//! cores. Each point's program must pass the static checks (lint, races,
//! an exact DLP walk); its run must give one result under both drivers,
//! both functional engines, and with the metrics and Perfetto observers
//! attached, whose exports must validate; the result must conserve its
//! stall causes and pass its kernel's golden check.

use vlt::core::{DriverMode, SimResult, System, SystemConfig};
use vlt::exec::EngineMode;
use vlt::isa::Program;
use vlt::stats::metrics::validate_metrics_json;
use vlt::verify::dlp::{analyze, DlpOptions};
use vlt::verify::{check_races_with, verify_with, Options, Severity};
use vlt::workloads::{workload, Scale};
use vlt_obs::perfetto::validate_chrome_trace;
use vlt_obs::{MetricsObserver, Multi, PerfettoObserver};

const BUDGET: u64 = 200_000_000;

/// `vlint --races --dlp` on the point's program: nothing above Info, and
/// the static DLP walk completes exactly.
fn static_checks(what: &str, prog: &Program, threads: usize) {
    let opts = Options::default().with_program_allows(prog);
    let lint = verify_with(prog, &opts);
    let races = check_races_with(prog, threads, &opts);
    if let Some(d) = lint.diags.iter().chain(&races.diags).find(|d| d.severity > Severity::Info) {
        panic!("{what}: verifier finding: {d}");
    }
    // `vlint --dlp`'s default serial walk.
    let dlp = analyze(prog, &DlpOptions::default());
    assert!(dlp.exact, "{what}: DLP walk inexact: {:?}", dlp.notes);
}

/// Run `kernel` ×`threads`, built for `clusters` lane clusters, on `cfg`
/// every way the stack offers; returns the (shared) result.
fn smoke(kernel: &str, threads: usize, clusters: usize, cfg: SystemConfig) -> SimResult {
    let w = workload(kernel).expect("kernel in the suite");
    let built = w.build_spread(threads, clusters, Scale::Test);
    let what = format!("{kernel} x{threads} on {}", cfg.name);
    static_checks(&what, &built.program, threads);

    let system = |driver: DriverMode, engine: EngineMode| {
        System::new(cfg.clone(), &built.program, threads).with_driver(driver).with_engine(engine)
    };
    let check = |how: &str, sys: &System, result: &SimResult| {
        (built.verifier)(sys.funcsim()).unwrap_or_else(|m| panic!("{what} {how}: {m}"));
        result.check_stall_conservation().unwrap_or_else(|m| panic!("{what} {how}: {m}"));
    };
    let run = |driver: DriverMode, engine: EngineMode| {
        let how = format!("{driver:?}/{engine:?}");
        let mut sys = system(driver, engine);
        let result = sys.run(BUDGET).unwrap_or_else(|e| panic!("{what} {how}: {e}"));
        check(&how, &sys, &result);
        result
    };
    let event = run(DriverMode::EventDriven, EngineMode::Block);
    assert_eq!(event, run(DriverMode::CycleByCycle, EngineMode::Block), "{what}: drivers disagree");
    assert_eq!(event, run(DriverMode::EventDriven, EngineMode::Interp), "{what}: engines disagree");

    let mut metrics = MetricsObserver::new();
    let mut trace = PerfettoObserver::new();
    let mut sys = system(DriverMode::EventDriven, EngineMode::Block);
    let observed = {
        let mut multi = Multi::new().with(&mut metrics).with(&mut trace);
        sys.run_observed(BUDGET, &mut multi).unwrap_or_else(|e| panic!("{what} observed: {e}"))
    };
    check("observed", &sys, &observed);
    assert_eq!(event, observed, "{what}: observers changed the result");
    validate_metrics_json(&metrics.into_registry().to_json())
        .unwrap_or_else(|e| panic!("{what}: metrics JSON invalid: {e}"));
    validate_chrome_trace(&trace.into_json())
        .unwrap_or_else(|e| panic!("{what}: trace JSON invalid: {e}"));
    event
}

fn vec_dispatched(r: &SimResult) -> u64 {
    r.cores.iter().map(|c| c.vec_dispatched).sum()
}

#[test]
fn vector_kernel_on_smt_cores() {
    let r = smoke("trfd", 4, 1, SystemConfig::v4_cmt());
    assert!(vec_dispatched(&r) > 0 && r.utilization.busy > 0);
}

#[test]
fn vector_kernel_on_two_clusters() {
    let r = smoke("mpenc", 8, 2, SystemConfig::v8_clustered(2));
    assert!(vec_dispatched(&r) > 0 && r.utilization.busy > 0);
}

#[test]
fn irregular_kernel_on_lane_threads() {
    let r = smoke("radix", 8, 1, SystemConfig::v4_cmt_lane_threads());
    assert!(r.lanes.iter().filter(|l| l.committed > 0).count() >= 8, "lane cores ran the threads");
}
