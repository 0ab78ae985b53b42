//! Timing-model smoke test at Test scale: one point per machine shape the
//! hot path serves — SMT scalar units feeding a partitioned vector unit,
//! the two-cluster ultra-wide machine, and lane threads on in-order lane
//! cores. Each point runs under both drivers and must produce identical
//! results, conserve its stall causes, and pass its kernel's golden check.

use vlt::core::{DriverMode, SimResult, System, SystemConfig};
use vlt::workloads::{workload, Scale};

const BUDGET: u64 = 200_000_000;

/// Run `kernel` ×`threads`, built for `clusters` lane clusters, on `cfg`
/// under both drivers; returns the (shared) result.
fn smoke(kernel: &str, threads: usize, clusters: usize, cfg: SystemConfig) -> SimResult {
    let w = workload(kernel).expect("kernel in the suite");
    let built = w.build_spread(threads, clusters, Scale::Test);
    let what = format!("{kernel} x{threads} on {}", cfg.name);
    let run = |driver: DriverMode| {
        let mut sys = System::new(cfg.clone(), &built.program, threads).with_driver(driver);
        let result = sys.run(BUDGET).unwrap_or_else(|e| panic!("{what} {driver:?}: {e}"));
        (built.verifier)(sys.funcsim()).unwrap_or_else(|m| panic!("{what} {driver:?}: {m}"));
        result.check_stall_conservation().unwrap_or_else(|m| panic!("{what} {driver:?}: {m}"));
        result
    };
    let event = run(DriverMode::EventDriven);
    let oracle = run(DriverMode::CycleByCycle);
    assert_eq!(event, oracle, "{what}: drivers disagree");
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
