#![forbid(unsafe_code)]

//! # vlt-perfbench — host-time benchmark of the VLT simulator
//!
//! Four named workloads drive the simulator's layers through their public
//! functions only, and time those calls from outside:
//!
//! * `vlt-wide` — every multithreaded VLT shape at Small scale (×4 on
//!   V4-CMT, ×8 on two 8-lane clusters, ×8 on lane threads);
//! * `dense-x1` — all kernels ×1 on V4-CMT, where nearly every
//!   registered unit has work every cycle;
//! * `profile` — the `vlprof` path (three observers, CPI check, export,
//!   validation, serialization);
//! * `static-func` — the `vlint --strict --races --dlp` checks plus a
//!   functional-only run at Full scale; the timing model does no work.
//!
//! A [`Pass`] runs every point of one workload once. Each point builds a
//! fresh program and a fresh `System`/`FuncSim`, so the modelled caches
//! start cold, and each point's outputs are checked: golden verifier,
//! conservation invariants, verifier findings, and the committed digest
//! of its simulated result ([`digest`]). See `perfbench/README.md`.

pub mod digest;
pub mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use vlt_core::{SimError, SimResult, StallCause, System, SystemConfig};
use vlt_exec::FuncSim;
use vlt_obs::perfetto::validate_chrome_trace;
use vlt_obs::{CpiObserver, MetricsObserver, Multi, PerfettoObserver};
use vlt_stats::metrics::validate_metrics_json;
use vlt_verify::dlp::{advise, analyze, DlpOptions};
use vlt_verify::{check_races_with, verify_with, Options, Severity};
use vlt_workloads::{irregular_suite, suite, Built, Scale, Workload};

use digest::{func_digest, sim_digest, Digests};
use trace::Tracer;
use vlt_stats::json::Json;

/// The host-speed probe's time on an unloaded 2-vCPU Intel Xeon at 2.0 GHz:
/// the reference speed that
/// end-to-end times are scaled to.
pub const PROBE_REF_S: f64 = 0.0075;

/// Cycle budget of a timing run (the experiment harness's default).
const MAX_CYCLES: u64 = 2_000_000_000;
/// Instruction budget of a functional run.
const MAX_INSTS: u64 = 4_000_000_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every multithreaded VLT shape, Small scale.
    VltWide,
    /// One thread owning all eight lanes, Small scale.
    DenseX1,
    /// The `vlprof` observe-export-validate path, Small scale.
    Profile,
    /// Static verification plus functional-only execution, Full scale.
    StaticFunc,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::VltWide, Kind::DenseX1, Kind::Profile, Kind::StaticFunc];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::VltWide => "vlt-wide",
            Kind::DenseX1 => "dense-x1",
            Kind::Profile => "profile",
            Kind::StaticFunc => "static-func",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or Test scale for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Small scale for timing points, Full scale for `static-func`.
    Bench,
    /// Test scale everywhere.
    Test,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Profile,
    Static,
}

/// One kernel at one machine shape.
pub struct Point {
    kernel: &'static dyn Workload,
    mode: Mode,
    cfg: SystemConfig,
    threads: usize,
    clusters: usize,
    scale: Scale,
}

impl Point {
    /// The point's digest key, e.g. `timing/mxm/x4/V4-CMT/small`.
    pub fn key(&self) -> String {
        let scale = match self.scale {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Full => "full",
        };
        match self.mode {
            Mode::Static => format!("func/{}/x{}/{scale}", self.kernel.name(), self.threads),
            _ => {
                format!("timing/{}/x{}/{}/{scale}", self.kernel.name(), self.threads, self.cfg.name)
            }
        }
    }
}

/// All 13 kernels: the nine Table-4 applications, then the irregular four.
fn kernels() -> Vec<&'static dyn Workload> {
    suite().into_iter().chain(irregular_suite()).collect()
}

/// The fixed point set of a workload.
///
/// mxm is left out of the ×8 clustered shape and of `profile` on purpose:
/// by itself it would take most of either pass (0.28 Mcyc/s at ×8; a
/// ~400 MB trace export), hiding every other kernel.
pub fn points(kind: Kind, size: Size) -> Vec<Point> {
    let (small, full) = match size {
        Size::Bench => (Scale::Small, Scale::Full),
        Size::Test => (Scale::Test, Scale::Test),
    };
    let at = |kernel, mode, cfg: SystemConfig, threads, clusters, scale| Point {
        kernel,
        mode,
        cfg,
        threads,
        clusters,
        scale,
    };
    let mut out = Vec::new();
    for k in kernels() {
        let is_mxm = k.name() == "mxm";
        match kind {
            Kind::VltWide => out.push(at(k, Mode::Run, SystemConfig::v4_cmt(), 4, 1, small)),
            Kind::DenseX1 => out.push(at(k, Mode::Run, SystemConfig::v4_cmt(), 1, 1, small)),
            Kind::Profile if !is_mxm => {
                out.push(at(k, Mode::Profile, SystemConfig::v4_cmt(), 4, 1, small))
            }
            Kind::Profile => {}
            Kind::StaticFunc => out.push(at(k, Mode::Static, SystemConfig::v4_cmt(), 4, 1, full)),
        }
    }
    if kind == Kind::VltWide {
        for k in kernels() {
            if k.vectorizable() && k.name() != "mxm" {
                out.push(at(k, Mode::Run, SystemConfig::v8_clustered(2), 8, 2, small));
            } else if !k.vectorizable() {
                out.push(at(k, Mode::Run, SystemConfig::v4_cmt_lane_threads(), 8, 1, small));
            }
        }
    }
    out
}

/// Point order for one pass: a Fisher-Yates shuffle driven by `rng`.
/// The seed changes only the order; inputs come from the kernels'
/// golden-checked generators.
fn shuffled(n: usize, rng: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        // xorshift64*
        *rng ^= *rng >> 12;
        *rng ^= *rng << 25;
        *rng ^= *rng >> 27;
        let r = rng.wrapping_mul(0x2545_f491_4f6c_dd1d);
        order.swap(i, (r % (i as u64 + 1)) as usize);
    }
    order
}

/// What one pass over a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds in builds and `System::new`/`FuncSim::new`.
    pub setup_s: f64,
    /// Host seconds for the pass, set-up and traced-only extra calls
    /// excluded.
    pub wall_s: f64,
    /// Per point (by index into the point list), the points that passed.
    pub points: BTreeMap<usize, PointTime>,
    /// Points attempted.
    pub attempted: usize,
    /// Points that failed a check.
    pub failed: usize,
    /// Host seconds per layer-call (span) name.
    pub times: BTreeMap<&'static str, f64>,
    /// Exact counts, summed over points.
    pub counts: BTreeMap<String, u64>,
    /// Per kernel: seconds in plain `System::run` and cycles it simulated.
    pub kernel_run: BTreeMap<&'static str, (f64, u64)>,
    /// Per point: seconds in plain `System::run` minus the functional-only
    /// run of the same program (the timing layer's own time).
    pub core_self_s: f64,
    /// Seconds of each [`probe`] run, one before each point.
    pub probes: Vec<f64>,
}

/// One point's share of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointTime {
    /// Host seconds in set-up.
    pub setup_s: f64,
    /// Host seconds for the point, set-up and extra calls excluded.
    pub wall_s: f64,
    /// Host seconds in the simulation call: `System::run`/`run_observed`,
    /// or `FuncSim::run_to_completion` on functional-only points.
    pub sim_s: f64,
    /// Work done by that call: simulated cycles, or dynamic instructions
    /// on functional-only points.
    pub units: u64,
    /// Dynamic instructions it simulated.
    pub insts: u64,
}

impl Pass {
    /// How much slower the host ran this pass than the reference: the
    /// median probe time over [`PROBE_REF_S`].
    pub fn slowdown(&self) -> f64 {
        median(&self.probes) / PROBE_REF_S
    }

    fn time(&self, name: &str) -> f64 {
        self.times.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Per-point context: the pass being filled and the tracer, if any.
struct Ctx<'a> {
    pass: &'a mut Pass,
    tracer: Option<&'a mut Tracer>,
    setup: f64,
    extra: f64,
    /// `(seconds, units, insts)` of the point's simulation call.
    sim: (f64, u64, u64),
    /// Exact counts attached to the point's span.
    args: Vec<(String, Json)>,
}

impl Ctx<'_> {
    fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Time one layer call, record its span, and add it to the layer's sum.
    fn time<T>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let v = f();
        let d = t0.elapsed();
        if let Some(t) = self.tracer.as_deref_mut() {
            t.leaf(name, cat, t0, d);
        }
        let s = d.as_secs_f64();
        *self.pass.times.entry(name).or_default() += s;
        (v, s)
    }

    fn setup<T>(&mut self, name: &'static str, cat: &'static str, f: impl FnOnce() -> T) -> T {
        let (v, s) = self.time(name, cat, f);
        self.setup += s;
        v
    }

    /// A call only a traced pass makes; excluded from the pass's wall time.
    fn extra<T>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let (v, s) = self.time(name, cat, f);
        self.extra += s;
        (v, s)
    }

    fn count(&mut self, name: impl Into<String>, n: u64) {
        *self.pass.counts.entry(name.into()).or_default() += n;
    }
}

/// Run every point once, in `order`, checking each point's outputs. With
/// a tracer, record spans and make the traced-only extra calls.
pub fn run_pass(
    points: &[Point],
    order: &[usize],
    digests: &mut Digests,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let pass_span = tracer.as_deref_mut().map(|t| t.begin("pass", "bench", 0));
    for (n, &i) in order.iter().enumerate() {
        let p = &points[i];
        let started = Instant::now();
        black_box(probe());
        let d = started.elapsed();
        pass.probes.push(d.as_secs_f64());
        if let Some(t) = tracer.as_deref_mut() {
            t.leaf("probe", "bench", started, d);
        }
        let t0 = Instant::now();
        let span = tracer.as_deref_mut().map(|t| t.begin("point", "bench", n + 1));
        let mut cx = Ctx {
            pass: &mut pass,
            tracer: tracer.as_deref_mut(),
            setup: 0.0,
            extra: 0.0,
            sim: (0.0, 0, 0),
            args: vec![("key".to_string(), Json::Str(p.key()))],
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_point(p, &mut cx, digests)))
            .unwrap_or_else(|_| Err("panicked".to_string()));
        let (setup, extra, (sim_s, units, insts)) = (cx.setup, cx.extra, cx.sim);
        let mut args = std::mem::take(&mut cx.args);
        let wall_s = t0.elapsed().as_secs_f64() - setup - extra;
        pass.attempted += 1;
        pass.setup_s += setup;
        pass.wall_s += wall_s;
        match &outcome {
            Ok(()) => {
                pass.points.insert(i, PointTime { setup_s: setup, wall_s, sim_s, units, insts });
            }
            Err(e) => {
                pass.failed += 1;
                eprintln!("perfbench: FAIL {}: {e}", p.key());
            }
        }
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            args.push(("ok".to_string(), Json::Bool(outcome.is_ok())));
            t.end(id, args);
        }
    }
    if let (Some(t), Some(id)) = (tracer, pass_span) {
        t.end(id, Vec::new());
    }
    pass
}

fn sim_err(e: SimError) -> String {
    format!("simulation failed: {e}")
}

fn run_point(p: &Point, cx: &mut Ctx, digests: &mut Digests) -> Result<(), String> {
    let built = cx
        .setup("build", "vlt-workloads", || p.kernel.build_spread(p.threads, p.clusters, p.scale));
    cx.count("workloads.text_words", built.program.text.len() as u64);
    if p.mode == Mode::Static {
        return static_point(p, cx, digests, &built);
    }
    let prog = &built.program;
    // The traced run splits functional execution out of the timing run by
    // running the same program functionally on its own.
    let mut func_s = 0.0;
    if cx.traced() {
        let mut fs = cx.extra("funcsim.new", "vlt-exec", || FuncSim::new(prog, p.threads)).0;
        let (s, secs) = cx.extra("funcsim", "vlt-exec", || fs.run_to_completion(MAX_INSTS));
        let s = s.map_err(|e| format!("functional run failed: {e}"))?;
        cx.count("exec.insts", s.insts);
        func_s = secs;
    }
    let mut sys = cx.setup("new", "vlt-core", || System::new(p.cfg.clone(), prog, p.threads));
    let (r, secs) = match p.mode {
        Mode::Profile => profile_run(p, cx, digests, &mut sys, prog, func_s)?,
        _ => {
            let (r, secs) = cx.time("run", "vlt-core", || sys.run(MAX_CYCLES));
            let r = r.map_err(sim_err)?;
            record_run(cx, p, secs, func_s, &r);
            (r, secs)
        }
    };
    cx.sim = (secs, r.cycles, r.committed);
    cx.time("golden", "vlt-workloads", || (built.verifier)(sys.funcsim()))
        .0
        .map_err(|m| format!("golden verifier: {m}"))?;
    cx.time("checks", "bench", || {
        r.check_stall_conservation().map_err(|e| format!("conservation: {e}"))?;
        digests.check(&p.key(), sim_digest(&r))
    })
    .0?;
    count_sim(cx, &r);
    Ok(())
}

/// Book a plain `System::run` of a point against the timing layer.
fn record_run(cx: &mut Ctx, p: &Point, secs: f64, func_s: f64, r: &SimResult) {
    let e = cx.pass.kernel_run.entry(p.kernel.name()).or_default();
    e.0 += secs;
    e.1 += r.cycles;
    cx.pass.core_self_s += secs - func_s;
}

/// The `vlprof` path: observed run, CPI conservation, export, validation,
/// and pretty serialization held in memory. A traced pass first makes a
/// plain run of the same point, so observer cost can be split out.
fn profile_run(
    p: &Point,
    cx: &mut Ctx,
    digests: &mut Digests,
    sys: &mut System,
    prog: &vlt_isa::Program,
    func_s: f64,
) -> Result<(SimResult, f64), String> {
    if cx.traced() {
        let mut plain =
            cx.extra("new.plain", "vlt-core", || System::new(p.cfg.clone(), prog, p.threads)).0;
        let (r, secs) = cx.extra("run", "vlt-core", || plain.run(MAX_CYCLES));
        let r = r.map_err(sim_err)?;
        record_run(cx, p, secs, func_s, &r);
        digests.check(&p.key(), sim_digest(&r))?;
    }
    let mut metrics = MetricsObserver::new();
    let mut trace = PerfettoObserver::new();
    let mut cpi = CpiObserver::new();
    let (r, secs) = cx.time("run_observed", "vlt-obs", || {
        let mut multi = Multi::new().with(&mut metrics).with(&mut trace).with(&mut cpi);
        sys.run_observed(MAX_CYCLES, &mut multi)
    });
    let r = r.map_err(sim_err)?;
    cx.count("obs.trace_events", trace.len() as u64);
    cx.time("obs.check", "vlt-obs", || cpi.check_conservation())
        .0
        .map_err(|e| format!("CPI stack not conserving: {e}"))?;
    let (metrics_doc, trace_doc) = cx
        .time("export", "vlt-obs", || {
            let mut reg = metrics.into_registry();
            cpi.export_into(&mut reg);
            (reg.to_json(), trace.into_json())
        })
        .0;
    cx.time("obs.check", "vlt-obs", || {
        validate_metrics_json(&metrics_doc).map_err(|e| format!("metrics JSON invalid: {e}"))?;
        validate_chrome_trace(&trace_doc).map_err(|e| format!("trace JSON invalid: {e}"))
    })
    .0?;
    let bytes = cx
        .time("serialize", "vlt-stats", || {
            black_box(metrics_doc.pretty()).len() + black_box(trace_doc.pretty()).len()
        })
        .0;
    cx.count("obs.export_bytes", bytes as u64);
    // Freeing the document trees is part of exporting them.
    cx.time("export.free", "vlt-obs", || drop((metrics_doc, trace_doc)));
    Ok((r, secs))
}

/// `vlint --strict --races --dlp` and `vladvise` checks, then the
/// functional-only run with the golden verifier.
fn static_point(
    p: &Point,
    cx: &mut Ctx,
    digests: &mut Digests,
    built: &Built,
) -> Result<(), String> {
    let prog = &built.program;
    let mut fs = cx.setup("new", "vlt-exec", || FuncSim::new(prog, p.threads));
    let opts = Options::default().with_program_allows(prog);
    let lint = cx.time("lint", "vlt-verify", || verify_with(prog, &opts)).0;
    let races = cx.time("races", "vlt-verify", || check_races_with(prog, p.threads, &opts)).0;
    let dlp = cx
        .time("dlp", "vlt-verify", || {
            // `vlint --dlp` analyzes under its default serial walk.
            let profile = analyze(prog, &DlpOptions::default());
            black_box(advise(&profile));
            profile
        })
        .0;
    let diags = lint.diags.len() + races.diags.len();
    cx.count("verify.diags", diags as u64);
    if let Some(d) = lint.diags.iter().chain(&races.diags).find(|d| d.severity != Severity::Info) {
        return Err(format!("verifier finding: {d}"));
    }
    let (s, secs) = cx.time("funcsim", "vlt-exec", || fs.run_to_completion(MAX_INSTS));
    let s = s.map_err(|e| format!("functional run failed: {e}"))?;
    cx.count("exec.insts", s.insts);
    cx.sim = (secs, s.insts, s.insts);
    cx.args.push(("insts".to_string(), Json::Num(s.insts as f64)));
    cx.args.push(("diags".to_string(), Json::Num(diags as f64)));
    cx.time("golden", "vlt-workloads", || (built.verifier)(&fs))
        .0
        .map_err(|m| format!("golden verifier: {m}"))?;
    cx.time("checks", "bench", || {
        digests.check(&p.key(), func_digest(&s, diags, dlp.exact, dlp.total.insts))
    })
    .0
}

/// Exact model counts of one timing run.
fn count_sim(cx: &mut Ctx, r: &SimResult) {
    cx.args.push(("cycles".to_string(), Json::Num(r.cycles as f64)));
    cx.args.push(("committed".to_string(), Json::Num(r.committed as f64)));
    let u = &r.utilization;
    for (name, n) in [
        ("core.cycles", r.cycles),
        ("core.committed", r.committed),
        ("core.util.busy", u.busy),
        ("core.util.partly_idle", u.partly_idle),
        ("core.util.stalled", u.stalled),
        ("core.util.all_idle", u.all_idle),
        ("vu.lane_busy", r.lane_busy.iter().sum()),
        ("vu.lane_partly", r.lane_partly.iter().sum()),
        // Each physical lane's budget is 3 arithmetic pipes x cycles.
        ("vu.lane_budget", 3 * r.cycles * r.lane_busy.len() as u64),
        ("mem.l1d.misses", r.mem.l1d.iter().map(|(_, m)| m).sum()),
        ("mem.l2.accesses", r.mem.l2.0),
        ("mem.l2.misses", r.mem.l2.1),
        ("mem.l2.bank_conflicts", r.mem.l2.2),
        ("mem.net.transfers", r.mem.net.as_ref().map_or(0, |n| n.transfers)),
        ("mem.net.wait_cycles", r.mem.net.as_ref().map_or(0, |n| n.wait_cycles)),
    ] {
        cx.count(name, n);
    }
    let scalar = r.cores.iter().map(|c| &c.stalls).chain(r.lanes.iter().map(|l| &l.stalls));
    for b in scalar {
        for (cause, n) in b.iter() {
            cx.count(format!("scalar.stall.{}", cause.name()), n);
        }
    }
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of one traced pass. Layers a workload does not
/// exercise read 0.
fn layer_metrics(pass: &Pass) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |name: String, v: f64, unit: &'static str| {
        m.insert(name, (v, unit));
    };
    let t = |n: &str| pass.time(n);
    let c = |n: &str| pass.count(n) as f64;
    put("workloads.build_s".into(), t("build"), "s");
    put("workloads.verify_s".into(), t("golden"), "s");
    put("workloads.text_words".into(), c("workloads.text_words"), "count");
    put("setup.new_s".into(), t("new"), "s");
    put("exec.s".into(), t("funcsim"), "s");
    put("exec.insts".into(), c("exec.insts"), "count");
    put("exec.mips".into(), ratio(c("exec.insts"), t("funcsim") * 1e6), "inst/us");
    put("core.run_s".into(), t("run"), "s");
    put("core.self_s".into(), pass.core_self_s, "s");
    put("core.ns_per_cycle".into(), ratio(t("run") * 1e9, c("core.cycles")), "ns/cycle");
    for k in kernels() {
        let (s, cycles) = pass.kernel_run.get(k.name()).copied().unwrap_or_default();
        put(format!("core.ns_per_cycle.{}", k.name()), ratio(s * 1e9, cycles as f64), "ns/cycle");
    }
    put("core.cycles".into(), c("core.cycles"), "count");
    put("core.committed".into(), c("core.committed"), "count");
    let util = ["busy", "partly_idle", "stalled", "all_idle"];
    let util_total: f64 = util.iter().map(|u| c(&format!("core.util.{u}"))).sum();
    for u in util {
        put(format!("core.util.{u}_frac"), ratio(c(&format!("core.util.{u}")), util_total), "frac");
    }
    put("vu.lane_busy_frac".into(), ratio(c("vu.lane_busy"), c("vu.lane_budget")), "frac");
    put("vu.lane_partly_frac".into(), ratio(c("vu.lane_partly"), c("vu.lane_budget")), "frac");
    for cause in StallCause::ALL {
        let name = format!("scalar.stall.{}", cause.name());
        let v = c(&name);
        put(name, v, "cycles");
    }
    for name in ["mem.l1d.misses", "mem.l2.accesses", "mem.l2.misses", "mem.l2.bank_conflicts"] {
        put(name.into(), c(name), "count");
    }
    put("mem.net.transfers".into(), c("mem.net.transfers"), "count");
    put("mem.net.wait_cycles".into(), c("mem.net.wait_cycles"), "cycles");
    let observe = if t("run_observed") > 0.0 { t("run_observed") - t("run") } else { 0.0 };
    put("obs.observe_s".into(), observe, "s");
    put("obs.export_s".into(), t("export") + t("obs.check") + t("export.free"), "s");
    put("stats.json_s".into(), t("serialize"), "s");
    put("obs.export_bytes".into(), c("obs.export_bytes"), "bytes");
    put("obs.trace_events".into(), c("obs.trace_events"), "count");
    put("verify.lint_s".into(), t("lint"), "s");
    put("verify.races_s".into(), t("races"), "s");
    put("verify.dlp_s".into(), t("dlp"), "s");
    put("verify.diags".into(), c("verify.diags"), "count");
    put("bench.check_s".into(), t("checks"), "s");
    put("host.slowdown".into(), pass.slowdown(), "x");
    m
}

/// Median of `xs` (the mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end metrics over untraced passes.
///
/// Host times are scaled to the reference host speed: each pass's times
/// are divided by its [`Pass::slowdown`], so a host that other tenants
/// slow down for minutes moves the probe and the simulator alike and no
/// metric. Each point's scaled times are then reduced to their median
/// across passes, so a hiccup that slows a few points of one pass moves
/// no metric either. The per-point medians are summed (`wall_s`,
/// `setup_s`, `func_mips`) or combined by geometric mean
/// (`sim_mcps_geomean`).
fn end_to_end(passes: &[Pass]) -> Result<Metrics, String> {
    let mut per_point: BTreeMap<usize, Vec<PointTime>> = BTreeMap::new();
    for p in passes {
        let slow = p.slowdown();
        for (&i, t) in &p.points {
            let scaled = PointTime {
                setup_s: t.setup_s / slow,
                wall_s: t.wall_s / slow,
                sim_s: t.sim_s / slow,
                ..*t
            };
            per_point.entry(i).or_default().push(scaled);
        }
    }
    let (mut wall, mut setup, mut sim_s, mut insts, mut log_rate) = (0.0, 0.0, 0.0, 0u64, 0.0);
    for ts in per_point.values() {
        let med = |f: fn(&PointTime) -> f64| median(&ts.iter().map(f).collect::<Vec<_>>());
        let s = med(|t| t.sim_s);
        wall += med(|t| t.wall_s);
        setup += med(|t| t.setup_s);
        sim_s += s;
        insts += ts[0].insts;
        log_rate += (ts[0].units as f64 / s / 1e6).ln();
    }
    let mut m = Metrics::new();
    m.insert("wall_s".into(), (wall, "s"));
    m.insert("setup_s".into(), (setup, "s"));
    let geomean = (log_rate / per_point.len().max(1) as f64).exp();
    m.insert("sim_mcps_geomean".into(), (geomean, "M/s"));
    m.insert("func_mips".into(), (insts as f64 / sim_s / 1e6, "inst/us"));
    m.insert("peak_rss_mb".into(), (peak_rss_mb()?, "MB"));
    Ok(m)
}

/// Per-layer metrics over traced passes: each metric's median across them.
fn per_layer(traced: &[Pass]) -> Metrics {
    let each: Vec<Metrics> = traced.iter().map(layer_metrics).collect();
    let mut out = Metrics::new();
    if let Some(first) = each.first() {
        for (name, (_, unit)) in first {
            let vals: Vec<f64> = each.iter().map(|m| m[name].0).collect();
            out.insert(name.clone(), (median(&vals), unit));
        }
    }
    out
}

/// What one benchmark run measured.
#[derive(Debug)]
pub struct Run {
    /// Points attempted, over every pass of the run.
    pub attempted: usize,
    /// Points that failed a check.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The traced passes' spans, when tracing.
    pub tracer: Option<Tracer>,
}

/// Run one workload for about `seconds`: repeated untraced passes, or
/// with `trace`, a warm-up pass and then rounds of one untraced and one
/// traced pass. At least one round runs; another starts only if it is
/// expected to end in time.
pub fn measure(
    kind: Kind,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    digests: &mut Digests,
) -> Result<Run, String> {
    let pts = points(kind, size);
    let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let (mut plain, mut traced) = (Vec::<Pass>::new(), Vec::<Pass>::new());
    let mut tracer = Tracer::default();
    let mut round_s = Vec::new();
    // A process's first pass runs slower (heap growth, cold caches). A
    // traced run starts with a warm-up pass, checked but not measured, so
    // its traced and untraced passes compare like for like.
    let warmup = trace.then(|| run_pass(&pts, &shuffled(pts.len(), &mut rng), digests, None));
    loop {
        let t0 = Instant::now();
        let order: &[bool] = if trace { &[false, true] } else { &[false] };
        for &traced_now in order {
            let pass = run_pass(
                &pts,
                &shuffled(pts.len(), &mut rng),
                digests,
                traced_now.then_some(&mut tracer),
            );
            eprintln!(
                "perfbench: {} {} pass: wall {:.4} s, setup {:.4} s (unscaled), host {:.3}x",
                kind.name(),
                if traced_now { "traced" } else { "untraced" },
                pass.wall_s,
                pass.setup_s,
                pass.slowdown()
            );
            if traced_now { &mut traced } else { &mut plain }.push(pass);
        }
        round_s.push(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&round_s) > budget.as_secs_f64() {
            break;
        }
    }
    let all = plain.iter().chain(&traced).chain(&warmup);
    let attempted: usize = all.clone().map(|p| p.attempted).sum();
    let failed: usize = all.map(|p| p.failed).sum();
    let slowdown = median(&plain.iter().map(Pass::slowdown).collect::<Vec<_>>());
    eprintln!(
        "perfbench: {}: {} untraced + {} traced pass(es) of {} points in {:.1} s; \
         host {slowdown:.3}x slower than the reference",
        kind.name(),
        plain.len(),
        traced.len(),
        pts.len(),
        start.elapsed().as_secs_f64()
    );
    if !trace {
        return Ok(Run { attempted, failed, metrics: end_to_end(&plain)?, tracer: None });
    }
    let mut metrics = per_layer(&traced);
    // Tracing overhead: traced wall time (extra calls already excluded)
    // minus untraced wall time, both at the reference host speed.
    let wall =
        |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s / p.slowdown()).collect::<Vec<_>>());
    metrics.insert("trace.overhead_s".into(), (wall(&traced) - wall(&plain), "s"));
    metrics.insert("fail_frac".into(), (failed as f64 / attempted as f64, "frac"));
    Ok(Run { attempted, failed, metrics, tracer: Some(tracer) })
}

/// A fixed host-speed probe, independent of the simulator's code: 1.5M
/// data-dependent loads and stores over 1 MiB, about 7.5 ms on an unloaded
/// host. Run before every point, it tracks how fast the host runs while
/// the benchmark does.
fn probe() -> u64 {
    let mut v = vec![0u32; 1 << 18];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..1_500_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (v.len() - 1);
        if x & 3 == 0 {
            v[j] = v[j].wrapping_add(i);
        } else {
            acc = acc.wrapping_add(u64::from(v[j]));
        }
    }
    acc
}
