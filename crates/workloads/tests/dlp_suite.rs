//! Static-vs-dynamic DLP validation over the nine Table-4 workloads.
//!
//! The static analyzer (`vlt_verify::dlp`) must reproduce the functional
//! simulator's operation-level Table-4 metrics within the paper-level
//! tolerances — average VL within 10%, % vectorization within 5 points,
//! identical most-common VL — and its partition advisor must pick the
//! empirically best flat VLTCFG for each kernel. At 2, 4 and 8 threads the
//! shared-memory walk must certify all 13 kernels (suite and irregular)
//! and match the multi-threaded run bit for bit.

use vlt_exec::FuncSim;
use vlt_verify::dlp::{advise, analyze, site_bounds, DlpOptions};
use vlt_workloads::characterize::characterize;
use vlt_workloads::common::Scale;
use vlt_workloads::irregular_suite;
use vlt_workloads::suite::suite;

#[test]
fn static_table4_matches_dynamic_for_all_kernels() {
    for w in suite() {
        let c = characterize(w, Scale::Test).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let built = w.build(1, Scale::Test);
        let p = analyze(&built.program, &DlpOptions::default());
        assert!(p.exact, "{}: static walk went inexact: {:?}", w.name(), p.notes);

        // Exact walks must agree with the run bit for bit, but assert the
        // acceptance-level tolerances so the test states the contract.
        let (sp, dp) = (p.total.pct_vectorization(), c.pct_vect);
        assert!(
            (sp - dp).abs() <= 5.0,
            "{}: pct vectorization static {sp:.2} vs dynamic {dp:.2}",
            w.name()
        );
        let (sa, da) = (p.total.avg_vl(), c.avg_vl);
        let tol = (da * 0.10).max(1e-9);
        assert!(
            (sa - da).abs() <= tol || (sa == 0.0 && da == 0.0),
            "{}: avg VL static {sa:.2} vs dynamic {da:.2}",
            w.name()
        );
        assert_eq!(
            p.total.common_vls(1),
            c.common_vls.iter().take(1).copied().collect::<Vec<_>>(),
            "{}: most common VL",
            w.name()
        );
        assert_eq!(p.total.insts, c.insts, "{}: instruction count", w.name());
    }
}

#[test]
fn static_profile_is_bit_exact_against_funcsim() {
    for w in suite() {
        let built = w.build(1, Scale::Test);
        let p = analyze(&built.program, &DlpOptions::default());
        assert!(p.exact, "{}: {:?}", w.name(), p.notes);
        let mut sim = FuncSim::new(&built.program, 1);
        let s = sim.run_to_completion(2_000_000_000).unwrap();
        assert_eq!(p.total.insts, s.insts, "{}", w.name());
        assert_eq!(p.total.scalar_ops, s.scalar_ops, "{}", w.name());
        assert_eq!(p.total.vector_insts, s.vector_insts, "{}", w.name());
        assert_eq!(p.total.elem_ops, s.elem_ops, "{}", w.name());
        assert_eq!(p.total.vl_histogram.as_slice(), s.vl_histogram.as_slice(), "{}", w.name());
    }
}

#[test]
fn multithreaded_profile_is_bit_exact_against_funcsim() {
    for w in suite().into_iter().chain(irregular_suite()) {
        for threads in [2, 4, 8] {
            // Eight vector threads need the two-cluster spread for their MVL.
            let clusters = if threads > w.max_threads() { 2 } else { 1 };
            let built = w.build_spread(threads, clusters, Scale::Test);
            let what = format!("{} x{threads}", w.name());
            let p = analyze(&built.program, &DlpOptions { threads, ..DlpOptions::default() });
            assert!(p.exact, "{what}: {:?}", p.notes);
            let mut sim = FuncSim::new(&built.program, threads);
            let s = sim.run_to_completion(2_000_000_000).unwrap();
            assert_eq!(p.total.insts, s.insts, "{what}");
            assert_eq!(p.total.scalar_ops, s.scalar_ops, "{what}");
            assert_eq!(p.total.vector_insts, s.vector_insts, "{what}");
            assert_eq!(p.total.elem_ops, s.elem_ops, "{what}");
            assert_eq!(p.total.vl_histogram.as_slice(), s.vl_histogram.as_slice(), "{what}");
            assert!(site_bounds(&built.program, threads).is_some(), "{what}: no site bounds");
        }
    }
}

#[test]
fn advisor_matches_empirically_best_partitions() {
    // Best flat VLTCFG per kernel, measured on the timing model (see
    // EXPERIMENTS.md): vector kernels keep >=1 lane of width headroom,
    // scalar-parallel kernels split all the way to 8 threads.
    let expected = [
        ("mpenc", 4),
        ("trfd", 4),
        ("multprec", 4),
        ("bt", 4),
        ("radix", 8),
        ("ocean", 8),
        ("barnes", 8),
    ];
    let mut hits = 0;
    let mut misses = Vec::new();
    for (name, best_t) in expected {
        let w = suite().into_iter().find(|w| w.name() == name).unwrap();
        let built = w.build(1, Scale::Test);
        let p = analyze(&built.program, &DlpOptions::default());
        assert!(p.exact, "{name}: {:?}", p.notes);
        let a = advise(&p);
        if a.best.threads == best_t {
            hits += 1;
        } else {
            misses.push(format!("{name}: advised {} want {best_t}", a.best.threads));
        }
    }
    assert!(
        hits >= expected.len(),
        "advisor missed {:?} ({hits}/{} right)",
        misses,
        expected.len()
    );
}
