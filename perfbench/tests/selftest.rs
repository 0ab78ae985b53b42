//! Fast self-test of the benchmark: each workload once at Test scale,
//! untraced and traced. Run with `cargo test --release` in `perfbench/`.

use vlt_perfbench::digest::Digests;
use vlt_perfbench::{measure, points, Kind, Metrics, Size};
use vlt_stats::json::Json;

/// `BENCHMARK.json`'s metric names and units for one section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(section).and_then(Json::as_arr).expect("section is an array");
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric has a name");
            let unit = m.get("unit").and_then(Json::as_str).expect("metric has a unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn assert_emits(kind: Kind, section: &str, metrics: &Metrics) {
    let want = declared(section);
    for (name, unit) in &want {
        let (value, got) = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{}: {section} metric {name} not emitted", kind.name()));
        assert_eq!(got, unit, "{}: {name} unit", kind.name());
        assert!(value.is_finite(), "{}: {name} = {value}", kind.name());
    }
    assert_eq!(metrics.len(), want.len(), "{}: emits exactly the declared metrics", kind.name());
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for kind in Kind::ALL {
        let mut digests = Digests::committed().expect("committed digests parse");
        let run = measure(kind, Size::Test, 1, 0.0, false, &mut digests).unwrap();
        assert_eq!(run.failed, 0, "{}: points failed", kind.name());
        assert_emits(kind, "end_to_end", &run.metrics);
        for (name, (v, _)) in &run.metrics {
            assert!(*v > 0.0, "{}: end-to-end {name} must never be 0", kind.name());
        }

        let run = measure(kind, Size::Test, 2, 0.0, true, &mut digests).unwrap();
        assert_eq!(run.failed, 0, "{}: points failed when traced", kind.name());
        assert_emits(kind, "per_layer", &run.metrics);
        assert_eq!(run.metrics["fail_frac"].0, 0.0);
        let tracer = run.tracer.expect("a traced run keeps its spans");
        let doc = tracer.to_chrome_json(Json::Null);
        vlt_obs::perfetto::validate_chrome_trace(&doc).expect("spans form a valid Chrome trace");
    }
}

#[test]
fn a_corrupted_digest_fails_its_point() {
    let Digests::Check(mut table) = Digests::committed().unwrap() else { unreachable!() };
    for kind in Kind::ALL {
        let key = points(kind, Size::Test)[0].key();
        let entry = table.get_mut(&key).expect("every Test-scale point has a digest");
        *entry ^= 1;
        let mut digests = Digests::Check(table.clone());
        let run = measure(kind, Size::Test, 3, 0.0, true, &mut digests).unwrap();
        assert!(run.failed > 0, "{}: corrupted digest for {key} went unnoticed", kind.name());
        assert!(run.metrics["fail_frac"].0 > 0.0, "{}: fail_frac stays 0", kind.name());
        *table.get_mut(&key).unwrap() ^= 1;
    }
}
