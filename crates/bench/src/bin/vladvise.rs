//! `vladvise` — static VLTCFG partition advisor over the workload suite.
//!
//! ```text
//! vladvise [--validate]
//! ```
//!
//! Runs the static DLP analyzer on every suite kernel (single-threaded
//! build, matching how `table4` characterizes them), prints the predicted
//! Table-4 profile with the advisor's recommended partition per workload
//! and per region, and writes `results/table4_static.json` (vlt-table v1).
//! The irregular kernel mix (SpMV, histogram, hash-join probe, multi-sweep
//! stencil) gets the same treatment as a second table, written to
//! `results/irregular_static.json`.
//!
//! With `--validate`, also measures the dynamic characterization, writes
//! `results/table4_dynamic.json` and `results/irregular_dynamic.json`, and
//! cross-checks static against dynamic (avg VL within 10%, % vectorization
//! within 5 points, top common VL exact, instruction count exact for exact
//! walks) — exiting 1 on any mismatch, so CI can gate releases on the
//! analyzer staying honest. A failed results write also exits 1.
//!
//! Scale comes from `VLT_SCALE` (`test` | `small` | `full`), like the
//! `vlt-bench` experiment runner.

use std::path::Path;

use vlt_bench::experiments::{scale_from_env, table4_static as ex, Record};
use vlt_stats::Table;

fn main() {
    let mut validate = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--validate" => validate = true,
            "-h" | "--help" => {
                println!("usage: vladvise [--validate]");
                return;
            }
            other => {
                eprintln!("vladvise: unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }

    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("vladvise: {e}");
        std::process::exit(2);
    });
    let results = vlt_bench::results_dir();

    let rows = ex::run(scale);
    print_static(ex::static_table(&rows), &rows, &results, "table4_static");

    let irr = ex::run_irregular(scale);
    println!();
    print_static(ex::irregular_static_table(&irr), &irr, &results, "irregular_static");

    if !validate {
        return;
    }

    println!("\nvalidating against the dynamic characterization...");
    let mut errs = Vec::new();
    let dyn_rows = ex::dynamic_rows(scale);
    let dt = ex::dynamic_table(&dyn_rows);
    println!("{dt}");
    write_table(dt, &results, "table4_dynamic");
    errs.extend(ex::validate(&rows, &dyn_rows));

    let irr_dyn = ex::dynamic_rows_irregular(scale);
    let idt = ex::dynamic_table(&irr_dyn);
    println!("{idt}");
    write_table(idt, &results, "irregular_dynamic");
    errs.extend(ex::validate(&irr, &irr_dyn));

    if errs.is_empty() {
        println!(
            "static analysis validated against dynamic runs for all {} kernels",
            rows.len() + irr.len()
        );
    } else {
        for e in &errs {
            eprintln!("vladvise: MISMATCH: {e}");
        }
        std::process::exit(1);
    }
}

fn print_static(t: Table, rows: &[ex::StaticRow], results: &Path, name: &str) {
    println!("{t}");
    for r in rows {
        let a = &r.advice;
        for reg in &a.regions {
            if reg.region == 0 {
                continue;
            }
            println!(
                "{}: region {}: {:?}, {:.1}% vectorized, avg VL {:.1}, best {} thread(s)",
                r.name,
                reg.region,
                reg.opportunity,
                reg.pct_vectorization,
                reg.avg_vl,
                reg.best_threads,
            );
        }
        let ranked: Vec<String> = a
            .ranking
            .iter()
            .map(|s| format!("{}x{} ({:.2}x)", s.threads, s.mvl, s.speedup))
            .collect();
        println!("{}: ranking: {}", r.name, ranked.join(" > "));
    }
    write_table(t, results, name);
}

fn write_table(t: Table, results: &Path, name: &str) {
    match Record::table(name, t).write_to(results) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(err) => {
            eprintln!("vladvise: could not write {}/{name}.json: {err}", results.display());
            std::process::exit(1);
        }
    }
}
