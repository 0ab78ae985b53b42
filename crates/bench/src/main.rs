//! `vlt-bench` — regenerate the paper's tables and figures.
//!
//! ```text
//! vlt-bench <id>    # one experiment from vlt_bench::experiments::ALL
//! vlt-bench all     # every experiment, in registry order
//! ```
//!
//! Each experiment prints its tables and writes its records to
//! `results/<id>.json`. Scale comes from `VLT_SCALE` (`test` | `small` |
//! `full`, default `small`). Exit status: 0 on success, 1 when a run or a
//! results write fails, 2 for an unknown id or scale.

use std::process::ExitCode;

use vlt_bench::experiments::{scale_from_env, ALL};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let entries: Vec<_> = match args.as_slice() {
        [id] if id == "all" => ALL.iter().collect(),
        [id] => ALL.iter().filter(|e| e.id == id).collect(),
        _ => Vec::new(),
    };
    if entries.is_empty() {
        let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        eprintln!("usage: vlt-bench <id>|all\nids: {}", ids.join(", "));
        return ExitCode::from(2);
    }
    let scale = match scale_from_env() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vlt-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = vlt_bench::results_dir();
    for e in entries {
        if let Err(err) = e.run(scale, &dir) {
            eprintln!("vlt-bench: {}: {err}", e.id);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
