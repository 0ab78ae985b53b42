//! `vlt-run` — assemble and simulate a VLT-ISA program on any of the
//! paper's machine configurations.
//!
//! ```text
//! vlt-run program.s                          # base 8-lane, 1 thread
//! vlt-run program.s --config v2-cmp -t 2     # 2 VLT threads
//! vlt-run program.s --config v4-cmt-lanes -t 8
//! vlt-run program.s --lanes 4                # base with 4 lanes
//! vlt-run program.s --functional             # no timing model
//! ```
//!
//! Prints cycles, instructions, IPC, datapath utilization, and region
//! attribution.

use std::process::ExitCode;

use vlt::core::{System, SystemConfig};
use vlt::exec::FuncSim;
use vlt::isa::asm::assemble;
use vlt::isa::MAX_VL;

fn config_by_name(name: &str, lanes: usize) -> Option<SystemConfig> {
    Some(match name {
        "base" => SystemConfig::base(lanes),
        "v2-smt" => SystemConfig::v2_smt(),
        "v2-cmp" => SystemConfig::v2_cmp(),
        "v2-cmp-h" => SystemConfig::v2_cmp_h(),
        "v4-smt" => SystemConfig::v4_smt(),
        "v4-cmt" => SystemConfig::v4_cmt(),
        "v4-cmp" => SystemConfig::v4_cmp(),
        "v4-cmp-h" => SystemConfig::v4_cmp_h(),
        "cmt" => SystemConfig::cmt(),
        "v4-cmt-lanes" => SystemConfig::v4_cmt_lane_threads(),
        _ => return None,
    })
}

/// Most software threads the functional simulator runs.
const MAX_THREADS: usize = 64;

/// The value after flag `name` at `args[i]`, parsed.
fn value<T: std::str::FromStr>(args: &[String], i: usize, name: &str) -> Result<T, String> {
    let v = args.get(i).ok_or_else(|| format!("{name} needs a value"))?;
    v.parse().map_err(|_| format!("{name} needs a non-negative integer, got `{v}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut config = "base".to_string();
    let mut threads = 1usize;
    let mut lanes = 8usize;
    let mut functional = false;
    let mut max_cycles = 2_000_000_000u64;
    let mut i = 0;
    while i < args.len() {
        let parsed = match args[i].as_str() {
            "--config" | "-c" => {
                i += 1;
                config = args.get(i).cloned().unwrap_or_default();
                Ok(())
            }
            "--threads" | "-t" => {
                i += 1;
                value(&args, i, "--threads").map(|v| threads = v)
            }
            "--lanes" => {
                i += 1;
                value(&args, i, "--lanes").map(|v| lanes = v)
            }
            "--max-cycles" => {
                i += 1;
                value(&args, i, "--max-cycles").map(|v| max_cycles = v)
            }
            "--functional" | "-f" => {
                functional = true;
                Ok(())
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: vlt-run <program.s> [--config NAME] [--threads N] \
                     [--lanes N] [--functional] [--max-cycles N]\n\
                     configs: base v2-smt v2-cmp v2-cmp-h v4-smt v4-cmt v4-cmp \
                     v4-cmp-h cmt v4-cmt-lanes"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                input = Some(other.to_string());
                Ok(())
            }
        };
        if let Err(e) = parsed {
            eprintln!("vlt-run: {e}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    let Some(input) = input else {
        eprintln!("usage: vlt-run <program.s> [--config NAME] [--threads N] ... (see --help)");
        return ExitCode::FAILURE;
    };
    if !(1..=MAX_THREADS).contains(&threads) {
        eprintln!("vlt-run: --threads must be between 1 and {MAX_THREADS}, got {threads}");
        return ExitCode::FAILURE;
    }
    if !(1..=MAX_VL).contains(&lanes) {
        eprintln!("vlt-run: --lanes must be between 1 and {MAX_VL}, got {lanes}");
        return ExitCode::FAILURE;
    }
    // Check the machine before reading the program, so a bad command line
    // fails the same way whatever the input.
    let cfg = if functional {
        None
    } else {
        let Some(cfg) = config_by_name(&config, lanes) else {
            eprintln!("vlt-run: unknown config `{config}` (see --help)");
            return ExitCode::FAILURE;
        };
        // One context per thread, and one lane partition per vector thread.
        let limit =
            if cfg.has_vu { cfg.max_threads().min(cfg.vlt_threads) } else { cfg.max_threads() };
        if threads > limit {
            eprintln!("vlt-run: config {} runs at most {limit} thread(s), got {threads}", cfg.name);
            return ExitCode::FAILURE;
        }
        Some(cfg)
    };

    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vlt-run: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = match assemble(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vlt-run: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let Some(cfg) = cfg else {
        let mut sim = FuncSim::new(&prog, threads);
        match sim.run_to_completion(max_cycles) {
            Ok(s) => {
                println!("functional: {} instructions across {threads} thread(s)", s.insts);
                println!(
                    "vectorization: {:.1}% of operations, avg VL {:.1}",
                    s.pct_vectorization(),
                    s.avg_vl()
                );
            }
            Err(e) => {
                eprintln!("vlt-run: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    };

    let name = cfg.name.clone();
    let mut system = System::new(cfg, &prog, threads);
    match system.run(max_cycles) {
        Ok(r) => {
            println!("config {name}, {threads} thread(s):");
            println!("  cycles      : {}", r.cycles);
            println!("  instructions: {}", r.committed);
            println!("  IPC         : {:.2}", r.committed as f64 / r.cycles as f64);
            let u = r.utilization;
            if u.total() > 0 {
                println!(
                    "  datapaths   : {:.1}% busy, {:.1}% partly idle, {:.1}% stalled, {:.1}% idle",
                    100.0 * u.busy as f64 / u.total() as f64,
                    100.0 * u.partly_idle as f64 / u.total() as f64,
                    100.0 * u.stalled as f64 / u.total() as f64,
                    100.0 * u.all_idle as f64 / u.total() as f64
                );
            }
            for (region, cycles) in &r.region_cycles {
                println!("  region {region}    : {cycles} cycles");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vlt-run: {e}");
            ExitCode::FAILURE
        }
    }
}
