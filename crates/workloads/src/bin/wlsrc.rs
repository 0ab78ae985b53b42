//! `wlsrc` — regenerate an irregular kernel's assembly source.
//!
//! The irregular kernels are generated programs (their `.data` sections
//! embed the golden input sets), so there is no checked-in `.s` file for
//! `vlint` to read. This tool reproduces the exact source a workload
//! build assembles and prints it to stdout, which is how CI runs the
//! strict lint over the suite:
//!
//! ```text
//! wlsrc spmv --threads 4 > /tmp/spmv.s && vlint --strict --races --dlp /tmp/spmv.s
//! ```
//!
//! Usage: `wlsrc <name> [--threads N] [--clusters N] [--scale test|small|full]`
//! with `wlsrc --list` printing the available kernel names.

use std::process::ExitCode;

use vlt_workloads::{irregular_source, irregular_suite, Scale};

fn usage() -> &'static str {
    "usage: wlsrc <name> [--threads N] [--clusters N] [--scale test|small|full]\n       wlsrc --list"
}

fn run(args: &[String]) -> Result<String, String> {
    let mut name = None;
    let mut threads = 2usize;
    let mut clusters = 1usize;
    let mut scale = Scale::Test;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" | "--clusters" | "--scale" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                match a.as_str() {
                    "--threads" => {
                        threads = v
                            .parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or("--threads must be a positive integer")?;
                    }
                    "--clusters" => {
                        clusters = v
                            .parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or("--clusters must be a positive integer")?;
                    }
                    _ => scale = v.parse()?,
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            n if name.is_none() => name = Some(n.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let name = name.ok_or("missing kernel name")?;
    irregular_source(&name, threads, clusters, scale).ok_or_else(|| {
        format!(
            "unknown kernel `{name}` (known: {})",
            irregular_suite().iter().map(|w| w.name()).collect::<Vec<_>>().join(", ")
        )
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for w in irregular_suite() {
            println!("{}", w.name());
        }
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(src) => {
            print!("{src}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wlsrc: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
