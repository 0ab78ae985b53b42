//! The `vlt-bench` runner's argument and `VLT_SCALE` handling. Only
//! failure paths run here: a successful run would rewrite `results/`.

use std::process::{Command, Output};

use vlt_bench::experiments::ALL;

fn run(bin: &str, args: &[&str], scale: Option<&str>) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).env_remove("VLT_SCALE");
    if let Some(s) = scale {
        cmd.env("VLT_SCALE", s);
    }
    cmd.output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_id_exits_2_and_lists_every_id() {
    for args in [&["fig2"][..], &[], &["fig1", "fig3"]] {
        let out = run(env!("CARGO_BIN_EXE_vlt-bench"), args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        for e in ALL {
            assert!(err.contains(e.id), "{args:?}: `{}` not listed in {err:?}", e.id);
        }
    }
}

/// A misspelled scale used to fall back to Small silently.
#[test]
fn unknown_scale_is_an_error() {
    for (bin, args) in
        [(env!("CARGO_BIN_EXE_vlt-bench"), &["table1"][..]), (env!("CARGO_BIN_EXE_vladvise"), &[])]
    {
        let out = run(bin, args, Some("Test"));
        assert_eq!(out.status.code(), Some(2), "{bin}");
        assert!(stderr(&out).contains("test | small | full"), "{bin}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{bin} ran before rejecting the scale");
    }
}
