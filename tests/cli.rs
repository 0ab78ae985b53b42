//! `vlt-run` command-line validation: bad flag values end in a diagnosed
//! exit 1 that names the limit, never a panic or a silent default.

use std::process::Command;

fn vlt_run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vlt-run"))
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/asm/dot.s"))
        .args(args)
        .output()
        .expect("vlt-run starts");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn vlt_run_rejects_bad_flags() {
    let cases: [(&[&str], &str); 9] = [
        (&["-t", "0"], "--threads must be between 1 and 64, got 0"),
        (&["-t", "65", "--functional"], "--threads must be between 1 and 64, got 65"),
        (&["--config", "v2-cmp", "-t", "3"], "config V2-CMP runs at most 2 thread(s), got 3"),
        (&["--lanes", "0"], "--lanes must be between 1 and 64, got 0"),
        (&["-t", "four"], "--threads needs a non-negative integer, got `four`"),
        (&["--lanes", "-2"], "--lanes needs a non-negative integer, got `-2`"),
        (&["--max-cycles", "lots"], "--max-cycles needs a non-negative integer, got `lots`"),
        (&["--max-cycles"], "--max-cycles needs a value"),
        (&["--config", "v4-cmt-lanes", "-t", "9"], "runs at most 8 thread(s), got 9"),
    ];
    for (args, msg) in cases {
        let (code, stderr) = vlt_run(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: want `{msg}`, got: {stderr}");
    }
    let (code, stderr) = vlt_run(&["--config", "v4-cmt", "-t", "4", "--max-cycles", "100000"]);
    assert_eq!(code, Some(0), "{stderr}");
}
