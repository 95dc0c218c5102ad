//! The `figures` driver's command line, through the built binary: a name
//! that is not in the registry must stop the process with status 2 and the
//! list of names before any figure runs. (Selection itself, `--trace`
//! included, is unit-tested next to the registry.)

use std::process::Command;

#[test]
fn unknown_figure_exits_2_with_the_registry() {
    for bad in [&["fig13_scalability"][..], &["table1_features", "--quick"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures")).args(bad).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} must not run anything");
        let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
        assert!(usage.contains(bad.last().unwrap()), "{usage}");
        for name in ["table1_features", "ext_scalability", "simspeed", "trace_smoke"] {
            assert!(usage.contains(name), "{name} missing from: {usage}");
        }
    }
}
