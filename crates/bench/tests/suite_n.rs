//! `SRAA_SUITE_N` picks the suite size of `fig8`, `fig11` and
//! `scalability`. A value that is not a whole number is a usage error,
//! not a silent run of the default 100-program suite.

use std::process::Command;

#[test]
fn unparsable_suite_sizes_stop_before_any_work() {
    let bins = [
        env!("CARGO_BIN_EXE_fig8"),
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_scalability"),
    ];
    for bin in bins {
        for bad in ["abc", "-5", "1e3", ""] {
            let out = Command::new(bin).env("SRAA_SUITE_N", bad).output().expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} with {bad:?}: {err}");
            assert!(out.stdout.is_empty(), "{bin} with {bad:?} printed a table");
            assert!(err.contains("SRAA_SUITE_N must be a whole number"), "{bin}: {err}");
        }
    }
}
