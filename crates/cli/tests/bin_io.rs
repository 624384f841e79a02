//! End-to-end IO-failure behaviour of `ibpower exhibits`: a broken
//! results directory must produce a **nonzero exit** and an error that
//! names the failing path — never a zero exit with silently missing
//! output.

use std::process::Command;

/// Run `ibpower exhibits table4` with `IBP_RESULTS_DIR` pointing at a
/// regular file, so the results directory cannot be created. (A
/// read-only directory is not usable here: these tests run as root in
/// CI containers, and root bypasses permission bits.)
#[test]
fn blocked_results_dir_fails_fast_with_the_path() {
    let blocked = std::env::temp_dir().join(format!("ibp-blocked-bin-{}", std::process::id()));
    std::fs::write(&blocked, b"squatter").expect("plant blocking file");
    let out = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args(["exhibits", "table4"])
        .env("IBP_RESULTS_DIR", &blocked)
        .output()
        .expect("spawn ibpower");
    std::fs::remove_file(&blocked).ok();
    assert!(
        !out.status.success(),
        "blocked results dir must exit nonzero (got {:?})",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(
        stderr.contains(&blocked.display().to_string()),
        "stderr must name the failing path: {stderr}"
    );
    // Fail-fast: the directory is checked before any simulation runs,
    // so neither the table nor the sweep line has been printed.
    assert!(
        out.stdout.is_empty(),
        "must fail before computing the exhibit"
    );
    assert!(!stderr.contains("sweep:"), "stderr: {stderr}");
}

#[test]
fn malformed_jobs_flag_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args(["exhibits", "table4", "--jobs", "zero"])
        .output()
        .expect("spawn ibpower");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --jobs"), "stderr: {stderr}");
}
