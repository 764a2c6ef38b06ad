//! Integration tests: the analyzer against the real workspace (must be
//! clean) and against a seeded temporary workspace (each lint must actually
//! fire end-to-end, at the right line).

use std::fs;
use std::path::{Path, PathBuf};

use mgk_analyze::{find_workspace_root, run, workspace_clean_from, Config};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

#[test]
fn workspace_is_clean() {
    let root = repo_root();
    let report = run(&Config::for_root(&root)).expect("analysis of the workspace succeeds");
    let findings: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(findings.is_empty(), "the workspace must stay clean:\n{}", findings.join("\n"));
    // sanity: the scan actually covered the tree
    assert!(report.files_scanned > 100, "only {} files scanned", report.files_scanned);
    assert!(workspace_clean_from(&root) == Some(true));
}

#[test]
fn seeded_violations_fire() {
    let dir = std::env::temp_dir().join(format!("mgk-analyze-it-{}", std::process::id()));
    let src = dir.join("crates/hot/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    fs::write(
        src.join("locks.rs"),
        "fn f(s: &S) {\n    let a = s.alpha.lock().unwrap();\n    let b = s.beta.lock().unwrap();\n}\n\
         fn g(s: &S) {\n    let b = s.beta.lock().unwrap();\n    let a = s.alpha.lock().unwrap();\n}\n\
         fn h(s: &S) {\n    let mut ready = s.m.lock().unwrap();\n    ready = s.cv.wait(ready).unwrap();\n}\n",
    )
    .unwrap();
    fs::write(
        src.join("guard.rs"),
        "impl Drop for Guard {\n    fn drop(&mut self) {\n        panic!(\"leaked\");\n    }\n}\n",
    )
    .unwrap();
    fs::write(
        src.join("octile_ops.rs"),
        "pub fn first(y: &[f32], i: usize) -> f32 {\n    y[i]\n}\n",
    )
    .unwrap();

    assert_eq!(find_workspace_root(&src), Some(dir.clone()));

    // every seeded finding fires with its stable code at the right line
    let report = run(&Config::for_root(&dir)).expect("analysis of the seeded tree succeeds");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    for expected in [
        "MGK101 crates/hot/src/locks.rs:",
        "MGK201 crates/hot/src/locks.rs:11",
        "MGK402 crates/hot/src/guard.rs:3",
        "MGK403 crates/hot/src/octile_ops.rs:2",
    ] {
        assert!(rendered.iter().any(|r| r.starts_with(expected)), "{expected}: {rendered:?}");
    }
    assert_eq!(rendered.len(), 4, "{rendered:?}");
    assert_eq!(workspace_clean_from(&src), Some(false));

    fs::remove_dir_all(&dir).unwrap();
}
