//! mgk-analyze: the workspace's concurrency lint pass.
//!
//! A dependency-free static analysis pass over every `.rs` file in the
//! workspace (`crates/`, `shims/`, `src/`, `tests/`): a hand-rolled lexer
//! and block-structure parser feed two lint families with stable `MGKnnn`
//! codes — lock order and condvar discipline ([`lints::locks`]), panics in
//! `Drop` and unguarded kernel indexing ([`lints::panic_surface`]).
//! Findings print as `CODE file:line message` and any finding fails the
//! run; there is no waiver file.
//!
//! A check lives here only if no stock tool can make it. Undocumented or
//! new `unsafe`, panicking calls in the hot-path modules, paths the shims
//! do not export and the metric vocabulary are rustc's, clippy's and a unit
//! test's to enforce (see the README's "Static analysis").
//!
//! The same engine is callable in-process (see [`workspace_clean_from`]).

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod parser;

use std::fs;
use std::path::{Path, PathBuf};

use diag::Report;
use parser::FileModel;

/// Analysis configuration. [`Config::for_root`] bakes in the repository's
/// conventions; the CLI only overrides the root.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the virtual-manifest
    /// `Cargo.toml`).
    pub root: PathBuf,
    /// Top-level directories to scan for `.rs` files.
    pub scan_dirs: Vec<String>,
    /// Path suffixes of hot-path kernels (MGK403 indexing check).
    pub indexing_files: Vec<String>,
}

impl Config {
    /// The repository's standard configuration rooted at `root`.
    pub fn for_root(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            scan_dirs: ["crates", "shims", "src", "tests"].iter().map(|s| s.to_string()).collect(),
            indexing_files: ["/octile_ops.rs", "/xmv.rs"].iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Run the full analysis described by `cfg`.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    for dir in &cfg.scan_dirs {
        let base = cfg.root.join(dir);
        if base.is_dir() {
            walk(&base, &mut files);
        }
    }
    files.sort();

    let mut models = Vec::new();
    for path in &files {
        let rel = rel_path(&cfg.root, path);
        let src = fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let is_test = rel.starts_with("tests/") || rel.contains("/tests/");
        models.push(FileModel::parse(&rel, &src, is_test));
    }

    let mut report = Report { files_scanned: models.len(), ..Report::default() };

    // Lock order + condvar discipline.
    let lock = lints::locks::analyze(&models);
    report.diagnostics.extend(lints::locks::cycle_diagnostics(&lock.edges));
    report.diagnostics.extend(lock.diagnostics);
    report.lock_edges = lock.edges.iter().map(|e| (e.from.clone(), e.to.clone())).collect();
    report.lock_edges.sort();
    report.lock_edges.dedup();

    // Panics in `Drop`, unguarded kernel indexing.
    report.diagnostics.extend(lints::panic_surface::analyze(&models, &cfg.indexing_files));

    report
        .diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    Ok(report)
}

/// Recursively collect `.rs` files (skipping `target/`), sorted by the
/// caller for deterministic output.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = rd.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            if e.file_name() == "target" {
                continue;
            }
            walk(&path, out);
        } else if path.extension().map(|x| x == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walk up from `start` to the workspace root (the first ancestor whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

/// Run the analysis for the workspace containing `start`; `None` when no
/// workspace root is found or a source file is unreadable.
pub fn workspace_clean_from(start: &Path) -> Option<bool> {
    let root = find_workspace_root(start)?;
    run(&Config::for_root(&root)).ok().map(|r| r.clean())
}
