//! mgk-analyze: workspace-local concurrency & invariant lints.
//!
//! A dependency-free static analysis pass over every `.rs` file in the
//! workspace (`crates/`, `shims/`, `src/`, `tests/`): a hand-rolled lexer
//! and block-structure parser feed six lint families with stable `MGKnnn`
//! codes. Findings print as `CODE file:line message`; the checked-in
//! `analyze.allow` file can waive a finding with a mandatory justification,
//! and `--strict` additionally fails on stale allowlist entries (MGK001).
//!
//! The same engine is callable in-process (see [`workspace_clean_from`]).

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod parser;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use diag::{apply_allowlist, parse_allowlist, Code, Diagnostic, Report};
use lints::panic_surface::PanicConfig;
use parser::FileModel;

/// Crates vendored under `shims/` that the parity lint guards.
pub const SHIM_CRATES: &[&str] = &["rand", "rayon", "proptest"];

/// Analysis configuration. [`Config::for_root`] bakes in the repository's
/// conventions; the CLI only overrides the root and the allowlist path.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory holding the virtual-manifest
    /// `Cargo.toml`).
    pub root: PathBuf,
    /// Top-level directories to scan for `.rs` files.
    pub scan_dirs: Vec<String>,
    /// Path suffixes of hot-path modules (MGK401 panic check).
    pub hot_path_files: Vec<String>,
    /// Path suffixes of hot-path kernels (MGK403 indexing check).
    pub indexing_files: Vec<String>,
    /// Allowlist file; missing file means an empty allowlist.
    pub allowlist: PathBuf,
    /// README whose metric citations are membership-checked.
    pub readme: PathBuf,
    /// Strict mode: stale/malformed allowlist entries become MGK001
    /// findings.
    pub strict: bool,
}

impl Config {
    /// The repository's standard configuration rooted at `root`.
    pub fn for_root(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            scan_dirs: ["crates", "shims", "src", "tests"].iter().map(|s| s.to_string()).collect(),
            hot_path_files: ["/octile_ops.rs", "/xmv.rs", "/service.rs", "/scheduler.rs"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            indexing_files: ["/octile_ops.rs", "/xmv.rs"].iter().map(|s| s.to_string()).collect(),
            allowlist: root.join("analyze.allow"),
            readme: root.join("README.md"),
            strict: false,
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

    // Unsafe audit.
    let (unsafe_diags, inventory) = lints::unsafe_audit::analyze(&models);
    report.diagnostics.extend(unsafe_diags);
    report.unsafe_inventory = inventory;

    // Panic surface.
    let panic_cfg = PanicConfig {
        hot_path_files: cfg.hot_path_files.clone(),
        indexing_files: cfg.indexing_files.clone(),
    };
    report.diagnostics.extend(lints::panic_surface::analyze(&models, &panic_cfg));

    // Shim parity.
    let mut indexes: BTreeMap<String, lints::shim_parity::ShimIndex> = BTreeMap::new();
    for krate in SHIM_CRATES {
        let prefix = format!("shims/{krate}/src/");
        let shim_files: Vec<(&FileModel, String)> = models
            .iter()
            .filter(|m| m.rel_path.starts_with(&prefix))
            .map(|m| (m, shim_module_base(&m.rel_path, &prefix)))
            .collect();
        if !shim_files.is_empty() {
            indexes.insert(krate.to_string(), lints::shim_parity::index_shim(&shim_files));
        }
    }
    let mut refs = Vec::new();
    for model in &models {
        let own_crate = SHIM_CRATES
            .iter()
            .find(|k| model.rel_path.starts_with(&format!("shims/{k}/")))
            .copied();
        let crates: Vec<&str> =
            SHIM_CRATES.iter().copied().filter(|k| Some(*k) != own_crate).collect();
        lints::shim_parity::collect_refs(model, &crates, &mut refs);
    }
    report.diagnostics.extend(lints::shim_parity::resolve(&refs, &indexes));

    // Metric vocabulary.
    let readme_text = fs::read_to_string(&cfg.readme).ok();
    let readme_rel = rel_path(&cfg.root, &cfg.readme);
    let vocab = lints::metric_vocab::analyze(
        &models,
        readme_text.as_deref().map(|t| (readme_rel.as_str(), t)),
    );
    report.diagnostics.extend(vocab.diagnostics);
    report.metric_vocabulary = vocab.vocabulary;

    // Allowlist application, then staleness findings (strict only). MGK001
    // findings are themselves never allowlistable.
    let allow_rel = rel_path(&cfg.root, &cfg.allowlist);
    let allow_text = fs::read_to_string(&cfg.allowlist).unwrap_or_default();
    let (mut entries, errors) = parse_allowlist(&allow_text);
    apply_allowlist(&mut report.diagnostics, &mut entries);
    if cfg.strict {
        for err in &errors {
            report.diagnostics.push(Diagnostic::new(Code::Mgk001, &allow_rel, 0, err.clone()));
        }
        for e in entries.iter().filter(|e| !e.used) {
            report.diagnostics.push(Diagnostic::new(
                Code::Mgk001,
                &allow_rel,
                e.line,
                format!(
                    "allowlist entry `{} | {} | {}` matched no finding; remove the stale waiver",
                    e.code, e.path_suffix, e.message_contains
                ),
            ));
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    Ok(report)
}

/// Map a shim file path to its module base: `lib.rs`/`main.rs` → root,
/// `rngs.rs` → `rngs`, `seq/mod.rs` → `seq`, `a/b.rs` → `a::b`.
fn shim_module_base(rel: &str, src_prefix: &str) -> String {
    let tail = rel.strip_prefix(src_prefix).unwrap_or(rel);
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let mut segs: Vec<&str> = tail.split('/').collect();
    match segs.last().copied() {
        Some("lib") | Some("main") if segs.len() == 1 => return String::new(),
        Some("mod") => {
            segs.pop();
        }
        _ => {}
    }
    segs.join("::")
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

/// Run the strict analysis for the workspace containing `start`; `None`
/// when no workspace root is found or a source file is unreadable.
pub fn workspace_clean_from(start: &Path) -> Option<bool> {
    let root = find_workspace_root(start)?;
    let mut cfg = Config::for_root(&root);
    cfg.strict = true;
    run(&cfg).ok().map(|r| r.clean())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_module_bases_follow_file_layout() {
        assert_eq!(shim_module_base("shims/rand/src/lib.rs", "shims/rand/src/"), "");
        assert_eq!(shim_module_base("shims/rand/src/rngs.rs", "shims/rand/src/"), "rngs");
        assert_eq!(shim_module_base("shims/rand/src/seq/mod.rs", "shims/rand/src/"), "seq");
        assert_eq!(shim_module_base("shims/rand/src/a/b.rs", "shims/rand/src/"), "a::b");
    }
}
