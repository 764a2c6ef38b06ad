//! Shim-parity lint (MGK501).
//!
//! The container has no crates.io access, so `rand`/`rayon`/`proptest`
//! resolve to workspace-local shims. The carried-over rule is
//! "any new API surface used from these crates must be added to the shim
//! first" — this lint enforces it mechanically: every `rand::…` (etc.) path
//! referenced anywhere in the workspace must resolve to a `pub` item the
//! shim actually defines.
//!
//! Resolution is lexical: segments are walked as modules until the first
//! non-module segment, which must be a `pub` item (or `macro_rules!`
//! export) bound in that module; trailing segments (associated functions,
//! methods) are the compiler's problem, not this lint's.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Code, Diagnostic};
use crate::lexer::{Tok, TokKind};
use crate::parser::FileModel;

/// Item definitions of one shim crate.
#[derive(Debug, Default)]
pub struct ShimIndex {
    /// Known module paths (`""` is the crate root, nested as `a::b`).
    pub modules: BTreeSet<String>,
    /// `pub` items (and exported macros) per module path.
    pub items: BTreeMap<String, BTreeSet<String>>,
}

impl ShimIndex {
    fn bind(&mut self, module: &str, name: &str) {
        self.items.entry(module.to_string()).or_default().insert(name.to_string());
    }
}

/// Build the index for one shim crate from its files. `file_mod_path` maps
/// each file to its module path implied by the file system (`lib.rs` → ``,
/// `rngs.rs` → `rngs`).
pub fn index_shim(files: &[(&FileModel, String)]) -> ShimIndex {
    let mut idx = ShimIndex::default();
    idx.modules.insert(String::new());
    for (file, base) in files {
        if !base.is_empty() {
            idx.modules.insert(base.clone());
        }
        index_file(file, base, &mut idx);
    }
    idx
}

fn join(base: &str, seg: &str) -> String {
    if base.is_empty() {
        seg.to_string()
    } else {
        format!("{base}::{seg}")
    }
}

/// Collect `pub` items, inline modules, re-exports, and exported macros.
fn index_file(file: &FileModel, base: &str, idx: &mut ShimIndex) {
    let toks = &file.toks;
    let mod_at = |i: usize| -> String {
        file.mod_path_at[i].iter().fold(base.to_string(), |acc, m| join(&acc, m))
    };
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // macro_rules! NAME: bound at the crate root when #[macro_export]
        if t.is_ident("macro_rules") && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false) {
            if let Some(name) = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                let exported = file
                    .lines
                    .get((t.line as usize).saturating_sub(2))
                    .map(|l| l.contains("#[macro_export]"))
                    .unwrap_or(false);
                if exported {
                    idx.bind("", &name.text);
                } else {
                    idx.bind(&mod_at(i), &name.text);
                }
            }
            i += 3;
            continue;
        }
        if !t.is_ident("pub") {
            i += 1;
            continue;
        }
        // skip visibility scope `pub(crate)` etc.
        let mut j = i + 1;
        if toks.get(j).map(|t| t.is_punct("(")).unwrap_or(false) {
            while j < toks.len() && !toks[j].is_punct(")") {
                j += 1;
            }
            j += 1;
        }
        let here = mod_at(i);
        match toks.get(j).map(|t| t.text.as_str()) {
            Some("fn") | Some("struct") | Some("enum") | Some("trait") | Some("type")
            | Some("const") | Some("static") => {
                // `pub static NAME`, `pub unsafe fn NAME` — take the next
                // plain identifier that is not a qualifier keyword
                let mut k = j + 1;
                while let Some(t) = toks.get(k) {
                    if t.kind == TokKind::Ident
                        && !matches!(t.text.as_str(), "unsafe" | "mut" | "extern" | "async")
                    {
                        idx.bind(&here, &t.text);
                        break;
                    }
                    k += 1;
                }
            }
            Some("mod") => {
                if let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
                    let full = join(&here, &name.text);
                    idx.modules.insert(full.clone());
                    idx.bind(&here, &name.text);
                }
            }
            Some("use") => {
                let mut leaves = Vec::new();
                collect_use_leaves(toks, j + 1, &mut leaves);
                for leaf in leaves {
                    idx.bind(&here, &leaf);
                }
            }
            Some("unsafe") | Some("async") => {
                // `pub unsafe fn`, `pub async fn`
                if let Some(name) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                    idx.bind(&here, &name.text);
                }
            }
            _ => {}
        }
        i = j + 1;
    }
}

/// Collect the bound names of a `use` tree starting at `start` (after the
/// `use` keyword): the `as` alias where present, else the final segment of
/// each leaf. `self` leaves bind the enclosing module's name.
fn collect_use_leaves(toks: &[Tok], start: usize, out: &mut Vec<String>) {
    let mut last_ident: Option<String> = None;
    let mut prev_module: Option<String> = None;
    let mut i = start;
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(";") && depth == 0 {
            break;
        }
        if t.is_punct("{") {
            depth += 1;
            prev_module = last_ident.take();
        } else if t.is_punct("}") {
            depth -= 1;
            if let Some(name) = last_ident.take() {
                out.push(name);
            }
        } else if t.is_punct(",") {
            if let Some(name) = last_ident.take() {
                out.push(name);
            }
        } else if t.is_ident("as") {
            // alias replaces the leaf name
            if let Some(alias) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                last_ident = Some(alias.text.clone());
                i += 2;
                continue;
            }
        } else if t.is_ident("self") {
            last_ident = prev_module.clone();
        } else if t.kind == TokKind::Ident {
            last_ident = Some(t.text.clone());
        } else if t.is_punct("*") {
            last_ident = None; // glob re-export: not name-resolvable here
        }
        i += 1;
    }
    if let Some(name) = last_ident.take() {
        out.push(name);
    }
}

/// One referenced path into a shim crate.
#[derive(Debug, Clone)]
pub struct ShimRef {
    /// Crate name (`rand`, ...).
    pub krate: String,
    /// Path segments after the crate name (may end with `*`).
    pub segments: Vec<String>,
    /// Referencing file.
    pub file: String,
    /// Referencing line.
    pub line: u32,
}

/// Extract every `use <crate>::…` leaf and inline `<crate>::…` path from a
/// non-shim workspace file.
pub fn collect_refs(file: &FileModel, crates: &[&str], out: &mut Vec<ShimRef>) {
    let toks = &file.toks;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("use")
            && toks.get(i + 1).map(|n| crates.contains(&n.text.as_str())).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_punct(":")).unwrap_or(false)
        {
            let krate = toks[i + 1].text.clone();
            let mut paths = Vec::new();
            collect_use_paths(toks, i + 3, &[], &mut paths);
            for (segments, line) in paths {
                out.push(ShimRef {
                    krate: krate.clone(),
                    segments,
                    file: file.rel_path.clone(),
                    line,
                });
            }
            // skip past the statement
            while i < toks.len() && !toks[i].is_punct(";") {
                i += 1;
            }
            continue;
        }
        // inline path: `rand::rngs::StdRng::seed_from_u64(..)`
        if t.kind == TokKind::Ident
            && crates.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct(":")).unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_punct(":")).unwrap_or(false)
            && (i == 0 || !(toks[i - 1].is_punct(":") || toks[i - 1].is_punct(".")))
        {
            let krate = t.text.clone();
            let line = t.line;
            let mut segments = Vec::new();
            let mut j = i + 3;
            while let Some(seg) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                segments.push(seg.text.clone());
                if toks.get(j + 1).map(|n| n.is_punct(":")).unwrap_or(false)
                    && toks.get(j + 2).map(|n| n.is_punct(":")).unwrap_or(false)
                {
                    j += 3;
                } else {
                    break;
                }
            }
            if !segments.is_empty() {
                out.push(ShimRef { krate, segments, file: file.rel_path.clone(), line });
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Expand a `use` tree after the leading `crate::` into leaf segment paths
/// (each with the line of its final segment).
fn collect_use_paths(
    toks: &[Tok],
    start: usize,
    prefix: &[String],
    out: &mut Vec<(Vec<String>, u32)>,
) -> usize {
    let mut i = start;
    let mut current: Vec<String> = Vec::new();
    let mut line = toks.get(start).map(|t| t.line).unwrap_or(0);
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(";") || t.is_punct("}") {
            if !current.is_empty() {
                let mut full = prefix.to_vec();
                full.append(&mut current);
                out.push((full, line));
            }
            return i + 1;
        }
        if t.is_punct(",") {
            if !current.is_empty() {
                let mut full = prefix.to_vec();
                full.append(&mut current);
                out.push((full, line));
            }
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            let mut inner_prefix: Vec<String> = prefix.to_vec();
            inner_prefix.append(&mut current);
            i = collect_use_paths(toks, i + 1, &inner_prefix, out);
            continue;
        }
        if t.is_punct("*") {
            current.push("*".to_string());
            line = t.line;
            i += 1;
            continue;
        }
        if t.is_ident("as") {
            // alias: resolution targets the original path; skip the alias
            i += 2;
            continue;
        }
        if t.kind == TokKind::Ident {
            current.push(t.text.clone());
            line = t.line;
        }
        i += 1;
    }
    i
}

/// Resolve every reference against its shim index; unresolved paths become
/// MGK501 diagnostics.
pub fn resolve(refs: &[ShimRef], indexes: &BTreeMap<String, ShimIndex>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for r in refs {
        let Some(idx) = indexes.get(&r.krate) else { continue };
        let mut cur = String::new();
        let mut ok = true;
        for seg in &r.segments {
            if seg == "*" || seg == "self" {
                ok = idx.modules.contains(&cur);
                break;
            }
            let deeper = join(&cur, seg);
            if idx.modules.contains(&deeper) {
                cur = deeper;
                continue;
            }
            ok = idx.items.get(&cur).map(|s| s.contains(seg)).unwrap_or(false);
            break;
        }
        if !ok {
            diags.push(Diagnostic::new(
                Code::Mgk501,
                &r.file,
                r.line,
                format!(
                    "`{}::{}` does not resolve to an item defined by the `{}` shim; add it to \
                     `shims/{}` first (shim-first rule)",
                    r.krate,
                    r.segments.join("::"),
                    r.krate,
                    r.krate
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shim(src: &str) -> BTreeMap<String, ShimIndex> {
        let file = FileModel::parse("shims/rand/src/lib.rs", src, false);
        let mut m = BTreeMap::new();
        m.insert("rand".to_string(), index_shim(&[(&file, String::new())]));
        m
    }

    fn refs(src: &str) -> Vec<ShimRef> {
        let file = FileModel::parse("crates/x/src/lib.rs", src, false);
        let mut out = Vec::new();
        collect_refs(&file, &["rand", "rayon", "proptest"], &mut out);
        out
    }

    #[test]
    fn defined_items_resolve() {
        let idx = shim("pub trait Rng {} pub mod rngs { pub struct StdRng; }");
        let r = refs("use rand::Rng;\nuse rand::rngs::StdRng;\nfn f() { let x = rand::rngs::StdRng::seed(0); }");
        assert_eq!(r.len(), 3, "{r:?}");
        assert!(resolve(&r, &idx).is_empty());
    }

    #[test]
    fn phantom_items_fail_with_file_and_line() {
        let idx = shim("pub trait Rng {}");
        let r = refs("fn f() { let d = rand::distributions::Uniform::new(0, 9); }");
        let diags = resolve(&r, &idx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::Mgk501);
        assert_eq!(diags[0].file, "crates/x/src/lib.rs");
        assert!(diags[0].message.contains("rand::distributions::Uniform"));
    }

    #[test]
    fn brace_groups_and_aliases_expand() {
        let idx = shim(
            "pub trait Rng {} pub trait SeedableRng {} pub mod seq { pub trait SliceRandom {} }",
        );
        let r = refs("use rand::{Rng, SeedableRng, seq::SliceRandom};");
        assert_eq!(r.len(), 3, "{r:?}");
        assert!(resolve(&r, &idx).is_empty());
        let bad = refs("use rand::{Rng, Missing};");
        assert_eq!(resolve(&bad, &idx).len(), 1);
    }

    #[test]
    fn globs_resolve_against_the_module() {
        let idx = shim("pub mod prelude { pub use crate::Rng; } pub trait Rng {}");
        assert!(resolve(&refs("use rand::prelude::*;"), &idx).is_empty());
        let diags = resolve(&refs("use rand::phantom_mod::*;"), &idx);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn reexports_and_renames_bind_names() {
        let src =
            "pub mod test_runner { pub use crate::{ProptestConfig as Config, TestRunner}; }\n\
                   pub struct ProptestConfig; pub struct TestRunner;";
        let file = FileModel::parse("shims/proptest/src/lib.rs", src, false);
        let mut m = BTreeMap::new();
        m.insert("proptest".to_string(), index_shim(&[(&file, String::new())]));
        let file2 = FileModel::parse(
            "tests/t.rs",
            "use proptest::test_runner::{Config, TestRunner};",
            false,
        );
        let mut r = Vec::new();
        collect_refs(&file2, &["proptest"], &mut r);
        assert_eq!(r.len(), 2);
        assert!(resolve(&r, &m).is_empty(), "{:?}", resolve(&r, &m));
    }

    #[test]
    fn macro_exports_bind_at_the_root() {
        let src = "#[macro_export]\nmacro_rules! prop_assert { () => {} }";
        let file = FileModel::parse("shims/proptest/src/lib.rs", src, false);
        let mut m = BTreeMap::new();
        m.insert("proptest".to_string(), index_shim(&[(&file, String::new())]));
        let r = refs("use proptest::prop_assert;");
        let mut r2 = Vec::new();
        collect_refs(
            &FileModel::parse("b.rs", "use proptest::prop_assert;", false),
            &["proptest"],
            &mut r2,
        );
        assert!(resolve(&r2, &m).is_empty());
        let _ = r;
    }
}
