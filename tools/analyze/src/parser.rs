//! Lightweight block-structure parser over the token stream.
//!
//! Produces the structural facts the lints consume: matched brace ranges,
//! `#[cfg(test)]` regions, `impl Drop` bodies and function bodies. It is
//! *not* a Rust parser — it only has to be right about block nesting and
//! item heads, which the lexer's token stream makes unambiguous.

use crate::lexer::{lex, Tok, TokKind};

/// One parsed function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's `{` (inclusive).
    pub body_open: usize,
    /// Token index of the body's `}` (inclusive).
    pub body_close: usize,
    /// True when the function sits inside a `#[cfg(test)]` region, has a
    /// `#[test]` attribute, or the file itself is a test file.
    pub in_test: bool,
    /// True when the function body is inside an `impl Drop for _` block.
    pub in_drop_impl: bool,
}

/// A fully lexed and structurally parsed source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path (`/`-separated).
    pub rel_path: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// For each `{` token index, the index of its matching `}`.
    pub match_close: Vec<Option<usize>>,
    /// Token-index ranges `[open, close]` under `#[cfg(test)]` (or the
    /// whole file for integration-test files).
    pub test_ranges: Vec<(usize, usize)>,
    /// Token-index ranges `[open, close]` of `impl Drop for _` bodies.
    pub drop_ranges: Vec<(usize, usize)>,
    /// All parsed functions.
    pub fns: Vec<FnInfo>,
}

impl FileModel {
    /// Lex and parse one file. `is_test_file` marks the whole file as test
    /// code (top-level `tests/` integration suites, bench fixtures).
    pub fn parse(rel_path: &str, src: &str, is_test_file: bool) -> FileModel {
        let toks = lex(src);
        let match_close = match_braces(&toks);

        let mut test_ranges = Vec::new();
        if is_test_file && !toks.is_empty() {
            test_ranges.push((0, toks.len() - 1));
        }
        collect_cfg_test_ranges(&toks, &match_close, &mut test_ranges);
        let drop_ranges = collect_drop_ranges(&toks, &match_close);
        let fns = collect_fns(&toks, &match_close, &test_ranges, &drop_ranges);

        FileModel {
            rel_path: rel_path.to_string(),
            toks,
            match_close,
            test_ranges,
            drop_ranges,
            fns,
        }
    }
}

/// For each `{`, find its matching `}` by index.
fn match_braces(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut out = vec![None; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                out[open] = Some(i);
            }
        }
    }
    out
}

/// True when tokens at `i` start the attribute `#[cfg(test)]` (or
/// `#![cfg(test)]`); returns the index just past the closing `]`.
fn match_attr(toks: &[Tok], i: usize) -> Option<(bool, usize)> {
    if !toks.get(i)?.is_punct("#") {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j)?.is_punct("!") {
        j += 1;
    }
    if !toks.get(j)?.is_punct("[") {
        return None;
    }
    // scan to the matching `]`, tracking whether it is exactly cfg(test)
    let mut depth = 0usize;
    let start = j;
    let mut body = Vec::new();
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if j > start {
            body.push(t.text.as_str().to_string());
        }
        j += 1;
    }
    let is_cfg_test = body.len() >= 4
        && body[0] == "cfg"
        && body[1] == "("
        && body[2] == "test"
        && (body[3] == ")" || body[3] == ",");
    let is_test_attr = body.len() == 1 && body[0] == "test";
    Some((is_cfg_test || is_test_attr, j + 1))
}

/// Mark every brace block that an (item-level) `#[cfg(test)]` attribute
/// governs. The attribute may be followed by further attributes and doc
/// comments before the item head.
fn collect_cfg_test_ranges(
    toks: &[Tok],
    match_close: &[Option<usize>],
    out: &mut Vec<(usize, usize)>,
) {
    let mut i = 0usize;
    while i < toks.len() {
        match match_attr(toks, i) {
            Some((true, after)) => {
                // find the first `{` of the governed item (skipping over
                // further attributes); a `;` first means a braceless item
                let mut j = after;
                while j < toks.len() {
                    if toks[j].is_punct("#") {
                        if let Some((_, a)) = match_attr(toks, j) {
                            j = a;
                            continue;
                        }
                    }
                    if toks[j].is_punct(";") {
                        break;
                    }
                    if toks[j].is_punct("{") {
                        if let Some(close) = match_close[j] {
                            out.push((j, close));
                        }
                        break;
                    }
                    j += 1;
                }
                i = after;
            }
            Some((false, after)) => i = after,
            None => i += 1,
        }
    }
}

/// Find `impl ... Drop for ... { ... }` body ranges.
fn collect_drop_ranges(toks: &[Tok], match_close: &[Option<usize>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // scan the impl head up to its body `{`; Drop before `for` means
            // an `impl Drop for T` block
            let mut saw_drop = false;
            let mut saw_for = false;
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                if toks[j].is_ident("Drop") && !saw_for {
                    saw_drop = true;
                }
                if toks[j].is_ident("for") {
                    saw_for = true;
                }
                j += 1;
            }
            if saw_drop && saw_for && j < toks.len() && toks[j].is_punct("{") {
                if let Some(close) = match_close[j] {
                    out.push((j, close));
                }
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Parse every `fn` item into a [`FnInfo`].
fn collect_fns(
    toks: &[Tok],
    match_close: &[Option<usize>],
    test_ranges: &[(usize, usize)],
    drop_ranges: &[(usize, usize)],
) -> Vec<FnInfo> {
    let in_range =
        |ranges: &[(usize, usize)], i: usize| ranges.iter().any(|&(a, b)| i >= a && i <= b);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            // skip fn-pointer types (`fn(` with no name)
            let name = match toks.get(i + 1) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // find the body `{` at angle/paren depth zero; a `;` first means
            // a bodyless trait method or extern decl
            let mut j = i + 2;
            let mut paren = 0i32;
            let mut angle = 0i32;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") {
                    paren += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    paren -= 1;
                } else if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") && angle > 0 {
                    angle -= 1;
                } else if paren == 0 && t.is_punct(";") {
                    break;
                } else if paren == 0 && t.is_punct("{") {
                    body = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                if let Some(close) = match_close[open] {
                    out.push(FnInfo {
                        name,
                        line: toks[i].line,
                        body_open: open,
                        body_close: close,
                        in_test: in_range(test_ranges, i),
                        in_drop_impl: in_range(drop_ranges, i),
                    });
                    i = open; // descend: nested fns still get their own entry
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_their_module() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}";
        let m = FileModel::parse("x.rs", src, false);
        let live = m.fns.iter().find(|f| f.name == "live").unwrap();
        let helper = m.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(!live.in_test);
        assert!(helper.in_test);
    }

    #[test]
    fn drop_impl_bodies_are_found() {
        let src = "impl<R> Drop for Ticket<R> { fn drop(&mut self) { cleanup(); } }\n\
                   impl Display for X { fn fmt(&self) {} }";
        let m = FileModel::parse("x.rs", src, false);
        let drop_fn = m.fns.iter().find(|f| f.name == "drop").unwrap();
        let fmt_fn = m.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert!(drop_fn.in_drop_impl);
        assert!(!fmt_fn.in_drop_impl);
    }

    #[test]
    fn fn_bodies_skip_signatures_with_generics_and_where_clauses() {
        let src = "fn f<T: Ord>(x: T) -> Vec<T> where T: Clone { body() }";
        let m = FileModel::parse("x.rs", src, false);
        let f = &m.fns[0];
        assert!(m.toks[f.body_open..f.body_close].iter().any(|t| t.is_ident("body")));
    }
}
