//! Panic-surface lint (MGK402/403).
//!
//! A panic inside a `Drop` impl during unwind aborts the whole process, and
//! an out-of-bounds index in a tile kernel panics its scheduler thread. Two
//! checks (panicking calls in the hot-path modules themselves are clippy's:
//! those modules deny `clippy::unwrap_used` and its siblings at their head):
//!
//! * **MGK402** — `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!` inside any `Drop` impl body, anywhere.
//! * **MGK403** — slice indexing in hot-path *kernel* modules whose
//!   enclosing function carries no `assert!`/`debug_assert!` bounds guard.
//!   The guard convention matches the kernels: one length assertion at
//!   function entry covers the loop nest below it.
//!
//! `assert!` family calls are deliberately allowed everywhere: they *are*
//! the guard discipline, not the hazard.

use crate::diag::{Code, Diagnostic};
use crate::lexer::TokKind;
use crate::parser::{FileModel, FnInfo};

/// Methods/macros that introduce a panic edge.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const GUARD_MACROS: &[&str] =
    &["assert", "assert_eq", "assert_ne", "debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// Run the lint over every file; `indexing_files` are the path suffixes of
/// the modules where MGK403 applies.
pub fn analyze(files: &[FileModel], indexing_files: &[String]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        let indexed = indexing_files.iter().any(|s| file.rel_path.ends_with(s.as_str()));
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            if f.in_drop_impl {
                scan_panic_calls(file, f, &mut diags);
            }
            if indexed {
                scan_indexing(file, f, &mut diags);
            }
        }
    }
    diags
}

/// Flag panicking calls inside `f`'s body.
fn scan_panic_calls(file: &FileModel, f: &FnInfo, diags: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    for i in f.body_open..=f.body_close {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_method = PANIC_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).map(|n| n.is_punct("(")).unwrap_or(false);
        let is_macro = PANIC_MACROS.contains(&name)
            && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false);
        if is_method || is_macro {
            let call = if is_macro { format!("{name}!") } else { format!(".{name}()") };
            diags.push(Diagnostic::new(
                Code::Mgk402,
                &file.rel_path,
                t.line,
                format!(
                    "`{call}` inside a Drop impl (a panic here during unwind aborts the \
                     process), fn `{}`",
                    f.name
                ),
            ));
        }
    }
}

/// Flag slice indexing in a function with no assert-family guard.
fn scan_indexing(file: &FileModel, f: &FnInfo, diags: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    let has_guard = (f.body_open..=f.body_close).any(|i| {
        toks[i].kind == TokKind::Ident
            && GUARD_MACROS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false)
    });
    if has_guard {
        return;
    }
    for i in f.body_open..=f.body_close {
        if !toks[i].is_punct("[") {
            continue;
        }
        // indexing only: the `[` must follow a value position (identifier,
        // `]`, or `)`), which excludes types (`: [f32; 8]`), attributes
        // (`#[..]`), and slice patterns (`let [a, b] = ..`)
        let prev = &toks[i - 1];
        let is_value_pos = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
            || prev.is_punct("]")
            || prev.is_punct(")");
        if is_value_pos {
            diags.push(Diagnostic::new(
                Code::Mgk403,
                &file.rel_path,
                toks[i].line,
                format!(
                    "indexing in hot-path fn `{}` which has no assert!/debug_assert! bounds \
                     guard; add a length assertion at function entry",
                    f.name
                ),
            ));
        }
    }
}

/// Keywords that can precede `[` without it being an index expression.
fn is_keyword(s: &str) -> bool {
    matches!(s, "let" | "in" | "return" | "mut" | "ref" | "box" | "move" | "else" | "match" | "if")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        analyze(&[FileModel::parse(path, src, false)], &["hot.rs".to_string()])
    }

    #[test]
    fn unwrap_outside_hot_path_is_fine() {
        // outside a `Drop` impl a panicking call is clippy's to judge
        let diags = run("cold.rs", "fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn test_code_in_hot_modules_is_exempt() {
        let diags =
            run("hot.rs", "fn f() {}\n#[cfg(test)]\nmod tests { fn t(y: &[u8]) -> u8 { y[0] } }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn panic_macro_in_drop_is_flagged_anywhere() {
        let diags =
            run("cold.rs", "impl Drop for G { fn drop(&mut self) { self.m.lock().unwrap(); } }");
        assert!(diags.iter().any(|d| d.code == Code::Mgk402), "{diags:?}");
    }

    #[test]
    fn clean_drop_is_clean() {
        let diags = run(
            "cold.rs",
            "impl Drop for G { fn drop(&mut self) { let _ = self.handle.take(); } }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unguarded_indexing_is_flagged() {
        let diags = run("hot.rs", "fn f(y: &mut [f32], i: usize) { y[i] = 0.0; }");
        assert!(diags.iter().any(|d| d.code == Code::Mgk403), "{diags:?}");
    }

    #[test]
    fn asserted_function_may_index() {
        let diags = run(
            "hot.rs",
            "fn f(y: &mut [f32], n: usize) { debug_assert_eq!(y.len(), n); \
             for i in 0..n { y[i] = 0.0; } }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn types_attributes_and_patterns_are_not_indexing() {
        let diags = run(
            "hot.rs",
            "#[derive(Debug)]\nstruct S { a: [f32; 8] }\n\
             fn f(s: &S) -> [f32; 2] { let [x, y] = [s.a.len() as f32, 1.0]; [x, y] }",
        );
        // `s.a.len()` has no indexing; array literals/patterns are exempt
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn expect_and_unreachable_count_as_panic_calls() {
        let diags = run(
            "cold.rs",
            "impl Drop for G { fn drop(&mut self) { \
             match self.x.take() { Some(h) => h.join().expect(\"joined\"), None => unreachable!() } } }",
        );
        assert_eq!(diags.iter().filter(|d| d.code == Code::Mgk402).count(), 2, "{diags:?}");
    }
}
