//! Diagnostics and the report of one run.

use std::fmt;

/// Stable diagnostic codes. The numeric family encodes the lint; codes are
/// part of the tool's public contract (docs and review threads cite them)
/// and must never be renumbered. The gaps are families that moved to rustc,
/// clippy or a unit test (MGK001, 301, 401, 501, 601–603).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Lock-order cycle across the workspace lock graph.
    Mgk101,
    /// `Condvar::wait`/`wait_timeout` outside a `while`/`loop` re-check.
    Mgk201,
    /// `Condvar::wait` while a second lock is held.
    Mgk202,
    /// Panicking call inside a `Drop` impl (unwind-in-drop aborts).
    Mgk402,
    /// Slice indexing in a hot-path kernel whose function has no
    /// `assert!`/`debug_assert!` guard.
    Mgk403,
}

impl Code {
    /// The stable textual form, e.g. `MGK101`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Mgk101 => "MGK101",
            Code::Mgk201 => "MGK201",
            Code::Mgk202 => "MGK202",
            Code::Mgk402 => "MGK402",
            Code::Mgk403 => "MGK403",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(code: Code, file: &str, line: u32, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, file: file.to_string(), line, message: message.into() }
    }

    /// Render as `CODE file:line message`.
    pub fn render(&self) -> String {
        format!("{} {}:{} {}", self.code, self.file, self.line, self.message)
    }
}

/// The complete result of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by file, line and code.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Directed lock-order edges observed (`from -> to`), for the report.
    pub lock_edges: Vec<(String, String)>,
}

impl Report {
    /// True when there are no findings.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}
