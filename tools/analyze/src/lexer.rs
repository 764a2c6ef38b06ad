//! A hand-rolled Rust lexer, sufficient for structural lints.
//!
//! The goal is not fidelity to rustc but *never misclassifying* the
//! constructs the lints care about: string/char/byte literals (so a
//! `".lock()"` inside a string is not an acquisition), raw strings with
//! arbitrary `#` fencing, nested block comments, and lifetimes vs char
//! literals (`'a` vs `'a'`). Comments are skipped.

/// Kind of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the lexer does not distinguish).
    Ident,
    /// Lifetime such as `'a` (without the quote in `text`? no: text is `'a`).
    Lifetime,
    /// Numeric literal.
    Num,
    /// String, raw string, byte string, or char literal.
    Str,
    /// Any punctuation byte sequence the lexer emits one byte at a time.
    Punct,
}

/// One token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Verbatim source text (for `Str`, includes the quotes).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation `s` (single byte).
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Lex `src` into tokens.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let count_lines = |s: &[u8]| s.iter().filter(|&&c| c == b'\n').count() as u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (end, text) = scan_string(b, i);
                line += count_lines(&b[i..end]);
                toks.push(Tok { kind: TokKind::Str, text, line: line - count_lines(&b[i..end]) });
                i = end;
            }
            b'r' | b'b' if is_raw_or_byte_string(b, i) => {
                let start_line = line;
                let end = scan_fenced(b, i);
                line += count_lines(&b[i..end]);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::from_utf8_lossy(&b[i..end]).into_owned(),
                    line: start_line,
                });
                i = end;
            }
            b'\'' => {
                // lifetime (`'a`) vs char literal (`'a'`, `'\n'`, `'\u{1F600}'`)
                let mut j = i + 1;
                if j < b.len() && b[j] == b'\\' {
                    // escaped char literal: skip escape then closing quote
                    j += 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: String::from_utf8_lossy(&b[i..=j.min(b.len() - 1)]).into_owned(),
                        line,
                    });
                    i = (j + 1).min(b.len());
                } else {
                    // consume ident-ish run after the quote
                    let mut k = i + 1;
                    while k < b.len() && (b[k] == b'_' || b[k].is_ascii_alphanumeric()) {
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'\'' && k > i + 1 {
                        // 'a' style char literal (single ident char then quote)
                        toks.push(Tok {
                            kind: TokKind::Str,
                            text: String::from_utf8_lossy(&b[i..=k]).into_owned(),
                            line,
                        });
                        i = k + 1;
                    } else {
                        toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text: String::from_utf8_lossy(&b[i..k]).into_owned(),
                            line,
                        });
                        i = k;
                    }
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (b[i] == b'_'
                        || b[i] == b'.'
                        || b[i].is_ascii_alphanumeric()
                        || ((b[i] == b'+' || b[i] == b'-')
                            && matches!(b[i - 1], b'e' | b'E')
                            && b[start..i].iter().any(|c| c.is_ascii_digit())))
                {
                    // don't swallow `..` range punctuation or a method call on
                    // an integer literal
                    if b[i] == b'.' && (i + 1 >= b.len() || !b[i + 1].is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line,
                });
            }
            _ => {
                toks.push(Tok { kind: TokKind::Punct, text: (c as char).to_string(), line });
                i += 1;
            }
        }
    }
    toks
}

/// Scan a plain `"..."` string starting at `start`; returns (end index,
/// verbatim text).
fn scan_string(b: &[u8], start: usize) -> (usize, String) {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    (i.min(b.len()), String::from_utf8_lossy(&b[start..i.min(b.len())]).into_owned())
}

/// True when position `i` starts `r"`, `r#`, `b"`, `br"`, `br#`, or `rb`
/// (a raw/byte string rather than an identifier starting with r/b).
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let rest = &b[i..];
    let after = |p: usize| rest.get(p).copied();
    match rest[0] {
        b'r' => matches!(after(1), Some(b'"') | Some(b'#')),
        b'b' => match after(1) {
            Some(b'"') => true,
            Some(b'r') => matches!(after(2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Scan a raw/byte string (`r#"..."#`, `b"..."`, `br##"..."##`) starting at
/// `start`; returns the end index.
fn scan_fenced(b: &[u8], start: usize) -> usize {
    let mut i = start;
    while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
        i += 1;
    }
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return i; // malformed; bail without consuming further
    }
    i += 1;
    if hashes == 0 {
        // b"..." with plain escapes
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return i + 1,
                _ => i += 1,
            }
        }
        return b.len();
    }
    // raw: find `"` followed by `hashes` hash marks, no escapes
    while i < b.len() {
        if b[i] == b'"'
            && b.len() - i > hashes
            && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_hide_their_contents_from_the_token_stream() {
        // `unsafe` inside any literal form must not surface as an ident
        let src = r###"
            let a = "unsafe { }";
            let b = r#"also unsafe " here"#;
            let c = b"unsafe bytes";
            let d = 'u';
        "###;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()), "{ids:?}");
        assert_eq!(ids.iter().filter(|s| *s == "let").count(), 4);
    }

    #[test]
    fn raw_strings_with_fencing_and_quotes() {
        let src = "let x = r##\"a \"# b\"##; let y = 1;";
        let toks = lex(src);
        let strs: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "r##\"a \"# b\"##");
        assert!(toks.iter().any(|t| t.is_ident("y")), "lexing continued past the raw string");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.is_ident("fn")));
        assert!(!toks.iter().any(|t| t.is_ident("outer") || t.is_ident("still")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }";
        let toks = lex(src);
        let lifetimes: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2, "{lifetimes:?}");
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        let chars: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(chars.len(), 2, "{chars:?}");
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "a\n/* c1\nc2 */\nb\n\"s1\ns2\"\nc";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 7);
    }

    #[test]
    fn numeric_literals_do_not_swallow_ranges_or_methods() {
        let src = "for i in 0..10 { let x = 1.5e-3; let y = 2.max(3); }";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.kind == TokKind::Num && t.text == "1.5e-3"));
        assert!(toks.iter().any(|t| t.is_ident("max")));
        assert_eq!(toks.iter().filter(|t| t.is_punct(".")).count(), 3); // `..` + `.max`
    }
}
