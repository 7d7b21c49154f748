//! A lightweight Rust lexer: just enough structure for the lint rules.
//!
//! The lexer distinguishes identifiers from punctuation, strips string
//! and character literals and comments (so a call named in a message is
//! not a call), and marks the token ranges covered by `#[cfg(test)]`
//! items so rules can exempt test-only code. It is deliberately *not* a
//! parser: [`crate::ast`] builds the trees the rules walk.

/// What a token is. Literals are dropped entirely; numbers are skipped
/// because no rule matches on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `as`, `unwrap`, ...).
    Ident,
    /// A single punctuation character (`.`, `!`, `(`, `{`, ...).
    Punct,
}

/// One lexed token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    /// `in_test[i]` is true when `tokens[i]` sits inside a `#[cfg(test)]`
    /// item (typically the inline `mod tests`).
    pub in_test: Vec<bool>,
}

/// Lexes `src`, returning tokens and test-region marks.
pub fn lex(src: &str) -> Lexed {
    let mut tokens = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < chars.len() && chars[i + 1] == '/' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < chars.len() && chars[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
            }
            'r' | 'b' if starts_raw_or_byte_string(&chars, i) => {
                match skip_raw_or_byte_string(&chars, i, &mut line) {
                    Some(next) => i = next,
                    None => {
                        // Raw identifier (`r#match`): one ident token with
                        // the prefix kept, so keyword-shaped names can't
                        // desync the parser.
                        let start = i;
                        i += 2; // r#
                        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                            i += 1;
                        }
                        tokens.push(Token {
                            kind: TokKind::Ident,
                            text: chars[start..i].iter().collect(),
                            line,
                        });
                    }
                }
            }
            '\'' => {
                i = skip_char_or_lifetime(&chars, i, &mut line);
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                // Numbers (including 0x1F, 1_000u64, 1.5e-3) carry no rule
                // signal; consume the contiguous literal and drop it.
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    // Stop at `..` (range) so `0..n` keeps its punctuation,
                    // and at `.ident` (method call on a literal, e.g.
                    // `self.0.checked_add(..)`) so the chain keeps its ops.
                    if chars[i] == '.'
                        && i + 1 < chars.len()
                        && (chars[i + 1] == '.'
                            || chars[i + 1].is_alphabetic()
                            || chars[i + 1] == '_')
                    {
                        break;
                    }
                    i += 1;
                }
            }
            _ if c.is_whitespace() => {
                i += 1;
            }
            _ => {
                // Merge the multi-character operators the parser keys on
                // into single tokens. `||`/`&&`/`==`/`!=` matter because a
                // stray second `|` after an operator position would read as
                // a closure head and desync the parser. `>=`/`>>`/`<=`/`<<`
                // are deliberately NOT merged: their characters can belong
                // to different constructs (`Vec<T> = ..`, nested generic
                // closers), and angle-depth tracking needs them separate.
                let merged: &str = match (c, chars.get(i + 1), chars.get(i + 2)) {
                    (':', Some(':'), _) => "::",
                    ('-', Some('>'), _) => "->",
                    ('=', Some('>'), _) => "=>",
                    ('=', Some('='), _) => "==",
                    ('!', Some('='), _) => "!=",
                    ('|', Some('|'), _) => "||",
                    ('&', Some('&'), _) => "&&",
                    ('.', Some('.'), Some('=')) => "..=",
                    ('.', Some('.'), _) => "..",
                    _ => "",
                };
                if merged.is_empty() {
                    tokens.push(Token {
                        kind: TokKind::Punct,
                        text: c.to_string(),
                        line,
                    });
                    i += 1;
                } else {
                    tokens.push(Token {
                        kind: TokKind::Punct,
                        text: merged.to_string(),
                        line,
                    });
                    i += merged.len();
                }
            }
        }
    }
    let in_test = mark_cfg_test_regions(&tokens);
    Lexed { tokens, in_test }
}

fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    // r"...", r#"..."#, b"...", br"...", br#"..."#
    let rest = &chars[i..];
    matches!(
        rest,
        ['r', '"', ..]
            | ['r', '#', ..]
            | ['b', '"', ..]
            | ['b', 'r', '"', ..]
            | ['b', 'r', '#', ..]
    )
}

/// Skips a raw/byte string starting at `i`. Returns `None` when the
/// prefix turns out to be a raw identifier (`r#ident`) rather than a
/// string — the caller must re-lex it as one ident token.
fn skip_raw_or_byte_string(chars: &[char], mut i: usize, line: &mut u32) -> Option<usize> {
    let mut raw = false;
    if chars[i] == 'b' {
        i += 1;
    }
    if i < chars.len() && chars[i] == 'r' {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while raw && i < chars.len() && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= chars.len() || chars[i] != '"' {
        // `r#` followed by something other than `"`: a raw identifier.
        return None;
    }
    i += 1; // opening quote
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            *line += 1;
        }
        if !raw && c == '\\' {
            // An escaped newline (line continuation) still ends a source
            // line; losing it desyncs every later finding's line number.
            if i + 1 < chars.len() && chars[i + 1] == '\n' {
                *line += 1;
            }
            i += 2;
            continue;
        }
        if c == '"' {
            if raw {
                let mut k = 0;
                while k < hashes && i + 1 + k < chars.len() && chars[i + 1 + k] == '#' {
                    k += 1;
                }
                if k == hashes {
                    return Some(i + 1 + hashes);
                }
            } else {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    Some(i)
}

fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // Count the newline of a `\`-continuation (see
                // `skip_raw_or_byte_string`).
                if i + 1 < chars.len() && chars[i + 1] == '\n' {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

fn skip_char_or_lifetime(chars: &[char], i: usize, line: &mut u32) -> usize {
    // 'a (lifetime) vs 'a' (char) vs '\n' (escaped char).
    let rest = &chars[i + 1..];
    match rest {
        ['\\', ..] => {
            // Escaped char literal: consume through the closing quote.
            let mut j = i + 2; // past the backslash
            j += 1; // the escaped character itself
            while j < chars.len() && chars[j] != '\'' {
                j += 1; // multi-char escapes: \u{...}, \x7F
            }
            j + 1
        }
        [c, '\'', ..] if *c != '\'' => {
            if *c == '\n' {
                *line += 1;
            }
            i + 3 // plain char literal 'x'
        }
        [c, ..] if c.is_alphabetic() || *c == '_' => {
            // Lifetime: consume the identifier, no closing quote.
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            j
        }
        _ => i + 1,
    }
}

/// Marks every token inside a `#[cfg(test)]` item (attribute through the
/// matching close brace of the item's body).
fn mark_cfg_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Find the end of the attribute (the `]`), then the item body.
            let mut j = i;
            while j < tokens.len() && tokens[j].text != "]" {
                j += 1;
            }
            // Scan forward to the item's opening `{`; a `;` first means an
            // item without a body (e.g. `#[cfg(test)] mod tests;`).
            let mut k = j + 1;
            while k < tokens.len() && tokens[k].text != "{" && tokens[k].text != ";" {
                k += 1;
            }
            let mut end = k;
            if k < tokens.len() && tokens[k].text == "{" {
                let mut depth = 0i32;
                while end < tokens.len() {
                    match tokens[end].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    end += 1;
                }
            }
            for flag in in_test.iter_mut().take((end + 1).min(tokens.len())).skip(i) {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Does a test-gating attribute start at token `i`? Matches `#[test]`
/// and any `#[cfg(...)]` whose argument list mentions `test` without a
/// `not` (covers `all(test, ...)` but not `not(test)`).
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if tokens[i].text != "#" || i + 1 >= tokens.len() || tokens[i + 1].text != "[" {
        return false;
    }
    let head = match tokens.get(i + 2) {
        Some(t) => t.text.as_str(),
        None => return false,
    };
    if head == "test" && tokens.get(i + 3).is_some_and(|t| t.text == "]") {
        return true;
    }
    if head != "cfg" {
        return false;
    }
    let (mut has_test, mut has_not) = (false, false);
    let mut j = i + 3;
    while j < tokens.len() && tokens[j].text != "]" {
        match tokens[j].text.as_str() {
            "test" => has_test = true,
            "not" => has_not = true,
            _ => {}
        }
        j += 1;
    }
    has_test && !has_not
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            let x = "HashMap in a string"; // HashMap in a comment
            /* HashMap in a block */ let y = r#"raw HashMap"#;
            let z = b"bytes";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let ids = idents("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(ids.contains(&"str".to_string())); // lifetimes are dropped
                                                   // The 'x' char literal must not eat the closing brace.
        let toks = lex("fn f() { 'x' }").tokens;
        assert_eq!(toks.last().map(|t| t.text.as_str()), Some("}"));
    }

    #[test]
    fn escaped_quote_char_literal() {
        let toks = lex(r"let q = '\''; let d = HashMap::new();").tokens;
        let ids: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(ids.contains(&"HashMap"));
    }

    #[test]
    fn multi_char_puncts_merge() {
        let texts: Vec<String> = lex("a::b -> c => d .. e ..= f || g && h == i != j")
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(
            texts,
            vec!["::", "->", "=>", "..", "..=", "||", "&&", "==", "!="]
        );
        // `>=`/`<=`/`>>`/`<<` stay split (their chars can close generics).
        let texts: Vec<String> = lex("a >= b")
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(texts, vec![">", "="]);
    }

    #[test]
    fn number_literal_stops_before_method_call() {
        // `self.0.checked_add(x)` must keep the `.checked_add` op: the
        // literal-skipper may not swallow a `.ident` method chain.
        let texts: Vec<String> = lex("self.0.checked_add(x) 1.5e3 0..n 0x1Fu64")
            .tokens
            .iter()
            .map(|t| t.text.clone())
            .collect();
        let expect = ["self", ".", ".", "checked_add", "(", "x", ")", "..", "n"];
        assert_eq!(texts, expect);
    }

    #[test]
    fn raw_identifier_is_one_token() {
        // `r#match` must not lex as the `match` keyword (parser desync),
        // and must not eat the rest of the line as a raw string.
        let toks = lex("let r#match = x.unwrap();").tokens;
        let ids: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(ids.contains(&"r#match"), "{ids:?}");
        assert!(ids.contains(&"unwrap"), "{ids:?}");
        assert!(!ids.contains(&"match"), "{ids:?}");
    }

    #[test]
    fn string_line_continuation_keeps_line_numbers() {
        // The escaped newline inside the literal is still a source line.
        let src = "let s = \"a\\\nb\";\nlet t = marker;";
        let lx = lex(src);
        let m = lx.tokens.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(m.line, 3);
    }

    #[test]
    fn raw_string_with_hashes_and_inner_quotes() {
        let src = "let s = r##\"has \"# inner\"##;\nlet t = marker;";
        let lx = lex(src);
        let m = lx.tokens.iter().find(|t| t.text == "marker").unwrap();
        assert_eq!(m.line, 2);
        assert!(!lx.tokens.iter().any(|t| t.text == "inner"));
    }

    #[test]
    fn nested_block_comment_lines_and_content() {
        let src = "/* a /* b\n */ still\ncomment */ marker";
        let lx = lex(src);
        assert_eq!(lx.tokens.len(), 1);
        assert_eq!(lx.tokens[0].text, "marker");
        assert_eq!(lx.tokens[0].line, 3);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let lx = lex("a\nb\n\nc");
        let lines: Vec<u32> = lx.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn lib() { a(); }\n#[cfg(test)]\nmod tests {\n fn t() { b(); } }\nfn tail() {}";
        let lx = lex(src);
        let b_idx = lx.tokens.iter().position(|t| t.text == "b").unwrap();
        let a_idx = lx.tokens.iter().position(|t| t.text == "a").unwrap();
        let tail_idx = lx.tokens.iter().position(|t| t.text == "tail").unwrap();
        assert!(lx.in_test[b_idx]);
        assert!(!lx.in_test[a_idx]);
        assert!(!lx.in_test[tail_idx]);
    }
}
