//! A comment/string/char-literal-aware Rust lexer.
//!
//! The environment has no crates.io, so leap-lint cannot lean on `syn` or
//! `proc-macro2`; instead this module hand-rolls the small token model the
//! lints need: a character scanner that knows exactly which constructs can *hide* source
//! text (line comments, nested block comments, plain/raw/byte strings, char
//! literals) so that `unsafe` inside a string or a doc comment never counts
//! as an unsafe site, while `// SAFETY:` comments are captured — with their
//! line spans and whether they trail code — for the adjacency rules in
//! [`crate::lints`].
//!
//! The token model is deliberately coarse: identifiers, single-char
//! punctuation, and opaque literals. Every lint pattern the project enforces
//! (`unsafe`, `Ordering :: Relaxed`, `unwrap (`, `panic !`, match arms like
//! `EventKind :: X => "name"`) is expressible over that stream, and a coarse
//! model keeps the lexer small enough to exhaustively test (see
//! `tests/lexer_prop.rs`).

/// What a [`Token`] is. Coarse on purpose; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `Ordering`, `r#async` → `async`).
    Ident,
    /// One punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// String literal of any flavor; `text` holds the *contents* (quotes,
    /// raw-string hashes, and `b`/`r` prefixes stripped, escapes NOT
    /// decoded).
    Str,
    /// Char or byte literal; `text` holds the contents between the quotes.
    Char,
    /// Numeric literal, suffix included, value uninterpreted.
    Num,
    /// Lifetime (`'a`, `'static`); `text` excludes the leading `'`.
    Lifetime,
}

/// One lexed token with its 1-based starting line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Token text; see [`TokKind`] for what is stripped per kind.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// One comment (line or block) with its line span.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (== `line` for line comments).
    pub end_line: u32,
    /// True if a token precedes the comment on its starting line (a
    /// trailing comment annotates *that* line; a standalone comment
    /// annotates the code below it).
    pub trailing: bool,
}

/// A lexed file: the token stream plus every comment, both line-stamped.
#[derive(Debug, Default)]
pub struct LexFile {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

impl LexFile {
    /// True if any token starts on `line`.
    pub fn line_has_token(&self, line: u32) -> bool {
        // Tokens are in source order; a binary search would work, but files
        // are small and this is called on the cold (finding) path only.
        self.tokens.iter().any(|t| t.line == line)
    }
}

/// Lex `src` into tokens and comments. Never panics: unterminated constructs
/// (string, block comment) simply run to end-of-file, which is the most
/// useful behavior for a lint that must keep scanning a broken tree.
pub fn lex(src: &str) -> LexFile {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexFile,
    line_has_code: bool,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            out: LexFile::default(),
            line_has_code: false,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.line_has_code = false;
            }
        }
        c
    }

    fn push_tok(&mut self, kind: TokKind, text: String, line: u32) {
        self.line_has_code = true;
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> LexFile {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    let line = self.line;
                    let s = self.plain_string();
                    self.push_tok(TokKind::Str, s, line);
                }
                '\'' => self.char_or_lifetime(),
                'b' | 'r' if self.string_prefix() => {}
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_whitespace() => {
                    self.bump();
                }
                _ => {
                    let line = self.line;
                    self.bump();
                    self.push_tok(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let trailing = self.line_has_code;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment {
            text,
            line,
            end_line: line,
            trailing,
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let trailing = self.line_has_code;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        let end_line = self.line;
        self.out.comments.push(Comment {
            text,
            line,
            end_line,
            trailing,
        });
    }

    /// Consume a `"..."` string starting at the opening quote; returns the
    /// contents with escapes left verbatim.
    fn plain_string(&mut self) -> String {
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '"' {
                self.bump();
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        text
    }

    /// Consume a `r"..."` / `r#"..."#` / `b"..."` / `br##"..."##` literal if
    /// the cursor sits on one, or a raw identifier `r#ident`. Returns true
    /// if anything was consumed.
    fn string_prefix(&mut self) -> bool {
        let line = self.line;
        let c0 = self.peek(0).unwrap_or(' ');
        // Figure out the candidate shape without consuming.
        let mut idx = 1; // past the leading b/r
        let mut raw = c0 == 'r';
        if c0 == 'b' && self.peek(idx) == Some('r') {
            raw = true;
            idx += 1;
        }
        let mut hashes = 0usize;
        if raw {
            while self.peek(idx) == Some('#') {
                hashes += 1;
                idx += 1;
            }
        }
        match self.peek(idx) {
            Some('"') if raw => {
                // Raw (byte) string: consume prefix, then scan for `"` + hashes.
                for _ in 0..=idx {
                    self.bump();
                }
                let mut text = String::new();
                'scan: while let Some(c) = self.peek(0) {
                    if c == '"' {
                        let mut ok = true;
                        for h in 0..hashes {
                            if self.peek(1 + h) != Some('#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for _ in 0..=hashes {
                                self.bump();
                            }
                            break 'scan;
                        }
                    }
                    text.push(c);
                    self.bump();
                }
                self.push_tok(TokKind::Str, text, line);
                true
            }
            Some('"') if c0 == 'b' && idx == 1 => {
                // b"...": plain byte string.
                self.bump(); // the b
                let s = self.plain_string();
                self.push_tok(TokKind::Str, s, line);
                true
            }
            Some('\'') if c0 == 'b' && idx == 1 => {
                // b'x': byte char literal.
                self.bump(); // the b
                self.char_or_lifetime();
                true
            }
            _ if raw && hashes == 1 && self.peek(2).is_some_and(is_ident_char) && c0 == 'r' => {
                // r#ident raw identifier: token text is the bare ident, so
                // `r#unsafe` (hypothetically) still matches lint patterns.
                self.bump();
                self.bump();
                self.ident();
                true
            }
            _ => false, // plain identifier starting with b/r; let ident() run
        }
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Cursor is on the opening `'`. Distinguish a char literal from a
        // lifetime: `'\...'` and `'x'` are chars; `'ident` not followed by a
        // closing quote is a lifetime.
        if self.peek(1) == Some('\\') {
            // Escaped char literal: consume to the closing quote.
            self.bump(); // '
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if c == '\\' {
                    text.push(c);
                    self.bump();
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                } else if c == '\'' {
                    self.bump();
                    break;
                } else {
                    text.push(c);
                    self.bump();
                }
            }
            self.push_tok(TokKind::Char, text, line);
        } else if self.peek(2) == Some('\'') && self.peek(1).is_some_and(|c| c != '\'') {
            // 'x' — a one-char literal (covers '"', '/', etc.).
            self.bump();
            let c = self.bump().unwrap_or(' ');
            self.bump();
            self.push_tok(TokKind::Char, c.to_string(), line);
        } else {
            // Lifetime: 'ident (or a stray quote; emit what we can).
            self.bump();
            let mut text = String::new();
            while self.peek(0).is_some_and(is_ident_char) {
                // INVARIANT: peek(0) returned Some, so bump() must too.
                text.push(self.bump().unwrap());
            }
            self.push_tok(TokKind::Lifetime, text, line);
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while self.peek(0).is_some_and(is_ident_char) {
            // INVARIANT: peek(0) returned Some, so bump() must too.
            text.push(self.bump().unwrap());
        }
        self.push_tok(TokKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        // Digits, underscores, and letters cover decimal/hex/octal/binary
        // bodies and type suffixes (0xFFu64). A `.` joins only when followed
        // by a digit so `0..10` stays three tokens.
        while let Some(c) = self.peek(0) {
            let joins = c.is_ascii_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if !joins {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push_tok(TokKind::Num, text, line);
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn unsafe_in_string_and_comment_is_invisible() {
        let src = r##"
            // this mentions unsafe code
            /* unsafe here too /* nested unsafe */ still comment */
            let s = "unsafe { }";
            let r = r#"unsafe"#;
            let c = '"'; let u = unsafe { 1 };
        "##;
        assert_eq!(idents(src).iter().filter(|t| *t == "unsafe").count(), 1);
    }

    #[test]
    fn char_literal_with_slashes_does_not_open_comment() {
        let f = lex("let a = '/'; let b = '/'; // real comment");
        assert_eq!(f.comments.len(), 1);
        assert!(f.comments[0].text.contains("real comment"));
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'static str { x }");
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            0
        );
        let lts: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lts, ["a", "a", "static"]);
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let f = lex(r###"let s = r#"a " quote and // not a comment"#; // yes comment"###);
        assert_eq!(f.comments.len(), 1);
        let strs: Vec<_> = f.tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("not a comment"));
    }

    #[test]
    fn trailing_flag_distinguishes_comment_position() {
        let f = lex("let x = 1; // trailing\n// standalone\nlet y = 2;");
        assert!(f.comments[0].trailing);
        assert!(!f.comments[1].trailing);
    }

    #[test]
    fn block_comment_line_span() {
        let f = lex("/* a\nb\nc */ let x = 1;");
        assert_eq!(f.comments[0].line, 1);
        assert_eq!(f.comments[0].end_line, 3);
        assert_eq!(f.tokens[0].line, 3);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let f = lex(r##"let a = b"unsafe"; let c = b'u'; let r = br#"unsafe"#;"##);
        assert_eq!(
            idents(r#"let a = b"unsafe"; let c = b'u';"#)
                .iter()
                .filter(|t| *t == "unsafe")
                .count(),
            0
        );
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokKind::Str).count(),
            2
        );
    }

    #[test]
    fn raw_identifier_strips_prefix() {
        assert!(idents("let r#type = 1;").contains(&"type".to_string()));
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        lex("let s = \"never closed");
        lex("/* never closed");
        lex("let s = r#\"never closed");
        lex("'");
    }
}
