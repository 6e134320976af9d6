//! The five project lints, the annotation grammar, and the suppression
//! mechanism.
//!
//! # Annotation grammar
//!
//! A site is *annotated* when the required marker appears in a comment
//! adjacent to it:
//!
//! * a comment on the **same line** as the site (trailing or not), or
//! * the **contiguous block of comment-only lines directly above** it
//!   (single-line attributes like `#[inline]` may sit between that block and
//!   the site; a blank line or a code line breaks contiguity).
//!
//! Markers are prefixes inside the comment text: `SAFETY:`, `ORDERING:`,
//! `INVARIANT:`. The suppression escape hatch uses the same adjacency:
//! `// lint:allow(<lint-name>): <non-empty reason>`. A malformed or
//! unknown-name suppression is itself a finding (`bad-suppression`) and
//! suppresses nothing, so a typo cannot silently disable a lint.
//!
//! # Scope rules
//!
//! `unsafe-justification` applies everywhere (tests included — an unsound
//! test can corrupt the process running every other test). `atomic-ordering`
//! and `panic-path` skip `#[cfg(test)]` / `#[test]` regions and test/bench/
//! example paths: publication hazards there are exercised through the very
//! primitives linted in `src`, and a panic in a test IS the failure report.
//! `reclamation-discipline` applies only to `crates/leaplist` and
//! `crates/ebr`, where the PR 9 lesson lives. `registry-drift` is
//! workspace-level (it cross-checks source against `ci.yml` and `README.md`)
//! and has no per-site suppression.

use crate::lexer::{LexFile, TokKind, Token};

/// Lint names with one-line descriptions, in the order reports use.
pub const LINTS: &[(&str, &str)] = &[
    (
        "unsafe-justification",
        "every `unsafe` block/fn/impl needs an adjacent `// SAFETY:` argument",
    ),
    (
        "atomic-ordering",
        "every `Ordering::Relaxed` in non-test code needs an adjacent `// ORDERING:` note naming why relaxed suffices (or the acquire/release pairing it sidesteps)",
    ),
    (
        "panic-path",
        "`unwrap()`/`expect()`/`panic!` in non-test, non-bench code needs an adjacent `// INVARIANT:` justification",
    ),
    (
        "reclamation-discipline",
        "in leaplist/ebr, `defer_drop*`/`from_raw` outside the Limbo/prune_bound path frees nodes a pinned bundle walk can still reach (PR 9)",
    ),
    (
        "registry-drift",
        "metric/event/fault-point names in source must appear in the README registry docs",
    ),
    (
        "bad-suppression",
        "malformed or unknown-name `lint:allow` comments (cannot be suppressed)",
    ),
];

/// True if `name` is a real lint (valid in `lint:allow(<name>)`).
pub fn is_lint(name: &str) -> bool {
    LINTS
        .iter()
        .any(|(n, _)| *n == name && *n != "bad-suppression")
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name from [`LINTS`].
    pub lint: &'static str,
    /// Human message.
    pub message: String,
}

/// A lexed source file plus its workspace-relative path.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (used by path-scoped
    /// rules, so callers must normalize).
    pub path: String,
    /// Lexed contents.
    pub lex: LexFile,
}

/// Which lints to run.
pub struct Enabled(Vec<&'static str>);

impl Enabled {
    /// Enable every lint.
    pub fn all() -> Self {
        Enabled(LINTS.iter().map(|(n, _)| *n).collect())
    }

    /// Enable only `names`; returns Err on an unknown name.
    pub fn only(names: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        for n in names {
            match LINTS.iter().find(|(l, _)| l == n) {
                Some((l, _)) => out.push(*l),
                None => return Err(format!("unknown lint `{n}`")),
            }
        }
        Ok(Enabled(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains(&name)
    }
}

/// Result of linting one file.
#[derive(Default)]
pub struct FileReport {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Count of sites silenced by a well-formed `lint:allow`.
    pub suppressed: usize,
}

// ---------------------------------------------------------------------------
// Adjacency / annotation engine
// ---------------------------------------------------------------------------

/// True for doc comments: they are rendered documentation, not annotations,
/// so markers and suppressions inside them are inert (a rustdoc paragraph
/// *describing* `lint:allow` must not suppress anything).
fn is_doc(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// The comment texts adjacent to `line` under the annotation grammar:
/// comments on the line itself plus the contiguous comment-only block above
/// (skipping single-line attribute lines). Doc comments keep the block
/// contiguous but contribute no text.
fn adjacent_comments(lex: &LexFile, line: u32) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for c in &lex.comments {
        if c.line <= line && line <= c.end_line && !is_doc(&c.text) {
            out.push(&c.text);
        }
    }
    let mut l = line.saturating_sub(1);
    'up: while l > 0 {
        // A standalone comment whose span ends on `l` continues the block.
        for c in &lex.comments {
            if c.end_line == l && !c.trailing && !lex.line_has_token(l) {
                if !is_doc(&c.text) {
                    out.push(&c.text);
                }
                l = c.line.saturating_sub(1);
                continue 'up;
            }
        }
        // An attribute line (`#[...]` and nothing else meaningful) is
        // transparent: `// SAFETY:` may sit above `#[inline] unsafe fn`.
        let first = lex.tokens.iter().find(|t| t.line == l);
        match first {
            Some(t) if t.kind == TokKind::Punct && t.text == "#" => {
                l -= 1;
            }
            _ => break,
        }
    }
    out
}

fn has_marker(lex: &LexFile, line: u32, marker: &str) -> bool {
    adjacent_comments(lex, line)
        .iter()
        .any(|c| c.contains(marker))
}

/// True if the doc block adjacent to `line` carries a `# Safety` section.
/// Only `unsafe fn` *declarations* may use this form: the rustdoc section is
/// the ecosystem convention (clippy's `missing_safety_doc`) for stating the
/// contract callers must uphold, while blocks/impls justify *themselves*
/// with `// SAFETY:`.
fn has_safety_doc(lex: &LexFile, line: u32) -> bool {
    // Same walk as `adjacent_comments`, but collecting doc text.
    for c in &lex.comments {
        if c.line <= line && line <= c.end_line && is_doc(&c.text) && c.text.contains("# Safety") {
            return true;
        }
    }
    let mut l = line.saturating_sub(1);
    'up: while l > 0 {
        for c in &lex.comments {
            if c.end_line == l && !c.trailing && !lex.line_has_token(l) {
                if is_doc(&c.text) && c.text.contains("# Safety") {
                    return true;
                }
                l = c.line.saturating_sub(1);
                continue 'up;
            }
        }
        let first = lex.tokens.iter().find(|t| t.line == l);
        match first {
            Some(t) if t.kind == TokKind::Punct && t.text == "#" => l -= 1,
            _ => break,
        }
    }
    false
}

/// Parse every `lint:allow(...)` occurrence in a comment. `Ok((name,
/// reason))` for well-formed ones, `Err(why)` for malformed ones.
fn parse_allows(text: &str) -> Vec<Result<(String, String), String>> {
    let mut out = Vec::new();
    if is_doc(text) {
        return out;
    }
    let mut rest = text;
    // Only the marker followed by an open paren is a suppression attempt;
    // bare prose mentions of lint:allow stay inert.
    while let Some(at) = rest.find("lint:allow(") {
        rest = &rest[at + "lint:allow".len()..];
        let Some(stripped) = rest.strip_prefix('(') else {
            out.push(Err("expected `(` after `lint:allow`".to_string()));
            continue;
        };
        let Some(close) = stripped.find(')') else {
            out.push(Err("unclosed `lint:allow(`".to_string()));
            break;
        };
        let name = stripped[..close].trim().to_string();
        let after = &stripped[close + 1..];
        let Some(reason_part) = after.trim_start().strip_prefix(':') else {
            out.push(Err(format!(
                "`lint:allow({name})` needs `: <reason>` — suppressions must say why"
            )));
            rest = after;
            continue;
        };
        let reason = reason_part
            .split("lint:allow")
            .next()
            .unwrap_or("")
            .trim()
            .to_string();
        if !is_lint(&name) {
            out.push(Err(format!("`lint:allow({name})`: unknown lint name")));
        } else if reason.is_empty() {
            out.push(Err(format!(
                "`lint:allow({name})` has an empty reason — suppressions must say why"
            )));
        } else {
            out.push(Ok((name, reason)));
        }
        rest = after;
    }
    out
}

/// True if a well-formed `lint:allow(lint)` is adjacent to `line`.
fn allowed(lex: &LexFile, line: u32, lint: &str) -> bool {
    adjacent_comments(lex, line).iter().any(|c| {
        parse_allows(c)
            .into_iter()
            .any(|a| matches!(a, Ok((n, _)) if n == lint))
    })
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Token-index ranges covered by `#[cfg(test)]` modules, `#[test]`/`#[bench]`
/// functions, or an inner `#![cfg(test)]`, each from the attribute's `#` to
/// the item's closing brace. Conservative: an attribute whose tokens include
/// `test`/`bench` *not* under a `not(...)` marks the next braced item.
fn test_regions(lex: &LexFile) -> Vec<(usize, usize)> {
    let t = &lex.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if !is_punct(t, i, "#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = is_punct(t, j, "!");
        if inner {
            j += 1;
        }
        if !is_punct(t, j, "[") {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens to the matching `]`.
        let mut depth = 0usize;
        let start = j;
        let mut end = None;
        for (k, tok) in t.iter().enumerate().skip(start) {
            if tok.kind == TokKind::Punct {
                match tok.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(k);
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let Some(end) = end else { break };
        let attr = &t[start + 1..end];
        if attr_is_test(attr) {
            if inner {
                // `#![cfg(test)]`: the whole file is test code.
                out.push((0, t.len()));
            } else if let Some((_, close)) = braced_item_after(t, end + 1) {
                out.push((i, close));
            }
        }
        i = end + 1;
    }
    out
}

fn attr_is_test(attr: &[Token]) -> bool {
    let mut has_test = false;
    for (k, tok) in attr.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "test" | "bench" => {
                // `not ( test` means the attribute *excludes* test builds.
                let negated = k >= 2
                    && attr[k - 2].kind == TokKind::Ident
                    && attr[k - 2].text == "not"
                    && attr[k - 1].kind == TokKind::Punct
                    && attr[k - 1].text == "(";
                if !negated {
                    has_test = true;
                }
            }
            _ => {}
        }
    }
    has_test
}

/// Find the braced body of the item starting at token `from` (skipping any
/// further attributes): the token range `(open_brace, close_brace)`.
/// Returns None for brace-less items (`mod tests;`, or a struct field or
/// initializer that the enclosing `}` ends).
fn braced_item_after(t: &[Token], mut from: usize) -> Option<(usize, usize)> {
    // Skip stacked attributes.
    while is_punct(t, from, "#") && is_punct(t, from + 1, "[") {
        let mut depth = 0usize;
        let mut k = from + 1;
        loop {
            let tok = t.get(k)?;
            if tok.kind == TokKind::Punct {
                match tok.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        from = k + 1;
    }
    // First `{` before a top-level `;` or the enclosing `}` opens the body.
    let mut k = from;
    loop {
        let tok = t.get(k)?;
        if tok.kind == TokKind::Punct {
            match tok.text.as_str() {
                ";" | "}" => return None,
                "{" => break,
                _ => {}
            }
        }
        k += 1;
    }
    let open = k;
    let mut depth = 0usize;
    for (k, tok) in t.iter().enumerate().skip(open) {
        if tok.kind == TokKind::Punct {
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, k));
                    }
                }
                _ => {}
            }
        }
    }
    Some((open, t.len()))
}

fn is_punct(t: &[Token], i: usize, s: &str) -> bool {
    t.get(i)
        .is_some_and(|tok| tok.kind == TokKind::Punct && tok.text == s)
}

fn is_ident(t: &[Token], i: usize, s: &str) -> bool {
    t.get(i)
        .is_some_and(|tok| tok.kind == TokKind::Ident && tok.text == s)
}

/// Lines of a `total_lines`-line file that lie outside every test region
/// (blank and comment lines included). A test region covers whole lines,
/// from its attribute to its closing brace, wherever it sits in the file.
pub fn non_test_lines(lex: &LexFile, total_lines: usize) -> usize {
    let line_of = |i: usize| {
        lex.tokens
            .get(i)
            .map_or(total_lines, |tok| tok.line as usize)
    };
    let mut test = vec![false; total_lines + 1];
    for (a, b) in test_regions(lex) {
        // A region from token 0 (an inner `#![cfg(test)]`) also takes the
        // header comments above the first token.
        let first = if a == 0 { 1 } else { line_of(a) };
        let last = line_of(b).min(total_lines);
        for flag in &mut test[first..=last] {
            *flag = true;
        }
    }
    test[1..].iter().filter(|&&t| !t).count()
}

// ---------------------------------------------------------------------------
// Per-file lints
// ---------------------------------------------------------------------------

/// Paths whose panics/orderings are exempt: test suites, benches, examples,
/// and the bench harness crate (the issue of record scopes `panic-path` to
/// "non-test, non-bench code").
fn exempt_path(path: &str) -> bool {
    path.contains("/tests/")
        || path.starts_with("tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("examples/")
        || path.starts_with("crates/bench/")
}

/// Files allowed to reclaim leaplist/ebr nodes directly: `bundle.rs` owns the
/// `Limbo`/`prune_bound` two-stage path; `guard.rs` IS the EBR deferral
/// machinery those stages hand nodes to.
fn reclamation_allowed(path: &str) -> bool {
    path == "crates/leaplist/src/bundle.rs" || path == "crates/ebr/src/guard.rs"
}

fn reclamation_scoped(path: &str) -> bool {
    path.starts_with("crates/leaplist/src/") || path.starts_with("crates/ebr/src/")
}

/// Run the per-site lints over one file.
pub fn lint_file(file: &SourceFile, enabled: &Enabled) -> FileReport {
    let mut rep = FileReport::default();
    let lex = &file.lex;
    let t = &lex.tokens;
    let regions = test_regions(lex);
    let in_test = |i: usize| regions.iter().any(|&(a, b)| a <= i && i <= b);
    let path_exempt = exempt_path(&file.path);

    // Every lint:allow comment is validated once, globally: a typo'd
    // suppression is a finding wherever it appears.
    for c in &lex.comments {
        for a in parse_allows(&c.text) {
            if let Err(why) = a {
                rep.findings.push(Finding {
                    file: file.path.clone(),
                    line: c.line,
                    lint: "bad-suppression",
                    message: why,
                });
            }
        }
    }

    let site =
        |rep: &mut FileReport, i: usize, lint: &'static str, marker: Option<&str>, msg: String| {
            let line = t[i].line;
            if let Some(m) = marker {
                if has_marker(lex, line, m) {
                    return;
                }
            }
            if allowed(lex, line, lint) {
                rep.suppressed += 1;
            } else {
                rep.findings.push(Finding {
                    file: file.path.clone(),
                    line,
                    lint,
                    message: msg,
                });
            }
        };

    for i in 0..t.len() {
        // unsafe-justification: every `unsafe` keyword, everywhere. An
        // `unsafe fn` declaration may instead document its contract with a
        // rustdoc `# Safety` section (the callers then justify each call).
        if enabled.has("unsafe-justification") && is_ident(t, i, "unsafe") {
            let is_fn_decl = is_ident(t, i + 1, "fn")
                || (is_ident(t, i + 1, "extern") && is_ident(t, i + 3, "fn"));
            if !(is_fn_decl && has_safety_doc(lex, t[i].line)) {
                site(
                    &mut rep,
                    i,
                    "unsafe-justification",
                    Some("SAFETY:"),
                    "`unsafe` without an adjacent `// SAFETY:` argument".to_string(),
                );
            }
        }

        // atomic-ordering: `Ordering::Relaxed` outside tests.
        if enabled.has("atomic-ordering")
            && !path_exempt
            && is_ident(t, i, "Ordering")
            && is_punct(t, i + 1, ":")
            && is_punct(t, i + 2, ":")
            && is_ident(t, i + 3, "Relaxed")
            && !in_test(i)
        {
            site(
                &mut rep,
                i + 3,
                "atomic-ordering",
                Some("ORDERING:"),
                "`Ordering::Relaxed` without an adjacent `// ORDERING:` note (name the \
                 acquire/release pairing it rides on, or why no publication depends on it)"
                    .to_string(),
            );
        }

        // panic-path: unwrap()/expect()/panic! outside tests and benches.
        if enabled.has("panic-path") && !path_exempt && !in_test(i) {
            let hit = (is_ident(t, i, "unwrap") || is_ident(t, i, "expect"))
                && is_punct(t, i + 1, "(")
                // `.unwrap(` / `.expect(` only: a local `fn expect(` would be
                // a definition, not a panic site.
                && i > 0
                && is_punct(t, i - 1, ".");
            let hit = hit || (is_ident(t, i, "panic") && is_punct(t, i + 1, "!"));
            if hit {
                site(
                    &mut rep,
                    i,
                    "panic-path",
                    Some("INVARIANT:"),
                    format!(
                        "`{}` on a non-test path without an adjacent `// INVARIANT:` \
                         justification",
                        &t[i].text
                    ),
                );
            }
        }

        // reclamation-discipline: leaplist/ebr only, outside the Limbo path.
        if enabled.has("reclamation-discipline")
            && reclamation_scoped(&file.path)
            && !reclamation_allowed(&file.path)
            && !in_test(i)
        {
            let direct = (is_ident(t, i, "defer_drop") || is_ident(t, i, "defer_drop_box"))
                && is_punct(t, i + 1, "(");
            let direct = direct || (is_ident(t, i, "from_raw") && is_punct(t, i + 1, "("));
            if direct {
                site(
                    &mut rep,
                    i,
                    "reclamation-discipline",
                    None,
                    format!(
                        "direct `{}` outside the Limbo/prune_bound path: plain EBR frees \
                         nodes a pinned bundle walk can still reach back in time (the PR 9 \
                         SIGSEGV); park retirements in `Limbo` with their retire \
                         write-version, or prove no snapshot reader can reach this \
                         allocation",
                        &t[i].text
                    ),
                );
            }
        }
    }
    rep
}

// ---------------------------------------------------------------------------
// registry-drift (workspace-level)
// ---------------------------------------------------------------------------

/// Inputs for [`registry_drift`] that live outside the Rust source tree.
pub struct RegistryDocs {
    /// Contents of `README.md`.
    pub readme: Option<String>,
}

/// Cross-check instrument names between source and the README registry
/// docs: every `EventKind` name, fault-point name, and metric series name
/// (`store_op_*_ns` / `table_op_*_ns` / `stm_txn_retries` /
/// `store_events` / `store_view_swaps` / `store_stamp_retries`) in source
/// must appear in README.md (brace groups like `table_op_{a,b}_ns` are
/// expanded before matching).
pub fn registry_drift(files: &[SourceFile], docs: &RegistryDocs) -> Vec<Finding> {
    let mut findings = Vec::new();

    // The doc-facing names in non-test source.
    let mut named: Vec<(String, String, u32, &'static str)> = Vec::new(); // (name, file, line, what)
    for f in files {
        if exempt_path(&f.path) {
            continue;
        }
        let t = &f.lex.tokens;
        let regions = test_regions(&f.lex);
        let in_test = |i: usize| regions.iter().any(|&(a, b)| a <= i && i <= b);
        for i in 0..t.len() {
            if t[i].kind == TokKind::Str && !in_test(i) {
                let s = &t[i].text;
                let plain = s
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
                let metric = plain
                    && ((s.starts_with("store_op_") || s.starts_with("table_op_"))
                        && s.ends_with("_ns")
                        || [
                            "stm_txn_retries",
                            "store_events",
                            "store_view_swaps",
                            "store_stamp_retries",
                        ]
                        .contains(&s.as_str()));
                if metric {
                    named.push((s.clone(), f.path.clone(), t[i].line, "metric series"));
                }
            }
            // `EventKind::Variant { .. } => "name"` / `FaultPoint::Variant => "name"`
            // arms in the crates that own those registries.
            let owner = if f.path == "crates/obs/src/events.rs" && is_ident(t, i, "EventKind") {
                Some("event kind")
            } else if f.path == "crates/fault/src/lib.rs" && is_ident(t, i, "FaultPoint") {
                Some("fault point")
            } else {
                None
            };
            if let Some(what) = owner {
                if is_punct(t, i + 1, ":") && is_punct(t, i + 2, ":") {
                    // Look for `=> "literal"` within a short window (covers
                    // the `{ .. }` wildcard pattern in name() arms while
                    // skipping the long destructuring arms of to_json()).
                    for k in i + 3..(i + 10).min(t.len().saturating_sub(1)) {
                        if is_punct(t, k, "=")
                            && is_punct(t, k + 1, ">")
                            && t.get(k + 2).is_some_and(|tok| tok.kind == TokKind::Str)
                        {
                            named.push((
                                t[k + 2].text.clone(),
                                f.path.clone(),
                                t[k + 2].line,
                                what,
                            ));
                            break;
                        }
                    }
                }
            }
        }
    }

    // Registry names must be documented in README.
    if let Some(readme) = &docs.readme {
        let corpus = expand_braces(readme);
        let mut seen = std::collections::BTreeSet::new();
        for (name, file, line, what) in named {
            if !seen.insert(name.clone()) {
                continue;
            }
            if !corpus.contains(&name) {
                findings.push(Finding {
                    file,
                    line,
                    lint: "registry-drift",
                    message: format!(
                        "{what} `{name}` is not documented in README.md — a renamed series \
                         silently escapes the scrape docs"
                    ),
                });
            }
        }
    }
    findings
}

/// Append one-level expansions of `prefix{a,b,c}suffix` word groups to the
/// text, so README idioms like `table_op_{insert,delete}_ns` match the
/// individual series names.
fn expand_braces(text: &str) -> String {
    let bytes: Vec<char> = text.chars().collect();
    let mut out = text.to_string();
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    for (i, &c) in bytes.iter().enumerate() {
        if c != '{' {
            continue;
        }
        let Some(close_rel) = bytes[i + 1..].iter().position(|&c| c == '}') else {
            continue;
        };
        let close = i + 1 + close_rel;
        let inner: String = bytes[i + 1..close].iter().collect();
        if !inner.contains(',') || !inner.chars().all(|c| word(c) || c == ',') {
            continue;
        }
        let mut p = i;
        while p > 0 && word(bytes[p - 1]) {
            p -= 1;
        }
        let mut s = close + 1;
        while s < bytes.len() && word(bytes[s]) {
            s += 1;
        }
        let prefix: String = bytes[p..i].iter().collect();
        let suffix: String = bytes[close + 1..s].iter().collect();
        for alt in inner.split(',') {
            out.push(' ');
            out.push_str(&prefix);
            out.push_str(alt);
            out.push_str(&suffix);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            lex: lex(src),
        }
    }

    fn run(path: &str, src: &str) -> FileReport {
        lint_file(&file(path, src), &Enabled::all())
    }

    #[test]
    fn unsafe_without_safety_fires() {
        let r = run("crates/x/src/a.rs", "fn f() { unsafe { g() } }");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, "unsafe-justification");
    }

    #[test]
    fn safety_above_or_same_line_passes() {
        for src in [
            "// SAFETY: g has no preconditions\nfn f() { unsafe { g() } }",
            "fn f() { unsafe { g() } } // SAFETY: g has no preconditions",
            "// SAFETY: spans\n// two lines\nunsafe fn f() {}",
            "/* SAFETY: block form */\nunsafe fn f() {}",
            "// SAFETY: above an attribute\n#[inline]\nunsafe fn f() {}",
        ] {
            let r = run("crates/x/src/a.rs", src);
            assert!(r.findings.is_empty(), "{src}: {:?}", r.findings);
        }
    }

    #[test]
    fn blank_line_breaks_adjacency() {
        let r = run(
            "crates/x/src/a.rs",
            "// SAFETY: too far away\n\nunsafe fn f() {}",
        );
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn suppression_counts_and_silences() {
        let r = run(
            "crates/x/src/a.rs",
            "// lint:allow(unsafe-justification): exercised by miri in CI\nunsafe fn f() {}",
        );
        assert!(r.findings.is_empty());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn bad_suppressions_are_findings() {
        for src in [
            "// lint:allow(unsafe-justification)\nunsafe fn f() {}", // no reason
            "// lint:allow(unsafe-justification):   \nunsafe fn f() {}", // empty reason
            "// lint:allow(no-such-lint): whatever\nunsafe fn f() {}", // unknown
        ] {
            let r = run("crates/x/src/a.rs", src);
            assert!(
                r.findings.iter().any(|f| f.lint == "bad-suppression"),
                "{src}: {:?}",
                r.findings
            );
            assert!(
                r.findings.iter().any(|f| f.lint == "unsafe-justification"),
                "malformed allow must not suppress: {src}"
            );
        }
    }

    #[test]
    fn safety_doc_section_covers_unsafe_fn_decls_only() {
        // `# Safety` rustdoc on an `unsafe fn` declaration: ok.
        let decl = "/// Frees it.\n///\n/// # Safety\n///\n/// `p` must be unaliased.\npub unsafe fn free(p: *mut u8) {}";
        assert!(run("crates/x/src/a.rs", decl).findings.is_empty());
        // The same doc section does NOT cover an unsafe *block* or *impl*.
        let block = "/// # Safety\n/// docs\nfn f() { unsafe { g() } }";
        assert_eq!(run("crates/x/src/a.rs", block).findings.len(), 1);
        let imp = "/// # Safety\n/// docs\nunsafe impl Send for X {}";
        assert_eq!(run("crates/x/src/a.rs", imp).findings.len(), 1);
    }

    #[test]
    fn doc_comments_are_inert() {
        // A rustdoc line describing the grammar neither suppresses nor
        // malforms, and a doc-comment SAFETY does not count as annotation.
        let r = run(
            "crates/x/src/a.rs",
            "/// mentions lint:allow(unsafe-justification): in prose\n/// SAFETY: doc, not annotation\nunsafe fn f() {}",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].lint, "unsafe-justification");
        assert_eq!(r.suppressed, 0);
        // ...but doc lines keep a real annotation block contiguous.
        let ok = "// SAFETY: real argument\n/// rustdoc\nunsafe fn f() {}";
        assert!(run("crates/x/src/a.rs", ok).findings.is_empty());
    }

    #[test]
    fn relaxed_needs_ordering_note_outside_tests() {
        let fires = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }";
        let r = run("crates/x/src/a.rs", fires);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].lint, "atomic-ordering");

        let ok = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed) /* ORDERING: counter, nothing published */; }";
        assert!(run("crates/x/src/a.rs", ok).findings.is_empty());

        let test_mod =
            "#[cfg(test)]\nmod tests { fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); } }";
        assert!(run("crates/x/src/a.rs", test_mod).findings.is_empty());

        let not_test =
            "#[cfg(not(test))]\nmod m { fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); } }";
        assert_eq!(run("crates/x/src/a.rs", not_test).findings.len(), 1);
    }

    #[test]
    fn panic_path_scope() {
        let fires = "fn f() { x.unwrap(); }";
        assert_eq!(run("crates/x/src/a.rs", fires).findings.len(), 1);
        // INVARIANT: annotation passes.
        let ok = "fn f() {\n    // INVARIANT: x was checked non-empty above\n    x.unwrap();\n}";
        assert!(run("crates/x/src/a.rs", ok).findings.is_empty());
        // Test paths, bench crate, examples: exempt.
        for path in [
            "crates/x/tests/a.rs",
            "crates/bench/src/driver.rs",
            "examples/demo.rs",
            "crates/x/benches/b.rs",
        ] {
            assert!(run(path, fires).findings.is_empty(), "{path}");
        }
        // #[test] fn region: exempt.
        let t = "#[test]\nfn t() { x.unwrap(); }";
        assert!(run("crates/x/src/a.rs", t).findings.is_empty());
        // unwrap_or / a local fn named expect: not panic sites.
        let near = "fn f() { x.unwrap_or(0); expect(1); }";
        assert!(run("crates/x/src/a.rs", near).findings.is_empty());
        // panic! is.
        let p = "fn f() { panic!(\"boom\"); }";
        assert_eq!(run("crates/x/src/a.rs", p).findings.len(), 1);
    }

    #[test]
    fn reclamation_scope() {
        let src = "fn f(g: &Guard, p: *mut Node) { unsafe { g.defer_drop_box(p) } }";
        // Outside leaplist/ebr: only the unsafe lint fires.
        let out = run("crates/store/src/a.rs", src);
        assert!(out
            .findings
            .iter()
            .all(|f| f.lint == "unsafe-justification"));
        // Inside leaplist, outside bundle.rs: reclamation fires.
        let inside = run("crates/leaplist/src/variants/tm.rs", src);
        assert!(inside
            .findings
            .iter()
            .any(|f| f.lint == "reclamation-discipline"));
        // bundle.rs (the Limbo path) and ebr's guard.rs are the sanctioned homes.
        assert!(!run("crates/leaplist/src/bundle.rs", src)
            .findings
            .iter()
            .any(|f| f.lint == "reclamation-discipline"));
        assert!(!run("crates/ebr/src/guard.rs", src)
            .findings
            .iter()
            .any(|f| f.lint == "reclamation-discipline"));
        // Box::from_raw also counts.
        let raw = "fn f(p: *mut Node) { drop(unsafe { Box::from_raw(p) }); }";
        assert!(run("crates/leaplist/src/node.rs", raw)
            .findings
            .iter()
            .any(|f| f.lint == "reclamation-discipline"));
    }

    #[test]
    fn registry_drift_readme_names() {
        let files = vec![
            file(
                "crates/obs/src/events.rs",
                r#"impl EventKind { fn name(&self) -> &str { match self { EventKind::PolicySplit { .. } => "policy_split", EventKind::Shed { .. } => "shed" } } }"#,
            ),
            file(
                "crates/store/src/obs.rs",
                r#"const OPS: &[&str] = &["store_op_get_ns", "store_op_put_ns", "store_view_swaps"];"#,
            ),
        ];
        let docs = RegistryDocs {
            readme: Some(
                "events: `policy_split`, `shed`; series `store_op_{get,put}_ns`, `store_view_swaps`"
                    .to_string(),
            ),
        };
        assert!(registry_drift(&files, &docs).is_empty());

        let stale = RegistryDocs {
            readme: Some("events: `policy_split`; series `store_op_get_ns`".to_string()),
        };
        let f = registry_drift(&files, &stale);
        assert_eq!(f.len(), 3, "{f:?}");
    }

    #[test]
    fn brace_expansion() {
        let e = expand_braces("x table_op_{a,b}_ns y");
        assert!(e.contains("table_op_a_ns") && e.contains("table_op_b_ns"));
    }
}
