//! Golden tests for the five lint passes: for each, a fixture that must
//! fire, a correctly-annotated twin that must not, and a suppressed twin
//! that must count as suppressed. Fixtures are embedded strings (never
//! files on disk) so the workspace walk in `main.rs` can't see them.

use leap_lint::lexer::lex;
use leap_lint::lints::{lint_file, registry_drift, Enabled, FileReport, RegistryDocs, SourceFile};

/// Lint `src` as if it lived at `path` (path picks scoping rules).
fn run(path: &str, src: &str) -> FileReport {
    let file = SourceFile {
        path: path.to_string(),
        lex: lex(src),
    };
    lint_file(&file, &Enabled::all())
}

fn lints_fired(rep: &FileReport) -> Vec<&'static str> {
    rep.findings.iter().map(|f| f.lint).collect()
}

/// Assert exactly one finding of `lint` at `line`.
fn assert_fires(path: &str, src: &str, lint: &str, line: u32) {
    let rep = run(path, src);
    assert_eq!(
        lints_fired(&rep),
        vec![lint],
        "expected exactly one `{lint}` finding, got {:?}",
        rep.findings
    );
    assert_eq!(rep.findings[0].line, line, "finding on wrong line");
}

fn assert_clean(path: &str, src: &str) {
    let rep = run(path, src);
    assert!(
        rep.findings.is_empty(),
        "expected clean, got {:?}",
        rep.findings
    );
}

fn assert_suppressed(path: &str, src: &str) {
    let rep = run(path, src);
    assert!(
        rep.findings.is_empty(),
        "expected suppressed, got {:?}",
        rep.findings
    );
    assert_eq!(rep.suppressed, 1, "expected one suppressed site");
}

const P: &str = "crates/store/src/demo.rs";

// -- unsafe-justification ---------------------------------------------------

#[test]
fn unsafe_justification_fires() {
    assert_fires(
        P,
        "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        "unsafe-justification",
        2,
    );
}

#[test]
fn unsafe_justification_accepts_safety_comment() {
    assert_clean(
        P,
        "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n",
    );
    // Trailing placement works too.
    assert_clean(
        P,
        "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: caller contract.\n}\n",
    );
}

#[test]
fn unsafe_justification_applies_inside_tests() {
    // Unlike the panic/ordering lints, unsafe needs a SAFETY argument
    // even in test code.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        unsafe { core::ptr::null::<u8>().read() };\n    }\n}\n";
    assert_fires(P, src, "unsafe-justification", 5);
}

#[test]
fn unsafe_fn_decl_accepts_safety_rustdoc() {
    // `# Safety` rustdoc covers the declaration…
    assert_clean(P, "/// Does things.\n///\n/// # Safety\n///\n/// Caller must own `p`.\npub unsafe fn f(p: *mut u8) {\n    let _ = p;\n}\n");
    // …but not an unsafe *block*.
    assert_fires(
        P,
        "/// # Safety\n/// Caller beware.\nfn g(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        "unsafe-justification",
        4,
    );
}

#[test]
fn unsafe_justification_suppressible() {
    assert_suppressed(P, "fn f(p: *const u8) -> u8 {\n    // lint:allow(unsafe-justification): demo fixture.\n    unsafe { *p }\n}\n");
}

#[test]
fn comment_must_be_adjacent() {
    // A code line between the comment and the site breaks adjacency.
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: too far away.\n    let q = p;\n    unsafe { *q }\n}\n";
    assert_fires(P, src, "unsafe-justification", 4);
}

// -- atomic-ordering --------------------------------------------------------

#[test]
fn atomic_ordering_fires() {
    assert_fires(
        P,
        "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    c.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
        "atomic-ordering",
        2,
    );
}

#[test]
fn atomic_ordering_accepts_note_and_skips_tests() {
    assert_clean(
        P,
        "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    // ORDERING: stat counter.\n    c.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
    );
    assert_clean(
        P,
        "#[cfg(test)]\nmod tests {\n    fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n        c.load(std::sync::atomic::Ordering::Relaxed)\n    }\n}\n",
    );
    // Non-Relaxed orderings need no note: the lint targets the one
    // ordering that silently means "no ordering at all".
    assert_clean(
        P,
        "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    c.load(std::sync::atomic::Ordering::Acquire)\n}\n",
    );
}

#[test]
fn atomic_ordering_suppressible() {
    assert_suppressed(
        P,
        "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    // lint:allow(atomic-ordering): demo fixture.\n    c.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
    );
}

// -- panic-path -------------------------------------------------------------

#[test]
fn panic_path_fires_on_unwrap_expect_panic() {
    assert_fires(
        P,
        "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        "panic-path",
        2,
    );
    assert_fires(
        P,
        "fn f(x: Option<u8>) -> u8 {\n    x.expect(\"present\")\n}\n",
        "panic-path",
        2,
    );
    assert_fires(P, "fn f() {\n    panic!(\"boom\");\n}\n", "panic-path", 2);
}

#[test]
fn panic_path_accepts_invariant_and_skips_tests() {
    assert_clean(P, "fn f(x: Option<u8>) -> u8 {\n    // INVARIANT: caller checked is_some.\n    x.unwrap()\n}\n");
    assert_clean(P, "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        None::<u8>.unwrap();\n    }\n}\n");
    // `unwrap_or` / `unwrap_or_else` never panic; the lint must not
    // pattern-match them as `unwrap`.
    assert_clean(P, "fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n");
}

#[test]
fn panic_path_suppressible() {
    assert_suppressed(P, "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic-path): demo fixture.\n    x.unwrap()\n}\n");
}

// -- reclamation-discipline -------------------------------------------------

const LEAP: &str = "crates/leaplist/src/demo.rs";
const RECLAIM_SRC: &str = "fn f(g: &Guard, n: *mut Node) {\n    // SAFETY: demo fixture.\n    unsafe { g.defer_drop_box(n) };\n}\n";

#[test]
fn reclamation_fires_in_scope_only() {
    // In leaplist (outside bundle.rs) the SAFETY comment is not enough:
    // direct deferral is an error there regardless.
    let rep = run(LEAP, RECLAIM_SRC);
    assert_eq!(lints_fired(&rep), vec!["reclamation-discipline"]);
    // The same code outside the leaplist/ebr scope is fine.
    assert_clean(P, RECLAIM_SRC);
    // bundle.rs owns the two-stage path; it is allowed.
    assert_clean("crates/leaplist/src/bundle.rs", RECLAIM_SRC);
}

#[test]
fn reclamation_suppressible_with_reason() {
    let src = "fn f(g: &Guard, n: *mut Node) {\n    // SAFETY: demo fixture.\n    // lint:allow(reclamation-discipline): no snapshot pins in this variant.\n    unsafe { g.defer_drop_box(n) };\n}\n";
    assert_suppressed(LEAP, src);
}

// -- suppression grammar ----------------------------------------------------

#[test]
fn bad_suppression_is_itself_a_finding() {
    // Unknown lint name.
    let rep = run(P, "// lint:allow(no-such-lint): whatever.\nfn f() {}\n");
    assert_eq!(lints_fired(&rep), vec!["bad-suppression"]);
    // Missing reason.
    let rep = run(
        P,
        "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(panic-path)\n    x.unwrap()\n}\n",
    );
    assert!(
        lints_fired(&rep).contains(&"bad-suppression"),
        "{:?}",
        rep.findings
    );
}

// -- registry-drift ---------------------------------------------------------

fn drift(files: &[(&str, &str)], readme: &str) -> Vec<&'static str> {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| SourceFile {
            path: p.to_string(),
            lex: lex(s),
        })
        .collect();
    let docs = RegistryDocs {
        readme: Some(readme.to_string()),
    };
    registry_drift(&files, &docs)
        .iter()
        .map(|f| f.lint)
        .collect()
}

#[test]
fn registry_drift_catches_undocumented_metric() {
    let src = r#"fn name() -> &'static str { "store_op_frob_ns" }"#;
    // Documented (brace-group expansion): clean.
    assert_eq!(
        drift(&[(P, src)], "metrics: `store_op_{get,frob}_ns` series"),
        Vec::<&str>::new()
    );
    // Absent from the README: drift.
    assert_eq!(
        drift(&[(P, src)], "metrics: `store_op_get_ns` only"),
        vec!["registry-drift"]
    );
}
