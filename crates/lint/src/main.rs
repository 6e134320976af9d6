//! leap-lint CLI: walk the workspace, run the passes, report.
//!
//! ```text
//! leap-lint [--json] [--list] [--self-test] [--root DIR] [--lint NAME]... [PATH]...
//! ```
//!
//! With no PATH arguments the whole workspace is linted (everything under
//! the root except `target/`, `vendor/`, and `.git/`) including the
//! workspace-level `registry-drift` cross-check against `README.md`. With
//! explicit PATHs only those files/directories run (registry-drift is
//! skipped unless requested via `--lint registry-drift`, since its doc
//! input lives at the root).
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use leap_lint::lexer;
use leap_lint::lints::{self, Enabled, Finding, RegistryDocs, SourceFile};

struct Args {
    json: bool,
    list: bool,
    self_test: bool,
    root: Option<PathBuf>,
    lints: Vec<String>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        json: false,
        list: false,
        self_test: false,
        root: None,
        lints: Vec::new(),
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => a.json = true,
            "--list" => a.list = true,
            "--self-test" => a.self_test = true,
            "--root" => a.root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--lint" => {
                let v = it.next().ok_or("--lint needs a value")?;
                a.lints.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--help" | "-h" => {
                println!(
                    "leap-lint [--json] [--list] [--self-test] [--root DIR] [--lint NAME]... [PATH]..."
                );
                std::process::exit(0);
            }
            p if !p.starts_with('-') => a.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

/// Locate the workspace root: the nearest ancestor of `cwd` whose
/// `Cargo.toml` declares `[workspace]`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collect `.rs` files, skipping build output, the vendored
/// shims (offline stand-ins slated for deletion when crates.io returns),
/// and VCS metadata.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | ".git") {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn emit(findings: &[Finding], suppressed: usize, files: usize, json: bool) {
    if json {
        let mut s = String::from("{\"findings\":[");
        for (i, f) in findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&f.file),
                f.line,
                f.lint,
                json_escape(&f.message)
            ));
        }
        s.push_str(&format!(
            "],\"suppressed\":{suppressed},\"files\":{files},\"counts\":{{"
        ));
        let mut first = true;
        for (name, _) in lints::LINTS {
            let n = findings.iter().filter(|f| f.lint == *name).count();
            if n > 0 {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!("\"{name}\":{n}"));
            }
        }
        s.push_str("}}");
        println!("{s}");
        return;
    }
    for f in findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.lint, f.message);
    }
    if findings.is_empty() {
        println!("leap-lint: clean ({files} files, {suppressed} suppressed sites)");
    } else {
        let mut by: Vec<String> = Vec::new();
        for (name, _) in lints::LINTS {
            let n = findings.iter().filter(|f| f.lint == *name).count();
            if n > 0 {
                by.push(format!("{name}: {n}"));
            }
        }
        println!(
            "leap-lint: {} findings ({}), {} suppressed, {} files",
            findings.len(),
            by.join(", "),
            suppressed,
            files
        );
    }
}

/// Prove the pass can fail: every per-site lint must fire on a seeded
/// violation and stay silent once annotated. Run by CI next to the
/// shell-level seeded-file check (which additionally proves the *process*
/// exit code wiring).
fn self_test() -> Result<(), String> {
    let cases: &[(&str, &str, &str)] = &[
        (
            "unsafe-justification",
            "crates/x/src/a.rs",
            "fn f() { unsafe { g() } }",
        ),
        (
            "atomic-ordering",
            "crates/x/src/a.rs",
            "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }",
        ),
        (
            "panic-path",
            "crates/x/src/a.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }",
        ),
        (
            "reclamation-discipline",
            "crates/leaplist/src/node.rs",
            "fn f(p: *mut Node) { drop(unsafe { Box::from_raw(p) }); }",
        ),
    ];
    for (lint, path, src) in cases {
        let f = SourceFile {
            path: path.to_string(),
            lex: lexer::lex(src),
        };
        let rep = lints::lint_file(&f, &Enabled::all());
        if !rep.findings.iter().any(|f| f.lint == *lint) {
            return Err(format!(
                "self-test: `{lint}` did not fire on a seeded violation"
            ));
        }
        let allowed = format!("// lint:allow({lint}): self-test seeded allow\n{src}");
        let f = SourceFile {
            path: path.to_string(),
            lex: lexer::lex(&allowed),
        };
        let rep = lints::lint_file(&f, &Enabled::all());
        if rep.findings.iter().any(|f| f.lint == *lint) || rep.suppressed == 0 {
            return Err(format!(
                "self-test: `{lint}` ignored a well-formed lint:allow"
            ));
        }
    }
    let drift = lints::registry_drift(
        &[SourceFile {
            path: "crates/store/src/obs.rs".to_string(),
            lex: lexer::lex(r#"const S: &str = "store_op_ghost_ns";"#),
        }],
        &RegistryDocs {
            readme: Some(String::new()),
        },
    );
    if drift.is_empty() {
        return Err("self-test: registry-drift missed an undocumented metric series".into());
    }
    println!(
        "leap-lint: self-test ok ({} lints verified)",
        cases.len() + 1
    );
    Ok(())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list {
        for (name, desc) in lints::LINTS {
            println!("{name}: {desc}");
        }
        return Ok(true);
    }
    if args.self_test {
        self_test()?;
        return Ok(true);
    }
    let enabled = if args.lints.is_empty() {
        Enabled::all()
    } else {
        Enabled::only(&args.lints)?
    };

    let root = match &args.root {
        Some(r) => r.clone(),
        None => find_root().ok_or("no workspace root found (run from the repo or pass --root)")?,
    };

    let mut paths = Vec::new();
    if args.paths.is_empty() {
        collect_rs(&root, &mut paths);
    } else {
        for p in &args.paths {
            if p.is_dir() {
                collect_rs(p, &mut paths);
            } else {
                paths.push(p.clone());
            }
        }
    }

    let mut files = Vec::new();
    for p in &paths {
        let src = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        files.push(SourceFile {
            path: rel_path(&root, p),
            lex: lexer::lex(&src),
        });
    }

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in &files {
        let rep = lints::lint_file(f, &enabled);
        findings.extend(rep.findings);
        suppressed += rep.suppressed;
    }

    // registry-drift needs the root-level README; in full-workspace mode it
    // always runs, with explicit PATHs only on request.
    let drift_requested = args.lints.iter().any(|l| l == "registry-drift");
    let drift_on = if args.paths.is_empty() {
        args.lints.is_empty() || drift_requested
    } else {
        drift_requested
    };
    if drift_on {
        let docs = RegistryDocs {
            readme: std::fs::read_to_string(root.join("README.md")).ok(),
        };
        findings.extend(lints::registry_drift(&files, &docs));
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    emit(&findings, suppressed, files.len(), args.json);
    Ok(findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("leap-lint: {e}");
            ExitCode::from(2)
        }
    }
}
