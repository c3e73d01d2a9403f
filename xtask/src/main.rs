//! Workspace automation tasks, both run by CI:
//!
//! * `cargo run -p xtask -- lint` — the in-tree source-hygiene linter;
//! * `cargo run -p xtask -- loc` — the non-test library line count: every
//!   line of `crates/*/src` and the facade `src` outside `#[cfg(test)]`
//!   items (skipped exactly as the lint skips them), blank lines and
//!   comments included. Simplification work reports its net change in
//!   this number.
//!
//! The lint is a text/line-based pass over the workspace's library
//! sources (`crates/*/src`, the facade `src`, and `xtask/src` itself; the
//! vendored stubs under `vendor/` are exempt). It denies
//!
//! * `.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`, `dbg!(`,
//!   `todo!(`, and `unimplemented!(` outside `#[cfg(test)]` code —
//!   library paths must return typed errors, and no placeholder may ship;
//!   the justified invariant panics that remain are pinned, with an exact
//!   count per file, in `xtask/lint-allow.txt` (a ratchet: new sites
//!   fail, and removing a site without updating the allowlist fails too,
//!   so the list can only shrink deliberately);
//! * crate roots missing `#![forbid(unsafe_code)]`.
//!
//! Doc comments, line comments, and string-literal contents are masked
//! before token search, and `#[cfg(test)]` items are skipped by brace
//! counting, so test helpers and documentation stay unrestricted.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Tokens denied in non-test library code.
const FORBIDDEN: [&str; 7] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "dbg!(",
    "todo!(",
    "unimplemented!(",
];

/// The attribute every crate root must carry.
const FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("loc") => loc(),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: lint, loc");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- <lint|loc>");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root (xtask's manifest dir is `<root>/xtask`).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut sources: Vec<PathBuf> = Vec::new();
    for dir in source_dirs(&root) {
        collect_rs_files(&dir, &mut sources);
    }
    sources.sort();

    let mut problems: Vec<String> = Vec::new();

    // Token pass: count forbidden tokens per (file, token) and reconcile
    // against the allowlist with exact counts.
    let allow = match load_allowlist(&root.join("xtask/lint-allow.txt")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut found: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for path in &sources {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                problems.push(format!("cannot read {}: {e}", path.display()));
                continue;
            }
        };
        let rel = relative_to(path, &root);
        for (line_no, token) in scan_source(&text) {
            found
                .entry((rel.clone(), token.to_string()))
                .or_default()
                .push(line_no);
        }
    }
    for ((file, token), lines) in &found {
        let allowed = allow
            .get(&(file.clone(), token.clone()))
            .copied()
            .unwrap_or(0);
        if lines.len() > allowed {
            problems.push(format!(
                "{file}: {} `{token}` in non-test code (lines {lines:?}), {allowed} allowed; \
                 return a typed error, or add the site to xtask/lint-allow.txt with a \
                 justification",
                lines.len(),
            ));
        } else if lines.len() < allowed {
            problems.push(format!(
                "{file}: allowlist grants {allowed} `{token}` but only {} remain — \
                 shrink the xtask/lint-allow.txt entry to keep the ratchet tight",
                lines.len(),
            ));
        }
    }
    for ((file, token), allowed) in &allow {
        if *allowed > 0 && !found.contains_key(&(file.clone(), token.clone())) {
            problems.push(format!(
                "{file}: allowlist grants {allowed} `{token}` but none remain — \
                 remove the stale xtask/lint-allow.txt entry",
            ));
        }
    }

    // Crate-root pass: every root must forbid unsafe code.
    for rel in crate_roots(&root) {
        let path = root.join(&rel);
        match fs::read_to_string(&path) {
            Ok(text) if text.contains(FORBID_UNSAFE) => {}
            Ok(_) => problems.push(format!("{rel}: crate root is missing `{FORBID_UNSAFE}`")),
            Err(e) => problems.push(format!("cannot read {rel}: {e}")),
        }
    }

    if problems.is_empty() {
        println!(
            "xtask lint: {} source files clean ({} allowlisted sites)",
            sources.len(),
            allow.values().sum::<usize>()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("xtask lint: {p}");
        }
        eprintln!("xtask lint: {} problem(s)", problems.len());
        ExitCode::FAILURE
    }
}

/// Prints the non-test line count of the library sources.
fn loc() -> ExitCode {
    let root = workspace_root();
    let mut sources: Vec<PathBuf> = Vec::new();
    for dir in library_dirs(&root) {
        collect_rs_files(&dir, &mut sources);
    }
    let mut lines = 0;
    for path in &sources {
        match fs::read_to_string(path) {
            Ok(text) => lines += non_test_lines(&text).len(),
            Err(e) => {
                eprintln!("xtask loc: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "xtask loc: {lines} non-test library lines in {} files (crates/*/src, src)",
        sources.len()
    );
    ExitCode::SUCCESS
}

/// Directories holding library sources: the facade `src` and every
/// `crates/*/src` (vendored stubs excluded).
fn library_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    dirs.sort();
    dirs
}

/// Directories holding sources to lint: the library sources plus
/// `xtask/src` itself.
fn source_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = library_dirs(root);
    dirs.push(root.join("xtask/src"));
    dirs.sort();
    dirs
}

/// Crate roots that must carry the forbid-unsafe attribute.
fn crate_roots(root: &Path) -> Vec<String> {
    let mut roots = vec!["src/lib.rs".to_string(), "xtask/src/main.rs".to_string()];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(relative_to(&lib, root));
            }
        }
    }
    roots.sort();
    roots
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn relative_to(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// One allowlisted remainder: `path:token:count` with exact-count
/// semantics (the ratchet).
#[derive(Debug, PartialEq)]
struct AllowlistError(String);

impl fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed allowlist: {}", self.0)
    }
}

fn load_allowlist(path: &Path) -> Result<BTreeMap<(String, String), usize>, AllowlistError> {
    let mut allow = BTreeMap::new();
    let Ok(text) = fs::read_to_string(path) else {
        return Ok(allow); // no allowlist = nothing allowed
    };
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Rightmost-two-colon split: the token itself contains no ':' but
        // keeps its '!('/'()' suffix, and paths contain no ':' either.
        let mut parts = line.rsplitn(3, ':');
        let (count, token, file) = match (parts.next(), parts.next(), parts.next()) {
            (Some(c), Some(t), Some(f)) => (c, t, f),
            _ => {
                return Err(AllowlistError(format!(
                    "line {}: expected `path:token:count`, got `{line}`",
                    i + 1
                )))
            }
        };
        if !FORBIDDEN.contains(&token) {
            return Err(AllowlistError(format!(
                "line {}: unknown token `{token}`",
                i + 1
            )));
        }
        let count: usize = count
            .parse()
            .map_err(|_| AllowlistError(format!("line {}: `{count}` is not a count", i + 1)))?;
        allow.insert((file.to_string(), token.to_string()), count);
    }
    Ok(allow)
}

/// Scans one source file, returning `(line_number, token)` for every
/// forbidden-token occurrence in non-test, non-comment, non-string code.
/// Line numbers are 1-based.
fn scan_source(text: &str) -> Vec<(usize, &'static str)> {
    let mut hits = Vec::new();
    for (line_no, code) in non_test_lines(text) {
        for token in FORBIDDEN {
            let mut rest = code.as_str();
            while let Some(pos) = rest.find(token) {
                // `panic!(` must not also fire on e.g. `core::panic!(` docs
                // masked already; count every remaining occurrence.
                hits.push((line_no, token));
                rest = &rest[pos + token.len()..];
            }
        }
    }
    hits
}

/// The lines of one source file outside `#[cfg(test)]` items, as
/// `(line_number, code)` with comments and literal contents masked (see
/// [`mask_non_code`]). Line numbers are 1-based.
fn non_test_lines(text: &str) -> Vec<(usize, String)> {
    let mut lines = Vec::new();
    // Test-region skipping: after `#[cfg(test)]`, ignore everything until
    // the braces of the annotated item balance out.
    let mut skipping = false; // inside a #[cfg(test)] item
    let mut pending = false; // saw the attribute, waiting for the first `{`
    let mut depth: i64 = 0;
    let mut in_block_comment = false;
    for (i, raw) in text.lines().enumerate() {
        let (code, still_in_block) = mask_non_code(raw, in_block_comment);
        in_block_comment = still_in_block;
        let trimmed = code.trim();
        if !skipping && !pending && trimmed.starts_with("#[cfg(test)]") {
            pending = true;
            continue;
        }
        if pending || skipping {
            for ch in code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        pending = false;
                        skipping = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            // An attribute directly on a brace-less item (e.g. a
            // `#[cfg(test)] use …;`) ends at the semicolon.
            if pending && trimmed.ends_with(';') {
                pending = false;
            }
            if skipping && depth <= 0 {
                skipping = false;
                depth = 0;
            }
            continue;
        }
        lines.push((i + 1, code));
    }
    lines
}

/// Masks comments and string/char-literal contents of one line with
/// spaces, so token search only sees real code. Returns the masked line
/// and whether a block comment continues past it.
fn mask_non_code(line: &str, mut in_block: bool) -> (String, bool) {
    let bytes: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        if in_block {
            if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                in_block = false;
                out.push_str("  ");
                i += 2;
            } else {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        match bytes[i] {
            '/' if bytes.get(i + 1) == Some(&'/') => {
                // Line (or doc) comment: mask the rest of the line.
                for _ in i..bytes.len() {
                    out.push(' ');
                }
                i = bytes.len();
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                in_block = true;
                out.push_str("  ");
                i += 2;
            }
            '"' => {
                // String literal: keep the quotes, mask the contents.
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == '\\' {
                        out.push_str("  ");
                        i += 2;
                    } else if bytes[i] == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal (`'x'`, `'\n'`) vs lifetime (`'a`): a
                // closing quote within two characters marks a literal.
                if bytes.get(i + 2) == Some(&'\'') && bytes.get(i + 1) != Some(&'\\') {
                    out.push_str("' '");
                    i += 3;
                } else if bytes.get(i + 1) == Some(&'\\') && bytes.get(i + 3) == Some(&'\'') {
                    out.push_str("'  '");
                    i += 4;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    (out, in_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_forbidden_tokens_in_plain_code() {
        let src = "fn f() {\n    let x = y.unwrap();\n    panic!(\"no\");\n    dbg!(x);\n}\n";
        let hits = scan_source(src);
        assert_eq!(hits, vec![(2, ".unwrap()"), (3, "panic!("), (4, "dbg!(")]);
    }

    #[test]
    fn finds_placeholder_macros() {
        let src = "fn f() {\n    todo!(\"later\");\n}\nfn g() {\n    unimplemented!()\n}\n";
        // `unimplemented!()` without arguments still starts with the
        // `unimplemented!(` token.
        let hits = scan_source(src);
        assert_eq!(hits, vec![(2, "todo!("), (5, "unimplemented!(")]);
    }

    #[test]
    fn finds_expect_and_unreachable() {
        let src = "fn f() {\n    let x = y.expect(\"set\");\n    unreachable!(\"no\")\n}\n";
        assert_eq!(
            scan_source(src),
            vec![(2, ".expect("), (3, "unreachable!(")]
        );
        // `expect_err` is not `.expect(`, while a bare `unreachable!()`
        // still starts with the `unreachable!(` token.
        let src = "let e = r.expect_err(\"x\");\nlet n = unreachable!();\n";
        assert_eq!(scan_source(src), vec![(2, "unreachable!(")]);
    }

    #[test]
    fn ignores_comments_and_doc_comments() {
        let src = "/// call .unwrap() here\n// panic!(\"x\")\n/* dbg!(y) */ let a = 1;\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn ignores_string_literal_contents() {
        let src = "let s = \"please don't .unwrap() or panic!(\";\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn ignores_multiline_block_comments() {
        let src = "/*\n x.unwrap()\n panic!(\"y\")\n*/\nlet ok = 1;\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn skips_cfg_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() { y.unwrap(); }\n";
        assert_eq!(scan_source(src), vec![(6, ".unwrap()")]);
    }

    #[test]
    fn skips_cfg_test_functions_with_nested_braces() {
        let src = "#[cfg(test)]\nfn helper() {\n    if a { b.unwrap(); } else { panic!(\"x\"); }\n}\nfn real() { dbg!(z); }\n";
        assert_eq!(scan_source(src), vec![(5, "dbg!(")]);
    }

    #[test]
    fn char_literals_do_not_derail_masking() {
        let src = "let q = '\"';\nlet bad = x.unwrap();\n";
        assert_eq!(scan_source(src), vec![(2, ".unwrap()")]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a T) -> &'a T { x.unwrap() }\n";
        assert_eq!(scan_source(src), vec![(1, ".unwrap()")]);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "let v = x.unwrap_or_else(Vec::new);\nlet w = y.unwrap_or(0);\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn loc_counts_every_line_outside_test_items() {
        let src = "//! Doc.\n\nfn lib() {}\n#[cfg(test)]\n#[path = \"x.rs\"]\nmod x;\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lines: Vec<usize> = non_test_lines(src).iter().map(|&(n, _)| n).collect();
        assert_eq!(lines, vec![1, 2, 3, 11]);
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join("xtask-allow-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let p = dir.join("allow.txt");
        fs::write(&p, "crates/x/src/a.rs:panic!(:2\n# comment\n").expect("write");
        let a = load_allowlist(&p).expect("valid allowlist parses");
        assert_eq!(
            a.get(&("crates/x/src/a.rs".to_string(), "panic!(".to_string())),
            Some(&2)
        );
        fs::write(&p, "nonsense\n").expect("write");
        assert!(load_allowlist(&p).is_err());
        fs::write(&p, "a.rs:unknown!(:1\n").expect("write");
        assert!(load_allowlist(&p).is_err());
    }
}
