//! The in-repo source lint pass (no registry dependencies): a
//! line-oriented scanner over `crates/*/src` for the hazard classes that
//! matter in a deterministic simulation and that neither rustc nor
//! clippy can express.
//!
//! Rules:
//!
//! * `expect-invariant` — `.expect(` in non-test library code whose
//!   message does not start with `invariant:`. Panicking on untrusted
//!   state turns a recoverable condition into a simulator abort; call
//!   sites should return typed errors, or document a genuine invariant
//!   with `expect("invariant: …")`, which this rule sanctions. Bare
//!   `.unwrap()` is clippy's: every library crate root denies
//!   `clippy::unwrap_used`, and the root `clippy.toml` exempts tests.
//! * `hash-iter` — iteration over a `HashMap`/`HashSet` binding. Hash
//!   iteration order is randomised per process, so any result or output
//!   produced from it is non-deterministic; use `BTreeMap`/`BTreeSet`
//!   or sort explicitly. (`clippy::iter_over_hash_type` checks only
//!   `for` loops and misses `.iter()` chains.)
//! * `alloc-in-hot-path` — `Box::new`, `Rc::new`, `.to_vec()` or
//!   `.collect` inside a function on the simulator's per-event hot
//!   path. Hot functions are the ones annotated with a `#[hot_path]`
//!   comment marker directly above the `fn`. These run millions of
//!   times per figures sweep; a per-call heap allocation there is the
//!   exact overhead the arena/dense-table overhaul removed — allocate
//!   once and reuse (`std::mem::take` scratch buffers), share bytes by
//!   reference (`Rc::clone` of a buffer rendered once), or keep the
//!   cold path out of the marked function.
//! * `time-unit` — identifiers with different time-unit suffixes
//!   (`_ns`, `_us`, `_ms`) combined by arithmetic on one line. Adding
//!   nanoseconds to milliseconds compiles fine and is wrong by 10^6;
//!   convert first. Lines that spell out the conversion factor through
//!   a `_per_`/`_PER_` constant are the sanctioned form.
//! * `wide-handle` — a handle-named field (`fd`, `conn`, `*_fd`,
//!   `*_conn`) declared `usize` or `u64` inside a struct annotated with
//!   a `#[hot_struct]` comment marker. Hot structs are the
//!   per-connection records the million-connection lane multiplies by
//!   10^6; a word-sized handle doubles their footprint for index space
//!   nothing uses (fd and connection ids are u32 end-to-end) — handles
//!   in marked structs stay u32 (or narrower).
//!
//! Function spans and the `time-unit` rule are computed on a
//! tokenizer-stripped view of the source (`strip_noncode`): string
//! and char literals, raw strings and comments (line and nested block,
//! carried across lines) are blanked first, so a `"}"` in a literal
//! cannot end a hot span early and a `_ms` inside a doc string cannot
//! trip the unit check.
//!
//! Scope: `lib` sources only. `tests/`, `benches/`, `src/bin/` drivers,
//! crate binary roots (`src/main.rs`) and `#[cfg(test)]` modules may
//! panic freely — a panicking test is a failing test, which is the
//! point.
//!
//! Checks the compiler already makes are not rules here: wall-clock
//! reads are clippy's `disallowed_methods` (root `clippy.toml`), and the
//! span stack's raw `span_enter`/`span_exit` are private to `simcore`'s
//! span module, so a call from anywhere else fails to build.
//!
//! There is no allowlist: any finding fails the lint, and a source file
//! the scan cannot read is an error, not a skip.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule code (`expect-invariant`, `hash-iter`, `alloc-in-hot-path`,
    /// `time-unit`, `wide-handle`).
    pub rule: &'static str,
    /// Path relative to the repository root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.excerpt
        )
    }
}

/// Scans `crates/*/src` under `root` and returns all findings in
/// deterministic (path, line) order. A source file that cannot be read
/// (missing permissions, invalid UTF-8) is an error naming its path:
/// skipping it would pass the file unchecked.
pub fn scan(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if skip_file(&rel) {
            continue;
        }
        let text = fs::read_to_string(&file).map_err(|e| format!("cannot read {rel}: {e}"))?;
        scan_file(&rel, &text, &mut findings);
    }
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Whole files outside the lint's scope.
fn skip_file(rel: &str) -> bool {
    // Binary drivers are interactive tools, not simulation library code;
    // that covers both `src/bin/` trees and crate binary roots.
    rel.contains("/src/bin/") || rel.ends_with("/src/main.rs")
}

/// Scans one file, appending findings.
fn scan_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    let all_lines: Vec<&str> = text.lines().collect();
    // Everything from the test module on is test code. (Repo convention:
    // the `#[cfg(test)] mod tests` block closes the file.)
    let test_start = all_lines
        .iter()
        .position(|l| l.trim().starts_with("#[cfg(test)]"))
        .unwrap_or(all_lines.len());
    let lines = &all_lines[..test_start];
    // The stripped view (literal and comment contents blanked) feeds
    // the structural passes: function-span walking and the time-unit
    // suffix scan.
    let code = strip_lines(lines);

    // Names of bindings/fields declared with a hash-ordered type in the
    // non-test code; iteration over them is what the hash-iter rule
    // flags.
    let mut hash_names: Vec<String> = Vec::new();
    for line in lines {
        if line.trim().starts_with("//") {
            continue;
        }
        for decl in ["HashMap", "HashSet"] {
            if let Some(idx) = line.find(&format!(": {decl}<")) {
                if let Some(name) = ident_before(line, idx) {
                    hash_names.push(name);
                }
            }
            if let Some(idx) = line.find(&format!("= {decl}::new")) {
                if let Some(name) = ident_before(line, idx) {
                    hash_names.push(name);
                }
            }
        }
    }
    hash_names.sort();
    hash_names.dedup();

    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with("//") {
            continue;
        }
        let mut hit = |rule: &'static str| {
            out.push(Finding {
                rule,
                path: rel.to_string(),
                line: i + 1,
                excerpt: trimmed.to_string(),
            });
        };

        // The needles are split so this scanner does not flag its own
        // rule definition. `expect("invariant: …")` documents a checked
        // invariant and is sanctioned.
        if let Some(pos) = line.find(concat!(".exp", "ect(")) {
            if !line[pos..].starts_with(concat!(".exp", "ect(\"invariant:")) {
                hit("expect-invariant");
            }
        }

        for name in &hash_names {
            if iterates(line, name) {
                hit("hash-iter");
                break;
            }
        }

        if time_unit_mix(&code[i]) {
            hit("time-unit");
        }
    }

    scan_hot_spans(rel, lines, &code, out);
    scan_hot_structs(rel, lines, &code, out);
}

/// The `time-unit` rule: does this (stripped) line combine identifiers
/// of at least two different time-unit suffix classes (`_ns`, `_us`,
/// `_ms`) with an arithmetic operator? `_per_`/`_PER_` conversion
/// constants sanction the line — spelling out the factor *is* the
/// conversion.
fn time_unit_mix(code: &str) -> bool {
    if code.contains("_per_") || code.contains("_PER_") {
        return false;
    }
    let arith = [" + ", " - ", " * ", " / ", "+=", "-="]
        .iter()
        .any(|op| code.contains(op));
    if !arith {
        return false;
    }
    let (mut ns, mut us, mut ms) = (false, false, false);
    for ident in code.split(|c: char| !c.is_alphanumeric() && c != '_') {
        ns |= ident.ends_with(concat!("_n", "s"));
        us |= ident.ends_with(concat!("_u", "s"));
        ms |= ident.ends_with(concat!("_m", "s"));
    }
    u8::from(ns) + u8::from(us) + u8::from(ms) >= 2
}

/// The `alloc-in-hot-path` pass: walks function spans marked hot by a
/// `#[hot_path]` comment marker directly above the `fn` (doc comments
/// and attributes may sit between) and flags per-call allocations
/// inside them.
fn scan_hot_spans(rel: &str, lines: &[&str], code: &[String], out: &mut Vec<Finding>) {
    // Needles split so this scanner does not flag its own definitions.
    let needles = [
        concat!("Box", "::new"),
        concat!("Rc", "::new("),
        concat!(".to_", "vec()"),
        concat!(".col", "lect"),
    ];
    // The comment must *start* with the marker so prose that merely
    // mentions it (like this module's docs) does not mark anything.
    let marker = concat!("// #[hot", "_path]");

    let mut pending_hot = false;
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim();
        if trimmed.starts_with("//") {
            if trimmed.starts_with(marker) {
                pending_hot = true;
            }
            i += 1;
            continue;
        }
        if fn_name(trimmed).is_some() {
            let hot = pending_hot;
            pending_hot = false;
            if hot {
                let end = fn_span_end(code, i);
                for (j, l) in lines.iter().enumerate().take(end).skip(i) {
                    let lt = l.trim();
                    if lt.starts_with("//") {
                        continue;
                    }
                    if needles.iter().any(|n| l.contains(n)) {
                        out.push(Finding {
                            rule: "alloc-in-hot-path",
                            path: rel.to_string(),
                            line: j + 1,
                            excerpt: lt.to_string(),
                        });
                    }
                }
                i = end;
                continue;
            }
        } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
            // Any other code line breaks the marker-to-fn adjacency.
            pending_hot = false;
        }
        i += 1;
    }
}

/// The `wide-handle` pass: walks struct spans marked with a
/// `#[hot_struct]` comment marker directly above the `struct` (doc
/// comments and attributes may sit between) and flags handle-named
/// fields declared with a word-sized integer. The span walk reuses
/// [`fn_span_end`]'s brace counting on the stripped view; field
/// matching also runs on the stripped view so a `conn: usize` inside a
/// trailing comment cannot trip it.
fn scan_hot_structs(rel: &str, lines: &[&str], code: &[String], out: &mut Vec<Finding>) {
    // The comment must *start* with the marker so prose that merely
    // mentions it (like this module's docs) does not mark anything.
    let marker = concat!("// #[hot", "_struct]");

    let mut pending_hot = false;
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim();
        if trimmed.starts_with("//") {
            if trimmed.starts_with(marker) {
                pending_hot = true;
            }
            i += 1;
            continue;
        }
        if is_struct_decl(trimmed) {
            let hot = pending_hot;
            pending_hot = false;
            if hot {
                let end = fn_span_end(code, i);
                for j in i..end.min(code.len()) {
                    if wide_handle_field(code[j].trim()) {
                        out.push(Finding {
                            rule: "wide-handle",
                            path: rel.to_string(),
                            line: j + 1,
                            excerpt: lines[j].trim().to_string(),
                        });
                    }
                }
                i = end;
                continue;
            }
        } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
            // Any other code line breaks the marker-to-struct adjacency.
            pending_hot = false;
        }
        i += 1;
    }
}

/// Does `trimmed` begin a struct item? Every word before `struct` must
/// be a visibility qualifier, so `impl` blocks and expressions that
/// merely mention the word do not open a span.
fn is_struct_decl(trimmed: &str) -> bool {
    if trimmed.starts_with("struct ") {
        return true;
    }
    trimmed.find(" struct ").is_some_and(|idx| {
        trimmed[..idx]
            .split_whitespace()
            .all(|w| w == "pub" || w.starts_with("pub("))
    })
}

/// Is this (stripped) struct-body line a field named `fd`, `conn`, or
/// `*_fd`/`*_conn`, typed `usize` or `u64`? Names like `fd_limit` or
/// `conns` are counts and capacities, not handles, and stay exempt; so
/// do `_per_` names (`max_sends_per_conn` is a rate cap — the same
/// convention the time-unit rule sanctions).
fn wide_handle_field(code: &str) -> bool {
    let Some((head, tail)) = code.split_once(':') else {
        return false;
    };
    let Some(name) = head.split_whitespace().last() else {
        return false;
    };
    let is_handle =
        name == "fd" || name == "conn" || name.ends_with("_fd") || name.ends_with("_conn");
    if !is_handle || name.contains("_per_") {
        return false;
    }
    let ty = tail.trim().trim_end_matches(',').trim_end();
    ty == "usize" || ty == "u64"
}

/// If `trimmed` begins a function item, its bare name. Rejects lines
/// where `fn` appears mid-expression (closure types, comments): every
/// word before `fn` must be a declaration qualifier.
fn fn_name(trimmed: &str) -> Option<String> {
    let idx = if trimmed.starts_with("fn ") {
        0
    } else {
        let idx = trimmed.find(" fn ")? + 1;
        let qualifier_ok = trimmed[..idx].split_whitespace().all(|w| {
            w == "pub"
                || w.starts_with("pub(")
                || matches!(w, "const" | "unsafe" | "async" | "extern")
                || w.starts_with('"')
        });
        if !qualifier_ok {
            return None;
        }
        idx
    };
    let name: String = trimmed[idx + 3..]
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Cross-line lexer state for [`strip_noncode`]: what a line *starts*
/// inside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LexState {
    /// Nesting depth of `/* … */` (Rust block comments nest).
    block_comment: u32,
    /// An open string literal, if any (plain strings may span lines).
    string: Option<StrKind>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StrKind {
    /// `"…"` — backslash escapes, closes at an unescaped `"`.
    Plain,
    /// `r##"…"##` — closes at `"` followed by this many `#`.
    Raw(u8),
}

impl LexState {
    /// Test-only convenience: is the lexer outside every literal and
    /// comment?
    #[cfg(test)]
    fn in_code(self) -> bool {
        self.block_comment == 0 && self.string.is_none()
    }
}

/// Returns `line` with comments and string/char-literal *contents*
/// blanked to spaces (plus the carried-over state for the next line),
/// so structural scans — brace counting, suffix matching — only ever
/// see real code. Handles line and nested block comments, plain and
/// raw (and byte) strings, char literals including `'\u{…}'`, and
/// distinguishes lifetimes from char literals by lookahead.
fn strip_noncode(line: &str, mut st: LexState) -> (String, LexState) {
    let b = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < b.len() {
        if st.block_comment > 0 {
            if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                st.block_comment += 1;
                i += 2;
            } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                st.block_comment -= 1;
                i += 2;
            } else {
                i += 1;
            }
            out.push(' ');
            continue;
        }
        match st.string {
            Some(StrKind::Plain) => {
                if b[i] == b'\\' {
                    i += 2; // the escaped byte cannot close the string
                } else {
                    if b[i] == b'"' {
                        st.string = None;
                    }
                    i += 1;
                }
                out.push(' ');
                continue;
            }
            Some(StrKind::Raw(hashes)) => {
                let h = usize::from(hashes);
                if b[i] == b'"'
                    && b[i + 1..].len() >= h
                    && b[i + 1..i + 1 + h].iter().all(|&c| c == b'#')
                {
                    st.string = None;
                    for _ in 0..=h {
                        out.push(' ');
                    }
                    i += 1 + h;
                } else {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            None => {}
        }
        // In code. Openers first.
        if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
            break; // line comment: the rest is prose
        }
        if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
            st.block_comment = 1;
            out.push_str("  ");
            i += 2;
            continue;
        }
        // Raw (and raw-byte) strings: r"…", r#"…"#, br"…".
        if b[i] == b'r' || (b[i] == b'b' && b.get(i + 1) == Some(&b'r')) {
            let after_r = i + if b[i] == b'b' { 2 } else { 1 };
            let mut j = after_r;
            while b.get(j) == Some(&b'#') {
                j += 1;
            }
            if b.get(j) == Some(&b'"') && j - after_r <= usize::from(u8::MAX) {
                st.string = Some(StrKind::Raw((j - after_r) as u8));
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                continue;
            }
        }
        if b[i] == b'"' || (b[i] == b'b' && b.get(i + 1) == Some(&b'"')) {
            st.string = Some(StrKind::Plain);
            let skip = if b[i] == b'b' { 2 } else { 1 };
            for _ in 0..skip {
                out.push(' ');
            }
            i += skip;
            continue;
        }
        // Char / byte-char literal vs. lifetime: a quote starts a char
        // literal if it is escaped (`'\n'`, `'\u{7f}'`) or one
        // character wide (`'{'`); otherwise it is a lifetime (`'a`).
        let quote_at = if b[i] == b'\'' {
            Some(i)
        } else if b[i] == b'b' && b.get(i + 1) == Some(&b'\'') {
            Some(i + 1)
        } else {
            None
        };
        if let Some(q) = quote_at {
            let is_escape = b.get(q + 1) == Some(&b'\\');
            let one_wide = b.get(q + 2) == Some(&b'\'');
            if is_escape || one_wide {
                // Blank to the closing quote (escapes like \u{…} are
                // multi-byte, so scan rather than assume a width).
                let mut j = q + 1;
                while j < b.len() {
                    if b[j] == b'\\' {
                        j += 2;
                        continue;
                    }
                    if b[j] == b'\'' {
                        break;
                    }
                    j += 1;
                }
                let end = j.min(b.len().saturating_sub(1));
                for _ in i..=end {
                    out.push(' ');
                }
                i = end + 1;
                continue;
            }
        }
        out.push(char::from(b[i]));
        i += 1;
    }
    (out, st)
}

/// Blanks every line of a file in one pass, carrying lexer state across
/// line boundaries (multi-line block comments, multi-line strings).
fn strip_lines(lines: &[&str]) -> Vec<String> {
    let mut st = LexState::default();
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let (code, next) = strip_noncode(line, st);
        st = next;
        out.push(code);
    }
    out
}

/// One past the last line of the function starting at `start`, by brace
/// counting over the stripped view (`code[j]` is line `j` with literals
/// and comments blanked — a `"}"` in a string cannot end the span). A
/// signature-only declaration ends at its `;`.
fn fn_span_end(code: &[String], start: usize) -> usize {
    let mut depth = 0i32;
    let mut opened = false;
    for (j, line) in code.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return j + 1;
        }
        if !opened && line.trim_end().ends_with(';') {
            return j + 1; // trait-method declaration, no body
        }
    }
    code.len()
}

/// The identifier ending just before byte `idx` (declaration name).
fn ident_before(line: &str, idx: usize) -> Option<String> {
    let head = &line[..idx];
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(name)
    }
}

/// Does `line` contain `needle` preceded by a non-identifier character
/// (so binding `m` does not match inside `item…`)?
fn contains_bounded(line: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let abs = start + pos;
        let boundary = line[..abs]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// Does `line` iterate over the binding `name`?
fn iterates(line: &str, name: &str) -> bool {
    for pattern in [".iter()", ".keys()", ".values()", ".drain(", ".into_iter()"] {
        if contains_bounded(line, &format!("{name}{pattern}")) {
            return true;
        }
    }
    [
        "in &{n}",
        "in &self.{n}",
        "in &mut self.{n}",
        "in self.{n}",
        "in {n}",
    ]
    .iter()
    .any(|t| {
        let needle = t.replace("{n}", name);
        // Both ends must sit on identifier boundaries (` in &conns {`
        // matches; `begin conns` and ` in &conns_sorted` do not).
        let mut start = 0;
        while let Some(pos) = line[start..].find(&needle) {
            let abs = start + pos;
            let end = abs + needle.len();
            let head_ok = line[..abs]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            let tail_ok = line[end..]
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_' && c != '.');
            if head_ok && tail_ok {
                return true;
            }
            start = end;
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanctioned_expect_is_not_flagged() {
        let mut out = Vec::new();
        scan_file(
            "crates/x/src/lib.rs",
            "let a = m.get(k).expect(\"invariant: present\");\nlet b = m.get(k).expect(\"oops\");\nlet c = o.unwrap();\n",
            &mut out,
        );
        let rules: Vec<_> = out.iter().map(|f| (f.rule, f.line)).collect();
        // `.unwrap()` is clippy's (`unwrap_used`), not this lint's.
        assert_eq!(rules, vec![("expect-invariant", 2)]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let mut out = Vec::new();
        scan_file(
            "crates/x/src/lib.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { o.expect(\"x\"); }\n}\n",
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn hash_iteration_is_flagged_only_for_hash_bindings() {
        let mut out = Vec::new();
        scan_file(
            "crates/x/src/lib.rs",
            "struct S { m: HashMap<u32, u32>, v: Vec<u32> }\nfor x in &self.m {}\nlet k: Vec<_> = self.m.keys().collect();\nfor x in &self.v {}\n",
            &mut out,
        );
        let lines: Vec<_> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3]);
    }

    #[test]
    fn hot_path_marker_flags_allocations_in_span_only() {
        let mut out = Vec::new();
        let src = "\
/// Docs survive between marker and fn.
// #[hot_path]: per-event dispatch loop
pub fn dispatch(&mut self) {
    let b = Box::new(1);
    let v: Vec<u32> = xs.iter().collect();
    let r = Rc::new(bytes);
    let c = payload.to_vec();
    let shared = Rc::clone(&r); // fine: a reference, not a copy
}

fn cold() {
    let b = Box::new(2); // fine: not marked
}
";
        scan_file("crates/x/src/lib.rs", src, &mut out);
        let hits: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "alloc-in-hot-path")
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![4, 5, 6, 7]);
    }

    #[test]
    fn hot_marker_does_not_leak_past_an_unrelated_item() {
        let mut out = Vec::new();
        let src = "\
// #[hot_path]
const X: u32 = 1;
fn later() {
    let b = Box::new(1);
}
";
        scan_file("crates/x/src/lib.rs", src, &mut out);
        assert!(out.iter().all(|f| f.rule != "alloc-in-hot-path"));
    }

    #[test]
    fn fn_span_survives_adversarial_braces_in_literals_and_comments() {
        // Every line between the marker and the real closing brace
        // contains decoy braces that a naive counter miscounts: string
        // and char literals, raw strings, trailing and nested block
        // comments, and a \u{…} escape. The alloc on the last body line
        // must still be inside the span, and the alloc in the next
        // function must stay outside it.
        let mut out = Vec::new();
        let src = r##"
// #[hot_path]
fn adversarial(&mut self) {
    let s = "}{";
    let c = '{';
    let close = '}';
    let esc = '\u{7d}';
    let raw = r#"}}}"#; // } in a trailing comment
    /* a block comment } with a {
       spanning lines and nesting /* }} */ still } */
    let multi = "a string that
        spans lines with } and {";
    let b = Box::new(1);
}

fn cold() {
    let b = Box::new(2);
}
"##;
        let lines: Vec<&str> = src.lines().collect();
        let code = strip_lines(&lines);
        scan_hot_spans("crates/x/src/lib.rs", &lines, &code, &mut out);
        let hits: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "alloc-in-hot-path")
            .map(|f| f.line)
            .collect();
        assert_eq!(
            hits,
            vec![13],
            "decoy braces must neither truncate nor extend the hot span"
        );
    }

    #[test]
    fn hot_struct_marker_flags_wide_handles_in_span_only() {
        let mut out = Vec::new();
        let src = "\
/// Docs and derives survive between marker and struct.
// #[hot_struct]: one per connection, a million strong
#[derive(Debug)]
pub struct ClientConn {
    pub conn: usize,
    pub peer_fd: u64,
    pub fd: u32,
    pub fd_limit: usize,
    pub max_sends_per_conn: usize,
    bytes: u64,
}

struct Unmarked {
    pub conn: usize,
    first_fd: usize,
}
";
        scan_file("crates/x/src/lib.rs", src, &mut out);
        let hits: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "wide-handle")
            .map(|f| f.line)
            .collect();
        assert_eq!(
            hits,
            vec![5, 6],
            "only word-sized handle names in the marked struct are findings"
        );
    }

    #[test]
    fn hot_struct_marker_does_not_leak_past_an_unrelated_item() {
        let mut out = Vec::new();
        let src = "\
// #[hot_struct]
const X: u32 = 1;
struct Later {
    conn: usize,
}
";
        scan_file("crates/x/src/lib.rs", src, &mut out);
        assert!(out.iter().all(|f| f.rule != "wide-handle"));
    }

    #[test]
    fn wide_handle_ignores_decoys_in_comments_and_impls() {
        let mut out = Vec::new();
        let src = "\
// #[hot_struct]
pub struct Slot {
    pub fd: i32, // was `fd: usize` before the u32 overhaul
}

impl Slot {
    fn touch(&mut self, conn: usize) {
        let other_fd: usize = 7;
    }
}
";
        scan_file("crates/x/src/lib.rs", src, &mut out);
        assert!(
            out.iter().all(|f| f.rule != "wide-handle"),
            "comments, fn args and locals are not struct fields: {out:?}"
        );
    }

    #[test]
    fn stripping_carries_state_across_lines() {
        let (a, st) = strip_noncode("let x = \"open", LexState::default());
        assert_eq!(a, "let x =      ");
        let (b, st) = strip_noncode("still } string\" + 1; /* c", st);
        assert!(!b.contains('}'), "string contents must be blanked: {b:?}");
        assert!(
            b.contains("+ 1;"),
            "code after the close must survive: {b:?}"
        );
        let (c, st) = strip_noncode("comment */ done", st);
        assert!(c.contains("done"));
        assert!(st.in_code());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (code, st) = strip_noncode("fn f<'a>(x: &'a str) -> &'a str {", LexState::default());
        assert!(st.in_code());
        assert!(code.contains('{'), "the body brace must survive: {code:?}");
        assert!(code.contains("'a>"), "lifetimes are code, not literals");
    }

    #[test]
    fn mixed_time_unit_arithmetic_is_flagged() {
        let mut out = Vec::new();
        let src = "\
let total = budget_ns + timeout_ms;
let fine = budget_ns + slack_ns;
let scaled = timeout_ms * 1_000;
let converted = timeout_ms * US_PER_MS + slack_us;
let stored = deadline_us;
// prose about mixing budget_ns and timeout_ms + slack_us freely
";
        scan_file("crates/x/src/lib.rs", src, &mut out);
        let hits: Vec<_> = out
            .iter()
            .filter(|f| f.rule == "time-unit")
            .map(|f| f.line)
            .collect();
        assert_eq!(
            hits,
            vec![1],
            "only the unconverted cross-unit sum is a finding"
        );
    }

    #[test]
    fn unreadable_source_file_fails_the_scan_by_name() {
        let root = std::env::temp_dir().join(format!("simcheck-lint-utf8-{}", std::process::id()));
        let src = root.join("crates/x/src");
        fs::create_dir_all(&src).expect("create temp tree");
        fs::write(src.join("lib.rs"), b"fn f() {}\n\xff\xfe\n").expect("write temp file");
        let result = scan(&root);
        let _ = fs::remove_dir_all(&root);
        let err = result.expect_err("a non-UTF-8 source must not pass unchecked");
        assert!(err.contains("crates/x/src/lib.rs"), "{err}");
    }

    /// Functions on the per-event path that must carry a `#[hot_path]`
    /// marker (every function of that name in the file's library code).
    const HOT_FNS: [(&str, &str); 21] = [
        ("crates/core/src/stock.rs", "sys_poll"),
        ("crates/core/src/backend.rs", "poll_candidates"),
        ("crates/core/src/backend.rs", "reregister"),
        ("crates/core/src/dispatch.rs", "net_phase"),
        ("crates/core/src/dispatch.rs", "kernel_phase"),
        ("crates/core/src/device.rs", "dp_poll_into"),
        ("crates/core/src/device.rs", "on_fd_event"),
        ("crates/simkernel/src/kernel.rs", "on_net"),
        ("crates/simkernel/src/kernel.rs", "advance_into"),
        ("crates/simkernel/src/kernel.rs", "readiness"),
        ("crates/simkernel/src/kernel.rs", "record_poll_hint"),
        ("crates/simnet/src/net.rs", "advance_into"),
        ("crates/simnet/src/net.rs", "on_data"),
        ("crates/simnet/src/bytes.rs", "extend_from_queue"),
        ("crates/httperf/src/testbed.rs", "drain_at"),
        ("crates/simcore/src/timer.rs", "push"),
        ("crates/simcore/src/timer.rs", "pop"),
        ("crates/simcore/src/probe.rs", "inc"),
        ("crates/simcore/src/probe.rs", "add"),
        ("crates/simcore/src/probe.rs", "gauge_set"),
        ("crates/simcore/src/probe.rs", "observe"),
    ];

    #[test]
    fn hot_functions_are_marked_in_source() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (rel, func) in HOT_FNS {
            let text = fs::read_to_string(root.join(rel)).expect("source file readable");
            let lines: Vec<&str> = text.lines().collect();
            let lib_end = lines
                .iter()
                .position(|l| l.trim().starts_with("#[cfg(test)]"))
                .unwrap_or(lines.len());
            let sites: Vec<usize> = (0..lib_end)
                .filter(|&i| fn_name(lines[i].trim()).as_deref() == Some(func))
                .collect();
            assert!(!sites.is_empty(), "{rel}: no `fn {func}`");
            for at in sites {
                // Inject an allocation as the first line of the body.
                let open = (at..lib_end)
                    .find(|&j| lines[j].trim_end().ends_with('{'))
                    .expect("function has a body");
                let mut injected = lines.clone();
                injected.insert(open + 1, "let _b = Box::new(0u8);");
                let mut out = Vec::new();
                scan_file(rel, &injected.join("\n"), &mut out);
                let hits: Vec<usize> = out
                    .iter()
                    .filter(|f| f.rule == "alloc-in-hot-path")
                    .map(|f| f.line)
                    .collect();
                assert_eq!(
                    hits,
                    vec![open + 2],
                    "{rel}: `{func}` at line {} must carry a #[hot_path] marker",
                    at + 1
                );
            }
        }
    }
}
