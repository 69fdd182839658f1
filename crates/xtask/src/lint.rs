//! Source-level workspace invariant lints (no dependencies, no AST: the
//! rules are designed to be robust under a line-oriented scan with a small
//! comment/string-aware splitter).
//!
//! Rules:
//!
//! 1. **ordering-comment** — every `Ordering::Relaxed/Acquire/Release/
//!    AcqRel/SeqCst` use site carries a `// ordering:` justification on the
//!    same line or within the three lines above.
//! 2. **std-sync** — no direct `std::sync` primitive (`Mutex`, `RwLock`,
//!    `Condvar`, `atomic`) or `parking_lot` use outside `vendor/` and the
//!    `openapi-sync` facade; everything else must go through the facade so
//!    the loom lane actually checks it. `std::sync::{mpsc, Arc, ...}` remain
//!    fine — they are not shimmed.
//! 3. **crate-headers** — every workspace crate root declares both
//!    `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`.
//! 4. **float-eq** — no `partial_cmp` and no `==`/`!=` against a nonzero
//!    float literal outside the kernel bit-identity oracle paths, unless
//!    justified with a `// float:` comment. (Comparisons against exactly
//!    `0.0` are IEEE-exact guards and allowed.)
//! 5. **clock** — no direct `Instant::now()`, `Instant::elapsed()` (which
//!    reads the OS clock itself) or `SystemTime` in the serving-path crates
//!    (`serve`, `net`, `store`, `trace`, `fabric`); time is read
//!    through `openapi_trace::clock` so every latency measurement and trace
//!    timestamp shares one clock domain (and one place to virtualize it).
//!    The clock module itself is the single exemption; anything else needs
//!    a `// clock:` justification.
//!
//! The scanner skips `vendor/` (stand-ins mirror external APIs), `target/`,
//! and this crate itself (its fixtures and pattern literals would trip every
//! rule).

use std::fmt;
use std::path::Path;

/// How many lines above a use site a justification comment may sit.
const JUSTIFY_WINDOW: usize = 3;

/// Paths (prefix match) where bit-identity float comparison is the point.
const FLOAT_ORACLE_PATHS: &[&str] = &["crates/linalg/src/kernel", "tests/kernel_identity"];

/// One rule violation at a file/line.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source line split into its code and comment parts.
struct SplitLine {
    code: String,
    comment: String,
}

/// Split each line into (code, comment), tracking string literals and block
/// comments so `//` inside a string is not a comment and patterns inside
/// comments are not code. Heuristic (no full lexer): raw strings containing
/// `//` may over-trim, which only makes the lint more conservative.
fn split_source(source: &str) -> Vec<SplitLine> {
    let mut out = Vec::new();
    let mut in_block = false;
    for line in source.lines() {
        let mut code = String::new();
        let mut comment = String::new();
        let mut chars = line.chars().peekable();
        let mut in_str = false;
        while let Some(c) = chars.next() {
            if in_block {
                comment.push(c);
                if c == '*' && chars.peek() == Some(&'/') {
                    comment.push(chars.next().expect("peeked"));
                    in_block = false;
                }
                continue;
            }
            if in_str {
                code.push(c);
                if c == '\\' {
                    if let Some(escaped) = chars.next() {
                        code.push(escaped);
                    }
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => {
                    in_str = true;
                    code.push(c);
                }
                // A double-quote char literal would start a phantom string.
                '\'' if chars.peek() == Some(&'"') => {
                    code.push(c);
                    code.push(chars.next().expect("peeked"));
                    if chars.peek() == Some(&'\'') {
                        code.push(chars.next().expect("peeked"));
                    }
                }
                '/' if chars.peek() == Some(&'/') => {
                    comment.push(c);
                    comment.push(chars.next().expect("peeked"));
                    comment.extend(chars.by_ref());
                    break;
                }
                '/' if chars.peek() == Some(&'*') => {
                    comment.push(c);
                    comment.push(chars.next().expect("peeked"));
                    in_block = true;
                }
                _ => code.push(c),
            }
        }
        out.push(SplitLine { code, comment });
    }
    out
}

/// True if a comment containing `tag` sits on line `idx`, within the
/// `JUSTIFY_WINDOW` lines above it, or anywhere in the contiguous
/// comment-only block directly above it — so a long prose justification
/// whose tag sits on its first line still counts.
fn justified(lines: &[SplitLine], idx: usize, tag: &str) -> bool {
    let mut block_top = idx;
    while block_top > 0 {
        let above = &lines[block_top - 1];
        if above.code.trim().is_empty() && !above.comment.trim().is_empty() {
            block_top -= 1;
        } else {
            break;
        }
    }
    let lo = idx.saturating_sub(JUSTIFY_WINDOW).min(block_top);
    lines[lo..=idx].iter().any(|l| l.comment.contains(tag))
}

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn check_ordering_comments(rel: &str, lines: &[SplitLine], out: &mut Vec<Violation>) {
    for (idx, l) in lines.iter().enumerate() {
        let uses_ordering = l.code.split("Ordering::").skip(1).any(|rest| {
            ORDERINGS
                .iter()
                .any(|o| rest.starts_with(o) && !rest[o.len()..].starts_with(char::is_alphanumeric))
        });
        if uses_ordering && !justified(lines, idx, "ordering:") {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "ordering-comment",
                message: "atomic Ordering use without an adjacent `// ordering:` justification"
                    .to_string(),
            });
        }
    }
}

/// `std::sync` names that must come from the `openapi-sync` facade instead.
const SHIMMED: &[&str] = &["Mutex", "RwLock", "Condvar", "atomic"];

fn check_std_sync(rel: &str, lines: &[SplitLine], out: &mut Vec<Violation>) {
    if rel.starts_with("vendor/") || rel.starts_with("crates/sync/") {
        return;
    }
    for (idx, l) in lines.iter().enumerate() {
        let mut offense = None;
        if l.code.contains("parking_lot") {
            offense = Some("direct `parking_lot` use; import from `openapi_sync` instead");
        } else if l.code.contains("std::sync") && SHIMMED.iter().any(|n| l.code.contains(n)) {
            offense = Some("direct `std::sync` primitive use; import from `openapi_sync` instead");
        }
        if let Some(message) = offense {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "std-sync",
                message: message.to_string(),
            });
        }
    }
}

/// Crate-root files (`crates/<name>/src/lib.rs`, root `src/lib.rs`) must
/// carry the safety/doc headers.
fn check_crate_headers(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let crate_name = if rel == "src/lib.rs" {
        Some("openapi_repro")
    } else {
        rel.strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .filter(|(_, tail)| *tail == "src/lib.rs")
            .map(|(name, _)| name)
    };
    let Some(crate_name) = crate_name else { return };
    if !source.contains("#![forbid(unsafe_code)]") {
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            rule: "crate-headers",
            message: format!("crate `{crate_name}` is missing `#![forbid(unsafe_code)]`"),
        });
    }
    if !source.contains("#![deny(missing_docs)]") {
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            rule: "crate-headers",
            message: format!("crate `{crate_name}` is missing `#![deny(missing_docs)]`"),
        });
    }
}

/// Is `tok` a float literal (e.g. `1.0`, `0.5f64`, `1_000.25`)? Returns its
/// numeric value when so.
fn float_literal(tok: &str) -> Option<f64> {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    let tok = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .unwrap_or(tok)
        .trim_end_matches('_');
    if !tok.contains('.') {
        return None;
    }
    let cleaned: String = tok.chars().filter(|&c| c != '_').collect();
    if !cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    cleaned.parse::<f64>().ok()
}

fn is_token_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')
}

/// Find `==`/`!=` comparisons where either side is a nonzero float literal.
fn has_nonzero_float_eq(code: &str) -> bool {
    for op in ["==", "!="] {
        let mut start = 0;
        while let Some(at) = code[start..].find(op) {
            let at = start + at;
            start = at + op.len();
            // Skip `!==`/`===`-like runs and `<=`,`>=` (second char of those
            // is `=`, but we matched from the first char so only exact
            // `==`/`!=` arrive here with a non-`=` predecessor).
            let before = &code[..at];
            let after = &code[at + op.len()..];
            if before.ends_with(['=', '!', '<', '>']) || after.starts_with('=') {
                continue;
            }
            let lhs: String = before
                .trim_end()
                .chars()
                .rev()
                .take_while(|&c| is_token_char(c))
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let rhs: String = after
                .trim_start()
                .chars()
                .take_while(|&c| is_token_char(c))
                .collect();
            let offender = [lhs.trim(), rhs.trim()]
                .into_iter()
                .filter_map(float_literal)
                .any(|v| v != 0.0);
            if offender {
                return true;
            }
        }
    }
    false
}

fn check_float_cmp(rel: &str, lines: &[SplitLine], out: &mut Vec<Violation>) {
    if FLOAT_ORACLE_PATHS.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for (idx, l) in lines.iter().enumerate() {
        let mut offense = None;
        if l.code.contains(".partial_cmp(") {
            offense = Some("`partial_cmp` on floats outside the kernel oracle paths");
        } else if has_nonzero_float_eq(&l.code) {
            offense = Some("float `==`/`!=` against a nonzero literal");
        }
        if let Some(base) = offense {
            if !justified(lines, idx, "float:") {
                out.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "float-eq",
                    message: format!("{base}; justify with a `// float:` comment or refactor"),
                });
            }
        }
    }
}

/// Serving-path crates whose code must read time through
/// `openapi_trace::clock`, so every latency measurement and trace
/// timestamp shares one clock domain.
const CLOCK_PATHS: &[&str] = &[
    "crates/serve/",
    "crates/net/",
    "crates/store/",
    "crates/trace/",
    "crates/fabric/",
];

/// The one file allowed to call `Instant::now()`: the clock itself.
const CLOCK_SOURCE: &str = "crates/trace/src/clock.rs";

fn check_clock(rel: &str, lines: &[SplitLine], out: &mut Vec<Violation>) {
    if rel == CLOCK_SOURCE || !CLOCK_PATHS.iter().any(|p| rel.starts_with(p)) {
        return;
    }
    for (idx, l) in lines.iter().enumerate() {
        let offense = if l.code.contains("Instant::now(") {
            Some("direct `Instant::now()` in a serving crate; use `openapi_trace::clock::now()`")
        } else if l.code.contains(".elapsed(") {
            Some(
                "`.elapsed()` reads the OS clock in a serving crate; use \
                 `openapi_trace::clock::now().saturating_duration_since(start)`",
            )
        } else if l.code.contains("SystemTime") {
            Some("`SystemTime` in a serving crate; read time through `openapi_trace::clock`")
        } else {
            None
        };
        if let Some(base) = offense {
            if !justified(lines, idx, "clock:") {
                out.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "clock",
                    message: format!("{base}, or justify with a `// clock:` comment"),
                });
            }
        }
    }
}

/// Lint one file's source, `rel` being its workspace-relative path.
pub fn lint_file(rel: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    check_crate_headers(rel, source, &mut out);
    let lines = split_source(source);
    if !rel.starts_with("vendor/") {
        check_ordering_comments(rel, &lines, &mut out);
        check_float_cmp(rel, &lines, &mut out);
        check_clock(rel, &lines, &mut out);
    }
    check_std_sync(rel, &lines, &mut out);
    out
}

/// Recursively lint every `.rs` file under `root`. `vendor/` is exempted
/// per-rule (stand-ins keep their upstream API shape); `target/`, VCS
/// metadata, and this crate are skipped entirely.
pub fn lint_tree(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files);
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let source = match std::fs::read_to_string(root.join(&rel)) {
            Ok(s) => s,
            Err(err) => {
                out.push(Violation {
                    file: rel.clone(),
                    line: 0,
                    rule: "io",
                    message: format!("unreadable: {err}"),
                });
                continue;
            }
        };
        out.extend(lint_file(&rel, &source));
    }
    out.sort();
    out
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .expect("walk stays under root")
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if matches!(rel.as_str(), "target" | ".git" | "crates/xtask")
                || rel.ends_with("/target")
            {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(rel: &str, src: &str) -> Vec<&'static str> {
        lint_file(rel, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn ordering_without_justification_is_flagged() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), ["ordering-comment"]);
    }

    #[test]
    fn ordering_with_same_line_justification_passes() {
        let src = "a.load(Ordering::Relaxed) // ordering: counter, reader tolerates staleness\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn ordering_justified_within_three_lines_above_passes() {
        let src = "// ordering: generation bump ordered by the registry mutex;\n// the relaxed load below is always mutex-protected\nlet g =\n    a.load(Ordering::Relaxed);\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn ordering_four_lines_away_is_too_far() {
        let src = "// ordering: too far away\nlet _x = 1;\nlet _y = 2;\nlet _z = 3;\nlet g = a.load(Ordering::Acquire);\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), ["ordering-comment"]);
    }

    #[test]
    fn ordering_tag_atop_a_long_contiguous_comment_block_passes() {
        // The tag is 5 lines up, but the comment block runs unbroken into
        // the use site — long prose justifications are fine.
        let src = "// ordering: Relaxed is enough here because the registry\n// mutex carries the real edge; this block explains why at\n// length, spilling past the short window on purpose so the\n// walker has to follow the contiguous comment block all the\n// way up to the tag on its first line.\na.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn ordering_tag_above_an_interrupting_code_line_is_too_far() {
        // A code line severs the block: the tag belongs to *that* line,
        // not to the atomic op below the window.
        let src = "// ordering: justifies the line below only\n// (more prose)\nlet _x = 1;\nlet _y = 2;\nlet _z = 3;\na.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), ["ordering-comment"]);
    }

    #[test]
    fn ordering_mention_inside_comment_is_not_a_use_site() {
        let src = "// Ordering::Relaxed would be wrong here, see below.\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn cmp_ordering_variants_are_not_atomic_orderings() {
        let src = "let o = std::cmp::Ordering::Less;\nx.cmp(&y) == Ordering::Greater;\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn std_sync_mutex_is_flagged_outside_the_facade() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(rules("crates/net/src/x.rs", src), ["std-sync"]);
        let brace = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(rules("crates/net/src/x.rs", brace), ["std-sync"]);
        let atomic = "use std::sync::atomic::AtomicU64; // ordering: n/a\n";
        assert_eq!(rules("crates/net/src/x.rs", atomic), ["std-sync"]);
    }

    #[test]
    fn std_sync_nonprimitives_are_allowed() {
        let src = "use std::sync::{mpsc, Arc, OnceLock};\n";
        assert_eq!(rules("crates/net/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn parking_lot_is_flagged_outside_facade_and_vendor() {
        assert_eq!(
            rules("crates/serve/src/x.rs", "use parking_lot::RwLock;\n"),
            ["std-sync"]
        );
        assert_eq!(
            rules("crates/sync/src/facade.rs", "pub use parking_lot::Mutex;\n"),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules(
                "vendor/parking_lot/src/lib.rs",
                "std::sync::Mutex::new(v)\n"
            ),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn missing_headers_are_flagged_on_crate_roots() {
        let got = lint_file("crates/serve/src/lib.rs", "//! serve\n");
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|v| v.rule == "crate-headers"));
        // Non-root files are not required to carry the headers.
        assert_eq!(
            rules("crates/serve/src/stats.rs", "//! x\n"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn docs_header_required_on_every_crate_root() {
        let src = "#![forbid(unsafe_code)]\n//! data\n";
        assert_eq!(rules("crates/data/src/lib.rs", src), ["crate-headers"]);
        let both = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! store\n";
        assert_eq!(rules("crates/store/src/lib.rs", both), Vec::<&str>::new());
    }

    #[test]
    fn partial_cmp_is_flagged_unless_justified_or_oracle() {
        let src = "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(rules("crates/metrics/src/x.rs", src), ["float-eq"]);
        let justified =
            "// float: total order over finite scores\nxs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(
            rules("crates/metrics/src/x.rs", justified),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules("crates/linalg/src/kernel.rs", src),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn nonzero_float_equality_is_flagged_but_zero_guards_pass() {
        assert_eq!(
            rules("crates/nn/src/x.rs", "if x == 1.0 { y(); }\n"),
            ["float-eq"]
        );
        assert_eq!(
            rules("crates/nn/src/x.rs", "if 0.5f64 != x { y(); }\n"),
            ["float-eq"]
        );
        assert_eq!(
            rules("crates/nn/src/x.rs", "if denom == 0.0 { return None; }\n"),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules(
                "crates/nn/src/x.rs",
                "if n == 10 { y(); } // ints are fine\n"
            ),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules("crates/nn/src/x.rs", "if a <= b && c >= d { y(); }\n"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn instant_now_in_serving_crates_is_flagged() {
        let src = "let t0 = Instant::now();\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), ["clock"]);
        assert_eq!(rules("crates/net/src/x.rs", src), ["clock"]);
        assert_eq!(rules("crates/store/src/x.rs", src), ["clock"]);
        let qualified = "let t0 = std::time::Instant::now();\n";
        assert_eq!(rules("crates/net/src/x.rs", qualified), ["clock"]);
    }

    #[test]
    fn elapsed_in_serving_crates_is_flagged() {
        let src = "let rtt = start.elapsed();\n";
        assert_eq!(rules("crates/serve/src/x.rs", src), ["clock"]);
        assert_eq!(rules("crates/net/src/x.rs", src), ["clock"]);
        assert_eq!(rules("crates/fabric/src/x.rs", src), ["clock"]);
        // The clock's own spelling passes, and measurement crates are exempt.
        let via_clock = "let rtt = clock::now().saturating_duration_since(start);\n";
        assert_eq!(rules("crates/net/src/x.rs", via_clock), Vec::<&str>::new());
        assert_eq!(rules("crates/eval/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn system_time_in_serving_crates_is_flagged() {
        let src = "let wall = SystemTime::now();\n";
        assert_eq!(rules("crates/store/src/x.rs", src), ["clock"]);
    }

    #[test]
    fn clock_module_and_non_serving_crates_are_exempt() {
        let src = "let t0 = Instant::now();\n";
        assert_eq!(rules("crates/trace/src/clock.rs", src), Vec::<&str>::new());
        // Measurement crates (eval, bench) sit outside the serving path.
        assert_eq!(rules("crates/eval/src/x.rs", src), Vec::<&str>::new());
        assert_eq!(rules("crates/bench/benches/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn clock_justification_comment_passes() {
        let src = "// clock: wall-clock file mtime, not a latency measurement\nlet t0 = SystemTime::now();\n";
        assert_eq!(rules("crates/store/src/x.rs", src), Vec::<&str>::new());
        let mention = "// Instant::now() is forbidden here; see openapi_trace::clock.\n";
        assert_eq!(rules("crates/serve/src/x.rs", mention), Vec::<&str>::new());
    }

    #[test]
    fn string_literals_do_not_hide_comments_or_fake_them() {
        // `//` inside a string is not a comment...
        let src = "let url = \"https://example\"; let g = a.load(Ordering::Relaxed);\n";
        assert_eq!(rules("crates/net/src/x.rs", src), ["ordering-comment"]);
        // ...and a justification inside a string is not a justification.
        let fake = "let s = \"// ordering: fake\"; a.load(Ordering::Relaxed);\n";
        assert_eq!(rules("crates/net/src/x.rs", fake), ["ordering-comment"]);
    }

    #[test]
    fn the_workspace_tree_is_clean() {
        // Self-gating: tier-1 `cargo test` fails if any source regresses the
        // invariants `cargo xtask lint` enforces.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("workspace root");
        let violations = lint_tree(root);
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
