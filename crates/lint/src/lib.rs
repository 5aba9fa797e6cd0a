//! `biochip-lint` — workspace static analysis for the determinism and
//! panic-safety contracts.
//!
//! The load-bearing invariant of this workspace is that synthesis output is
//! **bit-identical** across runs, warm vs. cold starts, and oracle on/off.
//! The dynamic gates (`warm_determinism.rs`, `oracle_equivalence.rs`, the
//! CI `output_key` comparisons) catch a violation only when a test seed happens to exercise
//! it; this crate catches the *source patterns* that cause violations before
//! they ever run, plus the panic hazards that PRs 4 and 7 swept by hand.
//!
//! Rules (see [`Rule`]):
//!
//! * **D1** — unordered `HashMap`/`HashSet` iteration in result-bearing
//!   crates, unless the statement feeds an order-insensitive sink.
//! * **D2** — wall-clock reads (`Instant::now`/`SystemTime`) in
//!   result-bearing crates outside the explicitly timing-excluded paths.
//! * **D3** — RNG construction from nondeterministic sources anywhere.
//! * **P1** — `unwrap`/`expect`/`panic!`/slice-indexing on the server
//!   request paths and pool worker paths.
//! * **L1** — inconsistent lock-acquisition order, and lock guards held
//!   across blocking calls, in `pool`/`server`.
//! * **U1** — `unsafe` inventory: every `unsafe` block/impl carries a
//!   `// SAFETY:` comment, and unsafe-free crates say
//!   `#![forbid(unsafe_code)]` in every target entry file.
//!
//! Findings are suppressed only by an inline waiver
//! (`// biochip-lint: allow(RULE, "reason")` on the finding's line or the
//! line above) or by an entry in the committed baseline file; the binary
//! exits non-zero on any new unwaived finding **and** on baseline entries
//! that no longer match anything (the stale-baseline honesty check).
//!
//! Everything here is std-only, like the rest of the offline stand-ins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod scopes;
pub mod workspace;

use std::fmt;

use lexer::{Token, TokenKind};
use scopes::TokenCtx;

/// The rule that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Unordered map/set iteration in result-bearing crates.
    D1,
    /// Wall-clock reads in result-bearing crates.
    D2,
    /// Nondeterministic RNG construction.
    D3,
    /// Panic hazards on request/worker paths.
    P1,
    /// Lock-order / guard-across-blocking-call hazards.
    L1,
    /// Unsafe inventory (`SAFETY:` comments, `forbid(unsafe_code)`).
    U1,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 6] = [Rule::D1, Rule::D2, Rule::D3, Rule::P1, Rule::L1, Rule::U1];

    /// The rule's short name as written in waivers and the baseline.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::P1 => "P1",
            Rule::L1 => "L1",
            Rule::U1 => "U1",
        }
    }

    /// Parses a rule name (case-insensitive).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.name().eq_ignore_ascii_case(name.trim()))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the hazard.
    pub message: String,
}

impl Finding {
    /// The finding's line-number-independent identity used by the baseline:
    /// `rule` + `path` + an FNV-1a hash of the trimmed source line text and
    /// the finding's occurrence index among same-text findings in the file.
    /// Editing *other* lines of the file does not invalidate it.
    #[must_use]
    pub fn baseline_key(&self, source_line: &str, occurrence: usize) -> String {
        let mut hash = baseline::fnv1a(source_line.trim().as_bytes());
        hash = baseline::fnv1a_continue(hash, &occurrence.to_le_bytes());
        format!("{hash:016x}")
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// An inline waiver comment: `// biochip-lint: allow(RULE, "reason")`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The waived rule.
    pub rule: Rule,
    /// The justification string (required non-empty).
    pub reason: String,
    /// Line of the waiver comment itself.
    pub line: u32,
    /// Lines the waiver applies to: its own line and the next code line.
    pub applies_to: Vec<u32>,
}

/// A fully lexed-and-scoped source file, ready for rule passes.
pub struct SourceFile {
    /// Workspace-relative path (used in findings).
    pub rel_path: String,
    /// The crate directory name under `crates/` (e.g. `arch`, `server`).
    pub crate_name: String,
    /// Token stream, comments included.
    pub tokens: Vec<Token>,
    /// Per-token scope context, parallel to `tokens`.
    pub ctx: Vec<TokenCtx>,
    /// Raw source lines (for baseline keys and messages).
    pub lines: Vec<String>,
    /// Parsed inline waivers.
    pub waivers: Vec<Waiver>,
}

impl SourceFile {
    /// Lexes and scopes `source`.
    #[must_use]
    pub fn parse(rel_path: &str, crate_name: &str, source: &str) -> SourceFile {
        let tokens = lexer::lex(source);
        let ctx = scopes::scan(&tokens);
        let lines: Vec<String> = source.lines().map(str::to_owned).collect();
        let waivers = parse_waivers(&tokens);
        SourceFile {
            rel_path: rel_path.to_owned(),
            crate_name: crate_name.to_owned(),
            tokens,
            ctx,
            lines,
            waivers,
        }
    }

    /// The trimmed text of a 1-based source line (empty if out of range).
    #[must_use]
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map_or("", |l| l.trim())
    }
}

/// Result of analyzing one file: surviving findings plus waiver accounting.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Findings that were *not* waived (baseline matching happens later).
    pub findings: Vec<Finding>,
    /// Findings suppressed by an inline waiver.
    pub waived: Vec<Finding>,
    /// Waivers that suppressed nothing (likely stale).
    pub unused_waivers: Vec<Waiver>,
}

/// Runs every applicable rule over one file and applies inline waivers.
///
/// `rel_path` selects path-scoped behaviour (e.g. only `src/` files get the
/// determinism rules); `crate_name` selects crate-scoped rules.
#[must_use]
pub fn analyze_source(rel_path: &str, crate_name: &str, source: &str) -> FileAnalysis {
    let file = SourceFile::parse(rel_path, crate_name, source);
    let mut raw = Vec::new();
    rules::run_file_rules(&file, &mut raw);
    apply_waivers(&file, raw)
}

/// Splits raw findings into surviving vs. waived, and reports unused
/// waivers.
#[must_use]
pub fn apply_waivers(file: &SourceFile, raw: Vec<Finding>) -> FileAnalysis {
    let mut analysis = FileAnalysis::default();
    let mut used = vec![false; file.waivers.len()];
    for finding in raw {
        let waiver = file
            .waivers
            .iter()
            .enumerate()
            .find(|(_, w)| w.rule == finding.rule && w.applies_to.contains(&finding.line));
        if let Some((idx, _)) = waiver {
            used[idx] = true;
            analysis.waived.push(finding);
        } else {
            analysis.findings.push(finding);
        }
    }
    for (idx, waiver) in file.waivers.iter().enumerate() {
        if !used[idx] {
            analysis.unused_waivers.push(waiver.clone());
        }
    }
    analysis
}

/// Extracts `// biochip-lint: allow(RULE, "reason")` waivers from the
/// comment tokens. A malformed waiver (unknown rule, missing reason) is
/// ignored — it will fail to suppress, which surfaces it immediately.
#[must_use]
pub fn parse_waivers(tokens: &[Token]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some((rule, reason)) = parse_waiver_text(&tok.text) else {
            continue;
        };
        // Applies to the comment's own line and the first code line after
        // it (so the waiver can sit above the offending statement).
        let mut applies_to = vec![tok.line];
        if let Some(next) = tokens[i + 1..]
            .iter()
            .find(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        {
            applies_to.push(next.line);
        }
        out.push(Waiver {
            rule,
            reason,
            line: tok.line,
            applies_to,
        });
    }
    out
}

/// Parses the waiver payload out of one comment's text.
fn parse_waiver_text(comment: &str) -> Option<(Rule, String)> {
    let rest = comment.split("biochip-lint:").nth(1)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (rule_name, reason_part) = inner.split_once(',')?;
    let rule = Rule::from_name(rule_name)?;
    let reason = reason_part.trim().trim_matches('"').trim();
    if reason.is_empty() {
        return None;
    }
    Some((rule, reason.to_owned()))
}
