//! `ss-analyze`: the workspace static-analysis gate.
//!
//! A zero-dependency engine — hand-rolled Rust [`lexer`], minimal
//! [`manifest`] reader, a semantic layer ([`items`], [`callgraph`],
//! [`passes`]) and the lint set A1–A10 plus suppression hygiene (A0) —
//! that mechanically checks the invariants the skimmed-sketch serving
//! stack depends on: justified atomic orderings, panic-free hot paths,
//! telemetry feature-edge discipline, lock-free hot paths, overflow-safe
//! codec arithmetic, exhaustive wire-frame matches, v2/v3 frame-version
//! gating, fence-before-role ordering, WAL-append-before-ack persist
//! ordering, and panic/blocking reachability from the serving entry
//! points. See DESIGN.md §10 for the invariant catalog and the
//! suppression/baseline policy.
//!
//! The engine is purely lexical (the offline build environment rules
//! out `syn`) and purely deterministic: same tree, same findings, in
//! path/line order. The inter-procedural passes run on a call graph
//! resolved by name with locality preference — over-approximate, which
//! for reachability-style lints is the sound direction.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod findings;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod manifest;
pub mod passes;
pub mod source;
pub mod suppress;
pub mod walk;

use findings::{lint_info, Finding, Severity};
use manifest::Manifest;
use source::SourceFile;
use std::io;
use std::path::Path;
use suppress::FileSuppressions;

/// The outcome of analyzing a workspace (before baseline subtraction).
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by (path, line, col, lint).
    pub findings: Vec<Finding>,
    /// Number of Rust sources analyzed.
    pub sources: usize,
    /// Number of manifests analyzed.
    pub manifests: usize,
    /// Well-formed `ss-analyze: allow` directives outside this crate
    /// (whose sources only *describe* the syntax): the debt an empty
    /// baseline hides. CI ratchets the count down.
    pub suppressions: usize,
    /// [`Analysis::suppressions`] per lint id, in catalog order (a
    /// directive naming two lints counts under both).
    pub suppressions_per_lint: Vec<(&'static str, usize)>,
}

/// Runs every lint over the workspace rooted at `root`, and checks that
/// every a10 entry point still resolves against the real tree.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let inputs = walk::collect(root)?;
    let files: Vec<SourceFile> = inputs
        .sources
        .iter()
        .map(|i| SourceFile::parse(&i.path, &i.text))
        .collect();
    let manifests: Vec<Manifest> = inputs
        .manifests
        .iter()
        .map(|i| manifest::parse(&i.path, &i.text))
        .collect();
    Ok(run(&files, &manifests, passes::a10::ENTRY_POINTS))
}

/// Analysis over already-parsed inputs (the test seam: fixtures build
/// [`SourceFile`]s and [`Manifest`]s directly from strings). Fixture
/// trees hold a handful of files, so entry-point resolution is not
/// checked here.
pub fn analyze_parsed(files: &[SourceFile], manifests: &[Manifest]) -> Analysis {
    run(files, manifests, &[])
}

fn run(
    files: &[SourceFile],
    manifests: &[Manifest],
    required_entries: &[(&str, &str)],
) -> Analysis {
    // Build the semantic model once; every pass shares it.
    let ws = passes::Workspace::build(files);
    let mut raw_all: Vec<Finding> = Vec::new();
    for pass in passes::all_passes() {
        raw_all.extend(pass.run(&ws));
    }

    // Suppression filtering is per file and must see *all* of a file's
    // raw findings at once (A0 unused-suppression hygiene depends on
    // it), so group by path first.
    let mut out = Vec::new();
    for file in files {
        let mine: Vec<Finding> = raw_all
            .iter()
            .filter(|f| f.path == file.path)
            .cloned()
            .collect();
        out.extend(filter_suppressed(mine, &file.path, &file.suppressions));
    }

    // A3 findings anchor in manifests; route each through the
    // suppression table of the manifest it landed in.
    let a3 = lints::a3_telemetry_edges(manifests);
    for m in manifests {
        let sups = FileSuppressions::new(m.suppressions.clone());
        let mine: Vec<Finding> = a3.iter().filter(|f| f.path == m.path).cloned().collect();
        out.extend(filter_suppressed(mine, &m.path, &sups));
    }

    // Not routed through a suppression table: a missing entry point has
    // no line to excuse it on.
    out.extend(passes::a10::unresolved_entries(&ws, required_entries));

    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.lint).cmp(&(b.path.as_str(), b.line, b.col, b.lint))
    });
    let allowed: Vec<&suppress::RawSuppression> = files
        .iter()
        .map(|f| (&f.path, &f.suppressions.entries))
        .chain(manifests.iter().map(|m| (&m.path, &m.suppressions)))
        .filter(|(path, _)| !path.starts_with("crates/analysis/"))
        .flat_map(|(_, sups)| sups.iter().filter(|s| s.problem.is_none()))
        .collect();
    let naming = |id: &str| {
        allowed
            .iter()
            .filter(|s| s.lints.iter().any(|l| l == id))
            .count()
    };
    Analysis {
        findings: out,
        sources: files.len(),
        manifests: manifests.len(),
        suppressions: allowed.len(),
        suppressions_per_lint: findings::LINTS
            .iter()
            .map(|l| (l.id, naming(l.id)))
            .filter(|(_, n)| *n > 0)
            .collect(),
    }
}

/// Drops findings covered by a suppression, then reports suppression
/// hygiene: malformed directives, unknown lint ids, and suppressions
/// that covered nothing (stale).
fn filter_suppressed(raw: Vec<Finding>, path: &str, sups: &FileSuppressions) -> Vec<Finding> {
    let mut used = vec![false; sups.entries.len()];
    let mut out = Vec::new();
    for f in raw {
        let hit = sups
            .entries
            .iter()
            .position(|s| s.applies_to == f.line && s.lints.iter().any(|l| l == f.lint));
        match hit {
            Some(i) => used[i] = true,
            None => out.push(f),
        }
    }
    for bad in &sups.bad {
        out.push(Finding {
            lint: "a0-bad-suppression",
            severity: Severity::Error,
            path: path.to_string(),
            line: bad.line,
            col: 1,
            message: format!(
                "malformed suppression: {}",
                bad.problem.unwrap_or("unparseable directive")
            ),
            hint: lint_info("a0-bad-suppression")
                .map(|l| l.hint)
                .unwrap_or(""),
        });
    }
    for (i, s) in sups.entries.iter().enumerate() {
        let unknown: Vec<&str> = s
            .lints
            .iter()
            .map(String::as_str)
            .filter(|l| lint_info(l).is_none())
            .collect();
        if !unknown.is_empty() {
            out.push(Finding {
                lint: "a0-unknown-lint",
                severity: Severity::Error,
                path: path.to_string(),
                line: s.line,
                col: 1,
                message: format!(
                    "suppression names unknown lint id(s): {}",
                    unknown.join(", ")
                ),
                hint: lint_info("a0-unknown-lint").map(|l| l.hint).unwrap_or(""),
            });
        } else if !used[i] {
            out.push(Finding {
                lint: "a0-unused-suppression",
                severity: Severity::Error,
                path: path.to_string(),
                line: s.line,
                col: 1,
                message: format!("suppression for {} matches no finding", s.lints.join(", ")),
                hint: lint_info("a0-unused-suppression")
                    .map(|l| l.hint)
                    .unwrap_or(""),
            });
        }
    }
    out
}
