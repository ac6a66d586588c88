//! # smin-analyze
//!
//! The workspace determinism/robustness lint engine behind `asm lint`.
//!
//! The stack's headline guarantee — seed selections and `/v1/select` bodies
//! are bit-identical across thread counts and restarts — is easy to break
//! silently: one `HashMap` iteration, one wall-clock read, one `.unwrap()`
//! in the request path. This crate turns those informal invariants into a
//! machine-checked specification, in the spirit of industrial static
//! checkers: a small source-level pass that runs on every commit, with a
//! committed baseline so the gate only trips on *new* violations.
//!
//! Pipeline: [`lexer`] tokenizes each file (raw strings, nested comments,
//! char literals, `#[cfg(test)]` gating all handled), [`rules`] runs the
//! project-invariant checks with `// smin-lint: allow(<rule>) -- <why>`
//! escape hatches, [`workspace`] maps files to rule sets, [`baseline`]
//! grandfathers accepted findings, and [`report`] renders deterministic
//! human/JSON output. Dependency-free by design: the tool that gates every
//! crate builds with nothing but std.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{Outcome, Reported};
pub use rules::{lint_source, Finding, RuleSet, RULE_IDS};

use std::path::Path;

/// Lints the tree at `root` and joins the result against `baseline_text`
/// (the contents of `lint-baseline.json`, if one applies).
///
/// Errors are I/O or baseline-syntax problems; findings — even new ones —
/// are *data*, not errors. Callers decide the exit code from
/// [`Outcome::new_count`].
pub fn run(root: &Path, baseline_text: Option<&str>) -> Result<Outcome, String> {
    let entries = match baseline_text {
        Some(text) => baseline::parse(text)?,
        None => Vec::new(),
    };
    let (findings, files_scanned) =
        workspace::lint_tree(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let reported = findings
        .into_iter()
        .map(|finding| {
            let baselined = baseline::contains(&entries, &finding);
            Reported { finding, baselined }
        })
        .collect();
    Ok(Outcome {
        reported,
        files_scanned,
    })
}
