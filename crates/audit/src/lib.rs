//! # noiselab-audit
//!
//! The determinism auditor: a dependency-free static analyzer that
//! walks the workspace's deterministic crates and enforces the
//! determinism contract.
//!
//! Two generations of rules share one pipeline:
//!
//! * **Lexical** (PR 3): token-level bans — no std hash containers, no
//!   wall-clock reads, no entropy-seeded RNGs, no host threads outside
//!   the harness, no `static mut`, no `.unwrap()` on I/O paths.
//! * **Taint** (this PR): a recursive-descent parser ([`parse`])
//!   lowers every function to a CFG ([`cfg`]); an intra-procedural
//!   dataflow ([`taint`]) plus a call-graph summary fixpoint
//!   ([`summary`]) track nondeterministic *values* — a wall-clock read
//!   laundered through two helper functions, a hash-iteration fold, an
//!   address cast — until they reach a determinism sink (stream hash,
//!   fingerprint, checkpoint, metrics merge, event-queue key).
//!
//! Findings carry a source→sink hop chain in human, JSON, and SARIF
//! output. Escape hatches are explicit and reviewed:
//! `// audit:allow(<rule>): <reason>` on (or directly above) the
//! source or sink line; allows that match nothing are reported stale.
//!
//! The runtime counterpart — the event-stream sanitizer and the
//! dual-run divergence bisector — lives in `noiselab-kernel` and
//! `noiselab-core`; both are driven by `noiselab audit`.
//!
//! ```
//! use noiselab_audit::{scan_source, RuleId};
//! let v = scan_source("demo.rs", "let t = std::time::Instant::now();", &RuleId::ALL, false);
//! assert_eq!(v[0].rule, RuleId::WallClock);
//! ```

pub mod cfg;
pub mod lexer;
pub mod parse;
pub mod policy;
pub mod report;
pub mod rules;
pub mod summary;
pub mod taint;

pub use policy::{CratePolicy, POLICIES};
pub use report::{AuditReport, StaleAllow};
pub use rules::{scan_file, scan_source, Allow, FileScan, RuleId, Violation};
pub use taint::{TaintFinding, TaintKind};

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One source file handed to the pure analysis entry point.
pub struct SourceSpec<'a> {
    /// Diagnostic path (repo-relative in the workspace sweep).
    pub path: String,
    pub src: String,
    /// Rules enforced for findings whose *sink* is in this file.
    pub rules: &'a [RuleId],
    pub host_thread_ok: bool,
}

/// Run the full analysis (lexical + taint + stale-allow detection)
/// over in-memory sources. This is the byte-deterministic core: the
/// output depends only on the *set* of inputs, not their order.
pub fn analyze_sources(files: &[SourceSpec]) -> AuditReport {
    let mut report = AuditReport {
        files_scanned: files.len(),
        ..AuditReport::default()
    };

    // Visit files in path order so the fixpoint sees a canonical CFG
    // list regardless of sweep order.
    let mut order: Vec<&SourceSpec> = files.iter().collect();
    order.sort_by(|a, b| a.path.cmp(&b.path));

    let mut cfgs: Vec<(String, cfg::Cfg)> = Vec::new();
    let mut allows: BTreeMap<String, Vec<Allow>> = BTreeMap::new();
    let mut rules_for: BTreeMap<String, &[RuleId]> = BTreeMap::new();
    for spec in order {
        let scan = rules::scan_file(&spec.path, &spec.src, spec.rules, spec.host_thread_ok);
        report.violations.extend(scan.violations);
        allows.insert(spec.path.clone(), scan.allows);
        rules_for.insert(spec.path.clone(), spec.rules);
        for f in parse::parse_file(&lexer::lex(&spec.src)) {
            cfgs.push((spec.path.clone(), cfg::lower_fn(&f)));
        }
    }

    let findings = summary::analyze_workspace(&cfgs);
    for f in findings {
        // Policy: the rule must be enabled where the sink lives.
        let enabled = rules_for
            .get(&f.file)
            .is_some_and(|rules| rules.contains(&f.rule));
        if !enabled {
            continue;
        }
        let (sfile, sline) = {
            let (sf, sl) = f.source();
            (sf.to_string(), sl)
        };
        // An allow suppresses at the sink line, at the source line, or
        // (for kinds with a lexical ancestor, e.g. wall-clock) via the
        // base rule's allow at the source — so the bench harness's
        // existing `audit:allow(wall-clock)` keeps covering flows born
        // at that site.
        let mut suppressed = false;
        if let Some(list) = allows.get_mut(&f.file) {
            if let Some(a) = list.iter_mut().find(|a| a.covers(f.rule, f.line)) {
                a.used = true;
                suppressed = true;
            }
        }
        if let Some(list) = allows.get_mut(&sfile) {
            if let Some(a) = list.iter_mut().find(|a| a.covers(f.rule, sline)) {
                a.used = true;
                suppressed = true;
            }
            if let Some(base) = f.kind.base_rule() {
                if let Some(a) = list.iter_mut().find(|a| a.covers(base, sline)) {
                    a.used = true;
                    suppressed = true;
                }
            }
        }
        if suppressed {
            continue;
        }
        report.violations.push(Violation {
            file: f.file.clone(),
            line: f.line,
            rule: f.rule,
            message: f.message.clone(),
            path: f.hops.clone(),
        });
    }

    for (file, list) in &allows {
        for a in list {
            if !a.used && a.rule.is_some() {
                report.stale_allows.push(StaleAllow {
                    file: file.clone(),
                    line: a.line,
                    rule: a.raw_rule.clone(),
                });
            }
        }
    }
    report.stale_allows.sort();

    report.violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.name(),
            b.message.as_str(),
        ))
    });
    report
}

/// Sweep the whole workspace rooted at `root` under [`POLICIES`].
/// Missing crates are an error (the policy table and the workspace must
/// agree), missing optional dirs (a crate without `benches/`) are not.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut specs: Vec<SourceSpec> = Vec::new();
    let mut crates_scanned = 0usize;

    for policy in POLICIES {
        let crate_dir = root.join(policy.root);
        if !crate_dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "policy names crate {} at {} but the directory is missing",
                    policy.name,
                    crate_dir.display()
                ),
            ));
        }
        crates_scanned += 1;
        for dir in policy.dirs {
            let d = crate_dir.join(dir);
            if !d.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            collect_rs_files(&d, &mut files)?;
            // Deterministic sweep order, like everything else here.
            files.sort();
            for f in files {
                let src = std::fs::read_to_string(&f)?;
                let rel = f
                    .strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .replace('\\', "/");
                let crate_rel = f
                    .strip_prefix(&crate_dir)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .replace('\\', "/");
                let host_ok = policy.host_thread_approved.contains(&crate_rel.as_str());
                specs.push(SourceSpec {
                    path: rel,
                    src,
                    rules: policy.rules,
                    host_thread_ok: host_ok,
                });
            }
        }
    }

    let mut report = analyze_sources(&specs);
    report.crates_scanned = crates_scanned;
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_table_is_internally_consistent() {
        let mut names = std::collections::BTreeSet::new();
        for p in POLICIES {
            assert!(names.insert(p.name), "duplicate policy row for {}", p.name);
            assert!(!p.rules.is_empty(), "{}: empty rule set", p.name);
            assert!(!p.dirs.is_empty(), "{}: no swept dirs", p.name);
        }
        assert_eq!(POLICIES.len(), 16, "every workspace crate has a row");
    }

    #[test]
    fn missing_crate_is_an_error() {
        let err = audit_workspace(Path::new("/nonexistent-root")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    fn spec(path: &str, src: &str) -> SourceSpec<'static> {
        SourceSpec {
            path: path.to_string(),
            src: src.to_string(),
            rules: &RuleId::ALL,
            host_thread_ok: false,
        }
    }

    #[test]
    fn cross_file_taint_is_reported_with_path() {
        let report = analyze_sources(&[
            spec(
                "a.rs",
                "pub fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
            spec(
                "b.rs",
                "pub fn fold(seed: u64) -> u64 { fnv1a_extend(seed, stamp()) }\n",
            ),
        ]);
        // One lexical wall-clock hit in a.rs plus the taint path in b.rs.
        let taint: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == RuleId::TaintWallClock)
            .collect();
        assert_eq!(taint.len(), 1, "{:#?}", report.violations);
        assert_eq!(taint[0].file, "b.rs");
        assert!(taint[0].path.len() >= 2);
        assert_eq!(taint[0].path[0].file, "a.rs");
    }

    #[test]
    fn allow_at_source_suppresses_taint_and_is_not_stale() {
        let report = analyze_sources(&[spec(
            "a.rs",
            "pub fn f(seed: u64) -> u64 {\n\
             // audit:allow(taint-addr): dense id, stable across runs in this test double\n\
             let k = &seed as *const u64 as usize;\n\
             fnv1a_extend(seed, k as u64)\n}\n",
        )]);
        assert!(report.clean(), "{:#?}", report.violations);
        assert!(report.stale_allows.is_empty(), "{:#?}", report.stale_allows);
    }

    #[test]
    fn unused_allow_is_stale_with_rule_and_line() {
        let report = analyze_sources(&[spec(
            "a.rs",
            "// audit:allow(taint-wall-clock): nothing here anymore\npub fn f() {}\n",
        )]);
        assert!(report.clean());
        assert_eq!(report.stale_allows.len(), 1);
        assert_eq!(report.stale_allows[0].rule, "taint-wall-clock");
        assert_eq!(report.stale_allows[0].line, 1);
    }
}
