//! Call-graph summary fixpoint: taint across function boundaries.
//!
//! Each function gets a [`FnSummary`]: which taints (or caller
//! parameters) flow to its return value, and which parameters reach a
//! sink inside it (with the internal hop chain). The driver reruns
//! the intra-procedural analysis with the growing summary environment
//! until summaries stabilize, so a wall-clock value can be traced
//! through two (or more) intermediate calls into a stream-hash fold
//! in another crate.
//!
//! Summaries are keyed by the *last path segment* of the function
//! name — the parser does not resolve imports — so same-named
//! functions are unioned. That is conservative (may over-taint) and
//! is documented as a blind spot in ANALYSIS.md. Methods (first
//! parameter `self`) are keyed apart from free functions, so a bench
//! helper `finish(start)` never shares a summary with
//! `Recorder::finish(&self)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::Cfg;
use crate::taint::{absorb, analyze_fn, SinkKind, TaintFinding, Witness};

/// Maximum whole-workspace fixpoint rounds. Chains deeper than this
/// many function hops are cut off (and capped anyway by `MAX_HOPS`).
const MAX_ROUNDS: usize = 10;

/// A parameter-to-sink flow recorded inside a callee.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SinkTrace {
    pub sink: SinkKind,
    pub callee: String,
    /// Hops from the parameter's use to the sink call site.
    pub hops: Vec<crate::taint::Hop>,
}

/// What a caller needs to know about a function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Witnesses flowing to the return value. `Origin::Param(i)`
    /// entries mean "parameter i flows to the return".
    pub ret: BTreeSet<Witness>,
    /// Parameter index → sinks it reaches inside this function.
    pub param_sinks: BTreeMap<usize, BTreeSet<SinkTrace>>,
}

impl FnSummary {
    fn union(&mut self, other: &FnSummary) {
        for w in &other.ret {
            absorb(&mut self.ret, w.clone());
        }
        for (i, traces) in &other.param_sinks {
            let own = self.param_sinks.entry(*i).or_default();
            for t in traces {
                if own.len() < 8 {
                    own.insert(t.clone());
                }
            }
        }
    }
}

/// Every function's summary, methods apart from free functions.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Summaries {
    free: BTreeMap<String, FnSummary>,
    methods: BTreeMap<String, FnSummary>,
}

impl Summaries {
    /// The summary a call resolves to. A method call (`recv.name(..)`)
    /// resolves only against methods, whose parameter 0 is `self`; a
    /// path call resolves against free functions, and a qualified one
    /// (`Type::name(recv, ..)`) falls back to methods, where its
    /// arguments already line up with the method's parameters.
    pub fn resolve(&self, name: &str, full: &str, is_method: bool) -> Option<&FnSummary> {
        if is_method {
            self.methods.get(name)
        } else if let Some(s) = self.free.get(name) {
            Some(s)
        } else if full.contains("::") {
            self.methods.get(name)
        } else {
            None
        }
    }

    fn entry(&mut self, cfg: &Cfg) -> &mut FnSummary {
        let map = if cfg.is_method() {
            &mut self.methods
        } else {
            &mut self.free
        };
        map.entry(cfg.name.clone()).or_default()
    }
}

/// Run the summary fixpoint over every function in the workspace and
/// return the deduplicated, sorted findings.
///
/// `cfgs` pairs each function CFG with the (repo-relative) file it
/// came from. Test-region functions contribute nothing: their sinks
/// are not reported and their summaries are not trusted.
pub fn analyze_workspace(cfgs: &[(String, Cfg)]) -> Vec<TaintFinding> {
    let mut summaries = Summaries::default();
    let mut findings: BTreeMap<(String, u32, &'static str, String, u32), TaintFinding> =
        BTreeMap::new();

    for _round in 0..MAX_ROUNDS {
        let mut next = Summaries::default();
        findings.clear();
        for (file, cfg) in cfgs {
            if cfg.in_test {
                continue;
            }
            let analysis = analyze_fn(cfg, file, &summaries);
            for f in analysis.findings {
                let (sfile, sline) = {
                    let (sf, sl) = f.source();
                    (sf.to_string(), sl)
                };
                let key = (f.file.clone(), f.line, f.rule.name(), sfile, sline);
                match findings.get(&key) {
                    Some(old) if old.hops.len() <= f.hops.len() => {}
                    _ => {
                        findings.insert(key, f);
                    }
                }
            }
            next.entry(cfg).union(&analysis.summary);
        }
        let stable = next == summaries;
        summaries = next;
        if stable {
            break;
        }
    }

    let mut out: Vec<TaintFinding> = findings.into_values().collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::lower_fn;
    use crate::lexer::lex;
    use crate::parse::parse_file;
    use crate::taint::{SinkKind, TaintKind};

    fn analyze(files: &[(&str, &str)]) -> Vec<TaintFinding> {
        let mut cfgs = Vec::new();
        for (name, src) in files {
            for f in parse_file(&lex(src)) {
                cfgs.push((name.to_string(), lower_fn(&f)));
            }
        }
        analyze_workspace(&cfgs)
    }

    #[test]
    fn taint_crosses_two_intermediate_calls() {
        // now() -> stamp() -> widen() -> fold(): the source is two
        // function hops away from the sink, in "different files".
        let findings = analyze(&[
            (
                "a.rs",
                "fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n\
                 fn widen(x: u64) -> u64 { x.wrapping_mul(3) }",
            ),
            (
                "b.rs",
                "fn fold(seed: u64) -> u64 { let s = stamp(); let w = widen(s); fnv1a_extend(seed, w) }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        let f = &findings[0];
        assert_eq!(f.kind, TaintKind::WallClock);
        assert_eq!(f.sink, SinkKind::StreamHash);
        assert_eq!(f.file, "b.rs");
        assert_eq!(f.source().0, "a.rs");
        // source hop + returned-by + through + sink hop
        assert!(f.hops.len() >= 4, "{:#?}", f.hops);
    }

    #[test]
    fn param_sink_summaries_flow_upward() {
        // The sink is inside the callee; the source is in the caller.
        let findings = analyze(&[
            (
                "a.rs",
                "fn digest(v: u64) -> u64 { fnv1a(&v.to_le_bytes()) }",
            ),
            (
                "b.rs",
                "fn leak() -> u64 { let t = std::time::SystemTime::now(); digest(t.elapsed().as_nanos() as u64) }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].file, "a.rs");
        assert_eq!(findings[0].source().0, "b.rs");
    }

    #[test]
    fn clean_cross_function_code_stays_clean() {
        let findings = analyze(&[(
            "a.rs",
            "fn mix(a: u64, b: u64) -> u64 { a ^ b.rotate_left(17) }\n\
                 fn digest(v: u64) -> u64 { fnv1a(&v.to_le_bytes()) }\n\
                 fn run(seed: u64) -> u64 { digest(mix(seed, 42)) }",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn methods_and_free_functions_keep_separate_summaries() {
        // The free `finish(x)` hashes its argument; the method
        // `R::finish(&self)` does not. A tainted receiver must not pick
        // up the free function's sink.
        let findings = analyze(&[
            (
                "a.rs",
                "fn finish(x: u64) -> u64 { fnv1a(&x.to_le_bytes()) }\n\
                 impl R { fn finish(&self) -> u64 { 0 } }",
            ),
            (
                "b.rs",
                "fn leak(mut r: R) -> u64 { r.x = std::time::Instant::now().elapsed().as_nanos() as u64; r.finish() }",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn qualified_call_resolves_to_a_method_summary() {
        // `Acc::digest(&a)` passes the receiver as argument 0, which is
        // the method's `self`.
        let findings = analyze(&[
            (
                "a.rs",
                "impl Acc { fn digest(&self) -> u64 { fnv1a(&self.x.to_le_bytes()) } }",
            ),
            (
                "b.rs",
                "fn leak(mut a: Acc) -> u64 { a.x = std::time::Instant::now().elapsed().as_nanos() as u64; Acc::digest(&a) }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].file, "a.rs");
    }

    #[test]
    fn output_is_stable_across_input_order() {
        let files = [
            (
                "a.rs",
                "fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }",
            ),
            ("b.rs", "fn hashit() -> u64 { fnv1a(&stamp().to_le_bytes()) }"),
            (
                "c.rs",
                "fn keyed(q: &mut Q) { let h = HashSet::new(); for k in h.iter() { q.schedule(k, 0); } }",
            ),
        ];
        let fwd = analyze(&files);
        let mut rev = files;
        rev.reverse();
        let bwd = analyze(&rev);
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.len(), 2, "{fwd:#?}");
    }
}
