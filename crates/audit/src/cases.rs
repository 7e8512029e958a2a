//! Per-core case files: the causally ordered evidence chain behind every
//! attribution verdict.
//!
//! A case file is the audit's answer to "why did the loop do that to this
//! core?" — onset, every signal (with kind), suspect/quarantine/verdict
//! decisions, exonerations and restores, in chronological order. The
//! ordering and stage vocabulary deliberately reuse the incident-timeline
//! machinery ([`mercurial_trace::stage_label`], stable hour sort, fullest
//! cases first) so the case book reads like a zoomed-in timeline.

use crate::ledger::{signal_kind_name, Decision, DecisionLedger};
use crate::score::CaseLabel;
use crate::truth::GroundTruth;
use mercurial_trace::export::{push_json_str, push_num, push_u64};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One step in a case's evidence chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseEvent {
    /// Simulation hour.
    pub hour: f64,
    /// Stage label, timeline vocabulary (`signal(machine-check)`,
    /// `quarantine`, `detect(triage)`, …).
    pub stage: String,
}

/// The case file for one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseFile {
    /// Packed `CoreUid`.
    pub core: u64,
    /// Attribution verdict.
    pub label: CaseLabel,
    /// Fault-profile annotation (in-run runs only).
    pub annotation: Option<String>,
    /// Evidence chain in causal order (stable hour sort; emission order
    /// breaks ties, so same-hour suspect → quarantine reads correctly).
    pub chain: Vec<CaseEvent>,
}

/// The ordered book of case files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseBook {
    /// Cases, fullest first (chain length descending, then first-event
    /// hour, then core id — the timeline's ordering).
    pub cases: Vec<CaseFile>,
    /// Verdict cores dropped by the `max_cases` cap.
    pub truncated: usize,
}

impl CaseBook {
    /// Build the case book: one case per attribution-verdict core
    /// (mercurial cores and quarantined healthy cores), capped at
    /// `max_cases` fullest cases.
    pub fn build(ledger: &DecisionLedger, truth: &GroundTruth, max_cases: usize) -> CaseBook {
        // Core → evidence chain, in emission order.
        let mut chains: BTreeMap<u64, Vec<CaseEvent>> = BTreeMap::new();
        let mut quarantined: std::collections::BTreeSet<u64> = Default::default();
        let mut has_provenance: std::collections::BTreeSet<u64> = Default::default();
        for e in &ledger.entries {
            let Some(core) = e.core else { continue };
            if e.decision == Decision::Signal {
                has_provenance.insert(core);
            }
            if e.decision == Decision::Quarantine {
                quarantined.insert(core);
            }
        }
        for e in &ledger.entries {
            let Some(core) = e.core else { continue };
            let stage = match e.decision {
                Decision::Signal => format!("signal({})", signal_kind_name(e.value)),
                // `first-signal` duplicates the first provenance instant;
                // only keep it when the run was audited without provenance
                // (plain traced run replayed offline).
                Decision::FirstSignal if has_provenance.contains(&core) => continue,
                d => d.stage().to_string(),
            };
            chains.entry(core).or_default().push(CaseEvent {
                hour: e.hour,
                stage,
            });
        }
        for chain in chains.values_mut() {
            chain.sort_by(|a, b| a.hour.partial_cmp(&b.hour).expect("finite sim hours"));
        }

        let mut cases: Vec<CaseFile> = Vec::new();
        for (core, chain) in chains {
            let label = match (truth.is_mercurial(core), quarantined.contains(&core)) {
                (true, true) => CaseLabel::TruePositive,
                (true, false) => CaseLabel::FalseNegative,
                (false, true) => CaseLabel::FalsePositive,
                (false, false) => continue, // signal-only noise core
            };
            cases.push(CaseFile {
                core,
                label,
                annotation: truth.label(core).map(str::to_string),
                chain,
            });
        }
        cases.sort_by(|a, b| {
            let ha = a.chain.first().map(|e| e.hour).unwrap_or(0.0);
            let hb = b.chain.first().map(|e| e.hour).unwrap_or(0.0);
            b.chain
                .len()
                .cmp(&a.chain.len())
                .then(ha.partial_cmp(&hb).expect("finite sim hours"))
                .then(a.core.cmp(&b.core))
        });
        let truncated = cases.len().saturating_sub(max_cases);
        cases.truncate(max_cases);
        CaseBook { cases, truncated }
    }

    /// Render the ASCII case book. `label` maps a packed `CoreUid` to a
    /// display string (`mercurial-fault`'s `Display` gives `m{}s{}c{}`).
    pub fn render(&self, label: &dyn Fn(u64) -> String) -> String {
        let mut out = String::new();
        if self.cases.is_empty() {
            out.push_str("case files: no attribution verdicts recorded\n");
            return out;
        }
        let _ = writeln!(
            out,
            "# case files ({} cases, fullest first)",
            self.cases.len()
        );
        for case in &self.cases {
            let _ = write!(out, "\n## {} [{}]", label(case.core), case.label.tag());
            if let Some(profile) = &case.annotation {
                let _ = write!(out, " (profile: {profile})");
            }
            out.push('\n');
            let steps: Vec<String> = case
                .chain
                .iter()
                .map(|e| format!("{}@h{:.0}", e.stage, e.hour))
                .collect();
            let _ = writeln!(out, "  {}", steps.join(" -> "));
        }
        if self.truncated > 0 {
            let _ = writeln!(out, "\n... and {} more cases (truncated)", self.truncated);
        }
        out
    }

    /// JSONL export: one case per line,
    /// `{"core":<u64>,"label":"TP|FP|FN"[,"profile":"…"],"chain":[{"h":<hour>,"s":"<stage>"},…]}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for case in &self.cases {
            out.push_str("{\"core\":");
            push_u64(&mut out, case.core);
            out.push_str(",\"label\":\"");
            out.push_str(case.label.tag());
            out.push('"');
            if let Some(profile) = &case.annotation {
                out.push_str(",\"profile\":\"");
                push_json_str(&mut out, profile);
                out.push('"');
            }
            out.push_str(",\"chain\":[");
            for (i, e) in case.chain.iter().enumerate() {
                out.push_str(if i > 0 { ",{\"h\":" } else { "{\"h\":" });
                push_num(&mut out, e.hour);
                out.push_str(",\"s\":\"");
                push_json_str(&mut out, &e.stage);
                out.push_str("\"}");
            }
            out.push_str("]}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerEntry;

    fn entry(hour: f64, decision: Decision, core: u64, value: f64) -> LedgerEntry {
        LedgerEntry {
            hour,
            decision,
            core: Some(core),
            value,
        }
    }

    fn sample() -> (DecisionLedger, GroundTruth) {
        let entries = vec![
            entry(10.0, Decision::Onset, 7, 0.0),
            // Batch ingest can emit a later signal first: the chain must
            // still read chronologically.
            entry(60.0, Decision::Signal, 7, 3.0),
            entry(50.0, Decision::Signal, 7, 1.0),
            entry(50.0, Decision::FirstSignal, 7, 0.0), // elided (provenance present)
            entry(90.0, Decision::Suspect, 7, 0.0),
            entry(90.0, Decision::Quarantine, 7, 0.0),
            entry(120.0, Decision::DeepCheck, 7, 0.0),
            entry(120.0, Decision::Confirm, 7, 0.0),
            // Healthy core 3, quarantined then exonerated: FP case.
            entry(55.0, Decision::FirstSignal, 3, 0.0), // kept (no provenance)
            entry(75.0, Decision::Quarantine, 3, 0.0),
            entry(95.0, Decision::Exonerate, 3, 0.0),
            // Mercurial core 9 never touched: FN case with onset only.
            entry(20.0, Decision::Onset, 9, 0.0),
            // Healthy noise core 4: signal only, no case.
            entry(40.0, Decision::Signal, 4, 2.0),
        ];
        let ledger = DecisionLedger {
            entries,
            gt_count: 2,
            ..DecisionLedger::default()
        };
        let truth = GroundTruth::from_ledger(&ledger);
        (ledger, truth)
    }

    #[test]
    fn case_book_orders_and_labels() {
        let (ledger, mut truth) = sample();
        truth.annotate(7, "mercurial-fma");
        let book = CaseBook::build(&ledger, &truth, 40);
        assert_eq!(book.cases.len(), 3);
        assert_eq!(book.truncated, 0);
        // Fullest first: core 7 (7 steps) > core 3 (3) > core 9 (1).
        assert_eq!(book.cases[0].core, 7);
        assert_eq!(book.cases[0].label, CaseLabel::TruePositive);
        assert_eq!(book.cases[1].core, 3);
        assert_eq!(book.cases[1].label, CaseLabel::FalsePositive);
        assert_eq!(book.cases[2].core, 9);
        assert_eq!(book.cases[2].label, CaseLabel::FalseNegative);
        // Chronological chain despite out-of-order emission, with kinds
        // decoded and first-signal elided.
        let stages: Vec<&str> = book.cases[0]
            .chain
            .iter()
            .map(|e| e.stage.as_str())
            .collect();
        assert_eq!(
            stages,
            vec![
                "onset",
                "signal(process-crash)",
                "signal(machine-check)",
                "suspect",
                "quarantine",
                "detect(triage)",
                "confirm",
            ]
        );
        let rendered = book.render(&|id| format!("c{id}"));
        assert!(rendered.contains("## c7 [TP] (profile: mercurial-fma)"));
        assert!(rendered.contains("onset@h10 -> signal(process-crash)@h50"));
        assert!(rendered.contains("## c9 [FN]"));
        // Noise core 4 files no case.
        assert!(!rendered.contains("c4"));
    }

    #[test]
    fn chain_elides_duplicate_first_signal() {
        // Core 7's chain is 7 steps once first-signal is elided from its
        // 8 raw core-tagged entries.
        let (ledger, truth) = sample();
        let book = CaseBook::build(&ledger, &truth, 40);
        assert_eq!(book.cases[0].chain.len(), 7);
    }

    #[test]
    fn cap_truncates_smallest_cases() {
        let (ledger, truth) = sample();
        let book = CaseBook::build(&ledger, &truth, 1);
        assert_eq!(book.cases.len(), 1);
        assert_eq!(book.cases[0].core, 7);
        assert_eq!(book.truncated, 2);
        assert!(book
            .render(&|id| format!("c{id}"))
            .contains("and 2 more cases (truncated)"));
    }

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let (ledger, mut truth) = sample();
        truth.annotate(9, "odd\"name");
        let book = CaseBook::build(&ledger, &truth, 40);
        let jsonl = book.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"core\":7,\"label\":\"TP\""));
        assert!(jsonl.contains("{\"h\":10,\"s\":\"onset\"}"));
        assert!(jsonl.contains("\"profile\":\"odd\\\"name\""));
        // Every line parses back as JSON.
        for line in jsonl.lines() {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("core").is_some());
        }
    }

    #[test]
    fn empty_book_renders_placeholder() {
        let book = CaseBook::build(&DecisionLedger::default(), &GroundTruth::default(), 40);
        assert!(book
            .render(&|id| format!("c{id}"))
            .contains("no attribution verdicts"));
    }
}
