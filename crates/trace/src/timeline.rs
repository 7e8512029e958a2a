//! ASCII per-core incident timelines.
//!
//! Reconstructs each core's life — onset → first corruption → first signal
//! → detection → suspect → quarantine → confirm/exonerate → restore —
//! from the core-tagged instant events in a [`Trace`].

use std::collections::BTreeMap;

use crate::event::EventKind;
use crate::recorder::Trace;

/// Cores rendered before the timeline truncates with a note.
const MAX_CORES: usize = 40;

/// Short human label for a lifecycle event name, or `None` to omit it from
/// the timeline (e.g. capacity bookkeeping duplicates quarantine events).
/// Public so the audit layer's case files speak the same stage vocabulary
/// as the timelines.
pub fn stage_label(name: &str) -> Option<&'static str> {
    Some(match name {
        "gt.onset" => "onset",
        "sim.first_corruption" => "corrupt",
        "score.first_signal" => "signal",
        "score.recidivist" => "recidivist",
        "detect.burnin" => "detect(burnin)",
        "detect.offline" => "detect(offline)",
        "detect.online" => "detect(online)",
        "detect.triage" => "detect(triage)",
        "core.suspect" => "suspect",
        "core.quarantine" => "quarantine",
        "core.confirm" => "confirm",
        "core.exonerate" => "exonerate",
        "core.restore" => "restore",
        "core.retire" => "retire",
        _ => return None,
    })
}

/// Render the per-core incident timeline.
///
/// `label` maps a packed `CoreUid` u64 to a display string (the caller
/// owns the `CoreUid` type; `mercurial-fault`'s `Display` gives
/// `m{}s{}c{}`). Cores with the richest lifecycles come first (stage
/// count descending, then first-event hour, then core id) so full
/// incidents outrank the flood of single-signal noise cores when the
/// report truncates; each line lists the core's stages sorted by hour
/// (emission order breaks ties) as `stage@h<hour>`.
pub fn incident_timeline(trace: &Trace, label: &dyn Fn(u64) -> String) -> String {
    // Packed uid → lifecycle stages in emission order.
    let mut cores: BTreeMap<u64, Vec<(f64, &'static str)>> = BTreeMap::new();
    for e in &trace.events {
        if e.kind != EventKind::Instant {
            continue;
        }
        let (Some(core), Some(stage)) = (e.core, stage_label(e.name)) else {
            continue;
        };
        cores.entry(core).or_default().push((e.hour, stage));
    }
    // Emission order is deterministic but not hour-sorted within a core:
    // e.g. a batch of signals can ingest a later-hour signal first. A
    // stable sort puts each life story in chronological order while
    // keeping same-hour stages (suspect → quarantine) in emission order.
    for stages in cores.values_mut() {
        stages.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sim hours"));
    }

    let mut out = String::new();
    if cores.is_empty() {
        out.push_str("incident timeline: no per-core lifecycle events recorded\n");
        return out;
    }

    // Fullest incidents first (stage count descending), then
    // chronologically by first event, then by core id.
    let mut order: Vec<(u64, &Vec<(f64, &'static str)>)> =
        cores.iter().map(|(k, v)| (*k, v)).collect();
    order.sort_by(|a, b| {
        let ha = a.1.first().map(|(h, _)| *h).unwrap_or(0.0);
        let hb = b.1.first().map(|(h, _)| *h).unwrap_or(0.0);
        b.1.len()
            .cmp(&a.1.len())
            .then(ha.partial_cmp(&hb).unwrap())
            .then(a.0.cmp(&b.0))
    });

    out.push_str(&format!("incident timeline ({} cores)\n", order.len()));
    let width = order
        .iter()
        .take(MAX_CORES)
        .map(|(core, _)| label(*core).len())
        .max()
        .unwrap_or(0);
    for (core, stages) in order.iter().take(MAX_CORES) {
        let line: Vec<String> = stages.iter().map(|(h, s)| format!("{s}@h{h:.0}")).collect();
        out.push_str(&format!(
            "  {:<width$}  {}\n",
            label(*core),
            line.join(" -> "),
        ));
    }
    if order.len() > MAX_CORES {
        out.push_str(&format!(
            "  ... and {} more cores (truncated)\n",
            order.len() - MAX_CORES
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TraceLevel};

    #[test]
    fn empty_trace_renders_placeholder() {
        let t = Recorder::disabled().finish();
        let s = incident_timeline(&t, &|id| format!("core{id}"));
        assert!(s.contains("no per-core lifecycle events"));
    }

    #[test]
    fn lifecycle_renders_in_order() {
        let mut r = Recorder::new(TraceLevel::Record);
        r.instant(10.0, "gt.onset", Some(7), 0.0);
        r.instant(50.0, "score.first_signal", Some(7), 0.0);
        r.instant(90.0, "core.suspect", Some(7), 0.0);
        r.instant(90.0, "core.quarantine", Some(7), 0.0);
        r.instant(120.0, "core.confirm", Some(7), 0.0);
        // A second core that gets exonerated, first event later than core 7.
        r.instant(60.0, "core.suspect", Some(3), 0.0);
        r.instant(80.0, "core.exonerate", Some(3), 0.0);
        // Non-lifecycle events are ignored.
        r.instant(5.0, "capacity.core_removed", Some(7), 0.0);
        r.gauge(5.0, "capacity.availability", 1.0);
        let t = r.finish();
        let s = incident_timeline(&t, &|id| format!("c{id}"));
        assert!(s.contains("incident timeline (2 cores)"));
        let line7 = s
            .lines()
            .find(|l| l.trim_start().starts_with("c7"))
            .unwrap();
        assert_eq!(
            line7.trim(),
            "c7  onset@h10 -> signal@h50 -> suspect@h90 -> quarantine@h90 -> confirm@h120"
        );
        // Core 7 (first event h10) sorts before core 3 (first event h60).
        let pos7 = s.find("c7").unwrap();
        let pos3 = s.find("c3").unwrap();
        assert!(pos7 < pos3);
        assert!(s.contains("exonerate@h80"));
    }

    #[test]
    fn truncates_past_cap() {
        let mut r = Recorder::new(TraceLevel::Record);
        for i in 0..(MAX_CORES as u64 + 10) {
            r.instant(i as f64, "gt.onset", Some(i), 0.0);
        }
        let s = incident_timeline(&r.finish(), &|id| format!("c{id}"));
        assert!(s.contains("and 10 more cores (truncated)"));
    }
}
