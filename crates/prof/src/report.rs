//! [`SelfProfile`]: the frozen output of a [`crate::Prof`] run, and its
//! render surfaces — the aligned phase table, flamegraph.pl-compatible
//! folded stacks, and the flat per-phase walk the serve status page and
//! `BenchMeta` envelope consume.

use serde::{Deserialize, Serialize};

/// One phase in a frozen profile. Index 0 is the virtual root whose
/// `wall_ns` is zero (the run total lives in
/// [`SelfProfile::total_wall_ns`]).
#[derive(Debug, Clone, Default)]
pub struct PhaseNode {
    pub name: String,
    pub parent: usize,
    pub children: Vec<usize>,
    pub wall_ns: u64,
    pub calls: u64,
}

/// A wire- and file-friendly phase line: full `;`-joined stack path,
/// total wall and call count for that path. This is what serve workers
/// ship in `Bye` and what `BenchMeta` embeds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileEntry {
    pub stack: String,
    pub wall_ns: u64,
    pub calls: u64,
}

/// A point-in-time (or final) phase tree with run-wide samples.
#[derive(Debug, Clone, Default)]
pub struct SelfProfile {
    /// Tree in discovery order; empty when the profiler was disabled.
    pub phases: Vec<PhaseNode>,
    /// Wall clock from profiler creation to this snapshot.
    pub total_wall_ns: u64,
    /// `VmHWM` sample at snapshot time, where the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
}

impl SelfProfile {
    /// True when nothing was recorded (disabled profiler, or no spans).
    pub fn is_empty(&self) -> bool {
        self.phases.len() <= 1
    }

    fn resolve(&self, path: &str) -> Option<usize> {
        let mut ix = 0usize;
        for frame in path.split(';').filter(|s| !s.is_empty()) {
            ix = *self
                .phases
                .get(ix)?
                .children
                .iter()
                .find(|&&c| self.phases[c].name == frame)?;
        }
        if ix == 0 {
            None
        } else {
            Some(ix)
        }
    }

    /// Total wall of the phase at a `;`-joined path, 0 if absent.
    pub fn wall_ns(&self, path: &str) -> u64 {
        self.resolve(path).map_or(0, |ix| self.phases[ix].wall_ns)
    }

    /// Call count of the phase at a `;`-joined path, 0 if absent.
    pub fn calls(&self, path: &str) -> u64 {
        self.resolve(path).map_or(0, |ix| self.phases[ix].calls)
    }

    /// Wall time attributed to a phase itself, i.e. total minus
    /// children (clamped at zero: child walls can exceed the parent's
    /// when absorbed served-worker profiles ran concurrently).
    fn self_ns(&self, ix: usize) -> u64 {
        let children: u64 = self.phases[ix]
            .children
            .iter()
            .map(|&c| self.phases[c].wall_ns)
            .sum();
        self.phases[ix].wall_ns.saturating_sub(children)
    }

    /// Depth-first walk in discovery order, yielding
    /// `(depth, node index)` for every phase below the root.
    fn walk(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.phases.len().saturating_sub(1));
        let mut stack: Vec<(usize, usize)> = self
            .phases
            .first()
            .map(|root| root.children.iter().rev().map(|&c| (1, c)).collect())
            .unwrap_or_default();
        while let Some((depth, ix)) = stack.pop() {
            out.push((depth, ix));
            for &c in self.phases[ix].children.iter().rev() {
                stack.push((depth + 1, c));
            }
        }
        out
    }

    /// Flat per-phase lines (full stack path, total wall, calls) in
    /// depth-first discovery order — the exchange format for the wire,
    /// the status page, and the bench envelope.
    pub fn entries(&self) -> Vec<ProfileEntry> {
        let mut path: Vec<&str> = Vec::new();
        self.walk()
            .into_iter()
            .map(|(depth, ix)| {
                path.truncate(depth - 1);
                path.push(&self.phases[ix].name);
                ProfileEntry {
                    stack: path.join(";"),
                    wall_ns: self.phases[ix].wall_ns,
                    calls: self.phases[ix].calls,
                }
            })
            .collect()
    }

    /// Folded-stack lines with a caller-chosen value function over each
    /// phase's *self* nanoseconds; lines whose value maps to 0 are
    /// dropped (flamegraph.pl treats absent and zero alike).
    pub fn folded_stacks_with(&self, value: impl Fn(u64) -> u64) -> Vec<String> {
        let mut path: Vec<&str> = Vec::new();
        let mut out = Vec::new();
        for (depth, ix) in self.walk() {
            path.truncate(depth - 1);
            path.push(&self.phases[ix].name);
            let v = value(self.self_ns(ix));
            if v > 0 {
                out.push(format!("{} {}", path.join(";"), v));
            }
        }
        out
    }

    /// `flamegraph.pl`-compatible folded stacks, one line per phase with
    /// its self time in microseconds.
    pub fn folded_stacks(&self) -> Vec<String> {
        self.folded_stacks_with(|ns| ns / 1_000)
    }

    /// Human-readable phase table: tree-indented names with calls, wall
    /// ms, and share of the parent's wall, preceded by the run totals.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "total wall {:.1} ms",
            self.total_wall_ns as f64 / 1e6
        ));
        if let Some(rss) = self.peak_rss_bytes {
            out.push_str(&format!(
                "   peak rss {:.1} MiB",
                rss as f64 / (1 << 20) as f64
            ));
        }
        out.push('\n');
        if self.is_empty() {
            out.push_str("(no phases recorded — profiler disabled?)\n");
            return out;
        }
        let rows: Vec<(String, String, String, String)> = self
            .walk()
            .into_iter()
            .map(|(depth, ix)| {
                let n = &self.phases[ix];
                let parent_wall = if n.parent == 0 {
                    self.total_wall_ns
                } else {
                    self.phases[n.parent].wall_ns
                };
                let pct = if parent_wall == 0 {
                    100.0
                } else {
                    100.0 * n.wall_ns as f64 / parent_wall as f64
                };
                (
                    format!("{}{}", "  ".repeat(depth - 1), n.name),
                    n.calls.to_string(),
                    format!("{:.2}", n.wall_ns as f64 / 1e6),
                    format!("{pct:.1}"),
                )
            })
            .collect();
        let name_w = rows
            .iter()
            .map(|r| r.0.len())
            .chain(["phase".len()])
            .max()
            .unwrap_or(5);
        out.push_str(&format!(
            "{:<name_w$}  {:>9}  {:>12}  {:>8}\n",
            "phase", "calls", "wall ms", "% parent"
        ));
        for (name, calls, ms, pct) in rows {
            out.push_str(&format!(
                "{name:<name_w$}  {calls:>9}  {ms:>12}  {pct:>8}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Prof;

    fn sample() -> crate::SelfProfile {
        let p = Prof::enabled();
        {
            let _e = p.span("epoch");
            {
                let _s = p.span("sim");
                std::hint::black_box((0..2_000).sum::<u64>());
            }
            let _w = p.span("watch");
        }
        {
            let _e = p.span("epoch");
            let _s = p.span("sim");
        }
        p.finish()
    }

    #[test]
    fn entries_are_depth_first_with_full_paths() {
        let prof = sample();
        let stacks: Vec<String> = prof.entries().into_iter().map(|e| e.stack).collect();
        assert_eq!(stacks, ["epoch", "epoch;sim", "epoch;watch"]);
        assert_eq!(prof.entries()[0].calls, 2);
    }

    #[test]
    fn self_time_folds_to_children_free_remainder() {
        let prof = sample();
        let folded = prof.folded_stacks_with(|ns| ns);
        let sim = folded
            .iter()
            .find(|l| l.starts_with("epoch;sim "))
            .expect("sim line");
        let v: u64 = sim.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(v, prof.wall_ns("epoch;sim"), "leaf self == leaf total");
        for line in &folded {
            let (stack, value) = line.rsplit_once(' ').expect("stack<space>value");
            assert!(
                !stack.contains(' '),
                "folded stacks must not contain spaces"
            );
            assert!(value.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn table_lists_every_phase_once() {
        let prof = sample();
        let table = prof.render_table();
        assert!(table.starts_with("total wall"));
        assert_eq!(table.matches("epoch").count(), 1);
        assert_eq!(table.matches("sim").count(), 1);
        assert!(table.contains("% parent"));
    }

    #[test]
    fn empty_profile_renders_and_resolves_benignly() {
        let prof = Prof::disabled().finish();
        assert!(prof.is_empty());
        assert_eq!(prof.wall_ns("anything"), 0);
        assert!(prof.folded_stacks().is_empty());
        assert!(prof.render_table().contains("no phases"));
    }
}
