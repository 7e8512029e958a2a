//! The [`Prof`] handle: a hierarchical wall-clock phase profiler.
//!
//! Design mirrors `mercurial-trace`'s recorder discipline, transposed to
//! the wall-clock domain:
//!
//! * **Option-gated** — a disabled handle is a `None` and every method is
//!   one branch with no allocation and no `Instant::now()` call;
//! * **write-only** — readings flow out (tables, flamegraphs, status
//!   gauges, bench envelopes) and never back into simulation state, which
//!   is what keeps prof-on runs bit-for-bit identical to prof-off.
//!
//! Timers are scoped RAII guards: [`Prof::span`] opens a phase and the
//! returned [`PhaseGuard`] closes it on drop, so early returns and `?`
//! cannot leave a phase dangling.

use std::cell::RefCell;
use std::time::Instant;

use crate::report::{PhaseNode, ProfileEntry, SelfProfile};

/// One phase in the live tree. `children` preserves first-seen order,
/// so the tree shape is deterministic for a deterministic call sequence.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    wall_ns: u64,
    calls: u64,
}

/// The live phase tree and its clock.
///
/// A top-level phase reads the clock on entry, and every phase reads it
/// on exit. A phase opened inside another starts at the latest reading —
/// its parent's entry or its previous sibling's exit — so a nested
/// phase costs one clock read, not two. Unprofiled time between two
/// siblings is charged to the later one; a parent's wall stays exact.
#[derive(Debug)]
struct Inner {
    /// `nodes[0]` is the virtual root; phases hang off it.
    nodes: Vec<Node>,
    /// Open frames: `(node index, entry instant)`. The root is never on
    /// the stack — its wall is the profiler's lifetime.
    stack: Vec<(usize, Instant)>,
    started: Instant,
    /// The latest clock reading: a nested phase's entry instant.
    last: Instant,
}

impl Inner {
    fn new() -> Inner {
        let started = Instant::now();
        Inner {
            nodes: vec![Node {
                name: "",
                parent: 0,
                children: Vec::new(),
                wall_ns: 0,
                calls: 0,
            }],
            stack: Vec::new(),
            started,
            last: started,
        }
    }

    fn current(&self) -> usize {
        self.stack.last().map_or(0, |&(ix, _)| ix)
    }

    /// Child of `parent` named `name`, created at the end of the child
    /// list if absent. Call sites pass literals, so the pointer compare
    /// usually settles it before the string compare.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&ix) = self.nodes[parent].children.iter().find(|&&c| {
            let n = self.nodes[c].name;
            std::ptr::eq(n, name) || n == name
        }) {
            return ix;
        }
        let ix = self.nodes.len();
        self.nodes.push(Node {
            name,
            parent,
            children: Vec::new(),
            wall_ns: 0,
            calls: 0,
        });
        self.nodes[parent].children.push(ix);
        ix
    }

    fn enter(&mut self, name: &'static str) {
        let ix = self.child(self.current(), name);
        self.nodes[ix].calls += 1;
        if self.stack.is_empty() {
            self.last = Instant::now();
        }
        self.stack.push((ix, self.last));
    }

    fn exit(&mut self) {
        if let Some((ix, t0)) = self.stack.pop() {
            self.last = Instant::now();
            self.nodes[ix].wall_ns += (self.last - t0).as_nanos() as u64;
        }
    }

    fn snapshot(&self) -> SelfProfile {
        SelfProfile {
            phases: self
                .nodes
                .iter()
                .map(|n| PhaseNode {
                    name: n.name.to_string(),
                    parent: n.parent,
                    children: n.children.clone(),
                    wall_ns: n.wall_ns,
                    calls: n.calls,
                })
                .collect(),
            total_wall_ns: self.started.elapsed().as_nanos() as u64,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// The profiler handle instrumented code records through. Cheap to pass
/// by shared reference (interior mutability); `None` when disabled.
#[derive(Debug, Default)]
pub struct Prof {
    inner: Option<Box<RefCell<Inner>>>,
}

impl Prof {
    /// A profiler that measures nothing at the cost of one branch per
    /// call site.
    pub fn disabled() -> Prof {
        Prof { inner: None }
    }

    /// A live profiler; the wall clock for the total row starts now.
    pub fn enabled() -> Prof {
        Prof {
            inner: Some(Box::new(RefCell::new(Inner::new()))),
        }
    }

    /// Enabled iff the `MERCURIAL_PROF` environment variable is set to a
    /// non-empty, non-`0` value — the knob headless pieces (serve worker
    /// processes) inherit, since wall-clock profiling is operator domain,
    /// not scenario domain.
    pub fn from_env() -> Prof {
        match std::env::var("MERCURIAL_PROF") {
            Ok(v) if !v.is_empty() && v != "0" => Prof::enabled(),
            _ => Prof::disabled(),
        }
    }

    /// Whether this handle keeps anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open the phase `name` under the current phase; the returned guard
    /// closes it on drop. Disabled handles hand back an inert guard
    /// without touching the clock.
    #[must_use = "dropping the guard immediately records a zero-length phase"]
    pub fn span(&self, name: &'static str) -> PhaseGuard<'_> {
        if let Some(cell) = &self.inner {
            cell.borrow_mut().enter(name);
        }
        PhaseGuard {
            prof: self.inner.as_deref(),
        }
    }

    /// Merge wire-shipped profile entries (e.g. a serve worker's `Bye`
    /// payload) under the current phase. Stack paths split on `;`; names
    /// go through [`mercurial_trace::intern`], so each distinct phase is
    /// leaked once per process.
    pub fn absorb_entries(&self, entries: &[ProfileEntry]) {
        let Some(cell) = &self.inner else {
            return;
        };
        let mut inner = cell.borrow_mut();
        let at = inner.current();
        for e in entries {
            let mut ix = at;
            for frame in e.stack.split(';').filter(|s| !s.is_empty()) {
                ix = inner.child(ix, mercurial_trace::intern(frame));
            }
            if ix != at {
                inner.nodes[ix].wall_ns += e.wall_ns;
                inner.nodes[ix].calls += e.calls;
            }
        }
    }

    /// A point-in-time copy of the finished phases (open spans excluded
    /// from their phases' walls until they close). Empty when disabled.
    pub fn snapshot(&self) -> SelfProfile {
        match &self.inner {
            Some(cell) => cell.borrow().snapshot(),
            None => SelfProfile::default(),
        }
    }

    /// Consume the profiler and return the final profile.
    pub fn finish(self) -> SelfProfile {
        self.snapshot()
    }
}

/// RAII guard returned by [`Prof::span`]; closes the phase on drop.
pub struct PhaseGuard<'a> {
    prof: Option<&'a RefCell<Inner>>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(cell) = self.prof {
            cell.borrow_mut().exit();
        }
    }
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`),
/// `None` where the kernel interface is absent. A sample, not a metric:
/// it rides the profile report only.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_single_word_and_inert() {
        // Option<Box<_>> has the null niche: the disabled handle is one
        // pointer, and every method is one branch.
        assert_eq!(
            std::mem::size_of::<Prof>(),
            std::mem::size_of::<usize>(),
            "disabled handle must stay pointer-sized"
        );
        let p = Prof::disabled();
        {
            let _g = p.span("phase");
            let _h = p.span("nested");
        }
        assert!(!p.is_enabled());
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_count() {
        let p = Prof::enabled();
        for _ in 0..3 {
            let _e = p.span("epoch");
            let _s = p.span("sim");
        }
        {
            let _e = p.span("epoch");
            let _x = p.span("screen");
        }
        let prof = p.finish();
        assert_eq!(prof.calls("epoch"), 4);
        assert_eq!(prof.calls("epoch;sim"), 3);
        assert_eq!(prof.calls("epoch;screen"), 1);
        assert_eq!(prof.calls("missing"), 0);
    }

    #[test]
    fn nested_wall_never_exceeds_parent() {
        let p = Prof::enabled();
        {
            let _outer = p.span("outer");
            for _ in 0..10 {
                let _inner = p.span("inner");
                std::hint::black_box((0..512).sum::<u64>());
            }
        }
        let prof = p.finish();
        assert!(prof.wall_ns("outer") >= prof.wall_ns("outer;inner"));
        assert!(prof.total_wall_ns >= prof.wall_ns("outer"));
    }

    #[test]
    fn time_between_siblings_lands_in_the_later_one() {
        let gap = std::time::Duration::from_millis(20);
        let p = Prof::enabled();
        {
            let _parent = p.span("parent");
            drop(p.span("first"));
            std::thread::sleep(gap);
            drop(p.span("second"));
        }
        let prof = p.finish();
        let (first, second) = (prof.wall_ns("parent;first"), prof.wall_ns("parent;second"));
        assert!(first < gap.as_nanos() as u64 && second >= gap.as_nanos() as u64);
        assert!(prof.wall_ns("parent") >= first + second);
    }

    #[test]
    fn absorb_entries_rebuilds_wire_profiles() {
        let p = Prof::enabled();
        {
            let _w = p.span("worker.0");
            p.absorb_entries(&[
                ProfileEntry {
                    stack: "fleet.step".into(),
                    wall_ns: 5_000,
                    calls: 2,
                },
                ProfileEntry {
                    stack: "fleet.step;rng".into(),
                    wall_ns: 1_000,
                    calls: 4,
                },
            ]);
        }
        let prof = p.finish();
        assert_eq!(prof.wall_ns("worker.0;fleet.step"), 5_000);
        assert_eq!(prof.calls("worker.0;fleet.step;rng"), 4);
    }

    #[test]
    fn rss_sample_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
