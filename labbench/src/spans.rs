//! The benchmark's own spans: name, start, end, parent and run id, kept in
//! memory and written out when the run ends.
//!
//! Spans are recorded only from the benchmark's files, around calls into
//! the lab's public functions; the lab's crates carry no span of this kind.
//! A layer's self time is its span's duration minus the time its child
//! spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder's origin; `end_ns` is `None` while the span is open.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    /// Duration of a closed span (0 while open).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e - self.start_ns)
    }
}

/// An in-memory span recorder for one run.
pub struct Spans {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose spans carry run id `run`.
    pub fn new(run: u64) -> Spans {
        Spans {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens `name` under the innermost open span and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = Some(self.now_ns());
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// All spans in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`, in opening order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds over the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
    }

    /// Checks the span tree: every span closed, every parent an earlier
    /// span whose interval contains the child's.
    pub fn check_balanced(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans still open", self.open.len()));
        }
        for (id, s) in self.spans.iter().enumerate() {
            let end = s
                .end_ns
                .ok_or_else(|| format!("span {id} ({}) open", s.name))?;
            if end < s.start_ns {
                return Err(format!("span {id} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let parent = self
                    .spans
                    .get(p)
                    .filter(|_| p < id)
                    .ok_or_else(|| format!("span {id} ({}) has no parent {p}", s.name))?;
                let pend = parent.end_ns.unwrap_or(0);
                if s.start_ns < parent.start_ns || end > pend {
                    return Err(format!("span {id} ({}) outside its parent", s.name));
                }
            }
        }
        Ok(())
    }

    /// Self time of every span, in opening order: its duration minus its
    /// children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Share of root span `root`'s wall time spent in named layers: its
    /// duration minus the self time of the root and of the pure container
    /// spans in `containers`, over its duration.
    pub fn named_frac(&self, root: usize, containers: &[&str]) -> f64 {
        let total = self.spans[root].dur_ns();
        if total == 0 {
            return 0.0;
        }
        let own = self.self_ns();
        let unnamed: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|&(id, s)| {
                (id == root || containers.contains(&s.name)) && self.descends_from(id, root)
            })
            .map(|(id, _)| own[id])
            .sum();
        1.0 - unnamed as f64 / total as f64
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// The spans as JSON lines: one object per span, with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ((id, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_ns.map_or("null".to_string(), |e| e.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{end},\"self_ns\":{own}}}",
                s.run, s.name, s.start_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(7);
        let root = sp.enter("run");
        sp.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.time("b", || ());
        sp.exit(root);
        sp.check_balanced().expect("balanced");
        let own = sp.self_ns();
        let dur: Vec<u64> = sp.spans().iter().map(Span::dur_ns).collect();
        assert_eq!(own[root], dur[0] - dur[1] - dur[2]);
        assert_eq!(own[1], dur[1]);
        assert!((sp.total_s("a") - dur[1] as f64 / 1e9).abs() < 1e-12);
        assert!(sp.named_frac(root, &[]) > 0.5);
        assert!(sp.to_jsonl().lines().all(|l| l.contains("\"run\":7")));
    }

    #[test]
    fn open_span_is_unbalanced() {
        let mut sp = Spans::new(1);
        sp.enter("run");
        assert!(sp.check_balanced().is_err());
    }
}
