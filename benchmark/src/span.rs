//! In-memory span tracer for the traced (per-layer) run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary,
//! around the calls into the layer's public functions. They stay in memory
//! until the run ends and are then written as JSON lines. A disabled
//! tracer takes no timestamps, so the untraced run pays one branch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is 0 for a root; `tag` carries the cell or
/// request index the span belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tag: u64,
}

/// Span ids of a forked tracer start this far above its parent's, so ids
/// stay unique after [`Tracer::absorb`].
const FORK_STRIDE: u64 = 1 << 32;

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    base: u64,
    /// Parent of spans opened while the stack is empty.
    root_parent: u64,
    forks: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            base: 0,
            root_parent: 0,
            forks: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn current_parent(&self) -> u64 {
        self.stack
            .last()
            .map_or(self.root_parent, |&i| self.spans[i].id)
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, tag: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let span = Span {
            id: self.base + idx as u64 + 1,
            parent: self.current_parent(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            tag,
        };
        self.spans.push(span);
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// A tracer for another thread: same clock, its spans children of the
    /// span open here. Hand it back with [`Tracer::absorb`].
    pub fn fork(&mut self) -> Tracer {
        self.forks += 1;
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            base: self.base + self.forks * FORK_STRIDE,
            root_parent: self.current_parent(),
            forks: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn absorb(&mut self, fork: Tracer) {
        self.spans.extend(fork.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time by span name, nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    /// Write one JSON object per span.
    ///
    /// # Errors
    ///
    /// The I/O failure, with the path.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let ctx = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(ctx)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"tag\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.tag
            )
            .map_err(ctx)?;
        }
        out.flush().map_err(ctx)
    }
}

/// A span's self time is its duration minus the part of its interval that
/// its children cover; children may overlap one another (parallel
/// clients), so their intervals are merged first. Summed by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tag: 0,
        }
    }

    #[test]
    fn self_time_with_overlapping_children() {
        let spans = [
            span(1, 0, "parent", 0, 100),
            // Two children overlapping on [30, 40): cover [10, 60).
            span(2, 1, "child", 10, 40),
            span(3, 1, "child", 30, 60),
            // One nested inside an already-covered stretch adds nothing.
            span(4, 1, "child", 35, 38),
            // A grandchild takes from its own parent only.
            span(5, 2, "leaf", 15, 20),
            // A child running past the parent's end is clipped.
            span(6, 1, "late", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["parent"], 100 - 50 - 10);
        assert_eq!(t["child"], (30 - 5) + 30 + 3);
        assert_eq!(t["leaf"], 5);
        assert_eq!(t["late"], 30);
    }

    #[test]
    fn nesting_and_forks_link_parents() {
        let mut t = Tracer::new(true);
        let mut fork = None;
        t.span("outer", 7, |t| {
            t.span("inner", 8, |_| {});
            let mut f = t.fork();
            f.span("remote", 9, |_| {});
            fork = Some(f);
        });
        t.absorb(fork.unwrap());
        let by_name = |n: &str| t.spans().iter().find(|s| s.name == n).unwrap().clone();
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("remote").parent, outer.id);
        assert_eq!(by_name("remote").tag, 9);
        let mut ids: Vec<u64> = t.spans().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "ids stay unique across forks");
        assert!(outer.end_ns >= by_name("inner").end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
