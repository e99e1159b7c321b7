//! In-memory span tracing for the traced run.
//!
//! A span is `(name, id, parent, start, end)` on a process-wide clock.
//! Each thread keeps a stack of its open spans — the parent of a new span
//! is the innermost open span on the same thread — and a buffer of closed
//! ones; [`flush_thread`] moves the buffer into the global store, and
//! [`take`] hands every span to the analysis once the run ends. Nothing
//! is written while the workload runs.
//!
//! Only the traced run calls into this module; the end-to-end runs never
//! touch it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// `0` for a top-level span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Local {
    stack: Vec<u64>,
    closed: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STORE: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the trace clock's epoch (the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        l.closed.push(Span { name, id, parent, start_ns, end_ns });
    });
    out
}

/// Records an already-measured span (client-side timestamps of events
/// that happen in another process) under the current thread's open span.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.closed.push(Span { name, id, parent, start_ns, end_ns });
    });
}

/// Moves this thread's closed spans into the global store.
pub fn flush_thread() {
    let closed = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().closed));
    STORE.lock().expect("span store poisoned").extend(closed);
}

/// Takes every stored span (flushing the calling thread first).
pub fn take() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *STORE.lock().expect("span store poisoned"))
}

/// Length of the union of `intervals`.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Aggregates over a finished trace.
pub struct Analysis {
    /// name → (count, total ns, self ns). Self time is a span's duration
    /// minus the part of it that its child spans cover.
    pub by_name: HashMap<&'static str, (u64, u64, u64)>,
    /// Union of the top-level spans' intervals, in ns.
    pub top_level_covered_ns: u64,
}

impl Analysis {
    pub fn new(spans: &[Span]) -> Self {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        let mut top = Vec::new();
        for s in spans {
            if s.parent == 0 {
                top.push((s.start_ns, s.end_ns));
            } else {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
        for s in spans {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_ns(c));
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ns();
            entry.2 += s.ns().saturating_sub(covered);
        }
        Analysis { by_name, top_level_covered_ns: union_ns(&mut top) }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64 * 1e-9)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2 as f64 * 1e-9)
    }

    /// Share of `wall_ns` the top-level spans cover.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        self.top_level_covered_ns as f64 / wall_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span { name: "a", id: 1, parent: 0, start_ns: 0, end_ns: 100 },
            Span { name: "b", id: 2, parent: 1, start_ns: 10, end_ns: 40 },
            Span { name: "b", id: 3, parent: 1, start_ns: 30, end_ns: 60 },
        ];
        let a = Analysis::new(&spans);
        assert_eq!(a.by_name["a"], (1, 100, 50));
        assert_eq!(a.by_name["b"], (2, 60, 60));
        assert_eq!(a.top_level_covered_ns, 100);
    }
}
