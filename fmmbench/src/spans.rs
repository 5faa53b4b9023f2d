//! Benchmark-side spans around calls into the library's public API.
//!
//! Spans live in memory (name, rank, start, end, parent) and are written
//! once at exit through `pfmm-trace`'s Chrome exporter. Nothing inside
//! the library is instrumented by this module: a span covers exactly one
//! public call made by the benchmark. When the recorder is off, `span`
//! is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pfmm_trace::{chrome, TraceLevel, Tracer};

/// One closed span; times are µs since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub rank: u32,
    pub name: &'static str,
    pub t0_us: f64,
    pub t1_us: f64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.t1_us - self.t0_us) * 1e-6
    }
}

/// The in-memory span sink shared by every rank thread of a pass.
pub struct Rec {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    next: AtomicU64,
}

thread_local! {
    /// Open span ids on this thread (innermost last).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Rec {
    pub fn new(on: bool) -> Arc<Rec> {
        Arc::new(Rec {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next: AtomicU64::new(1),
        })
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// The innermost open span on this thread (0 at the root).
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Run `f` with `parent` as this thread's enclosing span, so spans a
    /// rank thread opens hang under the span that spawned the ranks.
    pub fn under<T>(&self, parent: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        STACK.with(|s| s.borrow_mut().push(parent));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        out
    }

    /// Time `f` as span `name` on `rank`.
    pub fn span<T>(&self, rank: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        STACK.with(|s| s.borrow_mut().push(id));
        let t0_us = self.now_us();
        let out = f();
        let t1_us = self.now_us();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking rank")
            .push(SpanRec {
                id,
                parent,
                rank: rank as u32,
                name,
                t0_us,
                t1_us,
            });
        out
    }

    /// Every closed span, in id (open) order.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking rank")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Self time of every span (its duration minus the time its child
    /// spans cover), by span id.
    pub fn self_secs_by_id(&self) -> BTreeMap<u64, f64> {
        let spans = self.spans();
        let mut child_secs: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            *child_secs.entry(s.parent).or_insert(0.0) += s.secs();
        }
        spans
            .iter()
            .map(|s| {
                let own = s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
                (s.id, own.max(0.0))
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_secs(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_secs_by_id();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans() {
            out.entry(s.name).or_default().push(own[&s.id]);
        }
        out
    }

    /// Write the spans as a Chrome trace-event file (pid = rank; span
    /// and parent ids ride along as args). The document is parsed back
    /// and structurally validated first; returns the span count.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let tracer = Tracer::new(TraceLevel::Phase);
        for s in self.spans() {
            tracer.record_span(
                s.rank,
                0,
                s.name,
                "bench",
                s.t0_us,
                s.t1_us,
                &[("id", s.id), ("parent", s.parent)],
            );
        }
        let json = chrome::to_json_string(&tracer.drain());
        let stats = chrome::parse(&json)
            .and_then(|evs| chrome::validate(&evs))
            .map_err(std::io::Error::other)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json)?;
        Ok(stats.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = Rec::new(true);
        rec.span(0, "outer", || {
            rec.span(0, "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = rec.self_secs();
        assert!(own["inner"][0] >= 0.02);
        assert!(own["outer"][0] < 0.01, "{own:?}");
        let spans = rec.spans();
        assert_eq!(spans[1].parent, spans[0].id);
    }

    #[test]
    fn off_records_nothing() {
        let rec = Rec::new(false);
        assert_eq!(rec.span(0, "x", || 7), 7);
        assert!(rec.spans().is_empty());
    }
}
