//! In-memory span recorder for the traced runs.
//!
//! A span names a layer, the span that caused it, and how long the call
//! took. Layers the benchmark cannot reach inside a single call are timed
//! by calling their public entry points again on the same input, right
//! after the enclosing call: such a span is recorded as a child of the
//! enclosing call, so the parent's self time is its own duration minus
//! the time its children took. Summed over a tree, self times give back
//! the root's duration. Roots marked as on the wall clock are the calls
//! the untraced run makes; the others (probes, recovery) stand beside it.

use odflow_serve::metrics::monotonic_now;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module.call`).
    pub name: &'static str,
    /// The enclosing call, `None` for a root.
    pub parent: Option<&'static str>,
    /// Whether this span's tree is part of the measured wall clock.
    pub wall: bool,
    /// Traced iteration the span belongs to (the request identifier).
    pub iter: u32,
    /// Start, as an offset from the trace epoch.
    pub start: Duration,
    /// Duration of the call.
    pub dur: Duration,
}

/// Spans of one traced run, kept in memory until written out.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    iter: u32,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { epoch: monotonic_now(), iter: 0, spans: Vec::new() }
    }
}

impl Trace {
    /// Starts a new traced iteration and returns its identifier, which
    /// later spans carry.
    pub fn next_iter(&mut self) -> u32 {
        self.iter += 1;
        self.iter
    }

    /// Times `f` as a root span. `wall` roots are calls the untraced run
    /// makes too.
    pub fn root<T>(&mut self, name: &'static str, wall: bool, f: impl FnOnce() -> T) -> T {
        self.time(name, None, wall, f)
    }

    /// Times `f` as a child of `parent`, whose self time it reduces.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.time(name, Some(parent), true, f)
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        wall: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = monotonic_now();
        let out = f();
        let dur = t0.elapsed();
        self.record(name, parent, wall, t0, dur);
        out
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        wall: bool,
        start: Instant,
        dur: Duration,
    ) {
        let start = start.saturating_duration_since(self.epoch);
        self.spans.push(Span { name, parent, wall, iter: self.iter, start, dur });
    }

    /// Self time per layer for iteration `iter`, in milliseconds: each
    /// layer's total duration minus the total of the spans it caused.
    #[must_use]
    pub fn self_ms(&self, iter: u32) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.iter == iter) {
            *out.entry(s.name).or_default() += ms(s.dur);
            if let Some(p) = s.parent {
                *out.entry(p).or_default() -= ms(s.dur);
            }
        }
        out
    }

    /// Sum of the durations of the wall-clock roots of iteration `iter`,
    /// which equals the sum of the self times in their trees.
    #[must_use]
    pub fn wall_ms(&self, iter: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.iter == iter && s.wall && s.parent.is_none())
            .map(|s| ms(s.dur))
            .sum()
    }

    /// Duration of the last span named `name` in iteration `iter`.
    #[must_use]
    pub fn last_ms(&self, iter: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.iter == iter && s.name == name)
            .map_or(0.0, |s| ms(s.dur))
    }

    /// Writes every span as one tab-separated line:
    /// `iter name parent wall start_ns dur_ns`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "iter\tname\tparent\twall\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.iter,
                s.name,
                s.parent.unwrap_or("-"),
                u8::from(s.wall),
                s.start.as_nanos(),
                s.dur.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// A duration in milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(t: &mut Trace, name: &'static str, parent: Option<&'static str>, wall: bool, ms: u64) {
        let start = t.epoch;
        t.record(name, parent, wall, start, Duration::from_millis(ms));
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Trace::default();
        let _ = t.next_iter();
        push(&mut t, "run", None, true, 100);
        push(&mut t, "ingest", Some("run"), true, 60);
        push(&mut t, "diagnose", Some("run"), true, 30);
        push(&mut t, "fit", Some("diagnose"), true, 20);
        push(&mut t, "probe", None, false, 500);
        let s = t.self_ms(1);
        assert_eq!(s["run"], 10.0);
        assert_eq!(s["ingest"], 60.0);
        assert_eq!(s["diagnose"], 10.0);
        assert_eq!(s["fit"], 20.0);
        let tree: f64 = ["run", "ingest", "diagnose", "fit"].iter().map(|n| s[n]).sum();
        assert_eq!(tree, t.wall_ms(1));
        assert_eq!(t.wall_ms(1), 100.0);
    }

    #[test]
    fn iterations_are_kept_apart() {
        let mut t = Trace::default();
        let _ = t.next_iter();
        push(&mut t, "a", None, true, 5);
        let _ = t.next_iter();
        push(&mut t, "a", None, true, 7);
        push(&mut t, "a", None, true, 1);
        assert_eq!(t.self_ms(1)["a"], 5.0);
        assert_eq!(t.self_ms(2)["a"], 8.0);
        assert_eq!(t.last_ms(2, "a"), 1.0);
        assert_eq!(t.last_ms(2, "b"), 0.0);
    }
}
