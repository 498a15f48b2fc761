//! The metric registry and the result line.
//!
//! Every run prints every metric of its mode: the end-to-end set with
//! tracing off, the per-layer set with tracing on. A layer a workload
//! never calls reads 0 there.

use std::collections::BTreeMap;

/// End-to-end metrics (name, unit), measured with tracing off.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("records_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (name, unit), measured by the traced run. Times are
/// self times summed over one traced iteration (median over iterations).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.render_ms", "ms"),
    ("flow.bin_scenario_ms", "ms"),
    ("flow.bin_scenario_1t_ms", "ms"),
    ("flow.resolved_frac", "ratio"),
    ("subspace.fit_score_ms", "ms"),
    ("subspace.identify_ms", "ms"),
    ("subspace.identify_calls", "count"),
    ("subspace.diagnose_ms", "ms"),
    ("classify.remainder_ms", "ms"),
    ("serve.wire.reassemble_ms", "ms"),
    ("flow.decode_ms", "ms"),
    ("serve.tenant.ingest_ms", "ms"),
    ("serve.tenant.close_ms", "ms"),
    ("serve.tenant.train_fit_ms", "ms"),
    ("serve.tenant.flush_ms", "ms"),
    ("serve.queue.shed_frames", "count"),
    ("serve.queue.depth_peak", "count"),
    ("serve.queue.wait_p99_us", "us"),
    ("serve.failure_share", "ratio"),
    ("checkpoint.export_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.write_last_ms", "ms"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.load_ms", "ms"),
    ("serve.tenant.restore_ms", "ms"),
    ("bench.render_frames_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.pace_wait_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.residual_share", "ratio"),
];

/// Metric name of a span's self time: the span name plus `_ms`, except
/// the whole `run_scenario` call, whose self time is everything it does
/// besides ingest and diagnosis (classification, mostly).
#[must_use]
pub fn layer_metric(span: &str) -> String {
    match span {
        "experiment.run_scenario" => "classify.remainder_ms".to_owned(),
        other => format!("{other}_ms"),
    }
}

/// A residual above this share of the untraced wall clock is flagged.
pub const RESIDUAL_FLAG_SHARE: f64 = 0.05;

/// What one run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Workload iterations started.
    pub attempted: u64,
    /// Workload iterations that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Fills every metric of `set` that is still missing with 0: the
    /// layers this workload never calls.
    pub fn absent_as_zero(&mut self, set: &[(&str, &str)]) {
        for (name, _) in set {
            self.values.entry((*name).to_owned()).or_insert(0.0);
        }
    }

    /// The result line over `set`.
    ///
    /// # Errors
    ///
    /// Names a metric of `set` that is missing or not finite.
    pub fn json(&self, set: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(set.len());
        for (name, unit) in set {
            let value = *self.values.get(*name).ok_or_else(|| format!("metric {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every metric object in one section of the
    /// benchmark definition.
    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON.find(&format!("\"{section}\"")).expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_owned()
        };
        body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
    }

    fn owned(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    }

    #[test]
    fn registry_matches_the_benchmark_definition() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn every_named_metric_is_in_the_result_line() {
        for set in [END_TO_END, PER_LAYER] {
            let mut out = Outcome { correct: true, attempted: 3, ..Outcome::default() };
            out.set(set[0].0, 1.25);
            out.absent_as_zero(set);
            let line = out.json(set).unwrap();
            for (name, unit) in set {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{name} missing from {line}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
            assert!(line.contains("{\"value\": 1.25, "));
        }
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let mut out = Outcome::default();
        assert!(out.json(END_TO_END).unwrap_err().contains("setup_s"));
        out.absent_as_zero(END_TO_END);
        out.set("wall_s", f64::NAN);
        assert!(out.json(END_TO_END).unwrap_err().contains("wall_s"));
    }

    #[test]
    fn span_self_times_map_to_layer_metrics() {
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for span in [
            "experiment.run_scenario",
            "flow.bin_scenario",
            "subspace.diagnose",
            "serve.tenant.close",
            "checkpoint.write",
            "bench.pace_wait",
        ] {
            assert!(names.contains(&layer_metric(span).as_str()), "{span}");
        }
    }
}
