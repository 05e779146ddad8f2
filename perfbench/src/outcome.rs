//! What one benchmark run reports: metrics by name, the correctness
//! checks, and the run's result line.

use crate::ledger::Ledger;

/// End-to-end metrics printed on the result line of an untraced run,
/// on every workload (BENCHMARK.json `end_to_end`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "1/s"),
    ("answered_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that exist on some workloads only, or can read 0;
/// printed in the report above the result line (`n/a` where a workload
/// has no such quantity). Failures also travel as `attempted`/`failed`.
pub const REPORT_ONLY: &[(&str, &str)] = &[
    ("failed_permille", "permille"),
    ("capture_loss_permille", "permille"),
    ("sustained_answered_per_s", "1/s"),
];

/// Per-layer metrics printed on the result line of a traced run
/// (BENCHMARK.json `per_layer`). A layer a workload does not execute
/// reads 0 and is marked `n/a` in the report.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("source.ns_per_frame", "ns"),
    ("decode.ns_per_frame", "ns"),
    ("decode.ok_per_datagram", "ratio"),
    ("decode.channel_stalls", "count"),
    ("pipeline.ns_per_record", "ns"),
    ("pipeline.unaccounted_share", "ratio"),
    ("reorder.depth_hwm", "count"),
    ("anonymize.ns_per_record", "ns"),
    ("anonymize.first_seen_share", "ratio"),
    ("anonymize.spilled", "count"),
    ("format.ns_per_record", "ns"),
    ("format.bytes_per_record", "B"),
    ("write.ns_per_record", "ns"),
    ("net.busy_share", "ratio"),
    ("net.queue_depth_hwm", "count"),
    ("net.shed", "count"),
    ("net.malformed", "count"),
    ("tap.ns_per_packet", "ns"),
    ("tap.queue_depth_hwm", "count"),
    ("tap.dropped", "count"),
    ("collector.ns_per_packet", "ns"),
    ("swarm.busy_share", "ratio"),
    ("swarm.timeouts", "count"),
    ("serial.ns_per_record", "ns"),
    ("trace.overhead_share", "ratio"),
    ("ledger.accounted_share", "ratio"),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (frames for the offline workloads, requests
    /// for `live`).
    pub attempted: u64,
    /// Operations that failed (shed or tombstoned frames; requests given
    /// up or shed).
    pub failed: u64,
    /// Measured metrics, `(name, value)`; units come from the tables.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form report lines printed above the result line.
    pub report: Vec<String>,
    /// Correctness failures; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// The traced run's time ledger.
    pub ledger: Option<Ledger>,
    /// Per-layer metrics of layers this workload does not execute.
    pub not_applicable: Vec<&'static str>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Marks per-layer metrics of layers the workload does not execute:
    /// they read 0 on the result line and `n/a` in the report.
    pub fn set_not_applicable(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
            self.not_applicable.push(name);
        }
    }

    /// Records a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The metric table this run must print, by tracing mode.
    pub fn required(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Checks that every required metric is present and finite, and that
    /// end-to-end metrics are positive; the ledger must conserve.
    pub fn validate(&mut self, trace: bool) {
        for (name, _) in Outcome::required(trace) {
            match self.value(name) {
                None => self.failures.push(format!("metric {name} missing")),
                Some(v) if !v.is_finite() => self
                    .failures
                    .push(format!("metric {name} is not finite: {v}")),
                Some(v) if !trace && v <= 0.0 => self
                    .failures
                    .push(format!("metric {name} is not positive: {v}")),
                Some(_) => {}
            }
        }
        if let Some(l) = &self.ledger {
            let f = l.conservation_failures();
            self.failures.extend(f);
        } else if trace {
            self.failures.push("traced run produced no ledger".into());
        }
    }

    /// Report lines for every metric, the ledger and the checks.
    pub fn render(&self, trace: bool) -> Vec<String> {
        let mut out = self.report.clone();
        let mut table: Vec<(&str, &str)> = Outcome::required(trace).to_vec();
        if !trace {
            table.extend_from_slice(REPORT_ONLY);
        }
        for (name, unit) in table {
            match self.value(name) {
                Some(v) if !self.not_applicable.contains(&name) => {
                    out.push(format!("metric {name} {v} {unit}"))
                }
                _ => out.push(format!("metric {name} n/a {unit}")),
            }
        }
        if let Some(l) = &self.ledger {
            out.extend(l.render());
        }
        for f in &self.failures {
            out.push(format!("CHECK FAILED: {f}"));
        }
        out
    }

    /// The final JSON line: exactly `correct`, `attempted`, `failed`,
    /// `metrics` (the required table only).
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Outcome::required(trace)
            .iter()
            .filter_map(|(name, unit)| {
                self.value(name).filter(|v| v.is_finite()).map(|v| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_num(v)
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form,
/// with a decimal point so integers stay floats).
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_metric_fails_validation() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END.iter().skip(1) {
            o.set(name, 1.0);
        }
        o.validate(false);
        assert_eq!(o.failures, vec!["metric records_per_s missing".to_string()]);
        assert!(o.result_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn result_line_has_exactly_the_required_metrics() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 2.5);
        }
        o.set("failed_permille", 0.0);
        o.validate(false);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}"));
        assert!(!line.contains("failed_permille"));
    }
}
