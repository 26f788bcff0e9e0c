//! The benchmark's vocabulary: workload names, metric names and units, and
//! the report a run fills in and prints.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a unit
//! test and `--check` hold the two in agreement. Every run prints *every*
//! metric of its list: a metric whose layer is not on the workload's path
//! reads 0 there (a train workload has no `wire.*` time), which is itself
//! the statement "this workload does not exercise that layer".

/// The five workloads, in run order. Why each was chosen is recorded once,
/// in its `workloads/<name>.json`.
pub const WORKLOADS: &[&str] = &[
    "serve_lookup",
    "serve_feedback_mix",
    "train_telemetry_heavy",
    "train_profile_heavy",
    "cli_retrain",
];

/// `(name, unit)` of the end-to-end metrics, printed by an untraced run.
///
/// The metrics are generic over the workload's *operation* — one request
/// frame (serve_*), one `train()` (train_*), one `lorentz train` child
/// (cli_retrain) — because every workload must report every metric:
/// `lat_p50_us` is the issue's `lat_p50_us` / `train_s` / `cli_train_s`,
/// `ops_per_s` its `peak_rps`. No tail percentile is among them: on this
/// shared two-vCPU host none repeats within the largest bound a metric may
/// have (see `lat_tail_us` below).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Serving layers, in the order a request crosses them (traced
    // in-process pass; self time, median per call).
    ("wire.read_frame_ns", "ns"),
    ("wire.parse_request_ns", "ns"),
    ("wire.parse_feedback_ns", "ns"),
    ("json.parse_frame_ns", "ns"),
    ("engine.submit_to_response_ns", "ns"),
    ("pipeline.recommend_ns", "ns"),
    ("store.lookup_ns", "ns"),
    ("lambda.snapshot_lookup_ns", "ns"),
    ("lambda.adjust_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.write_frame_ns", "ns"),
    ("net.residual_us", "us"),
    ("net.client_minus_engine_us", "us"),
    ("engine.reported_p50_ns", "ns"),
    ("engine.reported_p99_ns", "ns"),
    // The write path beside the reads.
    ("wal.append_ns", "ns"),
    ("personalizer.apply_signal_ns", "ns"),
    ("lambda.publish_delta_ns", "ns"),
    ("engine.feedback_roundtrip_ns", "ns"),
    // What `setup_s` of a serve workload is made of.
    ("setup.model_load_ns", "ns"),
    ("setup.wal_replay_ns", "ns"),
    ("setup.engine_start_ns", "ns"),
    // The operation's 90th percentile, the issue's `lat_p99_us` demoted
    // twice and then out of the end-to-end list: between identical runs it
    // spread 0.13-0.37 of its median on `serve_lookup` and 0.27-0.85 on
    // `serve_feedback_mix`, past any bound, so it is reported without one.
    ("lat_tail_us", "us"),
    // The client's view and the generator's own health.
    ("client.lat_p50_us", "us"),
    ("client.lat_p90_us", "us"),
    ("client.lat_p95_us", "us"),
    ("client.lat_p99_us", "us"),
    ("client.lat_max_us", "us"),
    ("client.fb_ack_p50_us", "us"),
    ("client.fb_ack_p99_us", "us"),
    ("gen.late_p90_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.sent", "count"),
    // Program counts: the server's own ledger and metrics snapshot.
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.frame_errors", "count"),
    ("engine.accepted", "count"),
    ("engine.rejected", "count"),
    ("engine.degraded", "count"),
    ("engine.timed_out", "count"),
    ("store.hits", "count"),
    ("store.defaults", "count"),
    ("store.misses", "count"),
    ("store.hit_share", "ratio"),
    ("wal.appends", "count"),
    ("wal.bytes", "count"),
    ("lambda.publishes", "count"),
    ("lambda.delta_keys", "count"),
    ("lambda.compactions", "count"),
    // Which hierarchy level answered the sampled requests.
    ("model.finest_share", "ratio"),
    ("model.coarser_share", "ratio"),
    ("model.default_share", "ratio"),
    // Training stages, in the order train() runs them (traced staged pass).
    ("telemetry.pack_ns", "ns"),
    ("rightsizer.stage1_ns", "ns"),
    ("rightsizer.per_trace_ns", "ns"),
    ("hierarchy.learn_ns", "ns"),
    ("provisioner.hierarchical_fit_ns", "ns"),
    ("ml.te_fit_ns", "ns"),
    ("provisioner.te_gbt_fit_ns", "ns"),
    ("store.publish_ns", "ns"),
    // Program counts: train()'s own stage spans, for cross-checking.
    ("train.stage1.span_ns", "ns"),
    ("train.stage2.span_ns", "ns"),
    ("train.publish.span_ns", "ns"),
    ("train.personalizer.span_ns", "ns"),
    ("train.stage1.records", "count"),
    ("train.publish.entries", "count"),
    ("train.residual_ms", "ms"),
    // The operator's path around the training layers.
    ("cli.fleet_load_ns", "ns"),
    ("cli.model_save_ns", "ns"),
    ("model.json_bytes", "count"),
    ("fleet.json_bytes", "count"),
    ("cli.process_overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Whether `name` is one of the per-layer metrics (tracer spans are named
/// after the metric they feed).
pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|(n, _)| *n == name)
}

/// Where a parsed `BENCHMARK.json` disagrees with the harness: the first
/// list whose `(name, unit)` pairs differ from the tables above, or whose
/// `(name, why)` pairs differ from `workloads` (read from the spec files).
pub fn disagreement_with(
    declared: &serde::Value,
    workloads: &[(String, String)],
) -> Option<String> {
    fn differs(declared: &serde::Value, list: &str, second: &str, want: &[(&str, &str)]) -> bool {
        let field = |m: &serde::Value, f: &str| {
            m.get_field(f)
                .and_then(serde::Value::as_str)
                .map(str::to_owned)
        };
        let listed = declared.get_field(list).and_then(serde::Value::as_seq);
        !listed.is_some_and(|listed| {
            listed.len() == want.len()
                && listed.iter().zip(want).all(|(m, (name, other))| {
                    field(m, "name").as_deref() == Some(*name)
                        && field(m, second).as_deref() == Some(*other)
                })
        })
    }
    let workloads: Vec<(&str, &str)> = workloads
        .iter()
        .map(|(n, w)| (n.as_str(), w.as_str()))
        .collect();
    let lists = [
        ("workloads", "why", workloads.as_slice()),
        ("end_to_end", "unit", END_TO_END),
        ("per_layer", "unit", PER_LAYER),
    ];
    let first = lists
        .iter()
        .find(|(list, second, want)| differs(declared, list, second, want));
    first.map(|(list, _, _)| format!("BENCHMARK.json '{list}' differs from the harness's"))
}

/// A metric, workload or spec name: starts with a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name; anything not set prints as 0.
    values: Vec<(&'static str, f64)>,
    /// Operations attempted / failed over every phase.
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks (oracle, ledger, generator lateness); any entry makes
    /// the run incorrect.
    pub violations: Vec<String>,
}

impl Report {
    /// Records a metric. The name must be declared in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric '{name}' is not declared in metrics.rs"
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Adds one phase's ledger, printing it as a line of the report.
    pub fn phase(&mut self, label: &str, attempted: u64, failed: u64) {
        println!(
            "  phase {label}: attempted {attempted}, succeeded {}, failed {failed}",
            attempted - failed
        );
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn violation(&mut self, what: String) {
        println!("  VIOLATION: {what}");
        self.violations.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The one-line JSON result the driver reads: every metric of the
    /// traced or untraced list, with all the digits measured.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.get(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric of one list by name with its unit.
    pub fn print_table(&self, traced: bool) {
        let table = if traced { PER_LAYER } else { END_TO_END };
        for (name, unit) in table {
            println!("  {name:<34} {:>16.3} {unit}", self.get(name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Value};
    use std::collections::BTreeSet;

    #[test]
    fn names_use_the_metric_charset() {
        assert!(valid_name("wire.read_frame_ns") && valid_name("1x-y_z.9"));
        for bad in ["", ".x", "-x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?} of {name}"
            );
        }
        for name in WORKLOADS {
            assert!(valid_name(name) && seen.insert(*name));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut value = serde_json::parse(&text).unwrap();
        let mut workloads =
            crate::spec::WorkloadSpec::whys(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
                .unwrap();
        assert_eq!(disagreement_with(&value, &workloads), None);
        // A renamed metric is a disagreement.
        if let Value::Map(fields) = &mut value {
            fields.retain(|(k, _)| k != "per_layer");
            fields.push(("per_layer".to_owned(), Value::Seq(Vec::new())));
        }
        assert!(disagreement_with(&value, &workloads)
            .unwrap()
            .contains("per_layer"));
        // So is a reworded reason.
        workloads[0].1.push('!');
        assert!(disagreement_with(&value, &workloads)
            .unwrap()
            .contains("workloads"));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_list() {
        let mut report = Report::default();
        report.set("setup_s", 0.8127);
        report.set("wire.read_frame_ns", 41.0);
        report.phase("x", 10, 0);
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let parsed = serde_json::parse(&report.result_line(traced)).unwrap();
            let keys: Vec<&str> = parsed
                .as_map()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = parsed.get_field("metrics").unwrap().as_map().unwrap();
            assert_eq!(metrics.len(), table.len());
            for ((name, unit), (key, entry)) in table.iter().zip(metrics) {
                assert_eq!(name, key);
                assert_eq!(entry.get_field("unit").unwrap().as_str(), Some(*unit));
                assert!(f64::from_value(entry.get_field("value").unwrap()).is_ok());
            }
        }
        assert!(report
            .result_line(false)
            .contains("\"setup_s\": {\"value\": 0.8127"));
        assert!(report.correct());
        report.violation("ledger open".into());
        assert!(report.result_line(false).starts_with("{\"correct\": false"));
    }
}
