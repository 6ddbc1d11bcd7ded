//! Metric collection, the human-readable table and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics, as listed in `BENCHMARK.json`: the result line
/// of an untraced run carries exactly these.
pub const END_TO_END: [&str; 6] = [
    "mops",
    "p50_us",
    "p99.5_us",
    "bytes_per_op",
    "mn_bytes_per_key",
    "setup_s",
];

/// The per-layer metrics, as listed in `BENCHMARK.json`: the result line of
/// a traced run carries exactly these. Metrics that exist only for some
/// mixes (per-class latencies and host times, the critical-path split of
/// traced gets) are printed in the table only.
pub const PER_LAYER: [&str; 54] = [
    "host_ns_per_op",
    "error_rate",
    "det.traced_matches_untraced",
    "det.second_seed_mops",
    "core.host_ns_per_op",
    "core.retries_per_op",
    "core.filter_refreshes_per_op",
    "core.entry_misses_per_op",
    "core.extended_leaf_reads_per_op",
    "core.phase.SfcProbe.rts_per_op",
    "core.phase.InhtLookup.rts_per_op",
    "core.phase.Traversal.rts_per_op",
    "core.phase.LeafRead.rts_per_op",
    "core.phase.LeafWrite.rts_per_op",
    "core.phase.LockAcquire.rts_per_op",
    "core.phase.Retry.rts_per_op",
    "core.phase.Maintenance.rts_per_op",
    "core.phase.Other.rts_per_op",
    "pipeline.fusion_ratio",
    "pipeline.fused_batches_per_flush",
    "pipeline.stalls_per_op",
    "pipeline.fallbacks_per_op",
    "dm.rts_per_op",
    "dm.doorbells_per_op",
    "dm.reads_per_op",
    "dm.writes_per_op",
    "dm.atomics_per_op",
    "dm.read_bytes_per_op",
    "dm.write_bytes_per_op",
    "dm.mn_queue_ns_per_op",
    "dm.mn_service_ns_per_op",
    "dm.mn_imbalance",
    "dm.verb.read.host_ns",
    "dm.verb.write.host_ns",
    "dm.verb.cas.host_ns",
    "sfc.first_probe_hit_rate",
    "sfc.false_positives_per_op",
    "sfc.bits_per_entry",
    "sfc.occupancy",
    "sfc.rebuilds",
    "sfc.probe.host_ns",
    "sfc.rebuild.host_ms",
    "inht.reads_per_op",
    "inht.stale_retries_per_op",
    "inht.cas_races",
    "inht.splits",
    "inht.hash.host_ns",
    "codec.inner_decode.host_ns",
    "codec.leaf_decode.host_ns",
    "reclaim.retired_bytes_per_op",
    "reclaim.freed_bytes_per_op",
    "reclaim.limbo_bytes",
    "reclaim.scan.host_ns",
    "obs.trace_overhead",
];

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} added twice");
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0.iter().find(|m| m.0 == name).map(|m| (m.1, m.2))
    }

    /// One `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<36} {value:>16.4} {unit}");
        }
        out
    }

    /// The result line: `names` (every one must have been measured) with
    /// the run's verdict and operation counts.
    pub fn result_line(
        &self,
        names: &[&str],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, name) in names.iter().enumerate() {
            let (value, unit) = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    /// The names above and the workloads must be exactly the ones
    /// `BENCHMARK.json` lists, in its order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END)
            .chain(PER_LAYER)
            .collect();
        assert_eq!(listed, expected);
    }
}
