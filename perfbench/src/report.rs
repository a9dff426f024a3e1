//! Metric names, units, and the one-line JSON result.
//!
//! The tables below are the benchmark's vocabulary; `BENCHMARK.json` and
//! `perfbench/layers.json` declare the same names and units, and the smoke
//! test checks all three agree.

use std::collections::BTreeMap;

use crate::util::{json_num, json_str};

/// End-to-end metrics, printed on every workload by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("enc_per_s", "enc/s"),
    ("sessions_per_s", "sessions/s"),
    ("session_p50_us", "us"),
    ("session_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("meta_bytes_per_enc", "B/enc"),
];

/// Per-layer metrics, printed on every workload by a traced run. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traces.gen_s", "s"),
    ("traces.spool_ns_per_enc", "ns/enc"),
    ("emu.handoffs_per_enc", "count/enc"),
    ("emu.thrash_ratio", "count/enc"),
    ("emu.resident_peak", "count"),
    ("dtn.process_request_ns_per_enc", "ns/enc"),
    ("dtn.generate_request_ns_per_enc", "ns/enc"),
    ("dtn.to_send_ns_per_enc", "ns/enc"),
    ("dtn.to_send_calls_per_enc", "count/enc"),
    ("dtn.prepare_outgoing_ns_per_enc", "ns/enc"),
    ("dtn.expire_ns_per_enc", "ns/enc"),
    ("dtn.routing_state_bytes", "B/enc"),
    ("pfr.begin_sync_ns_per_enc", "ns/enc"),
    ("pfr.apply_ns_per_enc", "ns/enc"),
    ("pfr.prepare_ns_per_enc", "ns/enc"),
    ("pfr.useful_ratio", "ratio"),
    ("pfr.knowledge_entries", "count"),
    ("pfr.snapshot_bytes_per_node", "B"),
    ("pfr.snapshot_us_per_node", "us"),
    ("pfr.restore_us_per_node", "us"),
    ("pfr.wire_encode_ns_per_session", "ns/session"),
    ("pfr.wire_decode_ns_per_session", "ns/session"),
    ("recon.ns_per_enc", "ns/enc"),
    ("recon.fallback_ratio", "ratio"),
    ("recon.false_positives_per_exchange", "count"),
    ("recon.full_share", "ratio"),
    ("store.spills_per_enc", "count/enc"),
    ("store.spill_bytes_per_enc", "B/enc"),
    ("store.unspill_us_p50", "us"),
    ("store.spill_file_mib", "MiB"),
    ("transport.wire_bytes_per_session", "B/session"),
    ("net.syscalls_per_session", "count/session"),
    ("net.wakeups_per_session", "count/session"),
    ("net.conn_reuse_ratio", "ratio"),
    ("net.self_us_per_session", "us"),
    ("net.wakeup_latency_us_p99", "us"),
    ("net.backpressure_stalls", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// What one run produced: metric values plus the check counts.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Checked units of work (replays, sessions, epoch inbox checks).
    pub attempted: u64,
    /// Units whose check failed.
    pub failed: u64,
}

impl Report {
    /// Sets a metric; the name must be one of the tables above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records the outcome of one check, printing what failed to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// The result line. `traced` picks the per-layer table;
    /// end-to-end metrics must all be set, per-layer ones default to 0.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect();
        let attempted = self.attempted.max(1);
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.failed,
            metrics.join(", ")
        )
    }
}
