//! Metric names and units, and the one-line JSON result.

use serde_json::Value;

/// End-to-end metrics, reported by the untraced run (`--trace 0`): name and
/// unit. All are host time except where the unit says otherwise.
pub const END_TO_END: [(&str, &str); 5] = [
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("guest_minsn_per_s", "Minsn/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`): name and
/// unit. Times are host time; `vcycles` are simulated.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("hypervisor.record_ms", "ms"),
    ("hypervisor.record_minsn_per_s", "Minsn/s"),
    ("hypervisor.log_bytes_per_kinsn", "B/kinsn"),
    ("hypervisor.network_log_share", "fraction"),
    ("hypervisor.span_seeds", "count"),
    ("hypervisor.alarms_logged", "count"),
    ("machine.block_hit_ratio", "fraction"),
    ("machine.block_builds", "count"),
    ("machine.block_flushes", "count"),
    ("machine.shared_imports", "count"),
    ("machine.trace_hits", "count"),
    ("machine.trace_insns", "count"),
    ("machine.trace_insns_per_hit", "insn/hit"),
    ("machine.trace_flushes", "count"),
    ("machine.trace_fallbacks", "count"),
    ("machine.digest_us", "us"),
    ("machine.snapshot_us", "us"),
    ("log.frame_encode_ms", "ms"),
    ("log.frame_decode_ms", "ms"),
    ("log.segment_encode_ms", "ms"),
    ("log.segment_decode_ms", "ms"),
    ("log.durable_write_ms", "ms"),
    ("log.durable_open_ms", "ms"),
    ("log.frames", "count"),
    ("log.segments_sealed", "count"),
    ("log.compaction_ratio", "ratio"),
    ("replay.cr_serial_ms", "ms"),
    ("replay.cr_minsn_per_s", "Minsn/s"),
    ("replay.span_count", "count"),
    ("replay.span_plan_ms", "ms"),
    ("replay.span_work_ms", "ms"),
    ("replay.span_critical_ms", "ms"),
    ("replay.span_phase_ms", "ms"),
    ("replay.span_assemble_ms", "ms"),
    ("replay.span_work_inflation", "ratio"),
    ("replay.checkpoints_taken", "count"),
    ("replay.checkpoints_live_max", "count"),
    ("replay.ar_cases", "count"),
    ("replay.ar_case_ms_p50", "ms"),
    ("replay.ar_case_ms_max", "ms"),
    ("replay.ar_phase_ms", "ms"),
    ("replay.ar_dismissed_ratio", "fraction"),
    ("safe.pipeline_ms", "ms"),
    ("safe.phase_overlap", "ratio"),
    ("safe.detection_window_vcycles", "vcycles"),
    ("trace.overhead_ratio", "ratio"),
    ("farm.run_ms", "ms"),
    ("farm.solo_sum_ms", "ms"),
    ("farm.pool_efficiency", "fraction"),
    ("farm.speedup_vs_serial", "ratio"),
    ("farm.queue_wait_ms_p50", "ms"),
];

/// The result line: `correct`, `attempted`, `failed`, and each metric with
/// its value and unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            let entry = vec![
                ("value".to_string(), Value::F64(*value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ];
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("result serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True for a name the result format accepts: 1–64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{unit}");
        }
    }

    #[test]
    fn name_charset_is_enforced() {
        assert!(valid_name("replay.span_work_inflation"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_json_round_trips() {
        let line = result_json(true, 120, 0, &[("session_p50_ms", "ms", 133.25), ("setup_s", "s", 0.8127)]);
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).expect("result parses");
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(120));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["session_p50_ms"]["value"].as_f64(), Some(133.25));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(serde_json::to_string(&v).unwrap(), line);
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_emits() {
        let Some(path) = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            return;
        };
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> =
            doc["workloads"].as_array().unwrap().iter().map(|w| w["name"].as_str().unwrap()).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
