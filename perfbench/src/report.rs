//! The metric tables `BENCHMARK.json` declares, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.  A
/// layer the workload never reaches reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.request_us_p50", "us"),
    ("http.request_us_p99", "us"),
    ("http.front_end_share", "frac"),
    ("http.metrics_read_us_p50", "us"),
    ("proto.parse_us_p50", "us"),
    ("proto.share", "frac"),
    ("service.submit_us_p50", "us"),
    ("service.wait_us_p50", "us"),
    ("service.queue_share", "frac"),
    ("service.peak_depth", "count"),
    ("service.admit_ratio", "frac"),
    ("service.rejected", "count"),
    ("engine.classify.us_p50", "us"),
    ("engine.classify.share", "frac"),
    ("engine.estimate.us_p50", "us"),
    ("engine.estimate.share", "frac"),
    ("engine.simulate_uni.us_p50", "us"),
    ("engine.simulate_uni.share", "frac"),
    ("engine.simulate_multi.us_p50", "us"),
    ("engine.simulate_multi.share", "frac"),
    ("engine.simulate_faulted.us_p50", "us"),
    ("engine.simulate_faulted.share", "frac"),
    ("engine.sweep.us_p50", "us"),
    ("engine.sweep.share", "frac"),
    ("engine.faultsweep.us_p50", "us"),
    ("engine.faultsweep.share", "frac"),
    ("pool.cold_builds", "count"),
    ("fleet.uni_divergent.ns_per_instr", "ns"),
    ("fleet.uni_divergent.share", "frac"),
    ("fleet.uni_divergent.ms_p50", "ms"),
    ("fleet.uni_divergent.ms_p99", "ms"),
    ("fleet.array_lockstep.ns_per_instr", "ns"),
    ("fleet.array_lockstep.share", "frac"),
    ("fleet.array_lockstep.ms_p50", "ms"),
    ("fleet.array_lockstep.ms_p99", "ms"),
    ("fleet.array_faulted.ns_per_instr", "ns"),
    ("fleet.array_faulted.share", "frac"),
    ("fleet.array_faulted.ms_p50", "ms"),
    ("fleet.array_faulted.ms_p99", "ms"),
    ("multi.ns_per_instr", "ns"),
    ("multi.ns_per_cycle", "ns"),
    ("multi.share", "frac"),
    ("multi.ring.ns_per_msg", "ns"),
    ("multi.ring.share", "frac"),
    ("spatial.ns_per_instr", "ns"),
    ("spatial.ns_per_cycle", "ns"),
    ("spatial.share", "frac"),
    ("dataflow.ns_per_instr", "ns"),
    ("dataflow.ns_per_cycle", "ns"),
    ("dataflow.share", "frac"),
    ("fabric.ns_per_cycle", "ns"),
    ("fabric.share", "frac"),
    ("array.ns_per_instr", "ns"),
    ("array.ns_per_cycle", "ns"),
    ("array.share", "frac"),
    ("uni.ns_per_instr", "ns"),
    ("uni.share", "frac"),
    ("fault.resilient.ns_per_cycle", "ns"),
    ("fault.resilient.share", "frac"),
    ("fault.faults_per_instance", "count"),
    ("fault.completed_frac", "frac"),
    ("host.oncpu_frac", "frac"),
    ("host.runqueue_frac", "frac"),
    ("host.steal_frac", "frac"),
    ("host.calib_us_start", "us"),
    ("host.calib_us_end", "us"),
    ("loadgen.lat_p50_ms", "ms"),
    ("loadgen.lat_p99_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.share_sum", "frac"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record one gated op.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line: every metric of the selected table, by name and
    /// with its unit.  End-to-end metrics must all be measured and
    /// positive; a per-layer metric the workload did not measure is a
    /// layer it bypasses and reads 0.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        if let Some(unknown) = self
            .metrics
            .keys()
            .find(|k| !table.iter().any(|(name, _)| name == *k))
        {
            return Err(format!("metric {unknown} is not declared"));
        }
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() || (!trace && value <= 0.0) {
                return Err(format!("metric {name} reads {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` declares are exactly the
    /// tables above, in order.
    #[test]
    fn tables_match_the_benchmark_declaration() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{section}\"")).nth(1).expect(section);
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                        rest[..rest.find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn render_fills_bypassed_layers_and_refuses_gaps() {
        let mut r = Report::default();
        r.op(true);
        r.set("multi.share", 0.5);
        let line = r.render(true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"multi.share\": {\"value\": 0.5, \"unit\": \"frac\"}"));
        assert!(line.contains("\"http.request_us_p50\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(r.render(false).is_err());
        r.op(false);
        assert!(r.render(true).unwrap().starts_with("{\"correct\": false"));
    }
}
