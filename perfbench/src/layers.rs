//! The per-layer metrics of the traced run: every workload reports every
//! one of them (a layer a workload bypasses reads 0 calls and 0 share; its
//! probe times are still taken on the workload's inputs).

use crate::Report;
use std::collections::BTreeMap;

/// Per-layer metrics, in print order, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("system.build_s", "s"),
    ("system.tables_s", "s"),
    ("system.plan_s", "s"),
    ("setup.share", "ratio"),
    ("sumup.call_ms", "ms"),
    ("sumup.calls", "count"),
    ("sumup.share", "ratio"),
    ("basis_cache.hit_rate", "ratio"),
    ("basis_cache.evictions", "count"),
    ("rho.moments_ms", "ms"),
    ("rho.poisson_ms", "ms"),
    ("rho.eval_ms", "ms"),
    ("rho.calls", "count"),
    ("rho.share", "ratio"),
    ("farfield.aggregate_ms", "ms"),
    ("farfield.eval_ms", "ms"),
    ("farfield.share", "ratio"),
    ("h.call_ms", "ms"),
    ("h.calls", "count"),
    ("h.share", "ratio"),
    ("eigen.call_ms", "ms"),
    ("eigen.calls", "count"),
    ("eigen.share", "ratio"),
    ("dm.call_ms", "ms"),
    ("dm.calls", "count"),
    ("dm.share", "ratio"),
    ("gemm.flops", "count"),
    ("gemm.bytes", "B"),
    ("gemm.gflops", "GFLOP/s"),
    ("sternheimer.call_ms", "ms"),
    ("sternheimer.calls", "count"),
    ("sternheimer.share", "ratio"),
    ("mixing.call_ms", "ms"),
    ("mixing.share", "ratio"),
    ("scf.iterations", "count"),
    ("dfpt.iterations", "count"),
    ("par.regions", "count"),
    ("par.inline_regions", "count"),
    ("par.queue_wait_ms", "ms"),
    ("par.speedup", "x"),
    ("comm.calls", "count"),
    ("comm.bytes", "B"),
    ("comm.allreduce_ms", "ms"),
    ("spmd.iter_ms", "ms"),
    ("spmd.points_imbalance", "ratio"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "B"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("resil.restarts", "count"),
    ("serve.parse_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.preemptions", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.p90_s", "s"),
    ("mem.after_build_mb", "MB"),
    ("mem.after_scf_mb", "MB"),
    ("mem.after_dfpt_mb", "MB"),
    ("other.share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Values of the per-layer metrics, filled by a workload's traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "'{name}' is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Append every per-layer metric to `report`; a metric the workload
    /// forgot to set is a bug in the benchmark.
    pub fn emit(&self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            let v = *self
                .0
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric '{name}' was not set"));
            report.metric(name, v, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_serve::json::parse;

    /// The metric lists here and in `BENCHMARK.json` must agree, name for
    /// name and unit for unit.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("per_layer"), own(PER_LAYER));
        assert_eq!(declared("end_to_end"), own(crate::END_TO_END));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
