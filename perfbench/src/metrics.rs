//! The metric catalogue and the arithmetic from samples and spans to
//! metric values. `BENCHMARK.json` lists the same names (a test keeps
//! the two in step).

use crate::stats::{quantile, ratio, sorted};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, reported by a traced run: `(name, unit)`. A layer
/// a workload's ops never run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minic.busy_ms", "ms"),
    ("minic.kb_per_ms", "KiB/ms"),
    ("minic.insts", "count"),
    ("essa.busy_ms", "ms"),
    ("essa.sigmas", "count"),
    ("core.summaries.busy_ms", "ms"),
    ("core.summaries.solves", "count"),
    ("core.summaries.cache_hit_ratio", "ratio"),
    ("core.summaries.store_hit_ratio", "ratio"),
    ("core.store.refresh_ms", "ms"),
    ("core.store.segments", "count"),
    ("core.constraints.busy_ms", "ms"),
    ("core.solve.busy_ms", "ms"),
    ("core.solve.constraints", "count"),
    ("core.solve.evals_per_constraint", "ratio"),
    ("core.query.calls", "count"),
    ("core.query.ns_per_call", "ns"),
    ("core.query.memo_entries", "count"),
    ("alias.ba.build_ms", "ms"),
    ("alias.cf.build_ms", "ms"),
    ("alias.st.build_ms", "ms"),
    ("alias.pt.build_ms", "ms"),
    ("alias.ba.ns_per_query", "ns"),
    ("alias.lt.ns_per_query", "ns"),
    ("alias.cf.ns_per_query", "ns"),
    ("alias.st.ns_per_query", "ns"),
    ("alias.pt.ns_per_query", "ns"),
    ("alias.ba_lt.ns_per_query", "ns"),
    ("alias.queries", "count"),
    ("alias.render.busy_ms", "ms"),
    ("serve.upload_us", "us"),
    ("serve.no_alias_us", "us"),
    ("serve.lt_us", "us"),
    ("serve.pairs_us", "us"),
    ("serve.eval_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.bytes_per_op", "bytes"),
    ("serve.frames_per_op", "count"),
    ("allocs_per_op", "count"),
    ("trace.ops", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Ops attempted in the measured loop.
    pub attempted: u64,
    /// Ops whose reply failed or whose output check failed.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Latency samples of one measured loop.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Per-op latency, µs, in op order.
    pub latency_us: Vec<f64>,
    /// Per-op latency by command.
    pub by_cmd: BTreeMap<&'static str, Vec<f64>>,
    /// Per-op latency by input (module or command), to compare two
    /// loops over the same mix.
    pub by_input: BTreeMap<usize, Vec<f64>>,
    /// Wall time of the loop, s.
    pub elapsed_s: f64,
    /// Ops that failed.
    pub failed: u64,
    /// Heap allocations made during untraced ops (every thread of the
    /// process, so an in-process daemon's count too).
    pub allocs: u64,
}

impl Samples {
    /// Records one op of command `cmd` on input `input`.
    pub fn push(&mut self, cmd: &'static str, input: usize, us: f64) {
        self.latency_us.push(us);
        self.by_cmd.entry(cmd).or_default().push(us);
        self.by_input.entry(input).or_default().push(us);
    }

    /// Allocations per untraced op.
    pub fn allocs_per_op(&self) -> f64 {
        ratio(self.allocs as f64, self.latency_us.len() as f64)
    }

    /// How much slower `self` ran than `base`, in percent, over the
    /// inputs both saw: the sum of per-input mean latencies of `self` over
    /// that of `base`, so a different mix of inputs does not count.
    pub fn slowdown_pct(&self, base: &Samples) -> f64 {
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let (mut a, mut b) = (0.0, 0.0);
        for (input, v) in &self.by_input {
            if let Some(w) = base.by_input.get(input) {
                a += mean(v);
                b += mean(w);
            }
        }
        100.0 * ratio(a - b, b)
    }

    /// `cmd  n  p50  tail` rows for the run's notes.
    pub fn rows(&self, tail_q: f64) -> Vec<String> {
        self.by_cmd
            .iter()
            .map(|(cmd, v)| {
                let s = sorted(v.clone());
                format!(
                    "  {cmd:<10} n={:<7} p50={:>10.1}us  p{}={:>10.1}us  ({} beyond)",
                    s.len(),
                    quantile(&s, 0.5),
                    (tail_q * 100.0).round(),
                    quantile(&s, tail_q),
                    crate::stats::beyond(s.len(), tail_q)
                )
            })
            .collect()
    }
}

impl Samples {
    /// `input  n  p50` rows, one per input (`names[input]`), slowest
    /// first.
    pub fn input_rows(&self, names: &[String]) -> Vec<String> {
        let mut rows: Vec<(f64, String)> = self
            .by_input
            .iter()
            .map(|(&i, v)| {
                let p50 = quantile(&sorted(v.clone()), 0.5);
                (p50, format!("  {:<28} n={:<5} p50={p50:>10.1}us", names[i], v.len()))
            })
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0));
        rows.into_iter().map(|(_, r)| r).collect()
    }
}

/// The end-to-end metrics of an untraced run: set-up times of every
/// repetition (the median is reported), the loop's samples and the
/// workload's tail quantile.
pub fn end_to_end(setups_s: &[f64], s: &Samples, tail_q: f64, peak_rss_kb: u64) -> Vec<Metric> {
    let lat = sorted(s.latency_us.clone());
    let n = lat.len() as f64;
    let values = [
        quantile(&sorted(setups_s.to_vec()), 0.5),
        ratio(n, s.elapsed_s),
        quantile(&lat, 0.5),
        quantile(&lat, tail_q),
        peak_rss_kb as f64 / 1024.0,
        1.0 - ratio(s.failed as f64, n),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Sums of per-op counters from the traced run, by name.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The sum for `name` (0 if never added).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Spans of the traced loop only.
    pub tracer: &'a Tracer,
    /// Counters of the traced loop.
    pub counters: &'a Counters,
    /// Traced ops.
    pub ops: u64,
    /// Round trips of the traced loop by command (daemon workloads).
    pub by_cmd: &'a BTreeMap<&'static str, Vec<f64>>,
    /// Op wall time of the traced loop over the untraced one, in percent
    /// ([`Samples::slowdown_pct`]).
    pub overhead_pct: f64,
    /// Allocations per op in the untraced half of the run.
    pub allocs_per_op: f64,
}

/// The per-layer metrics, in catalogue order. Span names are the layer
/// names; `op` is the root span of an in-process op (its self time is
/// what no layer accounts for), and `serve.*` spans are daemon round
/// trips (their self time is the serve layer: framing, socket and
/// dispatch).
pub fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let self_ns = x.tracer.self_time_by_name();
    let c = x.counters;
    let ops = x.ops.max(1) as f64;
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let ms_per_op = |name: &str| ns(name) / ops / 1e6;
    let per_op = |name: &str| c.get(name) / ops;
    let queries = c.get("alias.queries");
    let per_query = |span: &str| ratio(ns(span), queries);
    let median_us =
        |cmd: &str| x.by_cmd.get(cmd).map_or(0.0, |v| quantile(&sorted(v.clone()), 0.5));
    let serve_self = self_ns
        .iter()
        .filter(|(k, _)| k.starts_with("serve."))
        .fold(0.0, |acc, (_, &v)| acc + v as f64);
    let root_total = x
        .tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .fold(0.0, |acc, s| acc + (s.end - s.start) as f64);
    let cache_total = c.get("cache.hits") + c.get("cache.misses") + c.get("cache.invalidated");
    let store_total = c.get("store.hits") + c.get("store.misses");
    let values: BTreeMap<&str, f64> = [
        ("minic.busy_ms", ms_per_op("minic")),
        ("minic.kb_per_ms", ratio(c.get("minic.bytes") / 1024.0, ns("minic") / 1e6)),
        ("minic.insts", per_op("minic.insts")),
        ("essa.busy_ms", ms_per_op("essa")),
        ("essa.sigmas", per_op("essa.sigmas")),
        ("core.summaries.busy_ms", ms_per_op("core.summaries")),
        ("core.summaries.solves", per_op("summaries.solves")),
        ("core.summaries.cache_hit_ratio", ratio(c.get("cache.hits"), cache_total)),
        ("core.summaries.store_hit_ratio", ratio(c.get("store.hits"), store_total)),
        ("core.store.refresh_ms", ms_per_op("core.store")),
        ("core.store.segments", c.get("store.segments")),
        ("core.constraints.busy_ms", ms_per_op("core.engine")),
        ("core.solve.busy_ms", ms_per_op("core.solve")),
        ("core.solve.constraints", per_op("solve.constraints")),
        ("core.solve.evals_per_constraint", ratio(c.get("solve.pops"), c.get("solve.constraints"))),
        ("core.query.calls", per_op("query.calls")),
        ("core.query.ns_per_call", ratio(c.get("query.ns"), c.get("query.timed_calls"))),
        ("core.query.memo_entries", ratio(c.get("query.memo"), c.get("query.memo_samples"))),
        ("alias.ba.build_ms", ms_per_op("alias.ba.build")),
        ("alias.cf.build_ms", ms_per_op("alias.cf.build")),
        ("alias.st.build_ms", ms_per_op("alias.st.build")),
        ("alias.pt.build_ms", ms_per_op("alias.pt.build")),
        ("alias.ba.ns_per_query", per_query("alias.ba.query")),
        ("alias.lt.ns_per_query", per_query("alias.lt.query")),
        ("alias.cf.ns_per_query", per_query("alias.cf.query")),
        ("alias.st.ns_per_query", per_query("alias.st.query")),
        ("alias.pt.ns_per_query", per_query("alias.pt.query")),
        ("alias.ba_lt.ns_per_query", per_query("alias.ba_lt.query")),
        ("alias.queries", per_op("alias.queries")),
        ("alias.render.busy_ms", ms_per_op("alias.render")),
        ("serve.upload_us", median_us("upload")),
        ("serve.no_alias_us", median_us("no-alias")),
        ("serve.lt_us", median_us("lt")),
        ("serve.pairs_us", median_us("pairs")),
        ("serve.eval_us", median_us("eval")),
        ("serve.overhead_us", serve_self / ops / 1e3),
        ("serve.bytes_per_op", per_op("serve.bytes")),
        ("serve.frames_per_op", per_op("serve.frames")),
        ("allocs_per_op", x.allocs_per_op),
        ("trace.ops", x.ops as f64),
        ("trace.coverage_pct", 100.0 * (1.0 - ratio(ns("op"), root_total))),
        ("trace.overhead_pct", x.overhead_pct),
    ]
    .into_iter()
    .collect();
    PER_LAYER.iter().map(|&(name, unit)| Metric { name, value: values[name], unit }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = RunOutput {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "p50_us", value: 1.25, unit: "us" }],
            notes: vec![],
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
        let failed = RunOutput { failed: 1, ..out };
        assert!(failed.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn end_to_end_reports_every_metric_in_order() {
        let s = Samples {
            latency_us: vec![10.0, 20.0, 30.0, 40.0],
            elapsed_s: 2.0,
            failed: 1,
            ..Samples::default()
        };
        let m = end_to_end(&[3.0, 1.0, 2.0], &s, 0.5, 2048);
        let names: Vec<&str> = m.iter().map(|m| m.name).collect();
        let catalogue: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, catalogue);
        let v: Vec<f64> = m.iter().map(|m| m.value).collect();
        assert_eq!(v, vec![2.0, 2.0, 25.0, 25.0, 2.0, 0.75]);
    }
}
