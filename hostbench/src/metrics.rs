//! The metric names this benchmark prints, checked against the set
//! `BENCHMARK.json` declares, and the one-line JSON result.

use std::collections::BTreeMap;

use haft::faults::Outcome;
use haft::trace::json::Json;

/// The declaration file, embedded at build time so the printed set can
/// be checked against it on every run.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "work_per_s", "sim_overhead_x"];

/// Per-layer metrics of the traced run, except the per-outcome families
/// (see [`per_layer_names`]).
const PER_LAYER: [&str; 34] = [
    "passes.harden_ms",
    "passes.insts_added",
    "vm.runs",
    "vm.run_us.p50",
    "vm.run_us.tail",
    "vm.run_us.tail_pct",
    "vm.ns_per_inst",
    "vm.fuse.total",
    "vm.decode_us",
    "vm.decode_share",
    "htm.commits",
    "htm.aborts",
    "htm.fallbacks",
    "htm.commit_ratio",
    "faults.golden_ms",
    "faults.campaign_ms",
    "faults.prefix_share",
    "faults.parallel_eff",
    "faults.classify_us",
    "faults.sdc_pct",
    "serve.batches",
    "serve.mean_batch",
    "serve.batch_us.p50",
    "serve.batch_us.tail",
    "serve.batch_us.tail_pct",
    "serve.patch_us",
    "serve.classify_us",
    "serve.des_self_share",
    "serve.sim_p99_us",
    "runtime.batches",
    "runtime.mean_batch",
    "runtime.steals",
    "runtime.busy_share",
    "trace.overhead_x",
];

/// Every per-layer metric name: [`PER_LAYER`] plus, per Table 1
/// outcome, the mean host time of a fault run ending that way
/// (`faults.run_ms.<label>`) and that outcome's share of fault-run time
/// (`faults.time_share.<label>`).
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = PER_LAYER.iter().map(|s| s.to_string()).collect();
    for family in ["faults.run_ms", "faults.time_share"] {
        names.extend(Outcome::ALL.iter().map(|o| format!("{family}.{}", o.label())));
    }
    names
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(DECLARED).expect("BENCHMARK.json is valid JSON");
    let rows = doc.get(section).and_then(Json::as_arr).expect("section is an array");
    rows.iter()
        .map(|r| {
            let field =
                |k: &str| r.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Metric values of one run. End-to-end values start absent and must
/// all be set; per-layer values start at 0, which is their true value on
/// a workload that never enters that layer.
pub struct Metrics {
    section: &'static str,
    values: BTreeMap<String, f64>,
    problems: Vec<String>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Metrics { section: "end_to_end", values: BTreeMap::new(), problems: Vec::new() }
    }

    pub fn per_layer() -> Self {
        let values = per_layer_names().into_iter().map(|n| (n, 0.0)).collect();
        Metrics { section: "per_layer", values, problems: Vec::new() }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let known = match self.section {
            "end_to_end" => END_TO_END.contains(&name.as_str()),
            _ => self.values.contains_key(&name),
        };
        if !known {
            self.problems.push(format!("undeclared metric `{name}`"));
        } else if !value.is_finite() {
            self.problems.push(format!("metric `{name}` is not finite: {value}"));
        } else {
            self.values.insert(name, value);
        }
    }

    /// Problems with the printed set: undeclared or non-finite values,
    /// and declared metrics left unset. Each one makes the run incorrect.
    pub fn problems(&self) -> Vec<String> {
        let mut out = self.problems.clone();
        for (name, _) in declared(self.section) {
            if !self.values.contains_key(&name) {
                out.push(format!("declared metric `{name}` was not measured"));
            }
        }
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// with each metric's unit as `BENCHMARK.json` declares it.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let units: BTreeMap<String, String> = declared(self.section).into_iter().collect();
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, v)| {
                let unit = units.get(name).map(String::as_str).unwrap_or("");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<String> {
        let mut v: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
        v.sort();
        v
    }

    #[test]
    fn printed_names_match_the_declaration() {
        let mut e2e: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        e2e.sort();
        assert_eq!(e2e, names("end_to_end"));
        let mut per_layer = per_layer_names();
        per_layer.sort();
        let before = per_layer.len();
        per_layer.dedup();
        assert_eq!(per_layer.len(), before, "names are unique");
        assert_eq!(per_layer, names("per_layer"));
    }

    #[test]
    fn result_line_is_one_json_object_with_every_declared_metric() {
        let mut m = Metrics::end_to_end();
        for (i, name) in END_TO_END.iter().enumerate() {
            m.set(*name, 1.5 + i as f64);
        }
        assert!(m.problems().is_empty(), "{:?}", m.problems());
        let line = m.result_line(true, 3, 0);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("setup_s").unwrap().get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(metrics.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(3.0));

        let mut partial = Metrics::end_to_end();
        partial.set("setup_s", 1.0);
        partial.set("nope", 1.0);
        partial.set("work_per_s", f64::NAN);
        let problems = partial.problems();
        assert!(problems.iter().any(|p| p.contains("`nope`")));
        assert!(problems.iter().any(|p| p.contains("not finite")));
        assert!(problems.iter().any(|p| p.contains("`peak_rss_mb` was not measured")));

        let mut layers = Metrics::per_layer();
        assert!(layers.problems().is_empty());
        layers.set("vm.runs", 4.0);
        assert!(layers.iter().any(|(k, v)| k == "vm.runs" && v == 4.0));
        layers.set("vm.nope", 1.0);
        assert_eq!(layers.problems().len(), 1);
    }
}
