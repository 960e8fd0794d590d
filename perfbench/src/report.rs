//! The metric catalogue, the per-run report, and the `BENCHMARK.json`
//! manifest rendered from the catalogue.

use astdme_json::{field, number, quote};

/// One metric of the catalogue.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Workloads, with the reason each is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "large_intermingled",
        "n=16000, 8 intermingled groups, AST-DME then EXT-BST on one thread: the merge engine and planner dominate; fleet, cache and ECO do not run",
    ),
    (
        "paper_tables",
        "Tables I+II portfolio (r1-r5 x clustered/intermingled x k=4..10 plus EXT-BST) through route_batch: per-instance overhead, scheduling and the paper's wire ratios",
    ),
    (
        "eco_edits",
        "one n=8000 EcoSession fed seeded move/retune/insert/delete batches: replayed merges, embed and audit per flush, full reroutes as the tail",
    ),
    (
        "replicated_stream",
        "6 blocks x 8 copies (half translated, half exact) through route_stream with a fresh SubtreeCache per pass: the only cache and stream load",
    ),
];

/// End-to-end metrics, measured with tracing off on every workload. The
/// timing bounds are the widest allowed because the reference host's CPU
/// speed swings by up to 2x over tens of seconds (see the README). Under
/// those swings a run's latencies fall into a fast and a slow mode, and
/// its median jumps between them from run to run while the mean moves
/// smoothly, so the central latency is a mean. The 90th percentile
/// crossed even the widest bound in two of four ten-run sets, so it is a
/// per-layer figure (`tail.latency_s_p90`), recorded but not gated. The
/// wirelength ratio is deterministic per seed and its bound covers only
/// seed-to-seed spread.
pub const END_TO_END: &[Metric] = &[
    e2e("latency_s_mean", "s", "lower", 0.25),
    e2e("first_result_s", "s", "lower", 0.25),
    e2e("inst_per_s", "1/s", "higher", 0.25),
    e2e("wl_ratio", "ratio", "lower", 0.05),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("pipeline.group_s", "s", "lower"),
    layer("pipeline.forest_s", "s", "lower"),
    layer("pipeline.merge_s", "s", "lower"),
    layer("pipeline.embed_s", "s", "lower"),
    layer("pipeline.repair_s", "s", "lower"),
    layer("pipeline.repair_iters", "count", "lower"),
    layer("pipeline.audit_s", "s", "lower"),
    layer("pipeline.baseline_route_s", "s", "lower"),
    layer("planner.new_s", "s", "lower"),
    layer("planner.plan_s", "s", "lower"),
    layer("planner.apply_s", "s", "lower"),
    layer("planner.rounds", "count", "lower"),
    layer("planner.pairs_per_round", "count", "higher"),
    layer("planner.grid_rounds", "count", "lower"),
    layer("planner.distance_calls", "count", "lower"),
    layer("planner.region_calls", "count", "lower"),
    layer("planner.delay_calls", "count", "lower"),
    layer("engine.merge_s", "s", "lower"),
    layer("engine.merges", "count", "lower"),
    layer("engine.candidates_per_merge", "count", "lower"),
    layer("engine.classes_final", "count", "higher"),
    layer("wire.total_um", "um", "lower"),
    layer("wire.snaking_um", "um", "lower"),
    layer("wire.merge_um", "um", "lower"),
    layer("quality.clustered_wl_ratio", "ratio", "lower"),
    layer("quality.intermingled_wl_ratio", "ratio", "lower"),
    layer("fleet.busy_s", "s", "lower"),
    layer("fleet.idle_s", "s", "lower"),
    layer("fleet.max_queue_wait_s", "s", "lower"),
    layer("fleet.balance", "ratio", "lower"),
    layer("fleet.efficiency", "ratio", "higher"),
    layer("stream.consumer_wait_share", "ratio", "lower"),
    layer("cache.hits", "count", "higher"),
    layer("cache.misses", "count", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("cache.translated_hits", "count", "higher"),
    layer("cache.hit_speedup", "ratio", "higher"),
    layer("eco.dirty_sinks", "count", "lower"),
    layer("eco.adopted_merges", "count", "higher"),
    layer("eco.fresh_merges", "count", "lower"),
    layer("eco.adopt_ratio", "ratio", "higher"),
    layer("eco.replayed_rounds", "count", "higher"),
    layer("eco.planned_rounds", "count", "lower"),
    layer("eco.full_reroutes", "ratio", "lower"),
    layer("eco.session_share", "ratio", "lower"),
    layer("eco.scratch_over_flush", "ratio", "higher"),
    layer("self.pipeline_share", "ratio", "lower"),
    layer("self.drivers_share", "ratio", "lower"),
    layer("self.planner_share", "ratio", "lower"),
    layer("self.engine_share", "ratio", "lower"),
    layer("self.audit_share", "ratio", "lower"),
    layer("self.fleet_share", "ratio", "lower"),
    layer("self.stream_share", "ratio", "lower"),
    layer("self.eco_share", "ratio", "lower"),
    layer("self.bench_share", "ratio", "lower"),
    layer("tail.latency_s_p90", "s", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// Seconds each run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 25;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
        .unit
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, described.
    pub wrong: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records a correctness check; a failed one makes the run wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.wrong.len() < 20 {
                self.wrong.push(msg);
            }
        }
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// `name = value unit (note)`, the human form of a figure.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, extra: &str) {
        let tail = if extra.is_empty() {
            String::new()
        } else {
            format!("  ({extra})")
        };
        self.lines
            .push(format!("  {name:<30} {value:>14.6} {unit}{tail}"));
    }

    /// The result line: every catalogue metric of the run's kind. A layer
    /// that did not run reads 0; an end-to-end metric is missing only when
    /// a check already failed and the run stopped early.
    pub fn result_json(&self, traced: bool) -> String {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|m| {
                let v = self.get(m.name).unwrap_or_else(|| {
                    assert!(
                        traced || !self.wrong.is_empty(),
                        "end-to-end metric `{}` was not measured",
                        m.name
                    );
                    0.0
                });
                field(
                    m.name,
                    format!(
                        "{{{}, {}}}",
                        field("value", number(v)),
                        field("unit", quote(m.unit))
                    ),
                )
            })
            .collect();
        format!(
            "{{{}, {}, {}, {}}}",
            field(
                "correct",
                if self.wrong.is_empty() {
                    "true"
                } else {
                    "false"
                }
            ),
            field("attempted", self.attempted.to_string()),
            field("failed", self.failed.to_string()),
            field("metrics", format!("{{{}}}", metrics.join(", "))),
        )
    }
}

/// `BENCHMARK.json`, rendered from the catalogue.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| {
            format!(
                "    {{{}, {}}}",
                field("name", quote(n)),
                field("why", quote(why))
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{{}, {}, {}, {}}}",
                field("name", quote(m.name)),
                field("unit", quote(m.unit)),
                field("better", quote(m.better)),
                field("bound", number(m.bound)),
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{{}, {}, {}}}",
                field("name", quote(m.name)),
                field("unit", quote(m.unit)),
                field("better", quote(m.better)),
            )
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "-q",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ]
    .map(quote)
    .join(", ");
    format!(
        "{{\n  {},\n  {},\n  {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        field("command", format!("[{command}]")),
        field("paths", "[\"perfbench\"]"),
        field("run_seconds", RUN_SECONDS.to_string()),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_and_names_are_unique() {
        let doc = astdme_json::parse(&manifest()).expect("manifest is JSON");
        assert!(matches!(doc, astdme_json::Value::Obj(_)));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.attempt(true);
        let line = r.result_json(false);
        assert!(!line.contains('\n'));
        astdme_json::parse(&line).expect("result is JSON");
    }
}
