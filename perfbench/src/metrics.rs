//! The metric catalog and the result line.
//!
//! Every metric this benchmark can print is named here with its unit;
//! `BENCHMARK.json` declares the same set (a test holds the two equal),
//! and a run refuses to print a set that differs from the catalog.

use abr_bench::experiments::all_ids;
use abr_bench::mc::mc_policies;

/// Which table a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Printed by untraced runs (`--trace 0`).
    EndToEnd,
    /// Printed by the traced run (`--trace 1`).
    PerLayer,
}

/// One catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether the value is an exact simulated count that repeats on
    /// every pass and every host (citable by a count-based claim).
    pub exact: bool,
}

fn spec(name: impl Into<String>, unit: &'static str, exact: bool) -> Spec {
    Spec {
        name: name.into(),
        unit,
        exact,
    }
}

/// The lowercase label of an mc policy arm, as used in metric names.
#[must_use]
pub fn arm_label(label: &str) -> String {
    label.to_ascii_lowercase()
}

/// The metrics of one table, in print order.
#[must_use]
pub fn catalog(table: Table) -> Vec<Spec> {
    match table {
        Table::EndToEnd => vec![
            spec("setup_s", "s", false),
            spec("wall_s", "s", false),
            spec("items_per_s", "1/s", false),
            spec("peak_rss_mb", "MB", false),
        ],
        Table::PerLayer => {
            let mut v = vec![
                spec("probe_ns", "ns", false),
                spec("clock_ns", "ns", false),
                spec("trace_overhead.paper", "ratio", false),
                spec("trace_overhead.mc", "ratio", false),
                spec("trace_overhead.fleet", "ratio", false),
                spec("bench.runner.idle_frac.paper", "frac", false),
                spec("bench.runner.imbalance.paper", "ratio", false),
            ];
            v.extend(
                all_ids()
                    .into_iter()
                    .map(|id| spec(format!("bench.experiments.{id}_ms"), "ms", false)),
            );
            v.extend([
                spec("bench.corpus.build_ms", "ms", false),
                spec("core.policy_build_ms", "ms", false),
                spec("core.select_ms", "ms", false),
                spec("core.select_calls", "count", true),
            ]);
            v.extend(mc_policies().into_iter().map(|arm| {
                spec(
                    format!("core.select_ms.{}", arm_label(&arm.label())),
                    "ms",
                    false,
                )
            }));
            v.extend([
                spec("core.on_transfer_ms", "ms", false),
                spec("core.on_transfer_calls", "count", true),
                spec("player.session_self_ms", "ms", false),
                spec("player.events", "count", true),
                spec("player.events_per_s", "1/s", false),
                spec("player.sim_s", "s", true),
                spec("player.next_wake_ms", "ms", false),
                spec("player.dispatch_ms", "ms", false),
                spec("qoe.summarize_ms", "ms", false),
                spec("bench.runner.idle_frac.mc", "frac", false),
                spec("bench.runner.imbalance.mc", "ratio", false),
                spec("bench.mc.busy_ms", "ms", false),
                spec("bench.mc.probe_ms", "ms", false),
                spec("bench.mc.sim_s_per_s", "s/s", false),
                spec("bench.fleet.plan_ms", "ms", false),
                spec("bench.corpus.titles_ms", "ms", false),
                spec("bench.fleet.run_ms", "ms", false),
                spec("bench.fleet.report_ms", "ms", false),
                spec("httpsim.cache.hits", "count", true),
                spec("httpsim.cache.misses", "count", true),
                spec("httpsim.cache.evictions", "count", true),
                spec("httpsim.cache.hit_ratio", "frac", true),
                spec("net.uplink.origin_mb", "MB", true),
                spec("bench.fleet.windows", "count", true),
                spec("bench.fleet.windows_throttled", "count", true),
                spec("bench.fleet.sim_s", "s", true),
                spec("bench.fleet.sim_s_per_s", "s/s", false),
            ]);
            v
        }
    }
}

/// One printed value with the note that goes beside it in the report.
#[derive(Debug, Clone)]
struct Value {
    spec: Spec,
    value: f64,
    note: String,
}

/// The metrics one run produced, checked against the catalog.
#[derive(Debug)]
pub struct Metrics {
    catalog: Vec<Spec>,
    values: Vec<Value>,
}

impl Metrics {
    /// An empty set for `table`.
    #[must_use]
    pub fn new(table: Table) -> Metrics {
        Metrics {
            catalog: catalog(table),
            values: Vec::new(),
        }
    }

    /// Records `name`, with a report note (spread, pass count, base).
    ///
    /// # Panics
    /// If `name` is not in this table's catalog or was already set: the
    /// benchmark prints only declared metrics, each once.
    pub fn put(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let spec = self
            .catalog
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"))
            .clone();
        assert!(
            self.values.iter().all(|v| v.spec.name != name),
            "metric `{name}` set twice"
        );
        self.values.push(Value {
            spec,
            value,
            note: note.into(),
        });
    }

    /// Catalog entries never set, and set values that are not finite.
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .catalog
            .iter()
            .filter(|s| self.values.iter().all(|v| v.spec.name != s.name))
            .map(|s| format!("metric `{}` was not measured", s.name))
            .collect();
        out.extend(
            self.values
                .iter()
                .filter(|v| !v.value.is_finite())
                .map(|v| format!("metric `{}` is not finite: {}", v.spec.name, v.value)),
        );
        out
    }

    /// Human-readable report lines, one per metric, in catalog order.
    #[must_use]
    pub fn report(&self) -> Vec<String> {
        self.catalog
            .iter()
            .filter_map(|s| self.values.iter().find(|v| v.spec.name == s.name))
            .map(|v| {
                let exact = if v.spec.exact { " [exact]" } else { "" };
                format!(
                    "  {:<34} {:>16} {:<6}{exact} {}",
                    v.spec.name,
                    format!("{:.6}", v.value),
                    v.spec.unit,
                    v.note
                )
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value", "unit"}` with every digit.
    #[must_use]
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.spec.name,
                    json_number(v.value),
                    v.spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A finite `f64` in JSON with its shortest round-trip digits; non-finite
/// values (already reported as problems) print as 0 to keep the line
/// valid JSON.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}
