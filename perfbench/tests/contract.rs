//! The benchmark's own contract: its probes do not change what they
//! measure, and it prints only metrics `BENCHMARK.json` declares.

use std::rc::Rc;

use abr_bench::corpus::ScenarioCorpus;
use abr_bench::setup::run_session;
use abr_event::time::Duration;
use perfbench::mc::{self, Grid};
use perfbench::metrics::{catalog, Table};
use perfbench::probe::{PolicyTally, TimedPolicy};

#[test]
fn timing_wrapper_and_stepper_are_observationally_neutral() {
    let corpus = ScenarioCorpus::build_mc(1, Duration::from_secs(mc::TRACE_SECS));
    let grid = Grid::new(&corpus);
    assert_eq!(grid.cells.len(), 49, "7 traces x 7 arms on one realization");
    for cell in &grid.cells {
        let scenario = corpus.scenario(cell.realization);
        let (content, view) = (&scenario.content, &scenario.dash);
        let trace = || scenario.traces[cell.trace].1.clone();
        let arm = grid.arms[cell.arm];
        let kind = mc::player_kind(arm);
        let policy = || mc::build_policy(arm, content, view);

        let bare = run_session(content, kind, policy(), trace());
        let tally = Rc::new(PolicyTally::default());
        let timed = Box::new(TimedPolicy::new(policy(), Rc::clone(&tally)));
        let wrapped = run_session(content, kind, timed, trace());
        let (stepped, _, _, events) = mc::step(mc::session(content, kind, policy(), trace()));

        assert_eq!(wrapped, bare, "timed policy changed the log of {cell:?}");
        assert_eq!(stepped, bare, "stepper pass changed the log of {cell:?}");
        assert!(
            tally.select_calls.get() > 0,
            "no select calls timed in {cell:?}"
        );
        assert!(events > 0, "no events dispatched in {cell:?}");
    }
}

fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let serde_json::Value::Object(root) = json else {
        panic!("BENCHMARK.json is not an object");
    };
    root[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m[f].as_str()
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_printed_metric_is_declared_with_its_unit() {
    for (table, key) in [
        (Table::EndToEnd, "end_to_end"),
        (Table::PerLayer, "per_layer"),
    ] {
        let printed: Vec<(String, String)> = catalog(table)
            .into_iter()
            .map(|s| (s.name, s.unit.to_string()))
            .collect();
        assert_eq!(printed, declared(key), "catalog vs BENCHMARK.json `{key}`");
    }
}
