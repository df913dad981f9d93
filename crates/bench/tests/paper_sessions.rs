//! The traced sessions are the artifact's sessions. Each figure and
//! `exp --id <id> --trace/--profile` run the same session-table entries,
//! so summarizing a traced log must give back the numbers the artifact
//! reports for that session, and profiling must not change an outcome.

use abr_bench::experiments::{profiled_sessions, run_jobs, traced_sessions};
use serde::Value;

/// Every experiment with a session table, in DESIGN.md §7 order.
const TRACEABLE: [&str; 12] = [
    "f2a", "f2b", "f3a", "f3b", "f3x", "f3fix", "f4a", "f4b", "f5a", "f5b", "bp1", "bp5",
];

/// For each traceable id, the summary of every `traced_sessions` log
/// matches the stalls and score the artifact reports for it: the
/// `session` object of a one-session figure, or `rows[i]` of a sweep.
#[test]
fn traced_sessions_summarize_to_the_artifact() {
    for id in TRACEABLE {
        let json = run_jobs(id, 1).expect("known experiment").json;
        let outcomes = traced_sessions(id, 1).expect("experiment is traceable");
        let reported: Vec<&Value> = match json.get("rows") {
            Some(rows) => rows.as_array().expect("rows is an array").iter().collect(),
            None => vec![&json["session"]],
        };
        assert_eq!(
            reported.len(),
            outcomes.len(),
            "{id}: one artifact row per traced session"
        );
        for (row, outcome) in reported.into_iter().zip(&outcomes) {
            let q = abr_qoe::summarize(&outcome.log);
            let label = &outcome.label;
            assert_eq!(
                row["stalls"].as_u64(),
                Some(q.stall_count as u64),
                "{label}: stalls"
            );
            assert_eq!(row["score"].as_f64(), Some(q.score), "{label}: score");
        }
    }
}

/// A profiled sweep hands back the traced sweep's outcomes unchanged, at
/// another worker count: same labels, logs, event streams and metrics.
#[test]
fn profiled_f3fix_equals_traced_f3fix() {
    let traced = traced_sessions("f3fix", 1).expect("f3fix is traceable");
    let (profiled, profile) = profiled_sessions("f3fix", 2).expect("f3fix is traceable");
    assert_eq!(traced.len(), 3);
    assert_eq!(profiled.len(), traced.len());
    for (t, p) in traced.iter().zip(&profiled) {
        assert_eq!(t.label, p.label);
        assert_eq!(t.log, p.log, "{}: log", t.label);
        assert_eq!(t.events, p.events, "{}: events", t.label);
        assert_eq!(t.metrics.counters, p.metrics.counters, "{}", t.label);
        assert_eq!(t.metrics.gauges, p.metrics.gauges, "{}", t.label);
        assert_eq!(t.metrics.histograms, p.metrics.histograms, "{}", t.label);
    }
    assert_eq!(profile.sessions, 3);
    assert!(!profile.spans.roots.is_empty(), "profiler recorded nothing");
}
