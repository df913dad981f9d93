//! Integration: a traced session's event stream, serialized to JSONL and
//! parsed back, reconstructs the directly-recorded `SessionLog` exactly.
//! This is the end-to-end contract the observability layer makes: the
//! trace is not a lossy narration of the session — it *is* the session.

use abr_bench::experiments::{all_ids, traced_sessions};
use abr_bench::runner::SessionOutcome;
use abr_obs::export::{from_jsonl, to_jsonl};
use abr_obs::Event;
use abr_player::SessionLog;

/// The traced outcome of a one-session figure, as `exp --id <id>
/// --trace` produces it.
fn sole_outcome(id: &str) -> SessionOutcome {
    let mut outcomes = traced_sessions(id, 1).expect("traceable experiment");
    assert_eq!(outcomes.len(), 1, "{id} is a one-session figure");
    outcomes.remove(0)
}

/// The Fig 4(b) Shaka session — dynamic trace, stalls, estimate movement —
/// traced, exported, re-parsed, reconstructed, compared field for field.
#[test]
fn traced_f4b_replay_equals_direct_log() {
    let SessionOutcome {
        log: direct,
        events,
        ..
    } = sole_outcome("f4b");

    // The session must actually have exercised the interesting machinery,
    // or the equality below proves nothing.
    assert!(!events.is_empty(), "trace captured no events");
    assert!(direct.stall_count() > 0, "f4b should stall");
    assert!(!direct.transfers.is_empty() && !direct.selections.is_empty());

    let text = to_jsonl(&events);
    let parsed = from_jsonl(&text).expect("jsonl parses back");
    assert_eq!(parsed, events, "jsonl round trip is lossless");

    let replayed = SessionLog::from_trace(&parsed).expect("trace reconstructs");
    assert_eq!(
        replayed, direct,
        "replayed log equals the directly-recorded log"
    );
}

/// The same equality through the `exp --trace` path, for the dash.js
/// session (independent audio/video pipelines — a different event
/// interleaving than Shaka's).
#[test]
fn traced_f5a_replay_equals_its_log() {
    let outcome = sole_outcome("f5a");
    let replayed = SessionLog::from_trace(&from_jsonl(&to_jsonl(&outcome.events)).unwrap())
        .expect("reconstructs");
    assert_eq!(replayed, outcome.log);
}

/// Exactly the pure tables and the experiments that build their sessions
/// outside the session table (or share state across them) have nothing
/// to trace; so has an unknown id. Every other experiment traces.
#[test]
fn untraceable_set_is_pinned() {
    const UNTRACEABLE: [&str; 10] = [
        "t1", "t2", "t3", "f4x", "bp2", "bp3", "bp4", "m1", "m2", "m3",
    ];
    for id in all_ids() {
        let traced = traced_sessions(id, 2);
        if UNTRACEABLE.contains(&id) {
            assert!(traced.is_none(), "{id} should not trace");
        } else {
            assert!(traced.is_some_and(|o| !o.is_empty()), "{id} should trace");
        }
    }
    for id in ["nope", ""] {
        assert!(traced_sessions(id, 1).is_none(), "`{id}` should not trace");
    }
}

/// The metrics registry riding along with the trace carries the link and
/// policy counters the session actually exercised (Fig 4(a): Shaka at a
/// fixed 1 Mbps).
#[test]
fn metrics_ride_along_with_the_trace() {
    let SessionOutcome {
        log,
        events,
        metrics,
        ..
    } = sole_outcome("f4a");
    let completed = *metrics
        .counters
        .get("link.flows_completed")
        .expect("link counter present");
    assert_eq!(
        completed as usize,
        log.transfers.len(),
        "one completed flow per transfer"
    );
    let decisions = events
        .iter()
        .filter(|e| matches!(e.event, Event::PolicyDecision { .. }))
        .count();
    assert!(decisions > 0, "policy decisions traced");
}
