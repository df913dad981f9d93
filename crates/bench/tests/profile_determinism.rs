//! Profiling never perturbs artifacts (DESIGN.md §13).
//!
//! The span profiler reads the host clock and writes into its own arena;
//! nothing it does may leak into simulation outputs. These tests pin the
//! contract end to end:
//!
//! * `exp mc --profile` produces an [`abr_bench::mc::McResult`] whose
//!   text table and JSON report are **byte-identical** to the unprofiled
//!   sweep, at every `jobs` value.
//! * A single traced session returns identical log, event stream and
//!   metrics snapshot with and without a profiler attached.
//! * The profile itself is useful: it names the hot dispatch/fetch/link
//!   spans and attributes ≥ 95% of measured session wall time to named
//!   spans (the ISSUE acceptance bar).
//! * The span counts pin the stepper's single candidate pass per event:
//!   a stepped session computes as many candidate sets as `Session::run`.

use std::rc::Rc;

use abr_bench::mc::{run_mc, run_mc_profiled};
use abr_bench::setup::{
    dash_policy, drama, run_session_obs, run_session_obs_profiled, session_for, PlayerKind,
};
use abr_core::bestpractice::BestPracticePolicy;
use abr_event::time::Duration;
use abr_net::trace::Trace;
use abr_obs::{ObsHandle, ProfileReport, Profiler};

#[test]
fn mc_sweep_is_byte_identical_with_profiling_on() {
    let plain = run_mc(2, 1);
    for jobs in [1usize, 2, 8] {
        let (profiled, profile) = run_mc_profiled(2, jobs);
        assert_eq!(
            plain.text, profiled.text,
            "mc table changed with --profile at jobs={jobs}"
        );
        assert_eq!(
            serde_json::to_string_pretty(&plain.json).unwrap(),
            serde_json::to_string_pretty(&profiled.json).unwrap(),
            "mc JSON report changed with --profile at jobs={jobs}"
        );
        assert_eq!(plain.sessions, profiled.sessions);
        assert_eq!(profile.sessions, plain.sessions as u64);
    }
}

/// Under chunked claiming the claim stopwatch covers only the per-chunk
/// fetch-add rounds and item execution is timed separately, so the
/// per-worker ledger must stay consistent: every session is claimed by
/// exactly one worker, and a worker's claim + busy time never exceeds
/// its lifetime.
#[test]
fn worker_accounting_holds_under_chunked_claiming() {
    for jobs in [1usize, 2, 8] {
        let (result, profile) = run_mc_profiled(2, jobs);
        let claimed: u64 = profile.workers.iter().map(|w| w.items).sum();
        assert_eq!(
            claimed, result.sessions as u64,
            "workers claimed {claimed} items for {} sessions at jobs={jobs}",
            result.sessions
        );
        for w in &profile.workers {
            assert!(
                w.claim_ns + w.busy_ns <= w.alive_ns,
                "worker {}: claim {}ns + busy {}ns exceeds alive {}ns at jobs={jobs}",
                w.worker,
                w.claim_ns,
                w.busy_ns,
                w.alive_ns
            );
        }
    }
}

#[test]
fn traced_session_is_identical_with_profiler_attached() {
    let content = drama();
    let make_policy = || {
        let view = abr_bench::setup::hls_sub_view(&content, &[0, 1, 2]);
        Box::new(BestPracticePolicy::from_hls(&view))
    };
    let trace = || Trace::fig4b_varying_600k(Duration::from_secs(600));
    let (log_a, events_a, metrics_a) =
        run_session_obs(&content, PlayerKind::BestPractice, make_policy(), trace());
    let profiler = Rc::new(Profiler::new());
    let (log_b, events_b, metrics_b) = run_session_obs_profiled(
        &content,
        PlayerKind::BestPractice,
        make_policy(),
        trace(),
        Some(&profiler),
    );
    assert_eq!(format!("{log_a:?}"), format!("{log_b:?}"));
    assert_eq!(events_a, events_b, "traced event stream diverged");
    assert_eq!(metrics_a.counters, metrics_b.counters);
    assert_eq!(metrics_a.gauges, metrics_b.gauges);
    assert_eq!(metrics_a.histograms, metrics_b.histograms);
    // And the profiler actually saw the session.
    let report = profiler.report();
    assert!(!report.roots.is_empty(), "profiler recorded nothing");
}

#[test]
fn profile_names_hot_spans_and_attributes_wall_time() {
    let (_, profile) = run_mc_profiled(2, 2);
    let flat = profile.spans.flatten();
    let names: Vec<&str> = flat.iter().map(|(_, _, node)| node.name.as_str()).collect();
    for expected in [
        "session.setup",
        "session.run",
        "session.summarize",
        "dispatch.transfer_complete",
        "fetch.round",
        "policy.select",
        "engine.arm_wakes",
        "link.advance_to",
        "link.next_completion",
        "transfer.on_completions",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected} missing from profile (have: {names:?})"
        );
    }
    // Which event class wins a tie shows only here: a different tie order
    // dispatches the same wakes under other class names.
    let dispatched = |class: &str| -> u64 {
        flat.iter()
            .filter(|(_, _, node)| node.name == class)
            .map(|(_, _, node)| node.count)
            .sum()
    };
    for (class, count) in [
        ("dispatch.transfer_complete", 14_700),
        ("dispatch.playback_boundary", 308),
        ("dispatch.buffer_refill", 4_705),
        ("dispatch.seek_due", 0),
        ("dispatch.deadline", 0),
        ("dispatch.playlist_refresh", 0),
    ] {
        assert_eq!(dispatched(class), count, "{class} dispatch count");
    }
    assert!(
        profile.attributed() >= 0.95,
        "named spans attribute only {:.1}% of measured wall time",
        100.0 * profile.attributed()
    );
    let text = profile.text();
    assert!(text.contains("attributed:"));
    assert!(text.contains("hot spans by self time:"));
    let json = profile.json();
    assert_eq!(json["format"], "abr-profile-v1");
    assert!(json["attributed"].as_f64().unwrap() >= 0.95);
}

/// Closed `engine.arm_wakes` spans anywhere in the tree: one per
/// computation of an event's candidates.
fn candidate_passes(report: &ProfileReport) -> u64 {
    report
        .flatten()
        .iter()
        .filter(|(_, _, node)| node.name == "engine.arm_wakes")
        .map(|(_, _, node)| node.count)
        .sum()
}

/// The stepper computes each event's candidates once, as `Session::run`
/// does, although the fleet asks `next_wake` and then `dispatch_next`
/// for every event. For one session per player kind, a profiled stepped
/// run records exactly as many `engine.arm_wakes` spans as a profiled
/// `run`, and the two return byte-identical logs and event streams.
#[test]
fn stepper_computes_candidates_once_per_event() {
    let content = drama();
    for kind in [
        PlayerKind::ExoPlayer,
        PlayerKind::Shaka,
        PlayerKind::DashJs,
        PlayerKind::BestPractice,
        PlayerKind::Bba,
        PlayerKind::Mpc,
    ] {
        let profiled = || {
            let profiler = Rc::new(Profiler::new());
            let (obs, tracer, _) = ObsHandle::deterministic_recording();
            let trace = Trace::fig4b_varying_600k(Duration::from_secs(600));
            let session = session_for(&content, kind, dash_policy(kind, &content), trace)
                .with_obs(obs.with_profiler(Rc::clone(&profiler)));
            (session, tracer, profiler)
        };
        let (session, run_tracer, run_profiler) = profiled();
        let run_log = session.run();
        let (session, step_tracer, step_profiler) = profiled();
        let mut stepper = session.into_stepper();
        while stepper.next_wake().is_some() {
            if !stepper.dispatch_next() {
                break;
            }
        }
        let step_log = stepper.finish();
        assert_eq!(
            format!("{run_log:?}"),
            format!("{step_log:?}"),
            "{kind:?}: stepped log differs from Session::run"
        );
        assert!(
            run_tracer.take() == step_tracer.take(),
            "{kind:?}: stepped event stream differs from Session::run"
        );
        let run_passes = candidate_passes(&run_profiler.report());
        assert!(run_passes > 100, "{kind:?}: only {run_passes} events");
        assert_eq!(
            candidate_passes(&step_profiler.report()),
            run_passes,
            "{kind:?}: the stepper computed candidates more than once per event"
        );
    }
}
