//! Trace a session: re-run the Fig 4(b) Shaka session with the
//! observability layer attached, write the event stream to
//! `results/f4b.trace.jsonl`, and print the busiest metrics.
//!
//! ```sh
//! cargo run --example trace_session
//! ```
//!
//! The session is the Fig 4(b) entry of the experiments' session table,
//! taken through `abr_bench::experiments::traced_sessions` — the same
//! session the figure summarizes and `exp --id f4b --trace
//! results/f4b.trace.jsonl` writes, byte for byte: the checked-in golden
//! that `tests/golden_artifacts.rs` pins. Observation is *deterministic*
//! (`ObsHandle::deterministic_recording`): `wall_ns` stamps are 0 and
//! host-clock histograms are off, so the trace is a pure function of the
//! session (DESIGN.md §10). Wire `ObsHandle::recording()` into a
//! `Session` by hand to profile with real wall-clock stamps instead.
//!
//! The emitted JSONL is lossless: `SessionLog::from_trace` rebuilds the
//! full session history from it (the `trace_roundtrip` integration test
//! in `abr-bench` holds that equality). Convert the same events with
//! `obs::export::to_chrome_trace` to open the session in Perfetto.

use abr_bench::experiments::traced_sessions;
use abr_unmuxed::obs::export;
use abr_unmuxed::player::SessionLog;

fn main() {
    // The Fig 4(b) setup: Shaka over H_all, dynamic mean-600 Kbps trace.
    let outcome = traced_sessions("f4b", 1)
        .expect("f4b is traceable")
        .pop()
        .expect("f4b has one session");
    let (log, events) = (&outcome.log, &outcome.events);

    // Export the trace and prove it reconstructs the session exactly.
    let jsonl = export::to_jsonl(events);
    let replayed = SessionLog::from_trace(&export::from_jsonl(&jsonl).expect("parses"))
        .expect("trace reconstructs the session");
    assert_eq!(&replayed, log, "the trace is the session");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/f4b.trace.jsonl", &jsonl).expect("write trace");
    println!(
        "traced {} events over {:.1}s of simulated playback -> results/f4b.trace.jsonl",
        events.len(),
        log.finished_at.as_secs_f64(),
    );
    println!(
        "session: {} stalls, {:.1}s rebuffering (Fig 4b's under- then over-estimation)",
        log.stall_count(),
        log.total_stall().as_secs_f64(),
    );

    // The five busiest metrics, by the registry's own display rows.
    println!("\ntop metrics:");
    for (name, value) in outcome.metrics.rows().into_iter().take(5) {
        println!("  {name:<26} {value}");
    }
}
