//! The `mc` workload: `run_mc` over the trace corpus × 7 policy arms ×
//! [`SEEDS`] realizations, plus the traced harness that drives the same
//! grid through the program's public parts so each layer can be timed
//! from outside.
//!
//! The harness rebuilds what `abr_bench::mc` keeps private — the arm's
//! policy, the session builder and the per-cell row fold — from public
//! pieces, and every traced pass proves the copy faithful: its per-cell
//! rows must equal the untraced artifact's byte for byte.

use std::rc::Rc;
use std::thread::{self, ThreadId};
use std::time::Instant;

use abr_bench::corpus::ScenarioCorpus;
use abr_bench::mc::{mc_policies, run_mc, McPolicy, McResult};
use abr_bench::runner;
use abr_bench::setup::{dash_policy_over, player_config, run_session_pooled, PlayerKind};
use abr_core::{BestPracticePolicy, CappedPolicy};
use abr_event::time::Duration;
use abr_httpsim::origin::Origin;
use abr_manifest::view::BoundDash;
use abr_media::combo::{combo_bitrate, curated_subset, Combo};
use abr_media::content::{Content, SharedContent};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_obs::ObsHandle;
use abr_player::policy::AbrPolicy;
use abr_player::{Session, SessionLog, SessionScratch};
use abr_qoe::QoeSummary;
use serde_json::{json, Value};

use crate::harness::ns_since;
use crate::probe::{PolicyTally, TimedPolicy};

/// Realizations per sweep: 25 × 7 traces × 7 arms = 1225 sessions.
pub const SEEDS: u64 = 25;

/// Trace length `run_mc` draws its corpus with (checked against the
/// artifact's `trace_secs` on every traced pass).
pub const TRACE_SECS: u64 = 900;

/// Builds the sweep's scenario corpus — the workload's set-up.
#[must_use]
pub fn build_corpus() -> ScenarioCorpus {
    ScenarioCorpus::build_mc(SEEDS, Duration::from_secs(TRACE_SECS))
}

/// One untraced pass.
#[must_use]
pub fn untraced(jobs: usize) -> McResult {
    run_mc(SEEDS, jobs)
}

/// The player configuration an arm runs under.
#[must_use]
pub fn player_kind(arm: McPolicy) -> PlayerKind {
    match arm {
        McPolicy::Kind(kind) => kind,
        McPolicy::Capped(_) => PlayerKind::BestPractice,
    }
}

/// Builds an arm's policy over `content` and its bound DASH view.
#[must_use]
pub fn build_policy(arm: McPolicy, content: &Content, view: &BoundDash) -> Box<dyn AbrPolicy> {
    match arm {
        McPolicy::Kind(kind) => dash_policy_over(kind, content, view),
        McPolicy::Capped(kbps) => {
            let allowed = curated_subset(content.video(), content.audio());
            let inner = Box::new(BestPracticePolicy::from_dash(view, &allowed));
            let pairs: Vec<(Combo, BitsPerSec)> = allowed
                .iter()
                .map(|&c| {
                    let bitrate = combo_bitrate(content.video(), content.audio(), c);
                    (c, bitrate.declared)
                })
                .collect();
            Box::new(CappedPolicy::new(inner, pairs, BitsPerSec::from_kbps(kbps)))
        }
    }
}

/// The session `run_session_pooled` runs, built from public parts so the
/// stepper pass can drive it one event at a time: zero-overhead origin,
/// 20 ms link latency, the kind's player configuration.
#[must_use]
pub fn session(
    content: &SharedContent,
    kind: PlayerKind,
    policy: Box<dyn AbrPolicy>,
    trace: Trace,
) -> Session {
    let origin = Origin::with_overhead(SharedContent::clone(content), Bytes::ZERO);
    let link = Link::with_latency(trace, Duration::from_millis(20));
    let config = player_config(kind, content.chunk_duration());
    Session::new(origin, link, policy, config)
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Realization index.
    pub realization: u64,
    /// Index into the realization's trace corpus.
    pub trace: usize,
    /// Index into [`Grid::arms`].
    pub arm: usize,
}

/// The sweep grid in `run_mc`'s authored order (realization-major, then
/// trace, then arm) and its claim order (MPC cells first).
pub struct Grid {
    /// The policy arms, in column order.
    pub arms: Vec<McPolicy>,
    /// Every cell, in authored order.
    pub cells: Vec<Cell>,
    /// Claim order handed to the runner.
    pub order: Vec<usize>,
}

impl Grid {
    /// The grid over `corpus`.
    #[must_use]
    pub fn new(corpus: &ScenarioCorpus) -> Grid {
        let arms = mc_policies();
        let traces = corpus.trace_names().len();
        let mut cells = Vec::new();
        for realization in 0..corpus.len() as u64 {
            for trace in 0..traces {
                for arm in 0..arms.len() {
                    cells.push(Cell {
                        realization,
                        trace,
                        arm,
                    });
                }
            }
        }
        let heavy = |c: &Cell| matches!(arms[c.arm], McPolicy::Kind(PlayerKind::Mpc));
        let mut order: Vec<usize> = (0..cells.len()).filter(|&i| heavy(&cells[i])).collect();
        order.extend((0..cells.len()).filter(|&i| !heavy(&cells[i])));
        Grid { arms, cells, order }
    }
}

/// One traced cell: where its host time went, split at the calls into
/// each layer, plus its summary and simulated length.
#[derive(Debug)]
pub struct CellTrace {
    /// Worker thread that ran the cell.
    pub worker: ThreadId,
    /// Whole cell, first to last clock read.
    pub busy_ns: u64,
    /// Building the arm's policy (core).
    pub build_ns: u64,
    /// Inside `run_session_pooled` and the scratch reclaim (player,
    /// policy calls included).
    pub session_ns: u64,
    /// Inside `abr_qoe::summarize`.
    pub summarize_ns: u64,
    /// Policy calls, as measured by the wrapper.
    pub tally: PolicyTally,
    /// Simulated session length, µs.
    pub sim_us: u64,
    /// The cell's QoE summary.
    pub summary: QoeSummary,
}

/// One traced pass over the grid on `jobs` workers, each arm's policy
/// wrapped in a [`TimedPolicy`]. Cells come back in grid order.
#[must_use]
pub fn traced(corpus: &ScenarioCorpus, grid: &Grid, jobs: usize) -> Vec<CellTrace> {
    runner::run_indexed_with_hinted(
        grid.cells.len(),
        jobs,
        &grid.order,
        SessionScratch::new,
        |scratch, i| {
            let cell = grid.cells[i];
            let t0 = Instant::now();
            let scenario = corpus.scenario(cell.realization);
            let trace = scenario.traces[cell.trace].1.clone();
            let arm = grid.arms[cell.arm];
            let tally = Rc::new(PolicyTally::default());
            let policy = Box::new(TimedPolicy::new(
                build_policy(arm, &scenario.content, &scenario.dash),
                Rc::clone(&tally),
            ));
            let t1 = Instant::now();
            let log = run_session_pooled(
                &scenario.content,
                player_kind(arm),
                policy,
                trace,
                ObsHandle::disabled(),
                scratch,
            );
            let t2 = Instant::now();
            let summary = abr_qoe::summarize(&log);
            let t3 = Instant::now();
            let sim_us = log.finished_at.as_micros();
            scratch.reclaim(log);
            let t4 = Instant::now();
            let tally = Rc::try_unwrap(tally).expect("the session dropped its policy");
            CellTrace {
                worker: thread::current().id(),
                busy_ns: ns(t0, t4),
                build_ns: ns(t0, t1),
                session_ns: ns(t1, t2) + ns(t3, t4),
                summarize_ns: ns(t2, t3),
                tally,
                sim_us,
                summary,
            }
        },
    )
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// One cell driven through [`abr_player::SessionStepper`]: host time in
/// `next_wake` and in `dispatch_next` (policy calls included), and the
/// events dispatched.
#[derive(Debug)]
pub struct StepCell {
    /// Nanoseconds inside `next_wake`, as measured.
    pub next_wake_ns: u64,
    /// Nanoseconds inside `dispatch_next`, as measured.
    pub dispatch_ns: u64,
    /// Events dispatched.
    pub events: u64,
    /// The cell's QoE summary.
    pub summary: QoeSummary,
}

/// Drives `session` to its end one event at a time, timing each call.
#[must_use]
pub fn step(session: Session) -> (SessionLog, u64, u64, u64) {
    let mut stepper = session.into_stepper();
    let (mut next_wake_ns, mut dispatch_ns, mut events) = (0, 0, 0);
    loop {
        let t0 = Instant::now();
        let wake = stepper.next_wake();
        let t1 = Instant::now();
        next_wake_ns += ns(t0, t1);
        if wake.is_none() {
            break;
        }
        let more = stepper.dispatch_next();
        dispatch_ns += ns_since(t1);
        events += 1;
        if !more {
            break;
        }
    }
    (stepper.finish(), next_wake_ns, dispatch_ns, events)
}

/// One stepper pass over the grid on `jobs` workers.
#[must_use]
pub fn stepper_pass(corpus: &ScenarioCorpus, grid: &Grid, jobs: usize) -> Vec<StepCell> {
    runner::run_indexed_sched(
        grid.cells.len(),
        jobs,
        runner::adaptive_chunk(grid.cells.len(), jobs),
        Some(&grid.order),
        |i| {
            let cell = grid.cells[i];
            let scenario = corpus.scenario(cell.realization);
            let trace = scenario.traces[cell.trace].1.clone();
            let arm = grid.arms[cell.arm];
            let policy = build_policy(arm, &scenario.content, &scenario.dash);
            let session = session(&scenario.content, player_kind(arm), policy, trace);
            let (log, next_wake_ns, dispatch_ns, events) = step(session);
            StepCell {
                next_wake_ns,
                dispatch_ns,
                events,
                summary: abr_qoe::summarize(&log),
            }
        },
    )
}

#[derive(Debug, Clone, Default)]
struct RowStats {
    n: usize,
    score_sum: f64,
    score_min: f64,
    stall_count: usize,
    stall_secs: f64,
    video_kbps_sum: u64,
    incomplete: usize,
}

/// The artifact's per-(trace, arm) rows, folded from per-cell summaries
/// in grid order exactly as `run_mc` folds them.
#[must_use]
pub fn rows<'a>(
    corpus: &ScenarioCorpus,
    grid: &Grid,
    summaries: impl Iterator<Item = &'a QoeSummary>,
) -> Vec<Value> {
    let names = corpus.trace_names();
    let arms = grid.arms.len();
    let mut stats = vec![RowStats::default(); names.len() * arms];
    for (cell, q) in grid.cells.iter().zip(summaries) {
        let s = &mut stats[cell.trace * arms + cell.arm];
        if s.n == 0 || q.score < s.score_min {
            s.score_min = q.score;
        }
        s.n += 1;
        s.score_sum += q.score;
        s.stall_count += q.stall_count;
        s.stall_secs += q.total_stall.as_secs_f64();
        s.video_kbps_sum += q.mean_video_kbps;
        if !q.completed {
            s.incomplete += 1;
        }
    }
    let mut out = Vec::with_capacity(stats.len());
    for (t, name) in names.iter().enumerate() {
        for (a, arm) in grid.arms.iter().enumerate() {
            let s = &stats[t * arms + a];
            out.push(json!({
                "trace": *name,
                "policy": arm.label(),
                "seeds": s.n,
                "mean_score": s.score_sum / s.n as f64,
                "min_score": s.score_min,
                "mean_stalls": s.stall_count as f64 / s.n as f64,
                "mean_stall_s": s.stall_secs / s.n as f64,
                "mean_video_kbps": s.video_kbps_sum / s.n as u64,
                "incomplete": s.incomplete,
            }));
        }
    }
    out
}

/// Checks harness rows against an untraced artifact, row by row, in
/// serialized form.
///
/// # Errors
/// Names the first row that differs.
pub fn check_rows(artifact: &Value, rows: &[Value]) -> Result<(), String> {
    if artifact["trace_secs"].as_u64() != Some(TRACE_SECS) {
        return Err(format!(
            "artifact trace_secs {:?} is not the harness's {TRACE_SECS}",
            artifact["trace_secs"]
        ));
    }
    let want = artifact["rows"]
        .as_array()
        .ok_or("artifact has no rows array")?;
    if want.len() != rows.len() {
        return Err(format!(
            "harness has {} rows, artifact {}",
            rows.len(),
            want.len()
        ));
    }
    for (i, (w, g)) in want.iter().zip(rows).enumerate() {
        let (w, g) = (
            serde_json::to_string(w).expect("row serializes"),
            serde_json::to_string(g).expect("row serializes"),
        );
        if w != g {
            return Err(format!("row {i} differs: artifact {w} vs harness {g}"));
        }
    }
    Ok(())
}
