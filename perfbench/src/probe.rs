//! The traced run's probes: a forwarding timer around the policy layer
//! and the start-up calibration of what a probe itself costs.
//!
//! Every per-layer time the traced run reports is corrected by the
//! calibrated cost, so a layer's number is never a share of a wall the
//! probes inflated.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use abr_event::time::{Duration, Instant as SimInstant};
use abr_media::track::{MediaType, TrackId};
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, FixedPolicy, SelectionContext, TransferRecord};

/// Host time and call counts one session spent inside its policy.
#[derive(Debug, Default)]
pub struct PolicyTally {
    /// Nanoseconds inside `select`, as measured (uncorrected).
    pub select_ns: Cell<u64>,
    /// Calls to `select`.
    pub select_calls: Cell<u64>,
    /// Nanoseconds inside `on_transfer`, as measured (uncorrected).
    pub on_transfer_ns: Cell<u64>,
    /// Calls to `on_transfer`.
    pub on_transfer_calls: Cell<u64>,
}

impl PolicyTally {
    /// Calls into the policy of either kind.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.select_calls.get() + self.on_transfer_calls.get()
    }
}

fn add(cell: &Cell<u64>, since: Instant) {
    cell.set(cell.get() + since.elapsed().as_nanos() as u64);
}

/// Forwards every [`AbrPolicy`] call to `inner`, timing `select` and
/// `on_transfer` into a shared [`PolicyTally`]. Decisions, names and
/// estimates are the inner policy's, so a session's log is the same with
/// or without the wrapper (the neutrality test holds this).
pub struct TimedPolicy {
    inner: Box<dyn AbrPolicy>,
    tally: Rc<PolicyTally>,
}

impl TimedPolicy {
    /// Wraps `inner`, charging its time to `tally`.
    #[must_use]
    pub fn new(inner: Box<dyn AbrPolicy>, tally: Rc<PolicyTally>) -> TimedPolicy {
        TimedPolicy { inner, tally }
    }
}

impl AbrPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        let t0 = Instant::now();
        self.inner.on_transfer(record);
        add(&self.tally.on_transfer_ns, t0);
        let calls = &self.tally.on_transfer_calls;
        calls.set(calls.get() + 1);
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        let t0 = Instant::now();
        let track = self.inner.select(ctx);
        add(&self.tally.select_ns, t0);
        let calls = &self.tally.select_calls;
        calls.set(calls.get() + 1);
        track
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.inner.debug_estimate()
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.inner.set_obs(obs);
    }
}

/// What one probe costs on this host.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Measured length of an empty span (two back-to-back clock reads):
    /// the bias inside every timed interval.
    pub clock_ns: f64,
    /// Extra host time one wrapped policy call costs over a bare call:
    /// the whole probe, inside and outside its own interval.
    pub probe_ns: f64,
}

const CALLS: u32 = 100_000;
const ROUNDS: usize = 9;

fn probe_context() -> SelectionContext {
    SelectionContext {
        now: SimInstant::ZERO,
        media: MediaType::Video,
        chunk: 0,
        audio_level: Duration::ZERO,
        video_level: Duration::ZERO,
        chunk_duration: Duration::from_secs(4),
        current_audio: None,
        current_video: None,
        playing: false,
    }
}

fn select_loop_ns(policy: &mut dyn AbrPolicy, ctx: &SelectionContext) -> f64 {
    let t0 = Instant::now();
    for _ in 0..CALLS {
        black_box(policy.select(black_box(ctx)));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// Measures the clock-read and wrapper costs, each as the median of
/// several rounds of many calls against a policy that does no work.
#[must_use]
pub fn calibrate() -> Calibration {
    let ctx = probe_context();
    let fixed = || Box::new(FixedPolicy { video: 0, audio: 0 });
    let mut bare: Box<dyn AbrPolicy> = fixed();
    let mut wrapped: Box<dyn AbrPolicy> =
        Box::new(TimedPolicy::new(fixed(), Rc::new(PolicyTally::default())));
    let mut probe = Vec::with_capacity(ROUNDS);
    let mut clock = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let b = select_loop_ns(bare.as_mut(), &ctx);
        let w = select_loop_ns(wrapped.as_mut(), &ctx);
        probe.push(w - b);
        let mut span_ns = 0u128;
        for _ in 0..CALLS {
            let a = Instant::now();
            span_ns += black_box(Instant::now()).duration_since(a).as_nanos();
        }
        clock.push(span_ns as f64 / f64::from(CALLS));
    }
    Calibration {
        clock_ns: crate::stats::median(&clock).max(0.0),
        probe_ns: crate::stats::median(&probe).max(0.0),
    }
}
