//! Externally-clocked session driving for fleet simulations.
//!
//! [`crate::session::Session::run`] owns its clock: it dispatches its
//! earliest candidate event until the session ends. A fleet interleaves
//! *many* sessions in one global timeline, so it needs the same engine with
//! the clock turned inside out: "when is your next event?" / "dispatch it".
//! [`SessionStepper`] is that inversion — a thin public shell over the
//! engine's `pump` loop, exposing exactly the two operations the fleet
//! driver schedules against its per-domain queue (DESIGN.md §14).
//!
//! The equivalence contract: for any session configuration,
//!
//! ```text
//! let mut s = session.into_stepper();
//! while let Some(_) = s.next_wake() {
//!     if !s.dispatch_next() { break; }
//! }
//! s.finish()
//! ```
//!
//! produces a byte-identical [`SessionLog`] to `session.run()`. `run` is
//! `start(); while pump() {}; finish()` over the same engine, and
//! `next_wake` only reads: it computes the same earliest candidate that
//! the following `dispatch_next` computes again and dispatches.
//! `tests/fleet_determinism.rs` pins this down wholesale.

use crate::engine::Engine;
use crate::log::SessionLog;
use abr_event::time::Instant;

/// A session advanced by an external driver, one event at a time.
///
/// Created by [`crate::session::Session::into_stepper`]; the session's
/// `t = 0` startup round (first refresh tick, eager playlist prefetch,
/// first fetch schedule) has already run by the time the stepper is
/// handed out.
pub struct SessionStepper {
    engine: Engine,
}

impl SessionStepper {
    /// Wraps a started engine. (Crate-internal: sessions arrive here via
    /// [`crate::session::Session::into_stepper`].)
    pub(crate) fn new(mut engine: Engine) -> SessionStepper {
        engine.start();
        SessionStepper { engine }
    }

    /// The session-local time of the next event to dispatch, computed
    /// from current state. `None` means playback ended — call
    /// [`SessionStepper::finish`].
    pub fn next_wake(&self) -> Option<Instant> {
        self.engine.next_wake()
    }

    /// Dispatches the next event (the one [`SessionStepper::next_wake`]
    /// reported). Returns `false` when the session is over — ended,
    /// starved, or past its deadline.
    pub fn dispatch_next(&mut self) -> bool {
        self.engine.pump()
    }

    /// The session-local clock: the timestamp of the most recently
    /// dispatched event.
    #[must_use]
    pub fn now(&self) -> Instant {
        self.engine.now
    }

    /// Finalizes the session and returns its log (summary fields filled,
    /// end-of-session lifecycle emitted).
    #[must_use]
    pub fn finish(self) -> SessionLog {
        self.engine.finish().0
    }
}
