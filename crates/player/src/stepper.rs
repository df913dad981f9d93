//! Externally-clocked session driving for fleet simulations.
//!
//! [`crate::session::Session::run`] owns its clock: it dispatches its
//! earliest candidate event until the session ends. A fleet interleaves
//! *many* sessions in one global timeline, so it needs the same engine with
//! the clock turned inside out: "when is your next event?" / "dispatch it".
//! [`SessionStepper`] is that inversion — a thin public shell over the
//! engine's `pump` loop, split into its two halves, exposing exactly the
//! two operations the fleet driver schedules against its per-domain queue
//! (DESIGN.md §14).
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
//! `start(); while pump() {}; finish()` over the same engine, where each
//! `pump` computes the earliest candidate event and dispatches it. The
//! stepper computes that candidate exactly once per event too: at
//! construction and after every dispatch that returns `true`, it caches
//! the pair `pump` would compute next. `next_wake` reads the cache and
//! `dispatch_next` dispatches the cached pair, so the two calls share one
//! candidate pass. The cache cannot go stale between the calls: the
//! candidates read only session-private state (link, playback, buffers,
//! flights, seeks, refresh tick), and a fleet's shared hub is touched
//! only from inside a dispatch. `tests/fleet_determinism.rs` pins the
//! equivalence wholesale; `abr-bench`'s `profile_determinism` pins the
//! single pass by counting `engine.arm_wakes` spans.

use crate::engine::{Engine, SessionEvent};
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
    /// The event the next `dispatch_next` dispatches: what `pump` would
    /// compute now. `None` once playback ended.
    next: Option<(Instant, SessionEvent)>,
}

impl SessionStepper {
    /// Wraps a started engine. (Crate-internal: sessions arrive here via
    /// [`crate::session::Session::into_stepper`].)
    pub(crate) fn new(mut engine: Engine) -> SessionStepper {
        engine.start();
        let next = engine.upcoming();
        SessionStepper { engine, next }
    }

    /// The session-local time of the next event to dispatch, as of the
    /// last dispatch. `None` means playback ended — call
    /// [`SessionStepper::finish`].
    pub fn next_wake(&self) -> Option<Instant> {
        self.next.map(|(t, _)| t)
    }

    /// Dispatches the next event (the one [`SessionStepper::next_wake`]
    /// reported). Returns `false` when the session is over — ended,
    /// starved, or past its deadline. A `false` dispatch changes no
    /// state, so the cached event stays what `pump` would compute.
    pub fn dispatch_next(&mut self) -> bool {
        let Some((t, ev)) = self.next else {
            return false;
        };
        let more = self.engine.dispatch(t, ev);
        if more {
            self.next = self.engine.upcoming();
        }
        more
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
