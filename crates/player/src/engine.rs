//! The discrete-event engine behind a [`crate::session::Session`].
//!
//! Virtual time advances by a min-of-candidates step: each iteration
//! computes the instant of every way time can move next — the deadline
//! sentinel, the live playlist-refresh tick, the link's next transfer
//! completion, the playback boundary, a buffer refill and a due seek —
//! and dispatches the earliest. The candidates are recomputed from current
//! state every time, so a stale wake can never fire.
//!
//! Ties go to the candidate listed first in that order. Every recorded
//! artifact depends on it: `tests/session.rs` pins the sentinel and tick
//! ties end to end, and the profile test pins the per-class dispatch
//! counts.
//!
//! The deadline sentinel sits at `deadline + 1 µs`: any event at or
//! before the deadline outranks it, and when it wins the engine stops
//! without advancing session time — reproducing both the "ran past the
//! deadline" and the "starved with a dead link" exits of a plain
//! two-instant loop, byte for byte. `tests/legacy_parity.rs` holds a port
//! of that loop and stays the reference.

use crate::buffer::ChunkBuffer;
use crate::config::PlayerConfig;
use crate::log::{BufferSample, SessionLog};
use crate::playback::{PlayState, PlaybackEngine};
use crate::policy::AbrPolicy;
use crate::session::{DeliveryMode, PlaylistFetch};
use crate::transfer::FlightBoard;
use abr_event::time::{Duration, Instant};
use abr_httpsim::edge::{EdgeCache, TransferPath};
use abr_httpsim::origin::Origin;
use abr_media::content::SharedContent;
use abr_media::track::{MediaType, TrackId, TrackSet, TrackTable};
use abr_media::units::Bytes;
use abr_net::link::Link;
use abr_obs::{Event, ObsHandle};
use std::collections::VecDeque;

/// The typed event vocabulary of the session engine. Every way virtual
/// time can advance is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEvent {
    /// The link's earliest in-flight transfer finishes.
    TransferComplete,
    /// Playback reaches the instant the scarcer buffer runs dry (or the
    /// presentation ends).
    PlaybackBoundary,
    /// An idle pipeline's buffer drains back below the target and may
    /// fetch again.
    BufferRefill,
    /// A scheduled user seek comes due.
    SeekDue,
    /// The simulation deadline sentinel (always a candidate).
    Deadline,
    /// A live playlist-refresh timer fires (only with
    /// [`crate::session::Session::with_playlist_refresh`]).
    PlaylistRefresh,
}

impl SessionEvent {
    /// Profiler span name for dispatching one event of this class
    /// (DESIGN.md §13: per-event-class cost attribution).
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            SessionEvent::TransferComplete => "dispatch.transfer_complete",
            SessionEvent::PlaybackBoundary => "dispatch.playback_boundary",
            SessionEvent::BufferRefill => "dispatch.buffer_refill",
            SessionEvent::SeekDue => "dispatch.seek_due",
            SessionEvent::Deadline => "dispatch.deadline",
            SessionEvent::PlaylistRefresh => "dispatch.playlist_refresh",
        }
    }
}

/// A running session: every piece of mutable state behind
/// [`crate::session::Session::run`], advanced exclusively by dispatching
/// the earliest candidate event. Construction happens in `session.rs`
/// (`Session::into_engine`); behavior is split by layer — event dispatch
/// here, transfer bookkeeping in `transfer.rs`, fetch scheduling in
/// `fetch.rs`.
pub(crate) struct Engine {
    // Immutable session shape.
    pub(crate) content: SharedContent,
    pub(crate) chunk_duration: Duration,
    pub(crate) num_chunks: usize,
    pub(crate) total_tracks: usize,
    pub(crate) config: PlayerConfig,
    pub(crate) deadline: Instant,
    pub(crate) delivery: DeliveryMode,
    pub(crate) packaging: abr_manifest::build::Packaging,
    pub(crate) playlist_fetch: PlaylistFetch,
    pub(crate) playlist_sizes: TrackTable<Bytes>,
    pub(crate) refresh_period: Option<Duration>,
    // Components.
    pub(crate) origin: Origin,
    pub(crate) link: Link,
    pub(crate) policy: Box<dyn AbrPolicy>,
    pub(crate) edge: Option<EdgeCache>,
    /// Overriding transfer path (a fleet's shared cache + uplink handle).
    /// When set it is charged instead of `edge` — the two are never
    /// combined.
    pub(crate) path: Option<Box<dyn TransferPath>>,
    pub(crate) audio_buf: ChunkBuffer,
    pub(crate) video_buf: ChunkBuffer,
    pub(crate) playback: PlaybackEngine,
    pub(crate) flights: FlightBoard,
    pub(crate) seek_queue: VecDeque<(Instant, Duration)>,
    pub(crate) current_audio: Option<usize>,
    pub(crate) current_video: Option<usize>,
    pub(crate) playlists_ready: TrackSet,
    // The clock.
    /// The next live playlist-refresh tick, when refreshing is on.
    pub(crate) refresh_at: Option<Instant>,
    pub(crate) now: Instant,
    // Outputs.
    pub(crate) log: SessionLog,
    pub(crate) obs: ObsHandle,
}

impl Engine {
    /// Runs the session to completion (content fully played, starvation,
    /// or deadline) and returns the log plus the possibly-warmed edge
    /// cache.
    pub(crate) fn run(mut self) -> (SessionLog, Option<EdgeCache>) {
        let run_span = self.obs.span("session.run");
        self.start();
        while self.pump() {}
        drop(run_span);
        self.finish()
    }

    /// One engine iteration: dispatch the earliest candidate event.
    /// Returns `false` when the session is over — playback ended or the
    /// deadline sentinel won (which also covers a starved session with a
    /// dead link: the sentinel is then the only candidate). `run` is
    /// exactly `start(); while pump() {}; finish()`; an external driver
    /// (the fleet's [`crate::stepper::SessionStepper`]) interleaves the
    /// same iterations with other sessions.
    pub(crate) fn pump(&mut self) -> bool {
        if self.playback.state() == PlayState::Ended {
            return false;
        }
        let (t, ev) = self.next_event();
        let _dispatch = self.obs.span(ev.span_name());
        match ev {
            SessionEvent::Deadline => return false,
            SessionEvent::PlaylistRefresh => self.on_refresh_tick(t),
            SessionEvent::TransferComplete
            | SessionEvent::PlaybackBoundary
            | SessionEvent::BufferRefill
            | SessionEvent::SeekDue => self.step(t),
        }
        true
    }

    /// The session-local timestamp of the next event `pump` would
    /// dispatch; `None` when the session is over. Computing it changes no
    /// state, so the following `pump` picks the same event.
    pub(crate) fn next_wake(&self) -> Option<Instant> {
        if self.playback.state() == PlayState::Ended {
            return None;
        }
        Some(self.next_event().0)
    }

    /// Emits the session-start lifecycle, distributes the obs handle,
    /// sets the first refresh tick, issues eager playlist prefetches, and
    /// runs the t = 0 scheduling round.
    pub(crate) fn start(&mut self) {
        let obs = self.obs.clone();
        self.link.set_obs(obs.clone());
        self.origin.set_obs(obs.clone());
        if let Some(e) = &mut self.edge {
            e.cache.set_obs(obs.clone());
        }
        self.policy.set_obs(&obs);
        obs.emit(Instant::ZERO, || Event::SessionStart {
            policy: self.log.policy.clone(),
            chunk_duration: self.chunk_duration,
            num_chunks: self.num_chunks,
        });
        self.refresh_at = self.refresh_period.map(|period| Instant::ZERO + period);
        if self.playlist_fetch == PlaylistFetch::Eager {
            for i in 0..self.content.track_ids().len() {
                let track = self.content.track_ids()[i];
                self.open_playlist_fetch(track, Instant::ZERO, None);
            }
        }
        self.schedule_fetches();
        self.sample();
        self.debug_check_flights();
    }

    /// The earliest of the six candidate events against current state.
    fn next_event(&self) -> (Instant, SessionEvent) {
        // Recorded profiles name this span `engine.arm_wakes`.
        let _g = self.obs.span("engine.arm_wakes");
        let completion = self.link.next_completion();
        let boundary = self
            .playback
            .next_boundary(self.now, &self.audio_buf, &self.video_buf);
        // When a pipeline is idle only because its buffer is at the
        // target, wake up the moment playout drains it back below the
        // target (plus 1 ms so the strict `level < max_buffer` gate in
        // the scheduler passes).
        let refill = if self.playback.state() == PlayState::Playing {
            [
                (&self.audio_buf, MediaType::Audio),
                (&self.video_buf, MediaType::Video),
            ]
            .into_iter()
            .filter(|(buf, media)| {
                !self.flights.in_flight(*media)
                    && buf.next_download_index() < self.num_chunks
                    && buf.level() >= self.config.max_buffer
            })
            .map(|(buf, _)| {
                self.now + (buf.level() - self.config.max_buffer) + Duration::from_millis(1)
            })
            .min()
        } else {
            None
        };
        // A pending seek is an event once playback has started.
        let seek = if self.playback.startup_at().is_some() {
            self.seek_queue.front().map(|&(at, _)| at.max(self.now))
        } else {
            None
        };
        Candidates {
            sentinel: self.deadline + Duration::from_micros(1),
            refresh: self.refresh_at,
            completion,
            boundary,
            refill,
            seek,
        }
        .earliest(self.now)
    }

    /// One simulation step at `t`: advance the link and playout, fold in
    /// completions, apply due seeks, (re)start playback, schedule fetches,
    /// sample buffers. Every wake — whichever class won — runs this same
    /// step.
    fn step(&mut self, t: Instant) {
        // Playout first (consumes pre-existing buffer content over
        // [now, t]); completions arriving at t are usable from t on.
        let completions = self.link.advance_to(t);
        let state_before_advance = self.playback.state();
        self.playback
            .advance(self.now, t, &mut self.audio_buf, &mut self.video_buf);
        self.now = t;
        if state_before_advance == PlayState::Playing {
            match self.playback.state() {
                PlayState::Stalled => self.obs.emit(t, || Event::StallBegin),
                PlayState::Ended => self.obs.emit(t, || Event::PlaybackEnded),
                _ => {}
            }
        }
        self.on_completions(completions);
        self.obs
            .gauge("session.pending_requests", self.flights.len() as f64);
        self.apply_due_seeks();
        let state_before_start = self.playback.state();
        self.playback
            .try_start(self.now, &self.audio_buf, &self.video_buf);
        if self.playback.state() == PlayState::Playing {
            match state_before_start {
                PlayState::Startup => self.obs.emit(self.now, || Event::PlaybackStarted),
                PlayState::Stalled => self.obs.emit(self.now, || Event::StallEnd),
                PlayState::Seeking => self.obs.emit(self.now, || Event::SeekResumed),
                _ => {}
            }
        }
        self.schedule_fetches();
        self.sample();
        self.debug_check_flights();
    }

    /// Flow/meter agreement between the [`FlightBoard`] and the link,
    /// checked after every step when built with `debug-invariants`
    /// (DESIGN.md §12): the pending map and the link's flow table track
    /// exactly the same transfers, and the bandwidth-meter edge never
    /// outruns session time.
    fn debug_check_flights(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            debug_assert_eq!(
                self.flights.len(),
                self.link.pending_count(),
                "flight board and link disagree on in-flight transfers"
            );
            for (id, _) in self.flights.iter() {
                debug_assert!(
                    self.link.flow_profile(id).is_some(),
                    "pending flow {id:?} unknown to the link"
                );
            }
            debug_assert!(
                self.flights.meter_last <= self.now,
                "meter edge {} ahead of session time {}",
                self.flights.meter_last,
                self.now
            );
        }
    }

    /// Applies every due seek: flush buffers, drop in-flight chunk
    /// requests, reposition the playhead at a chunk boundary.
    fn apply_due_seeks(&mut self) {
        while let Some(&(at, target)) = self.seek_queue.front() {
            if at > self.now || self.playback.startup_at().is_none() {
                break;
            }
            self.seek_queue.pop_front();
            let chunk_idx = (target.as_micros() / self.chunk_duration.as_micros()) as usize;
            let aligned = self.chunk_duration * chunk_idx as u64;
            if self.playback.state() == PlayState::Ended
                || chunk_idx >= self.num_chunks
                || aligned <= self.playback.position()
            {
                continue; // not a forward seek anymore: ignore
            }
            // Drop in-flight chunk transfers (playlist fetches keep
            // running; their deferred chunks are re-validated on arrival).
            // Cancels happen in flow-id order, as retain walks the
            // board's id-sorted backing vector.
            let link = &mut self.link;
            self.flights.retain(|id, p| {
                if matches!(p, crate::transfer::Pending::Playlist { .. }) {
                    return true;
                }
                link.cancel_flow(id);
                false
            });
            self.audio_buf.flush_to(chunk_idx);
            self.video_buf.flush_to(chunk_idx);
            if self.playback.state() == PlayState::Stalled {
                // The seek closes the open stall (the rebuffering that
                // follows is accounted to the seek).
                self.obs.emit(self.now, || Event::StallEnd);
            }
            self.obs.emit(self.now, || Event::SeekStarted {
                from: self.playback.position(),
                to: aligned,
            });
            self.playback.seek(self.now, aligned);
        }
    }

    /// A live playlist-refresh timer fired: run a normal step at the tick
    /// time, then re-poll the media playlists of the currently selected
    /// tracks and set the next tick. The poll flows share the per-media
    /// request pipelines, so a slow poll visibly delays that pipeline's
    /// next chunk — the live-streaming overhead this feature measures.
    fn on_refresh_tick(&mut self, t: Instant) {
        self.step(t);
        let targets = [
            self.current_audio.map(TrackId::audio),
            self.current_video.map(TrackId::video),
        ];
        let mut refetched = 0usize;
        for track in targets.into_iter().flatten() {
            if self.playlist_sizes.contains_key(track) {
                self.open_playlist_fetch(track, t, None);
                refetched += 1;
            }
        }
        self.obs
            .emit(t, || Event::PlaylistRefreshTick { refetched });
        self.refresh_at = self.refresh_period.map(|period| t + period);
    }

    /// Records the current buffer levels in the log and the trace.
    fn sample(&mut self) {
        self.log.buffer_samples.push(BufferSample {
            at: self.now,
            audio: self.audio_buf.level(),
            video: self.video_buf.level(),
        });
        self.obs.emit(self.now, || Event::BufferStateChange {
            audio: self.audio_buf.level(),
            video: self.video_buf.level(),
        });
    }

    /// Emits the session-end event, fills the summary fields, and hands
    /// back the log plus the edge cache.
    pub(crate) fn finish(mut self) -> (SessionLog, Option<EdgeCache>) {
        self.obs.emit(self.now, || Event::SessionEnd);
        self.log.startup_at = self.playback.startup_at();
        self.log.ended_at = self.playback.ended_at();
        self.log.stalls = self.playback.stalls().to_vec();
        self.log.seeks = self.playback.seeks().to_vec();
        self.log.finished_at = self.now;
        (self.log, self.edge)
    }
}

/// The instant at which each event class would fire next; `None` for a
/// class with nothing pending.
#[derive(Debug, Clone, Copy)]
struct Candidates {
    /// The deadline sentinel, `deadline + 1 µs`: always present.
    sentinel: Instant,
    refresh: Option<Instant>,
    completion: Option<Instant>,
    boundary: Option<Instant>,
    refill: Option<Instant>,
    seek: Option<Instant>,
}

impl Candidates {
    /// The earliest candidate. Ties go to the one listed first: sentinel,
    /// refresh tick, completion, boundary, refill, seek (see the module
    /// docs). Panics if any candidate lies before `now` — time never runs
    /// backwards.
    fn earliest(self, now: Instant) -> (Instant, SessionEvent) {
        let all = [
            (Some(self.sentinel), SessionEvent::Deadline),
            (self.refresh, SessionEvent::PlaylistRefresh),
            (self.completion, SessionEvent::TransferComplete),
            (self.boundary, SessionEvent::PlaybackBoundary),
            (self.refill, SessionEvent::BufferRefill),
            (self.seek, SessionEvent::SeekDue),
        ];
        let mut best = (self.sentinel, SessionEvent::Deadline);
        for (at, ev) in all {
            let Some(at) = at else { continue };
            assert!(at >= now, "{ev:?} wake into the past: {at} < {now}");
            if at < best.0 {
                best = (at, ev);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SessionEvent::*;

    fn ms(t: u64) -> Option<Instant> {
        Some(Instant::from_millis(t))
    }

    /// Every class pending at `t`, the sentinel at `sentinel`.
    fn all_at(sentinel: u64, t: u64) -> Candidates {
        Candidates {
            sentinel: Instant::from_millis(sentinel),
            refresh: ms(t),
            completion: ms(t),
            boundary: ms(t),
            refill: ms(t),
            seek: ms(t),
        }
    }

    #[test]
    fn sentinel_beats_a_wake_at_the_same_instant() {
        let t = Instant::from_millis(7);
        assert_eq!(all_at(7, 7).earliest(Instant::ZERO), (t, Deadline));
        let c = Candidates {
            seek: ms(6),
            ..all_at(7, 7)
        };
        assert_eq!(
            c.earliest(Instant::ZERO),
            (Instant::from_millis(6), SeekDue)
        );
    }

    #[test]
    fn refresh_tick_beats_a_wake_at_the_same_instant() {
        let c = all_at(100, 5);
        assert_eq!(
            c.earliest(Instant::ZERO),
            (Instant::from_millis(5), PlaylistRefresh)
        );
        let c = Candidates {
            completion: None,
            ..c
        };
        assert_eq!(c.earliest(Instant::ZERO).1, PlaylistRefresh);
    }

    #[test]
    fn wakes_tie_in_completion_boundary_refill_seek_order() {
        let c = Candidates {
            refresh: None,
            ..all_at(100, 5)
        };
        let pick = |c: Candidates| c.earliest(Instant::ZERO).1;
        assert_eq!(pick(c), TransferComplete);
        let c = Candidates {
            completion: None,
            ..c
        };
        assert_eq!(pick(c), PlaybackBoundary);
        let c = Candidates {
            boundary: None,
            ..c
        };
        assert_eq!(pick(c), BufferRefill);
        let c = Candidates { refill: None, ..c };
        assert_eq!(pick(c), SeekDue);
        let c = Candidates { seek: None, ..c };
        assert_eq!(
            c.earliest(Instant::ZERO),
            (Instant::from_millis(100), Deadline)
        );
        // An earlier time beats the tie order.
        let c = Candidates {
            seek: ms(4),
            ..all_at(100, 5)
        };
        assert_eq!(pick(c), SeekDue);
    }

    #[test]
    #[should_panic(expected = "wake into the past")]
    fn a_candidate_before_now_panics() {
        let c = Candidates {
            refill: ms(3),
            ..all_at(100, 5)
        };
        let _ = c.earliest(Instant::from_millis(4));
    }
}
