//! Property-based tests: buffer arithmetic, playback drain accounting and
//! scheduler gating.

use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_player::buffer::{BufferedChunk, ChunkBuffer};
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::playback::{PlayState, PlaybackEngine};
use abr_player::scheduler::{due_fetches, PipelineState};
use proptest::prelude::*;
use std::collections::VecDeque;

fn chunk(index: usize, millis: u64) -> BufferedChunk {
    BufferedChunk {
        index,
        track: TrackId::video(0),
        duration: Duration::from_millis(millis),
    }
}

/// The buffer as a plain queue: the chunk durations and how much of the
/// head has played, drained by walking the queue.
#[derive(Default)]
struct WalkedBuffer {
    queue: VecDeque<Duration>,
    head_played: Duration,
}

impl WalkedBuffer {
    fn drain(&mut self, mut left: Duration) {
        while !left.is_zero() {
            let head_left = self.queue[0] - self.head_played;
            if left < head_left {
                self.head_played += left;
                left = Duration::ZERO;
            } else {
                left -= head_left;
                self.queue.pop_front();
                self.head_played = Duration::ZERO;
            }
        }
    }
}

proptest! {
    /// The running total behind `level()` equals the walk it replaced:
    /// under random push / drain / flush sequences, after every step the
    /// buffer's chunks match the plain queue's and the level equals
    /// their summed durations minus what the head has played.
    #[test]
    fn level_equals_walk_of_the_queue(
        ops in proptest::collection::vec((0u8..10, 1u64..8_000_000, 0u64..=100), 1..80),
    ) {
        let mut buf = ChunkBuffer::new(MediaType::Audio);
        let mut walked = WalkedBuffer::default();
        for (i, (op, micros, pct)) in ops.into_iter().enumerate() {
            match op {
                0..=4 => {
                    buf.push(BufferedChunk {
                        index: buf.next_download_index(),
                        track: TrackId::audio(op as usize % 3),
                        duration: Duration::from_micros(micros),
                    });
                    walked.queue.push_back(Duration::from_micros(micros));
                }
                5..=8 => {
                    let dt = Duration::from_micros(buf.level().as_micros() * pct / 100);
                    buf.drain(dt);
                    walked.drain(dt);
                }
                _ => {
                    buf.flush_to(buf.next_download_index() + (micros % 50) as usize);
                    walked = WalkedBuffer::default();
                }
            }
            let durations: Vec<Duration> = buf.chunks().map(|c| c.duration).collect();
            prop_assert_eq!(&durations, &Vec::from(walked.queue.clone()), "chunks after step {}", i);
            let sum: Duration = durations.iter().copied().sum();
            prop_assert_eq!(buf.level(), sum - walked.head_played, "level after step {}", i);
            prop_assert_eq!(buf.is_empty(), (sum - walked.head_played).is_zero());
        }
    }

    /// Pushing then draining in arbitrary interleavings conserves content:
    /// level == pushed − drained at every step, and drains never exceed
    /// the level.
    #[test]
    fn buffer_conservation(ops in proptest::collection::vec((1u64..8_000, 0u64..100), 1..60)) {
        let mut buf = ChunkBuffer::new(MediaType::Video);
        let mut pushed = 0u64;
        let mut drained = 0u64;
        for (next_index, (push_ms, drain_pct)) in ops.into_iter().enumerate() {
            buf.push(chunk(next_index, push_ms));
            pushed += push_ms;
            let level_ms = buf.level().as_millis();
            let want = level_ms * drain_pct / 100;
            buf.drain(Duration::from_millis(want));
            drained += want;
            prop_assert_eq!(buf.level().as_millis(), pushed - drained);
        }
    }

    /// The playback engine's position plus remaining runway always equals
    /// played content; stalls never overlap and the engine never plays
    /// more than was buffered.
    #[test]
    fn playback_accounting(
        arrivals in proptest::collection::vec(100u64..6_000, 2..40),
    ) {
        let total_ms: u64 = arrivals.iter().sum();
        let mut audio = ChunkBuffer::new(MediaType::Audio);
        let mut video = ChunkBuffer::new(MediaType::Video);
        let mut engine = PlaybackEngine::new(
            Duration::from_millis(total_ms),
            Duration::from_millis(100),
            Duration::from_millis(100),
        );
        let mut now = Instant::ZERO;
        for (i, &ms) in arrivals.iter().enumerate() {
            // Chunks arrive with one-second gaps (forcing stalls whenever
            // a chunk is shorter than the gap).
            audio.push(BufferedChunk {
                index: i,
                track: TrackId::audio(0),
                duration: Duration::from_millis(ms),
            });
            video.push(BufferedChunk {
                index: i,
                track: TrackId::video(0),
                duration: Duration::from_millis(ms),
            });
            engine.try_start(now, &audio, &video);
            // Advance up to one second or the next boundary.
            let target = now + Duration::from_secs(1);
            let step_to = match engine.next_boundary(now, &audio, &video) {
                Some(b) => b.min(target),
                None => target,
            };
            engine.advance(now, step_to, &mut audio, &mut video);
            now = target;
        }
        // Drain out the rest.
        loop {
            engine.try_start(now, &audio, &video);
            match engine.next_boundary(now, &audio, &video) {
                Some(b) if engine.state() == PlayState::Playing => {
                    engine.advance(now, b, &mut audio, &mut video);
                    now = b;
                }
                _ => break,
            }
        }
        // Accounting: played position never exceeds total, equals total
        // when ended, and stalls are disjoint & within the session.
        prop_assert!(engine.position() <= Duration::from_millis(total_ms));
        if engine.state() == PlayState::Ended {
            prop_assert_eq!(engine.position(), Duration::from_millis(total_ms));
        }
        for w in engine.stalls().windows(2) {
            prop_assert!(w[0].end.expect("inner stalls closed") <= w[1].start);
        }
    }

    /// Scheduler gating invariants for arbitrary pipeline states: never
    /// schedules an in-flight or exhausted pipeline; never exceeds the
    /// buffer target; chunk-level sync never lets the leader extend its
    /// lead past tolerance while the peer is active.
    #[test]
    fn scheduler_gates(
        a_inflight in any::<bool>(),
        v_inflight in any::<bool>(),
        a_next in 0usize..80,
        v_next in 0usize..80,
        a_level_s in 0u64..40,
        v_level_s in 0u64..40,
        tolerance_s in 1u64..10,
        independent in any::<bool>(),
    ) {
        let num_chunks = 75;
        let cfg = PlayerConfig {
            startup_threshold: Duration::from_secs(4),
            resume_threshold: Duration::from_secs(4),
            max_buffer: Duration::from_secs(30),
            sync: if independent {
                SyncMode::Independent
            } else {
                SyncMode::ChunkLevel { tolerance: Duration::from_secs(tolerance_s) }
            },
        };
        let audio = PipelineState {
            in_flight: a_inflight,
            next_chunk: a_next,
            level: Duration::from_secs(a_level_s),
        };
        let video = PipelineState {
            in_flight: v_inflight,
            next_chunk: v_next,
            level: Duration::from_secs(v_level_s),
        };
        let due = due_fetches(&cfg, audio, video, num_chunks);
        for media in due {
            let (me, other) = match media {
                MediaType::Audio => (audio, video),
                MediaType::Video => (video, audio),
            };
            prop_assert!(!me.in_flight, "never double-schedules");
            prop_assert!(me.next_chunk < num_chunks, "never past the end");
            prop_assert!(me.level < cfg.max_buffer, "never above target");
            if let SyncMode::ChunkLevel { tolerance } = cfg.sync {
                if other.next_chunk < num_chunks {
                    prop_assert!(
                        me.level < other.level + tolerance,
                        "leader halted at the tolerance"
                    );
                }
            }
        }
    }
}
