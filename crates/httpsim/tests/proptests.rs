//! Property-based tests: cache capacity/accounting invariants, the cache
//! against two reference LRUs, and origin byte-range consistency.

use abr_event::arena::{Arena, SlotId};
use abr_event::time::{Duration, Instant};
use abr_httpsim::cache::{CacheStats, CdnCache};
use abr_httpsim::origin::{HttpError, Origin};
use abr_httpsim::request::{ObjectId, Request};
use abr_media::combo::Combo;
use abr_media::content::Content;
use abr_media::ladder::Ladder;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn origin() -> Origin {
    Origin::with_overhead(Content::drama_show(3), Bytes::ZERO)
}

/// A random request against the drama show.
fn arb_request() -> impl Strategy<Value = Request> {
    (0usize..9, 0usize..75, any::<bool>()).prop_map(|(t, chunk, whole_track)| {
        let track = if t < 6 {
            TrackId::video(t)
        } else {
            TrackId::audio(t - 6)
        };
        if whole_track {
            Request::whole(ObjectId::TrackFile { track })
        } else {
            Origin::segment_request(track, chunk)
        }
    })
}

type Key = (u64, ObjectId, Option<(u64, u64)>);

/// Reference LRU: the stamp-and-scan algorithm `CdnCache` used before its
/// recency list. Every lookup takes a fresh stamp, a hit re-stamps its
/// entry, and eviction scans for the smallest stamp.
struct ScanLru {
    capacity: Bytes,
    used: Bytes,
    clock: u64,
    entries: BTreeMap<Key, (Bytes, u64)>,
    stats: CacheStats,
}

impl ScanLru {
    fn new(capacity: Bytes) -> ScanLru {
        ScanLru {
            capacity,
            used: Bytes::ZERO,
            clock: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn fetch(&mut self, o: &Origin, req: &Request, ns: u64) -> Result<(bool, Bytes), HttpError> {
        self.clock += 1;
        let (object, range) = req.cache_key();
        let key = (ns, object, range);
        if let Some((size, stamp)) = self.entries.get_mut(&key) {
            *stamp = self.clock;
            self.stats.hits += 1;
            self.stats.bytes_from_cache += *size;
            return Ok((true, *size));
        }
        let size = o.body_size(req)?;
        self.stats.misses += 1;
        self.stats.bytes_from_origin += size;
        if size <= self.capacity {
            while self.used + size > self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| k.clone());
                let (freed, _) = self
                    .entries
                    .remove(&victim.expect("non-empty"))
                    .expect("present");
                self.used -= freed;
                self.stats.evictions += 1;
            }
            self.used += size;
            self.entries.insert(key, (size, self.clock));
        }
        Ok((false, size))
    }
}

/// A recency-list node of [`KeyedLru`].
struct KeyedNode {
    key: Key,
    size: Bytes,
    prev: Option<SlotId>,
    next: Option<SlotId>,
}

/// Reference LRU: the keyed-map table `CdnCache` used before its dense
/// segment slots. Every key, segments included, is looked up in one
/// `BTreeMap` from `(namespace, object, range)` to a node of an
/// arena-backed recency list; eviction pops the list tail.
struct KeyedLru {
    capacity: Bytes,
    used: Bytes,
    entries: BTreeMap<Key, SlotId>,
    nodes: Arena<KeyedNode>,
    head: Option<SlotId>,
    tail: Option<SlotId>,
    stats: CacheStats,
}

impl KeyedLru {
    fn new(capacity: Bytes) -> KeyedLru {
        KeyedLru {
            capacity,
            used: Bytes::ZERO,
            entries: BTreeMap::new(),
            nodes: Arena::new(),
            head: None,
            tail: None,
            stats: CacheStats::default(),
        }
    }

    fn fetch(&mut self, o: &Origin, req: &Request, ns: u64) -> Result<(bool, Bytes), HttpError> {
        let (object, range) = req.cache_key();
        let key = (ns, object, range);
        if let Some(&id) = self.entries.get(&key) {
            self.unlink(id);
            self.push_front(id);
            let size = self.nodes.get(id).expect("live").size;
            self.stats.hits += 1;
            self.stats.bytes_from_cache += size;
            return Ok((true, size));
        }
        let size = o.body_size(req)?;
        self.stats.misses += 1;
        self.stats.bytes_from_origin += size;
        if size <= self.capacity {
            while self.used + size > self.capacity {
                let victim = self.tail.expect("non-empty");
                self.unlink(victim);
                let node = self.nodes.remove(victim).expect("live");
                self.entries.remove(&node.key).expect("filed");
                self.used -= node.size;
                self.stats.evictions += 1;
            }
            self.used += size;
            let id = self.nodes.insert(KeyedNode {
                key: key.clone(),
                size,
                prev: None,
                next: None,
            });
            self.push_front(id);
            self.entries.insert(key, id);
        }
        Ok((false, size))
    }

    fn unlink(&mut self, id: SlotId) {
        let node = self.nodes.get(id).expect("live");
        let (prev, next) = (node.prev, node.next);
        match prev {
            Some(p) => self.nodes.get_mut(p).expect("live").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes.get_mut(n).expect("live").prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, id: SlotId) {
        let old = self.head;
        let node = self.nodes.get_mut(id).expect("live");
        node.prev = None;
        node.next = old;
        match old {
            Some(h) => self.nodes.get_mut(h).expect("live").prev = Some(id),
            None => self.tail = Some(id),
        }
        self.head = Some(id);
    }
}

/// One differential step: `(kind, track, chunk, namespace, back)`.
type Step = (u8, usize, usize, u64, usize);

/// Kinds 5–7 repeat the request `back` steps ago, so entries are hit at
/// every depth of the recency order. Otherwise a new request: kind 0 a
/// whole track file (oversized), 1–2 a byte range, 3–4 a segment, of one
/// of four tracks and six chunks; chunks 6 and 7 lie past the end and
/// must error.
fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..8, 0usize..4, 0usize..8, 0u64..3, 0usize..8)
}

fn step_request(o: &Origin, history: &[(Request, u64)], step: Step) -> (Request, u64) {
    let (kind, t, chunk, ns, back) = step;
    if kind >= 5 && back < history.len() {
        return history[history.len() - 1 - back].clone();
    }
    let track = if t < 2 {
        TrackId::video(t)
    } else {
        TrackId::audio(t - 2)
    };
    let req = match (kind, chunk) {
        (0, _) => Request::whole(ObjectId::TrackFile { track }),
        (1 | 2, 0..6) => o.range_request(track, chunk).unwrap(),
        (_, 0..6) => Origin::segment_request(track, chunk),
        _ => Origin::segment_request(track, o.content().num_chunks() + chunk - 6),
    };
    (req, ns)
}

/// A second title whose extent differs from [`origin`]'s in every
/// dimension: 4 video rungs, 2 audio rungs, 90 chunks. Sharing a
/// namespace with the drama show makes the cache widen that namespace's
/// slot block both ways.
fn small_origin() -> Origin {
    let video = Ladder::new(
        MediaType::Video,
        Ladder::table1_video().iter().take(4).cloned().collect(),
    );
    let audio = Ladder::new(
        MediaType::Audio,
        Ladder::table1_audio().iter().take(2).cloned().collect(),
    );
    let content = Content::new(video, audio, Duration::from_secs(4), 90, 5);
    Origin::with_overhead(content, Bytes::ZERO)
}

/// Namespaces of the mixed-traffic test; `u64::MAX` lies beyond the
/// dense slot table and files every key in the keyed map.
const NAMESPACES: [u64; 4] = [0, 1, 5, u64::MAX];

/// One mixed-traffic step: `((kind, rung, chunk), (namespace, back,
/// origin), (offset, len))`.
type MixedStep = ((u8, usize, usize), (usize, usize, bool), (u64, u64));

fn arb_mixed_step() -> impl Strategy<Value = MixedStep> {
    (
        (0u8..10, 0usize..10, 0usize..100),
        (0usize..4, 0usize..12, any::<bool>()),
        (0u64..4_000_000, 1u64..300_000),
    )
}

/// Kinds 7–9 repeat the request `back` steps ago (same origin and
/// namespace). Otherwise a new request for rung `rung` (0–6 video, 7–9
/// audio) and chunk `chunk` against one of two titles: kind 0 a whole
/// track file, 1 a chunk-aligned range, 2 an unaligned range at
/// `offset` of `len` bytes, 3–5 a segment, 6 a muxed segment. Rungs and
/// chunks run past both titles' ladders and lengths, and unaligned
/// ranges past the file end, so every kind also errors.
fn mixed_request(
    origins: &[Origin; 2],
    history: &[(Request, u64, usize)],
    step: MixedStep,
) -> (Request, u64, usize) {
    let ((kind, rung, chunk), (ns, back, second), (offset, len)) = step;
    if kind >= 7 && back < history.len() {
        return history[history.len() - 1 - back].clone();
    }
    let which = usize::from(second);
    let o = &origins[which];
    let track = if rung < 7 {
        TrackId::video(rung)
    } else {
        TrackId::audio(rung - 7)
    };
    let req = match kind {
        0 => Request::whole(ObjectId::TrackFile { track }),
        1 => o
            .range_request(track, chunk)
            .unwrap_or_else(|_| Request::ranged(ObjectId::TrackFile { track }, 0, Bytes(len))),
        2 => Request::ranged(ObjectId::TrackFile { track }, offset, Bytes(len)),
        6 => Request::whole(ObjectId::MuxedSegment {
            combo: Combo::new(rung % 7, back % 4),
            chunk,
        }),
        _ => Origin::segment_request(track, chunk),
    };
    (req, NAMESPACES[ns], which)
}

proptest! {
    /// The cache never stores more than its capacity, hit+miss equals
    /// request count, and repeated identical requests after a miss are
    /// hits as long as nothing was evicted in between.
    #[test]
    fn cache_accounting_invariants(
        requests in proptest::collection::vec(arb_request(), 1..120),
        capacity_kb in 8u64..4_096,
    ) {
        let origin = origin();
        let mut cache = CdnCache::new(Bytes(capacity_kb * 1024));
        let mut count = 0u64;
        for req in &requests {
            let (_hit, size) = cache.fetch(&origin, req).unwrap();
            count += 1;
            prop_assert!(cache.used() <= Bytes(capacity_kb * 1024), "capacity respected");
            prop_assert_eq!(size, origin.body_size(req).unwrap());
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, count);
        }
        // Totals are consistent with per-request sizes.
        let stats = cache.stats();
        let total: u64 = stats.bytes_from_cache.get() + stats.bytes_from_origin.get();
        let expect: u64 = requests.iter().map(|r| origin.body_size(r).unwrap().get()).sum();
        prop_assert_eq!(total, expect);
    }

    /// Immediately repeating any request is a hit iff the object fits the
    /// cache at all.
    #[test]
    fn immediate_repeat_hits(req in arb_request(), capacity_kb in 1u64..100_000) {
        let origin = origin();
        let mut cache = CdnCache::new(Bytes(capacity_kb * 1024));
        let size = origin.body_size(&req).unwrap();
        let (first, _) = cache.fetch(&origin, &req).unwrap();
        prop_assert!(!first, "cold cache always misses");
        let (second, _) = cache.fetch(&origin, &req).unwrap();
        prop_assert_eq!(second, size <= Bytes(capacity_kb * 1024));
    }

    /// Byte-range requests for consecutive chunks cover the whole track
    /// file with no gaps or overlaps, for every track.
    #[test]
    fn ranges_partition_track_files(seed in any::<u64>()) {
        let origin = Origin::with_overhead(Content::drama_show(seed), Bytes::ZERO);
        for &id in origin.content().track_ids() {
            let mut next_offset = 0u64;
            for chunk in 0..origin.content().num_chunks() {
                let req = origin.range_request(id, chunk).unwrap();
                let (off, len) = match req.range {
                    Some((o, l)) => (o, l),
                    None => unreachable!("range requests carry ranges"),
                };
                prop_assert_eq!(off, next_offset);
                next_offset = off + len.get();
            }
            prop_assert_eq!(next_offset, origin.content().track_bytes(id).get());
        }
    }

    /// Hits never serve stale or foreign bytes: under arbitrary request
    /// sequences over multiple title namespaces with a small (eviction-
    /// heavy) capacity, every served size equals what the origin reports,
    /// and a hit only ever follows an earlier fetch of the *same* key in
    /// the *same* namespace — an evicted or never-fetched entry must go
    /// back to the origin, never to another title's bytes.
    #[test]
    fn hits_never_serve_stale_or_foreign_bytes(
        requests in proptest::collection::vec((arb_request(), 0u64..3), 1..150),
        capacity_kb in 8u64..512,
    ) {
        use abr_event::time::Instant;
        use std::collections::BTreeMap;
        let origin = origin();
        let capacity = Bytes(capacity_kb * 1024);
        let mut cache = CdnCache::new(capacity);
        let mut seen: BTreeMap<_, Bytes> = BTreeMap::new();
        for (req, ns) in &requests {
            let (object, range) = req.cache_key();
            let key = (*ns, object, range);
            let truth = origin.body_size(req).unwrap();
            let (hit, size) = cache.fetch_keyed(&origin, req, *ns, Instant::ZERO).unwrap();
            prop_assert_eq!(size, truth, "served size must match the origin");
            if hit {
                prop_assert_eq!(
                    seen.get(&key), Some(&truth),
                    "hit without a prior same-namespace fetch of the same key"
                );
            }
            seen.insert(key, truth);
            prop_assert!(cache.used() <= capacity, "capacity respected under eviction");
        }
    }

    /// Muxed segment sizes equal the sum of their components, for every
    /// combination and chunk.
    #[test]
    fn muxed_segments_are_sums(v in 0usize..6, a in 0usize..3, chunk in 0usize..75) {
        let origin = origin();
        let combo = abr_media::combo::Combo::new(v, a);
        let muxed = origin
            .body_size(&Request::whole(ObjectId::MuxedSegment { combo, chunk }))
            .unwrap();
        let video = origin.body_size(&Origin::segment_request(TrackId::video(v), chunk)).unwrap();
        let audio = origin.body_size(&Origin::segment_request(TrackId::audio(a), chunk)).unwrap();
        prop_assert_eq!(muxed, video + audio);
    }

    /// Differential: under eviction-heavy capacities, oversized objects
    /// and erroring requests across three namespaces, `CdnCache` returns
    /// what the stamp-and-scan reference returns at every step, and their
    /// counters, stored bytes and entry counts never diverge.
    #[test]
    fn cache_matches_stamp_and_scan_reference(
        steps in proptest::collection::vec(arb_step(), 1..200),
        capacity_kb in 8u64..512,
    ) {
        let origin = origin();
        let capacity = Bytes(capacity_kb * 1024);
        let mut cache = CdnCache::new(capacity);
        let mut reference = ScanLru::new(capacity);
        let mut history = Vec::new();
        for (i, step) in steps.into_iter().enumerate() {
            let (req, ns) = step_request(&origin, &history, step);
            let got = cache.fetch_keyed(&origin, &req, ns, Instant::ZERO);
            let want = reference.fetch(&origin, &req, ns);
            prop_assert_eq!(&got, &want, "step {}: ({}, {})", i, ns, req);
            prop_assert_eq!(cache.stats(), reference.stats, "stats after step {}", i);
            prop_assert_eq!(cache.used(), reference.used, "used after step {}", i);
            prop_assert_eq!(cache.len(), reference.entries.len(), "len after step {}", i);
            history.push((req, ns));
        }
    }

    /// Differential over mixed traffic: several namespaces (one beyond
    /// the dense slot table), two titles of different extents, whole and
    /// muxed segments, aligned and unaligned ranges, whole track files
    /// and requests that must error. At every step `CdnCache` returns
    /// what both the keyed-map reference and the stamp-and-scan reference
    /// return, with the same counters, stored bytes and entry count.
    #[test]
    fn cache_matches_keyed_reference_on_mixed_traffic(
        steps in proptest::collection::vec(arb_mixed_step(), 1..250),
        capacity_kb in 64u64..8_192,
    ) {
        let origins = [origin(), small_origin()];
        let capacity = Bytes(capacity_kb * 1024);
        let mut cache = CdnCache::new(capacity);
        let mut keyed = KeyedLru::new(capacity);
        let mut scan = ScanLru::new(capacity);
        let mut history = Vec::new();
        for (i, step) in steps.into_iter().enumerate() {
            let (req, ns, which) = mixed_request(&origins, &history, step);
            let o = &origins[which];
            let got = cache.fetch_keyed(o, &req, ns, Instant::ZERO);
            let want = keyed.fetch(o, &req, ns);
            prop_assert_eq!(&got, &want, "step {}: ({}, {}, title {})", i, ns, req, which);
            prop_assert_eq!(&got, &scan.fetch(o, &req, ns), "step {}: scan reference", i);
            prop_assert_eq!(cache.stats(), keyed.stats, "stats after step {}", i);
            prop_assert_eq!(cache.stats(), scan.stats, "scan stats after step {}", i);
            prop_assert_eq!(cache.used(), keyed.used, "used after step {}", i);
            prop_assert_eq!(cache.len(), keyed.entries.len(), "len after step {}", i);
            prop_assert_eq!(cache.len(), keyed.nodes.len(), "list length after step {}", i);
            history.push((req, ns, which));
        }
    }
}
