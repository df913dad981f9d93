//! LRU CDN cache.
//!
//! Models an edge cache between clients and the origin, keyed by
//! `(object, exact range)`. Used by the §1 motivation experiment: with
//! demuxed tracks, user B's request for video variant V1 hits the cache
//! warmed by user A even though their audio choices differ; with muxed
//! packaging every (V, A) pairing is a distinct object and misses.
//!
//! Recency is an intrusive doubly linked list whose nodes live in an
//! [`Arena`]: a hit moves its node to the head, a miss inserts at the
//! head, and eviction pops the tail. Every step is O(1) besides the one
//! entry-table lookup, so a miss never scans the resident entries. The
//! tail is exactly the least recently touched entry, so the victim
//! sequence is a pure function of the request sequence (DESIGN.md §10).

use crate::origin::{HttpError, Origin};
use crate::request::{ObjectId, Request};
use abr_event::arena::{Arena, SlotId};
use abr_event::time::Instant;
use abr_media::units::Bytes;
use abr_obs::{Event, ObsHandle};
use std::collections::BTreeMap;

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that went to the origin.
    pub misses: u64,
    /// Body bytes served out of cache.
    pub bytes_from_cache: Bytes,
    /// Body bytes fetched from the origin.
    pub bytes_from_origin: Bytes,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio over all requests (0 when no requests yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Full cache key: `(namespace, object, exact range)`. The namespace
/// disambiguates identical `ObjectId`s from different catalog titles when
/// one cache fronts a whole fleet (every title numbers its segments from
/// chunk 0); single-title callers use namespace 0 throughout.
type CacheKey = (u64, ObjectId, Option<(u64, u64)>);

/// One resident entry: a node of the recency list. `prev` points toward
/// the head (more recently touched), `next` toward the tail.
#[derive(Debug)]
struct Node {
    key: CacheKey,
    size: Bytes,
    prev: Option<SlotId>,
    next: Option<SlotId>,
}

/// An LRU cache with a byte-capacity bound. Each entry is a node of the
/// recency list; a miss that does not fit pops the list tail, the least
/// recently touched entry, until it does.
#[derive(Debug)]
pub struct CdnCache {
    capacity: Bytes,
    used: Bytes,
    /// Keyed by `(namespace, object, range)`; only ever looked up, never
    /// iterated. A `BTreeMap` so no hashed container can leak an order
    /// into the cache's behavior (ABR-L001).
    entries: BTreeMap<CacheKey, SlotId>,
    /// The recency list's nodes, one per entry.
    nodes: Arena<Node>,
    /// Most recently touched entry.
    head: Option<SlotId>,
    /// Least recently touched entry: the next eviction victim.
    tail: Option<SlotId>,
    stats: CacheStats,
    obs: ObsHandle,
}

impl CdnCache {
    /// A cache holding at most `capacity` body bytes.
    pub fn new(capacity: Bytes) -> CdnCache {
        assert!(capacity.get() > 0, "zero-capacity cache");
        CdnCache {
            capacity,
            used: Bytes::ZERO,
            entries: BTreeMap::new(),
            nodes: Arena::new(),
            head: None,
            tail: None,
            stats: CacheStats::default(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attaches an observability handle: hit/miss/eviction counters, a
    /// live hit-ratio gauge, and `cache_lookup` events while tracing.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Serves `req` through the cache: returns `(was_hit, body_size)`.
    /// Misses fetch from `origin` and insert (evicting LRU entries if
    /// needed; objects larger than the whole cache are served but not
    /// stored).
    pub fn fetch(&mut self, origin: &Origin, req: &Request) -> Result<(bool, Bytes), HttpError> {
        self.fetch_at(origin, req, Instant::ZERO)
    }

    /// [`CdnCache::fetch`] stamped with the simulated time of the lookup,
    /// so traced `cache_lookup` events land on the session clock.
    pub fn fetch_at(
        &mut self,
        origin: &Origin,
        req: &Request,
        now: Instant,
    ) -> Result<(bool, Bytes), HttpError> {
        self.fetch_keyed(origin, req, 0, now)
    }

    /// [`CdnCache::fetch_at`] under an explicit namespace. A fleet-shared
    /// cache serves many catalog titles whose `ObjectId`s collide (each
    /// title has its own "video track 0, chunk 3"); the namespace — the
    /// title index — keeps their entries distinct while still letting
    /// same-title sessions share bytes.
    pub fn fetch_keyed(
        &mut self,
        origin: &Origin,
        req: &Request,
        namespace: u64,
        now: Instant,
    ) -> Result<(bool, Bytes), HttpError> {
        let (object, range) = req.cache_key();
        let key = (namespace, object, range);
        if let Some(&id) = self.entries.get(&key) {
            self.unlink(id);
            self.push_front(id);
            let size = self.node(id).size;
            self.stats.hits += 1;
            self.stats.bytes_from_cache += size;
            self.record_lookup(req, now, true, size);
            return Ok((true, size));
        }
        let size = origin.body_size(req)?;
        self.stats.misses += 1;
        self.stats.bytes_from_origin += size;
        if size <= self.capacity {
            while self.used + size > self.capacity {
                self.evict_lru();
            }
            self.used += size;
            let id = self.nodes.insert(Node {
                key: key.clone(),
                size,
                prev: None,
                next: None,
            });
            self.push_front(id);
            self.entries.insert(key, id);
            self.check_list();
        }
        self.record_lookup(req, now, false, size);
        Ok((false, size))
    }

    fn record_lookup(&self, req: &Request, now: Instant, hit: bool, size: Bytes) {
        self.obs
            .count(if hit { "cache.hits" } else { "cache.misses" }, 1);
        self.obs.gauge("cache.hit_ratio", self.stats.hit_ratio());
        self.obs.gauge("cache.used_bytes", self.used.get() as f64);
        self.obs.emit(now, || Event::CacheLookup {
            object: req.to_string(),
            hit,
            size,
        });
    }

    /// Pops the list tail and drops its entry.
    fn evict_lru(&mut self) {
        let id = self.tail.expect("evict on non-empty cache");
        self.unlink(id);
        let node = self.nodes.remove(id).expect("tail is a live node");
        self.entries
            .remove(&node.key)
            .expect("evicted key is in the entry table");
        #[cfg(feature = "debug-invariants")]
        debug_assert!(node.next.is_none(), "evicted node has a successor");
        self.used -= node.size;
        self.stats.evictions += 1;
        self.obs.count("cache.evictions", 1);
        self.check_list();
    }

    fn node(&self, id: SlotId) -> &Node {
        self.nodes.get(id).expect("listed slot is live")
    }

    fn node_mut(&mut self, id: SlotId) -> &mut Node {
        self.nodes.get_mut(id).expect("listed slot is live")
    }

    /// Detaches `id` from the list, joining its neighbours.
    fn unlink(&mut self, id: SlotId) {
        let Node { prev, next, .. } = *self.node(id);
        match prev {
            Some(p) => self.node_mut(p).next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.node_mut(n).prev = prev,
            None => self.tail = prev,
        }
    }

    /// Links the detached node `id` in as the new head.
    fn push_front(&mut self, id: SlotId) {
        let old = self.head;
        let node = self.node_mut(id);
        node.prev = None;
        node.next = old;
        match old {
            Some(h) => self.node_mut(h).prev = Some(id),
            None => self.tail = Some(id),
        }
        self.head = Some(id);
    }

    /// O(1) witness that the entry table and the recency list agree
    /// (DESIGN.md §12): one node per entry, and empty ends exactly when
    /// the cache is empty. No list walk, so debug runs stay O(1) too.
    fn check_list(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            debug_assert_eq!(
                self.nodes.len(),
                self.entries.len(),
                "recency list and entry table disagree"
            );
            debug_assert_eq!(self.head.is_none(), self.entries.is_empty());
            debug_assert_eq!(self.tail.is_none(), self.entries.is_empty());
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes currently stored.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::combo::Combo;
    use abr_media::content::Content;
    use abr_media::track::TrackId;

    fn setup() -> (Origin, CdnCache) {
        let origin = Origin::with_overhead(Content::drama_show(1), Bytes::ZERO);
        let cache = CdnCache::new(Bytes(1_000_000_000));
        (origin, cache)
    }

    #[test]
    fn miss_then_hit() {
        let (o, mut c) = setup();
        let req = Origin::segment_request(TrackId::video(0), 0);
        let (hit1, s1) = c.fetch(&o, &req).unwrap();
        let (hit2, s2) = c.fetch(&o, &req).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(s1, s2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn demuxed_cross_user_hit_muxed_miss() {
        // §1 scenario: A watches V1+A2, then B watches V1+A1.
        let (o, mut c_demux) = setup();
        for chunk in 0..5 {
            // User A.
            c_demux
                .fetch(&o, &Origin::segment_request(TrackId::video(0), chunk))
                .unwrap();
            c_demux
                .fetch(&o, &Origin::segment_request(TrackId::audio(1), chunk))
                .unwrap();
        }
        let before = c_demux.stats();
        for chunk in 0..5 {
            // User B: video hits, audio misses.
            let (vh, _) = c_demux
                .fetch(&o, &Origin::segment_request(TrackId::video(0), chunk))
                .unwrap();
            let (ah, _) = c_demux
                .fetch(&o, &Origin::segment_request(TrackId::audio(0), chunk))
                .unwrap();
            assert!(vh, "video chunk should hit");
            assert!(!ah, "different audio misses");
        }
        assert_eq!(c_demux.stats().hits - before.hits, 5);

        // Muxed: same scenario, every request misses for user B too.
        let (o2, mut c_mux) = setup();
        for chunk in 0..5 {
            c_mux
                .fetch(
                    &o2,
                    &Request::whole(ObjectId::MuxedSegment {
                        combo: Combo::new(0, 1),
                        chunk,
                    }),
                )
                .unwrap();
        }
        for chunk in 0..5 {
            let (hit, _) = c_mux
                .fetch(
                    &o2,
                    &Request::whole(ObjectId::MuxedSegment {
                        combo: Combo::new(0, 0),
                        chunk,
                    }),
                )
                .unwrap();
            assert!(!hit, "muxed variants never share cache entries");
        }
    }

    #[test]
    fn lru_eviction_order() {
        let (o, _) = setup();
        // Capacity fits ~two audio chunks only.
        let a0 = Origin::segment_request(TrackId::audio(0), 0);
        let a1 = Origin::segment_request(TrackId::audio(0), 1);
        let a2 = Origin::segment_request(TrackId::audio(0), 2);
        let s0 = o.body_size(&a0).unwrap();
        let s1 = o.body_size(&a1).unwrap();
        let mut c = CdnCache::new(s0 + s1);
        c.fetch(&o, &a0).unwrap();
        c.fetch(&o, &a1).unwrap();
        c.fetch(&o, &a0).unwrap(); // refresh a0 → a1 becomes LRU
        c.fetch(&o, &a2).unwrap(); // evicts a1
        assert_eq!(c.stats().evictions, 1);
        let (hit_a0, _) = c.fetch(&o, &a0).unwrap();
        assert!(hit_a0, "refreshed entry survived");
        let (hit_a1, _) = c.fetch(&o, &a1).unwrap();
        assert!(!hit_a1, "LRU entry evicted");
    }

    #[test]
    fn victim_order_survives_slot_reuse() {
        let (o, _) = setup();
        // Four keys of one size: a segment and the same bytes as a range,
        // each in namespaces 1 and 2. The cache holds exactly two.
        let seg = Origin::segment_request(TrackId::audio(0), 0);
        let rng = o.range_request(TrackId::audio(0), 0).unwrap();
        let size = o.body_size(&seg).unwrap();
        assert_eq!(o.body_size(&rng).unwrap(), size);
        let mut c = CdnCache::new(size + size);
        // (namespace, request, expected hit); comments give the list
        // head first after the step.
        let steps = [
            (1, &seg, false), // 1s
            (2, &seg, false), // 2s 1s
            (1, &seg, true),  // 1s 2s
            (1, &rng, false), // evicts 2s, reuses its slot: 1r 1s
            (1, &seg, true),  // 1s 1r
            (2, &rng, false), // evicts 1r, reuses the slot again: 2r 1s
            (1, &seg, true),  // 1s 2r
            (2, &rng, true),  // 2r 1s
            (2, &seg, false), // evicts 1s: 2s 2r
            (1, &rng, false), // evicts 2r: 1r 2s
            (2, &seg, true),  // 2s 1r
        ];
        for (i, (ns, req, want)) in steps.into_iter().enumerate() {
            let (hit, _) = c.fetch_keyed(&o, req, ns, Instant::ZERO).unwrap();
            assert_eq!(hit, want, "step {i}: ({ns}, {req})");
            assert_eq!(c.len(), 2.min(i + 1));
        }
        assert_eq!(c.stats().evictions, 4);
        assert_eq!(c.nodes.slot_count(), 2, "evicted slots were reused");
    }

    #[test]
    fn arena_stays_bounded_by_peak_residency() {
        let (o, _) = setup();
        let mut c = CdnCache::new(Bytes(2_000_000));
        let mut peak = 0;
        for round in 0..20 {
            let track = TrackId::video(round % 6);
            let ns = (round % 3) as u64;
            for chunk in 1..40 {
                // A new chunk, then its predecessor again (usually a hit).
                for k in [chunk, chunk - 1] {
                    let req = Origin::segment_request(track, k);
                    c.fetch_keyed(&o, &req, ns, Instant::ZERO).unwrap();
                    peak = peak.max(c.len());
                    assert!(c.nodes.slot_count() <= peak);
                }
            }
        }
        let stats = c.stats();
        assert!(stats.evictions > 500 && stats.hits > 500, "{stats:?}");
        assert_eq!(c.nodes.len(), c.len());
    }

    #[test]
    fn oversized_objects_pass_through() {
        let (o, _) = setup();
        let mut c = CdnCache::new(Bytes(10));
        let req = Origin::segment_request(TrackId::video(5), 0);
        let (hit, size) = c.fetch(&o, &req).unwrap();
        assert!(!hit);
        assert!(size.get() > 10);
        assert!(c.is_empty(), "not stored");
        assert_eq!(c.used(), Bytes::ZERO);
    }

    #[test]
    fn ranged_requests_key_separately() {
        let (o, mut c) = setup();
        let r0 = o.range_request(TrackId::video(0), 0).unwrap();
        let r1 = o.range_request(TrackId::video(0), 1).unwrap();
        c.fetch(&o, &r0).unwrap();
        let (hit, _) = c.fetch(&o, &r1).unwrap();
        assert!(!hit);
        let (hit, _) = c.fetch(&o, &r0).unwrap();
        assert!(hit);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn namespaces_partition_the_cache() {
        let (o, mut c) = setup();
        let req = Origin::segment_request(TrackId::video(0), 0);
        // Title 7 warms its entry; title 8's identical ObjectId still
        // misses, while a second title-7 viewer hits.
        let (h, _) = c.fetch_keyed(&o, &req, 7, Instant::ZERO).unwrap();
        assert!(!h);
        let (h, _) = c.fetch_keyed(&o, &req, 8, Instant::ZERO).unwrap();
        assert!(!h, "other namespace must not share bytes");
        let (h, _) = c.fetch_keyed(&o, &req, 7, Instant::ZERO).unwrap();
        assert!(h, "same namespace shares");
        assert_eq!(c.len(), 2);
        // The legacy single-title entry points are namespace 0.
        let (h, _) = c.fetch(&o, &req).unwrap();
        assert!(!h);
        let (h, _) = c.fetch(&o, &req).unwrap();
        assert!(h);
    }

    #[test]
    fn errors_propagate_without_counting_entries() {
        let (o, mut c) = setup();
        let bad = Origin::segment_request(TrackId::video(0), 999);
        assert!(c.fetch(&o, &bad).is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn obs_records_lookups_and_hit_ratio() {
        use abr_event::time::Instant;
        use abr_obs::{Event, ObsHandle};
        let (o, mut c) = setup();
        let (obs, tracer, metrics) = ObsHandle::recording();
        c.set_obs(obs);
        let req = Origin::segment_request(TrackId::video(0), 0);
        c.fetch_at(&o, &req, Instant::from_secs(1)).unwrap();
        c.fetch_at(&o, &req, Instant::from_secs(2)).unwrap();
        assert_eq!(metrics.counter_value("cache.misses"), 1);
        assert_eq!(metrics.counter_value("cache.hits"), 1);
        assert_eq!(metrics.gauge_value("cache.hit_ratio"), Some(0.5));
        let events = tracer.snapshot();
        assert_eq!(events.len(), 2);
        match (&events[0].event, &events[1].event) {
            (
                Event::CacheLookup {
                    hit: h1, object, ..
                },
                Event::CacheLookup { hit: h2, .. },
            ) => {
                assert!(!*h1 && *h2);
                assert!(
                    object.contains("V1"),
                    "object key names the track: {object}"
                );
            }
            other => panic!("unexpected events {other:?}"),
        }
        assert_eq!(events[1].at, Instant::from_secs(2));
    }
}
