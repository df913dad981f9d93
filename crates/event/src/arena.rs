//! A generational slot arena for dense, churning collections.
//!
//! Fleet drivers keep tens of thousands of concurrently active sessions,
//! each inserted at arrival and removed at completion. A `BTreeMap<usize,
//! T>` pays pointer-chasing and node allocation on every wake; this arena
//! stores values in a flat `Vec`, reuses freed slots through a free list,
//! and guards against stale handles with a per-slot generation counter.
//!
//! Determinism contract (DESIGN.md §10/§15): slot assignment is a pure
//! function of the insert/remove sequence, so identical schedules produce
//! identical [`SlotId`]s. The arena deliberately exposes **no keyed
//! iteration order** — `values_mut` visits slots in storage order, which
//! tracks allocation history, not any artifact-relevant key. Dispatch
//! paths must therefore never fold observable results out of arena
//! iteration (abr-lint ABR-L005 flags `.values()` in those modules);
//! they address sessions individually by the [`SlotId`] carried in their
//! scheduled events.

use core::fmt;

/// A generational handle into an [`Arena`].
///
/// Stale handles (the slot was freed, or freed and reused) are detected
/// by the generation counter: `get_mut`/`remove` return `None` instead of
/// aliasing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

impl SlotId {
    /// The raw slot index (stable while this handle is live).
    pub fn index(self) -> usize {
        self.index as usize
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}v{}", self.index, self.generation)
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A flat, generation-checked slot arena.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// Freed slot indices; `insert` pops the most recently freed first
    /// (LIFO keeps the live region dense and the reuse order
    /// deterministic).
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty arena with room for `capacity` values before reallocating.
    pub fn with_capacity(capacity: usize) -> Arena<T> {
        Arena {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of slots in the backing storage, live or free. Freed slots
    /// are reused before the storage grows, so this is the peak number of
    /// values ever live at once.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing the most recently freed slot if any, and
    /// returns its generational handle.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free list pointed at a live slot");
            slot.value = Some(value);
            return SlotId {
                index,
                generation: slot.generation,
            };
        }
        let index = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        SlotId {
            index,
            generation: 0,
        }
    }

    /// Removes and returns the value behind `id`, or `None` if the handle
    /// is stale (already removed, or its slot was reused).
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.len -= 1;
        Some(value)
    }

    /// Mutable access to the value behind `id`, or `None` for stale
    /// handles.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Shared access to the value behind `id`, or `None` for stale
    /// handles.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Iterates live values in **storage order** — allocation history, not
    /// a key order. Never fold artifact-relevant results out of this in a
    /// dispatch path (ABR-L005); it exists for teardown sweeps and
    /// diagnostics.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.value.as_ref())
    }

    /// Heap footprint of the arena's backing storage in bytes.
    pub fn backing_bytes(&self) -> u64 {
        (self.slots.capacity() * core::mem::size_of::<Slot<T>>()
            + self.free.capacity() * core::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = Arena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&"a"));
        *arena.get_mut(b).unwrap() = "b2";
        assert_eq!(arena.remove(b), Some("b2"));
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(b), None, "removed handle is stale");
    }

    #[test]
    fn slots_are_reused_lifo_with_fresh_generations() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        let b = arena.insert(2);
        arena.remove(a);
        arena.remove(b);
        // LIFO: b's slot first.
        let c = arena.insert(3);
        assert_eq!(c.index(), b.index());
        assert_ne!(c, b, "reused slot carries a new generation");
        assert_eq!(arena.get(b), None, "old handle must not alias");
        assert_eq!(arena.get(c), Some(&3));
        assert_eq!(arena.slot_count(), 2, "reuse does not grow the storage");
    }

    #[test]
    fn slot_assignment_is_schedule_deterministic() {
        let run = || {
            let mut arena = Arena::new();
            let mut ids = Vec::new();
            for i in 0..100 {
                ids.push(arena.insert(i));
                if i % 3 == 0 {
                    arena.remove(ids[i / 2]);
                }
            }
            ids
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn values_iterates_live_slots_only() {
        let mut arena = Arena::new();
        let a = arena.insert(10);
        arena.insert(20);
        arena.remove(a);
        let live: Vec<i32> = arena.values().copied().collect();
        assert_eq!(live, vec![20]);
        assert!(arena.backing_bytes() > 0);
    }
}
