//! Hash-consing of device states and memoized collective application.
//!
//! The synthesizer explores a DAG whose nodes are *tuples* of device
//! [`State`]s. After collectives on symmetric groups most devices share
//! identical states, so hash-consing each device state to a dense `u32` id
//! turns a synthesis-space state into a flat `[u32]` slice: interning hashes
//! a few words instead of k×k bit matrices, equality is a word compare, and
//! devices sharing a state share its storage. [`SharedTables`] pairs that
//! interner with a transposition table: the semantics of a collective depend
//! only on the ordered participant states, so one `(collective, participant
//! ids)` key memoizes [`apply_collective_refs`] across every grouping and
//! every synthesis state that reproduces the same participants.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::collective::Collective;
use crate::semantics::{apply_collective_refs, SemanticsError};
use crate::state::State;

// The word-folding hasher these tables key through lives in `p2_hash` (it is
// also the core of the plan service's persisted content addresses); the
// re-export keeps the long-standing `p2_collectives::{FxHasher, FxHashMap}`
// paths working.
pub use p2_hash::{FxHashMap, FxHasher};

/// The [`SharedTables`] transposition map: `[collective tag, participant
/// ids...]` → interned post-state ids or the memoized semantic error.
type SharedApplyMap = FxHashMap<Box<[u32]>, Result<Arc<[u32]>, SemanticsError>>;

/// Number of shards in each [`SharedTables`] map (state → id and apply). A
/// power of two so the shard index is the hash's top bits; 64 is comfortably
/// above any worker count this workspace runs, so two workers rarely contend
/// on one shard lock.
const SHARD_BITS: u32 = 6;
/// `1 << SHARD_BITS`.
const SHARDS: usize = 1 << SHARD_BITS;
/// Capacity of the first [`StateArena`] chunk; chunk `c` holds
/// `ARENA_CHUNK0 << c` slots, so 32 doubling chunks cover the entire `u32`
/// id space.
const ARENA_CHUNK0: usize = 1024;
/// Number of doubling chunks in a [`StateArena`].
const ARENA_CHUNKS: usize = 32;

/// Lock-free append-only id → state storage: a sequence of doubling chunks,
/// each allocated at most once, with every slot written at most once.
///
/// Chunks never move once allocated, so `get` takes no lock: readers walk
/// `chunks[c][offset]` through two [`OnceLock`]s (acquire loads) while
/// writers fill slots they own exclusively (each id is handed out by one
/// `fetch_add`). This is what keeps [`SharedTables::apply`]'s participant
/// fetch off the interner locks entirely — the hottest read path of the
/// parallel DAG build.
///
/// [`OnceLock`]: std::sync::OnceLock
#[derive(Debug)]
struct StateArena {
    #[allow(clippy::type_complexity)]
    chunks: [std::sync::OnceLock<Box<[std::sync::OnceLock<Arc<State>>]>>; ARENA_CHUNKS],
    /// The next unassigned id; slots below this are set or about to be set by
    /// the worker that claimed them.
    len: AtomicUsize,
}

impl Default for StateArena {
    fn default() -> Self {
        StateArena {
            chunks: std::array::from_fn(|_| std::sync::OnceLock::new()),
            len: AtomicUsize::new(0),
        }
    }
}

impl StateArena {
    /// `(chunk, offset)` of an id: chunk `c` covers ids
    /// `[ARENA_CHUNK0 * (2^c - 1), ARENA_CHUNK0 * (2^(c+1) - 1))`.
    fn locate(id: u32) -> (usize, usize) {
        let n = id as usize / ARENA_CHUNK0 + 1;
        let chunk = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let base = ARENA_CHUNK0 * ((1usize << chunk) - 1);
        (chunk, id as usize - base)
    }

    /// Claims the next id. The caller must follow up with `set`.
    fn claim_id(&self) -> u32 {
        let id = self.len.fetch_add(1, Ordering::Relaxed);
        u32::try_from(id).expect("more than u32::MAX distinct states")
    }

    /// Publishes the state for an id claimed by this thread.
    fn set(&self, id: u32, state: Arc<State>) {
        let (chunk, offset) = Self::locate(id);
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..ARENA_CHUNK0 << chunk)
                .map(|_| std::sync::OnceLock::new())
                .collect()
        });
        slots[offset]
            .set(state)
            .expect("arena slot published twice");
    }

    /// The state an id was assigned to, without taking any lock.
    ///
    /// Ids only reach other threads *after* their slot is published (the
    /// publishing thread sets the slot before releasing the shard lock that
    /// makes the id visible), so the spin below only covers the sliver where
    /// an id raced here through a relaxed counter read; it cannot spin on an
    /// id that was never claimed — that panics instead.
    fn get(&self, id: u32) -> Arc<State> {
        assert!(
            (id as usize) < self.len.load(Ordering::Acquire),
            "unknown state id {id}"
        );
        let (chunk, offset) = Self::locate(id);
        loop {
            if let Some(slots) = self.chunks[chunk].get() {
                if let Some(state) = slots[offset].get() {
                    return Arc::clone(state);
                }
            }
            std::hint::spin_loop();
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// Sweep-wide hash-consing tables: one device-state interner and one
/// collective transposition table shared by every concurrent worker — across
/// placements of a sweep *and* across the intra-placement expanders of a
/// parallel DAG build. They are the synthesizer's only tables: a search
/// with nothing to share builds over a fresh private instance.
///
/// Every placement of one sweep reduces over the same k×k device-state
/// universe, so sharing the tables means the second placement onward mostly
/// *reads*: states and `(collective, participants)` entries discovered by one
/// worker are reused by all. Both maps are split into 64 independent
/// `RwLock`ed shards keyed by the hash's top bits, and the id → state arena
/// is lock-free (an append-only chunked `OnceLock` arena), so concurrent
/// expanders don't serialize on
/// a single lock. Ids are assigned in thread-arrival order and are therefore
/// nondeterministic under parallelism — which is sound, because every
/// consumer uses ids only for equality and memoization, never for ordering.
/// The final table *sizes* are deterministic: they are set unions over the
/// (deterministic) per-placement universes.
#[derive(Debug)]
pub struct SharedTables {
    /// state → id, sharded by state hash. Each distinct state lives in
    /// exactly one shard, so that shard's write lock serializes its id
    /// assignment.
    state_shards: Vec<RwLock<FxHashMap<Arc<State>, u32>>>,
    arena: StateArena,
    /// `[collective tag, participant ids...]` → interned post-state ids
    /// (`Arc`ed so a hit clones a pointer, not the slice) or the memoized
    /// semantic error; sharded by key hash.
    apply_shards: Vec<RwLock<SharedApplyMap>>,
    apply_hits: AtomicUsize,
    apply_misses: AtomicUsize,
}

impl Default for SharedTables {
    fn default() -> Self {
        SharedTables {
            state_shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            arena: StateArena::default(),
            apply_shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            apply_hits: AtomicUsize::new(0),
            apply_misses: AtomicUsize::new(0),
        }
    }
}

impl SharedTables {
    /// Creates empty shared tables.
    pub fn new() -> Self {
        SharedTables::default()
    }

    /// The shard a state's map entry lives in (top hash bits).
    fn state_shard(state: &State) -> usize {
        use std::hash::{Hash, Hasher};
        let mut hasher = FxHasher::default();
        state.hash(&mut hasher);
        (hasher.finish() >> (64 - SHARD_BITS)) as usize
    }

    /// The shard an apply key's entry lives in (top hash bits).
    fn apply_shard(key: &[u32]) -> usize {
        use std::hash::{Hash, Hasher};
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() >> (64 - SHARD_BITS)) as usize
    }

    /// Interns a state, returning `(id, was_present)`: `was_present` is true
    /// when the state was already in the table (interned by this or any other
    /// worker).
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned or the interner overflows `u32` ids.
    pub fn intern(&self, state: State) -> (u32, bool) {
        let shard = &self.state_shards[Self::state_shard(&state)];
        if let Some(&id) = shard.read().expect("interner shard lock").get(&state) {
            return (id, true);
        }
        let mut map = shard.write().expect("interner shard lock");
        // Double-checked: another worker may have interned it since the read.
        if let Some(&id) = map.get(&state) {
            return (id, true);
        }
        let id = self.arena.claim_id();
        let state = Arc::new(state);
        // Publish the arena slot *before* the map insert makes the id
        // visible to other workers.
        self.arena.set(id, Arc::clone(&state));
        map.insert(state, id);
        (id, false)
    }

    /// A shared handle to the state an id was assigned to. Lock-free.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn get(&self, id: u32) -> Arc<State> {
        self.arena.get(id)
    }

    /// Applies `collective` to the devices holding the interned states
    /// `members` (in group order), memoized across all workers. Returns the
    /// members' post-condition state ids in order, plus whether the entry was
    /// already cached (`hit`).
    ///
    /// # Errors
    ///
    /// The [`SemanticsError`] of the violated pre-condition, memoized exactly
    /// like a success.
    ///
    /// # Panics
    ///
    /// Panics if a lock is poisoned or any id in `members` was not produced
    /// by this table.
    #[allow(clippy::type_complexity)]
    pub fn apply(
        &self,
        collective: Collective,
        members: &[u32],
    ) -> (Result<Arc<[u32]>, SemanticsError>, bool) {
        let mut key = Vec::with_capacity(members.len() + 1);
        key.push(collective as u32);
        key.extend_from_slice(members);
        let shard = &self.apply_shards[Self::apply_shard(&key)];
        if let Some(entry) = shard.read().expect("apply shard lock").get(key.as_slice()) {
            self.apply_hits.fetch_add(1, Ordering::Relaxed);
            return (entry.clone(), true);
        }
        self.apply_misses.fetch_add(1, Ordering::Relaxed);
        // Run the semantics outside every lock; the participant fetch is
        // lock-free through the arena.
        let states: Vec<Arc<State>> = members.iter().map(|&id| self.arena.get(id)).collect();
        let refs: Vec<&State> = states.iter().map(Arc::as_ref).collect();
        let result = apply_collective_refs(collective, &refs);
        let entry: Result<Arc<[u32]>, SemanticsError> =
            result.map(|after| after.into_iter().map(|s| self.intern(s).0).collect());
        // Racing workers compute identical entries (same interner), so
        // keeping the first insert is purely cosmetic.
        let out = shard
            .write()
            .expect("apply shard lock")
            .entry(key.into_boxed_slice())
            .or_insert(entry)
            .clone();
        (out, false)
    }

    /// Number of distinct device states interned so far. Deterministic once a
    /// sweep has drained, for any worker count.
    pub fn num_states(&self) -> usize {
        self.arena.len()
    }

    /// Number of distinct `(collective, participants)` entries memoized.
    pub fn num_apply_entries(&self) -> usize {
        self.apply_shards
            .iter()
            .map(|shard| shard.read().expect("apply shard lock").len())
            .sum()
    }

    /// Total applications answered from the shared cache, across all workers.
    pub fn apply_hits(&self) -> usize {
        self.apply_hits.load(Ordering::Relaxed)
    }

    /// Total applications that ran the semantics, across all workers.
    pub fn apply_misses(&self) -> usize {
        self.apply_misses.load(Ordering::Relaxed)
    }

    /// A consistent copy of both tables for serialization: the interned
    /// states in id order plus every memoized `[collective tag, participant
    /// ids...]` → post-state-ids-or-error entry. The apply entries are copied
    /// *before* the state count is read, so every id an entry references is
    /// inside the exported state list — concurrent interning can only add
    /// states the entries don't mention.
    #[allow(clippy::type_complexity)]
    pub fn export(
        &self,
    ) -> (
        Vec<Arc<State>>,
        Vec<(Box<[u32]>, Result<Arc<[u32]>, SemanticsError>)>,
    ) {
        let mut entries = Vec::new();
        for shard in &self.apply_shards {
            let map = shard.read().expect("apply shard lock");
            entries.extend(map.iter().map(|(key, value)| (key.clone(), value.clone())));
        }
        let num_states = self.arena.len();
        let states = (0..num_states as u32)
            .map(|id| self.arena.get(id))
            .collect();
        (states, entries)
    }

    /// Seeds *empty* tables from an [`export`](SharedTables::export)-shaped
    /// snapshot: states are interned in list order (reassigning the dense
    /// ids the apply entries reference) and the apply entries installed
    /// verbatim. Warm-seeding only changes which lookups hit — every entry a
    /// cold run would derive is identical — so results stay bit-identical.
    ///
    /// Returns `false` without modifying anything when the tables are
    /// non-empty or the snapshot is internally inconsistent (duplicate
    /// states, or an apply entry referencing an id outside the state list);
    /// the caller then proceeds cold.
    #[allow(clippy::type_complexity)]
    pub fn preload(
        &self,
        states: Vec<State>,
        entries: Vec<(Box<[u32]>, Result<Arc<[u32]>, SemanticsError>)>,
    ) -> bool {
        let num_states = states.len();
        let valid_id = |id: &u32| (*id as usize) < num_states;
        let consistent = entries.iter().all(|(key, value)| {
            // A key is the collective tag plus at least two participants.
            key.len() >= 3
                && key[1..].iter().all(valid_id)
                && value.as_ref().map_or(true, |out| out.iter().all(valid_id))
        });
        if !consistent {
            return false;
        }
        // Build the sharded maps outside the locks; installation is then a
        // plain swap per shard.
        let mut shard_maps: Vec<FxHashMap<Arc<State>, u32>> =
            (0..SHARDS).map(|_| FxHashMap::default()).collect();
        let mut arcs: Vec<Arc<State>> = Vec::with_capacity(num_states);
        for (position, state) in states.into_iter().enumerate() {
            let state = Arc::new(state);
            let shard = Self::state_shard(&state);
            if shard_maps[shard]
                .insert(Arc::clone(&state), position as u32)
                .is_some()
            {
                // A duplicate state collapsed — the snapshot's ids would be
                // dangling. Reject rather than guess.
                return false;
            }
            arcs.push(state);
        }
        let mut apply_maps: Vec<SharedApplyMap> =
            (0..SHARDS).map(|_| SharedApplyMap::default()).collect();
        for (key, value) in entries {
            apply_maps[Self::apply_shard(&key)].insert(key, value);
        }
        // Take every write lock in shard order, verify emptiness, then swap
        // the prebuilt maps in — all-or-nothing, as before the sharding.
        let mut state_guards: Vec<_> = self
            .state_shards
            .iter()
            .map(|shard| shard.write().expect("interner shard lock"))
            .collect();
        let mut apply_guards: Vec<_> = self
            .apply_shards
            .iter()
            .map(|shard| shard.write().expect("apply shard lock"))
            .collect();
        if self.arena.len() != 0
            || state_guards.iter().any(|guard| !guard.is_empty())
            || apply_guards.iter().any(|guard| !guard.is_empty())
        {
            return false;
        }
        for (position, state) in arcs.iter().enumerate() {
            self.arena.set(position as u32, Arc::clone(state));
        }
        self.arena.len.store(num_states, Ordering::Release);
        for (guard, map) in state_guards.iter_mut().zip(shard_maps) {
            **guard = map;
        }
        for (guard, map) in apply_guards.iter_mut().zip(apply_maps) {
            **guard = map;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::apply_collective;

    #[test]
    fn shared_apply_matches_direct_semantics() {
        let shared = SharedTables::new();
        let states: Vec<State> = (0..4).map(|d| State::initial(4, d)).collect();
        let ids: Vec<u32> = states.iter().map(|s| shared.intern(s.clone()).0).collect();
        for collective in Collective::ALL {
            let direct = apply_collective(collective, &states);
            let (result, hit) = shared.apply(collective, &ids);
            assert!(!hit);
            let via_shared =
                result.map(|out| out.iter().map(|&id| (*shared.get(id)).clone()).collect());
            assert_eq!(
                direct, via_shared,
                "{collective} diverged through SharedTables"
            );
            // Repeats hit.
            let (_, hit) = shared.apply(collective, &ids);
            assert!(hit);
        }
        assert_eq!(shared.apply_misses(), Collective::ALL.len());
        assert_eq!(shared.apply_hits(), Collective::ALL.len());
        assert!(shared.num_apply_entries() > 0);
    }

    #[test]
    fn shared_apply_hits_on_repeats_and_memoizes_errors() {
        let shared = SharedTables::new();
        let ids: Vec<u32> = (0..2)
            .map(|d| shared.intern(State::initial(2, d)).0)
            .collect();
        let first = shared.apply(Collective::AllReduce, &ids).0.unwrap();
        let again = shared.apply(Collective::AllReduce, &ids).0.unwrap();
        assert_eq!(first, again);
        assert_eq!((shared.apply_hits(), shared.apply_misses()), (1, 1));
        // Reducing the already-reduced pair double-counts; the error is
        // memoized like any other result.
        let err = shared.apply(Collective::AllReduce, &first).0.unwrap_err();
        assert_eq!(err, SemanticsError::OverlappingContributions);
        let err2 = shared.apply(Collective::AllReduce, &first).0.unwrap_err();
        assert_eq!(err, err2);
        assert_eq!((shared.apply_hits(), shared.apply_misses()), (2, 2));
    }

    #[test]
    fn shared_tables_report_presence_on_intern() {
        let shared = SharedTables::new();
        let (a, present) = shared.intern(State::initial(2, 0));
        assert!(!present);
        let (b, present) = shared.intern(State::initial(2, 0));
        assert!(present);
        assert_eq!(a, b);
        assert_eq!(shared.num_states(), 1);
    }

    #[test]
    fn shared_tables_are_consistent_under_concurrency() {
        let shared = Arc::new(SharedTables::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let ids: Vec<u32> = (0..4)
                        .map(|d| shared.intern(State::initial(4, d)).0)
                        .collect();
                    let (result, _) = shared.apply(Collective::AllReduce, &ids);
                    let out = result.unwrap();
                    out.iter()
                        .map(|&id| (*shared.get(id)).clone())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let outputs: Vec<Vec<State>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        // 4 initial states + 1 shared post-AllReduce state.
        assert_eq!(shared.num_states(), 5);
        assert_eq!(shared.num_apply_entries(), 1);
    }

    #[test]
    fn export_preload_round_trips_and_warm_tables_only_hit() {
        let source = SharedTables::new();
        let ids: Vec<u32> = (0..4)
            .map(|d| source.intern(State::initial(4, d)).0)
            .collect();
        source.apply(Collective::AllReduce, &ids).0.unwrap();
        source
            .apply(Collective::AllReduce, &[ids[0], ids[0]])
            .0
            .unwrap_err();
        let (states, entries) = source.export();
        assert_eq!(states.len(), source.num_states());
        assert_eq!(entries.len(), 2);

        let warm = SharedTables::new();
        assert!(warm.preload(
            states.iter().map(|s| (**s).clone()).collect(),
            entries.clone()
        ));
        assert_eq!(warm.num_states(), source.num_states());
        assert_eq!(warm.num_apply_entries(), source.num_apply_entries());
        // Every re-derivation is now a hit producing identical results, and
        // re-interning reports presence with the original ids.
        for (d, &id) in ids.iter().enumerate() {
            let (warm_id, present) = warm.intern(State::initial(4, d));
            assert!(present);
            assert_eq!(warm_id, id);
        }
        let (cold_out, _) = source.apply(Collective::AllReduce, &ids);
        let (warm_out, hit) = warm.apply(Collective::AllReduce, &ids);
        assert!(hit);
        assert_eq!(cold_out.unwrap(), warm_out.unwrap());
        let (_, hit) = warm.apply(Collective::AllReduce, &[ids[0], ids[0]]);
        assert!(hit);

        // Non-empty tables refuse a preload.
        assert!(!warm.preload(vec![], vec![]));
        // Dangling apply ids and duplicate states are rejected.
        let fresh = SharedTables::new();
        assert!(!fresh.preload(
            vec![State::initial(2, 0)],
            vec![(vec![0, 0, 7].into_boxed_slice(), Ok(vec![0].into()))],
        ));
        assert!(!fresh.preload(vec![State::initial(2, 0), State::initial(2, 0)], vec![]));
        assert_eq!(fresh.num_states(), 0);
    }

    #[test]
    fn distinct_collectives_do_not_collide() {
        let shared = SharedTables::new();
        let ids: Vec<u32> = (0..2)
            .map(|d| shared.intern(State::initial(2, d)).0)
            .collect();
        let reduced = shared.apply(Collective::Reduce, &ids).0.unwrap();
        let all = shared.apply(Collective::AllReduce, &ids).0.unwrap();
        assert_ne!(reduced, all);
        assert_eq!(shared.apply_misses(), 2);
    }
}
