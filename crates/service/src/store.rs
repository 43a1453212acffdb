//! The content-addressed plan store: an in-memory LRU over the hot
//! fingerprints backed by an optional persistent on-disk store, one
//! versioned JSON record per fingerprint.
//!
//! Layout on disk is flat: `<dir>/<32-hex-fingerprint>.json`, written via a
//! temp file + atomic rename so a crash mid-write can never leave a torn
//! record under a valid address. Each record is framed by
//! [`Fingerprint::seal`]: its first line is the fingerprint of the plan
//! document after it, so a flipped digit that still parses is caught.
//! Unreadable, corrupt, digest-mismatched or schema-incompatible records
//! are treated as misses (and counted), never as errors — a cache must
//! degrade to "synthesize again", not fail the request.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2_hash::Fingerprint;

use crate::error::ServiceError;
use crate::json::Json;
use crate::plan::Plan;

/// Where a plan was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// In-memory LRU hit.
    Warm,
    /// On-disk record (promoted into the LRU on read).
    Disk,
    /// A synthesis this very request triggered.
    Synthesized,
    /// Another in-flight request's synthesis this request coalesced onto.
    Coalesced,
}

impl PlanSource {
    /// The wire token (`"warm"`, `"disk"`, `"synthesized"`, `"coalesced"`).
    pub fn as_str(self) -> &'static str {
        match self {
            PlanSource::Warm => "warm",
            PlanSource::Disk => "disk",
            PlanSource::Synthesized => "synthesized",
            PlanSource::Coalesced => "coalesced",
        }
    }
}

/// One resident plan plus the bookkeeping the eviction policies need.
#[derive(Debug)]
struct StoreEntry {
    plan: Arc<Plan>,
    /// Last-touch tick (LRU ordering).
    stamp: u64,
    /// Serialized record size, charged against the byte cap.
    bytes: u64,
    /// Insertion time (TTL expiry). Refreshed on re-insert, not on read.
    inserted: Instant,
}

/// LRU + disk store of plans keyed by request fingerprint, with optional
/// byte-size-cap and TTL eviction layered on top of the count-bounded LRU.
/// Not internally synchronized — the [`Planner`](crate::Planner) wraps it in
/// its own lock.
#[derive(Debug)]
pub struct PlanStore {
    capacity: usize,
    /// Optional cap on the summed serialized size of resident plans.
    max_bytes: Option<u64>,
    /// Optional maximum residency: entries older than this read as misses
    /// and are dropped (disk records are untouched).
    ttl: Option<Duration>,
    dir: Option<PathBuf>,
    entries: HashMap<u128, StoreEntry>,
    resident_bytes: u64,
    tick: u64,
    evictions: u64,
    size_evictions: u64,
    ttl_evictions: u64,
    disk_misreads: u64,
}

impl PlanStore {
    /// A purely in-memory store holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn in_memory(capacity: usize) -> PlanStore {
        assert!(capacity > 0, "plan store capacity must be positive");
        PlanStore {
            capacity,
            max_bytes: None,
            ttl: None,
            dir: None,
            entries: HashMap::new(),
            resident_bytes: 0,
            tick: 0,
            evictions: 0,
            size_evictions: 0,
            ttl_evictions: 0,
            disk_misreads: 0,
        }
    }

    /// Caps the summed serialized size of in-memory plans: inserts evict the
    /// least-recently-used entries until the new total fits. `None` (the
    /// default) disables the cap. Disk records are never size-evicted.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> PlanStore {
        self.max_bytes = max_bytes;
        self
    }

    /// Sets a time-to-live for in-memory entries: a lookup older than `ttl`
    /// after insertion reads as a miss and drops the entry (a persistent
    /// store then falls through to disk, where the record remains — TTL
    /// bounds *staleness of the hot layer*, e.g. for calibrated-model plans
    /// a caller wants re-checked periodically). `None` disables expiry.
    pub fn with_ttl(mut self, ttl: Option<Duration>) -> PlanStore {
        self.ttl = ttl;
        self
    }

    /// A store backed by `dir` (created if absent): inserts write through to
    /// disk, LRU misses fall back to disk, and evictions only drop the
    /// in-memory copy.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Store`] if the directory cannot be created.
    pub fn persistent(capacity: usize, dir: impl Into<PathBuf>) -> Result<PlanStore, ServiceError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServiceError::Store(format!("create {}: {e}", dir.display())))?;
        let mut store = PlanStore::in_memory(capacity);
        store.dir = Some(dir);
        Ok(store)
    }

    /// The on-disk path of a fingerprint's record (`None` for in-memory
    /// stores).
    pub fn path_for(&self, fingerprint: Fingerprint) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|dir| dir.join(format!("{fingerprint}.json")))
    }

    /// Looks up a plan: LRU first (expired entries read as misses), then
    /// disk. A disk hit is promoted into the LRU.
    pub fn get(&mut self, fingerprint: Fingerprint) -> Option<(Arc<Plan>, PlanSource)> {
        self.tick += 1;
        self.expire_one(fingerprint.0);
        if let Some(entry) = self.entries.get_mut(&fingerprint.0) {
            entry.stamp = self.tick;
            return Some((Arc::clone(&entry.plan), PlanSource::Warm));
        }
        let path = self.path_for(fingerprint)?;
        let plan = match self.read_record(&path, fingerprint) {
            Some(plan) => Arc::new(plan),
            None => return None,
        };
        self.insert_memory(Arc::clone(&plan));
        Some((plan, PlanSource::Disk))
    }

    /// Inserts a plan under its own fingerprint, writing through to disk
    /// when persistent.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Store`] if the disk write fails; the
    /// in-memory insert still happened.
    pub fn insert(&mut self, plan: Arc<Plan>) -> Result<(), ServiceError> {
        self.tick += 1;
        let fingerprint = plan.fingerprint;
        self.insert_memory(Arc::clone(&plan));
        if let Some(path) = self.path_for(fingerprint) {
            let record = Fingerprint::seal(&plan.to_json().to_string());
            write_atomically(&path, &format!("{record}\n"))?;
        }
        Ok(())
    }

    fn insert_memory(&mut self, plan: Arc<Plan>) {
        let key = plan.fingerprint.0;
        self.sweep_expired();
        let bytes = plan.to_json().to_string().len() as u64;
        if let Some(old) = self.entries.remove(&key) {
            self.resident_bytes -= old.bytes;
        }
        if self.entries.len() >= self.capacity {
            // Evict the least-recently-used entry. Linear scan: admission
            // capacities are small (hundreds), and this is off the hit path.
            if self.evict_lru() {
                self.evictions += 1;
            }
        }
        // The byte cap evicts LRU-first too; an oversized plan still gets
        // resident (dropping the plan just synthesized would defeat the
        // single-flight path), so the cap can be exceeded by one entry.
        if let Some(cap) = self.max_bytes {
            while self.resident_bytes + bytes > cap && self.evict_lru() {
                self.size_evictions += 1;
            }
        }
        self.resident_bytes += bytes;
        self.entries.insert(
            key,
            StoreEntry {
                plan,
                stamp: self.tick,
                bytes,
                inserted: Instant::now(),
            },
        );
    }

    /// Drops the least-recently-used entry; false when the store is empty.
    fn evict_lru(&mut self) -> bool {
        let Some(&lru) = self
            .entries
            .iter()
            .min_by_key(|(_, entry)| entry.stamp)
            .map(|(k, _)| k)
        else {
            return false;
        };
        let entry = self.entries.remove(&lru).expect("lru key just found");
        self.resident_bytes -= entry.bytes;
        true
    }

    /// Drops one entry if it has outlived the TTL.
    fn expire_one(&mut self, key: u128) {
        let Some(ttl) = self.ttl else { return };
        if self
            .entries
            .get(&key)
            .is_some_and(|entry| entry.inserted.elapsed() > ttl)
        {
            let entry = self.entries.remove(&key).expect("entry just probed");
            self.resident_bytes -= entry.bytes;
            self.ttl_evictions += 1;
        }
    }

    /// Drops every entry that has outlived the TTL (run off the hit path).
    fn sweep_expired(&mut self) {
        let Some(ttl) = self.ttl else { return };
        let expired: Vec<u128> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.inserted.elapsed() > ttl)
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            let entry = self.entries.remove(&key).expect("expired key just found");
            self.resident_bytes -= entry.bytes;
            self.ttl_evictions += 1;
        }
    }

    fn read_record(&mut self, path: &Path, fingerprint: Fingerprint) -> Option<Plan> {
        let text = std::fs::read_to_string(path).ok()?;
        let decoded = Fingerprint::unseal(text.trim_end())
            .and_then(|document| Json::parse(document).ok())
            .and_then(|json| Plan::from_json(&json).ok())
            .filter(|plan| plan.fingerprint == fingerprint);
        if decoded.is_none() {
            // Readable bytes that fail their digest or don't decode to this
            // address: count the misread; the caller re-synthesizes and
            // overwrites.
            self.disk_misreads += 1;
        }
        decoded
    }

    /// Number of plans currently held in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the in-memory layer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed serialized size of the in-memory entries.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Count-capacity (LRU) evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Byte-cap evictions so far.
    pub fn size_evictions(&self) -> u64 {
        self.size_evictions
    }

    /// TTL expiries so far.
    pub fn ttl_evictions(&self) -> u64 {
        self.ttl_evictions
    }

    /// Disk records that existed but failed to decode (digest mismatch,
    /// corrupt, wrong schema, or wrong address).
    pub fn disk_misreads(&self) -> u64 {
        self.disk_misreads
    }
}

fn write_atomically(path: &Path, contents: &str) -> Result<(), ServiceError> {
    p2_json::write_atomically(path, contents)
        .map_err(|e| ServiceError::Store(format!("write {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanStats;

    fn plan(tag: &str) -> Arc<Plan> {
        Arc::new(Plan {
            fingerprint: Fingerprint::of_bytes(tag.as_bytes()),
            label: tag.to_string(),
            entries: vec![],
            stats: PlanStats {
                placements: 1,
                programs: 1,
                programs_retained: 1,
                states_explored: 1,
                synthesis_micros: 1,
            },
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "p2-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut store = PlanStore::in_memory(2);
        let (a, b, c) = (plan("a"), plan("b"), plan("c"));
        store.insert(Arc::clone(&a)).unwrap();
        store.insert(Arc::clone(&b)).unwrap();
        // Touch `a`, making `b` the LRU victim.
        assert!(store.get(a.fingerprint).is_some());
        store.insert(Arc::clone(&c)).unwrap();
        assert_eq!(store.evictions(), 1);
        assert!(store.get(a.fingerprint).is_some());
        assert!(store.get(b.fingerprint).is_none());
        assert!(store.get(c.fingerprint).is_some());
    }

    #[test]
    fn persistent_store_survives_a_reopen_and_evictions() {
        let dir = temp_dir("persist");
        let a = plan("persisted");
        {
            let mut store = PlanStore::persistent(1, &dir).unwrap();
            store.insert(Arc::clone(&a)).unwrap();
            // Evict it from memory; the record stays on disk.
            store.insert(plan("displacer")).unwrap();
            assert_eq!(store.evictions(), 1);
            let (_, source) = store.get(a.fingerprint).unwrap();
            assert_eq!(source, PlanSource::Disk);
        }
        let mut reopened = PlanStore::persistent(4, &dir).unwrap();
        let (loaded, source) = reopened.get(a.fingerprint).unwrap();
        assert_eq!(source, PlanSource::Disk);
        assert_eq!(*loaded, *a);
        // Now warm.
        let (_, source) = reopened.get(a.fingerprint).unwrap();
        assert_eq!(source, PlanSource::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_evicts_lru_until_the_new_plan_fits() {
        let (a, b, c) = (plan("a"), plan("b"), plan("c"));
        let one = a.to_json().to_string().len() as u64;
        // Room for two serialized plans but not three (labels are all one
        // byte, so every record has the same size).
        let mut store = PlanStore::in_memory(16).with_max_bytes(Some(2 * one));
        store.insert(Arc::clone(&a)).unwrap();
        store.insert(Arc::clone(&b)).unwrap();
        assert_eq!(store.resident_bytes(), 2 * one);
        // Touch `a`, making `b` the victim of the byte cap.
        assert!(store.get(a.fingerprint).is_some());
        store.insert(Arc::clone(&c)).unwrap();
        assert_eq!(store.size_evictions(), 1);
        assert_eq!(store.evictions(), 0);
        assert!(store.get(b.fingerprint).is_none());
        assert!(store.get(a.fingerprint).is_some());
        assert!(store.get(c.fingerprint).is_some());
        assert_eq!(store.resident_bytes(), 2 * one);
        // An oversized plan is still admitted (cap exceeded by one entry).
        let mut tiny = PlanStore::in_memory(16).with_max_bytes(Some(1));
        tiny.insert(Arc::clone(&a)).unwrap();
        assert!(tiny.get(a.fingerprint).is_some());
    }

    #[test]
    fn ttl_expires_hot_entries_but_not_disk_records() {
        let dir = temp_dir("ttl");
        let a = plan("short-lived");
        let mut store = PlanStore::persistent(4, &dir)
            .unwrap()
            .with_ttl(Some(Duration::ZERO));
        store.insert(Arc::clone(&a)).unwrap();
        // The hot entry has already outlived a zero TTL; the lookup falls
        // through to disk and counts the expiry.
        let (_, source) = store.get(a.fingerprint).unwrap();
        assert_eq!(source, PlanSource::Disk);
        assert!(store.ttl_evictions() >= 1);
        // Purely in-memory, the same lookup is a clean miss.
        let mut memory = PlanStore::in_memory(4).with_ttl(Some(Duration::ZERO));
        memory.insert(Arc::clone(&a)).unwrap();
        assert!(memory.get(a.fingerprint).is_none());
        assert_eq!(memory.resident_bytes(), 0);
        // A generous TTL keeps entries warm.
        let mut lasting = PlanStore::in_memory(4).with_ttl(Some(Duration::from_secs(3600)));
        lasting.insert(Arc::clone(&a)).unwrap();
        let (_, source) = lasting.get(a.fingerprint).unwrap();
        assert_eq!(source, PlanSource::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_read_as_misses() {
        let dir = temp_dir("corrupt");
        let a = plan("will-corrupt");
        let mut store = PlanStore::persistent(2, &dir).unwrap();
        store.insert(Arc::clone(&a)).unwrap();
        let path = store.path_for(a.fingerprint).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        let mut reopened = PlanStore::persistent(2, &dir).unwrap();
        assert!(reopened.get(a.fingerprint).is_none());
        assert_eq!(reopened.disk_misreads(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
