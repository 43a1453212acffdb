//! Cross-run persistence of the synthesis search tables.
//!
//! A sweep's hash-consing tables — the interned device-state universe and
//! collective apply cache of [`p2_collectives::SharedTables`] plus the
//! per-context suffix memos of a [`p2_synthesis::MemoBank`] — are a pure
//! function of the machine shape, the collective algorithm, the synthesis
//! hierarchy and the program-size limit. Nothing about the cost model, buffer
//! size, noise or run mode reaches them, so one run's tables can warm-start
//! any later run that shares those inputs. The [`TableStore`] persists them
//! as versioned JSON snapshots under `<table_key>.json`, where the key is
//! [`P2Config::table_key`](crate::P2Config::table_key) — a
//! `p2_hash::stable_digest128` over the tables-subset canonical form
//! ([`canonical_tables_form`](crate::canonical::canonical_tables_form)) and
//! deliberately coarser than a plan fingerprint.
//!
//! Warm-starting is result-invisible: interner ids are only used for
//! equality/memoization and memo counts are deterministic per context, so a
//! warm run produces bit-identical programs, orderings and retained sets for
//! any thread count and steal seed (pinned in `tests/determinism.rs`). Only
//! the warm-reuse counters in [`TableStoreStats`] observe the difference.
//!
//! The store is deliberately forgiving: a missing, torn, version-skewed or
//! otherwise corrupt snapshot is a counted cache miss, never an error —
//! exactly the plan store's contract. Writes go through
//! [`p2_json::write_atomically`] so a crash mid-save can never leave a torn
//! snapshot under a valid key.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use p2_collectives::{SemanticsError, SharedTables, State};
use p2_hash::Fingerprint;
use p2_json::{Json, JsonObject};
use p2_synthesis::{MemoBank, MemoSlab, MEMO_UNKNOWN};

use crate::canonical::CANONICAL_TABLES_VERSION;

/// One apply-cache entry: the `[collective tag, participant ids...]` key and
/// its memoized outcome (result-state ids, or the semantics violation).
pub type ApplyEntry = (Box<[u32]>, Result<Arc<[u32]>, SemanticsError>);

/// One sweep's search tables in serializable form: the interned device
/// states in id order, the collective apply cache re-keyed by those dense
/// ids, and the per-context suffix-memo slabs.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// Interned device states, index = interner id. Serialized in id order so
    /// re-interning them in order on load reproduces identical ids.
    pub states: Vec<State>,
    /// Apply-cache entries with their memoized outcomes.
    pub apply: Vec<ApplyEntry>,
    /// Suffix-memo slabs by context key, in key order.
    pub memo: Vec<(String, MemoSlab)>,
}

/// Counters describing one session's or planner table key's interaction with
/// the table store: what was loaded, how much of it warmed the run, and what
/// was saved back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStoreStats {
    /// The snapshot address, `{:032x}`-rendered.
    pub table_key: String,
    /// Whether a valid snapshot was found under the key.
    pub loaded: bool,
    /// Wall-clock microseconds spent reading + installing the snapshot
    /// (including a miss's failed read).
    pub load_micros: u64,
    /// Interned device states adopted from the snapshot.
    pub warm_states: usize,
    /// Apply-cache entries adopted from the snapshot.
    pub warm_apply_entries: usize,
    /// Suffix-memo slabs adopted from the snapshot.
    pub warm_memo_slabs: usize,
    /// Known suffix-memo entries adopted from the snapshot, summed over slabs.
    pub warm_memo_entries: usize,
    /// Searches that started from a warm memo slab during the run.
    pub seeded_searches: usize,
    /// Known memo entries handed to those searches, summed.
    pub seeded_entries: usize,
    /// Whether a snapshot was written back after the run.
    pub saved: bool,
    /// Wall-clock microseconds spent serializing + writing the snapshot.
    pub save_micros: u64,
    /// Interned device states in the saved snapshot.
    pub saved_states: usize,
    /// Apply-cache entries in the saved snapshot.
    pub saved_apply_entries: usize,
    /// Suffix-memo slabs in the saved snapshot.
    pub saved_memo_slabs: usize,
}

impl TableSnapshot {
    /// Captures the current content of a sweep's shared tables and memo bank
    /// (`tables: None` — a sweep interning privately — captures memo slabs
    /// only). Apply entries are sorted by key so equal tables serialize to
    /// equal bytes regardless of hash-map iteration order.
    pub fn capture(tables: Option<&SharedTables>, bank: &MemoBank) -> Self {
        let (states, mut apply) = match tables {
            Some(tables) => tables.export(),
            None => (Vec::new(), Vec::new()),
        };
        apply.sort_by(|(a, _), (b, _)| a.cmp(b));
        TableSnapshot {
            states: states.iter().map(|s| State::clone(s)).collect(),
            apply,
            memo: bank.export(),
        }
    }

    /// Whether the snapshot holds nothing worth persisting.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty() && self.apply.is_empty() && self.memo.is_empty()
    }

    /// Installs the snapshot into empty tables and a memo bank, recording
    /// what was adopted into `stats`. The interner preload is all-or-nothing
    /// (and refuses non-empty tables); memo slabs merge individually.
    pub fn install(
        self,
        tables: Option<&SharedTables>,
        bank: &MemoBank,
        stats: &mut TableStoreStats,
    ) {
        let num_states = self.states.len();
        let num_entries = self.apply.len();
        if let Some(tables) = tables {
            if tables.preload(self.states, self.apply) {
                stats.warm_states = num_states;
                stats.warm_apply_entries = num_entries;
            }
        }
        for (key, slab) in self.memo {
            if slab.is_well_formed() {
                stats.warm_memo_slabs += 1;
                stats.warm_memo_entries += slab.known_entries();
                bank.publish(&key, slab);
            }
        }
    }

    /// Serializes the snapshot as the one-document JSON record stored under
    /// `key`. All `u64` payloads (state bit-matrix words, memo counts) travel
    /// as hex *strings*: JSON numbers are `f64` and cannot carry them
    /// bit-exactly.
    pub fn to_json_string(&self, key: Fingerprint) -> String {
        let states: Vec<Json> = self
            .states
            .iter()
            .map(|state| {
                let mut words = String::with_capacity(state.raw_words().len() * 16);
                for word in state.raw_words() {
                    words.push_str(&format!("{word:016x}"));
                }
                Json::Arr(vec![Json::Num(state.dim() as f64), Json::Str(words)])
            })
            .collect();
        let apply: Vec<Json> = self
            .apply
            .iter()
            .map(|(apply_key, value)| {
                let key_ids = Json::Arr(apply_key.iter().map(|&id| Json::Num(id as f64)).collect());
                let value = match value {
                    Ok(ids) => Json::Arr(ids.iter().map(|&id| Json::Num(id as f64)).collect()),
                    Err(e) => Json::Str(e.stable_token().to_string()),
                };
                Json::Arr(vec![key_ids, value])
            })
            .collect();
        let memo: Vec<Json> = self
            .memo
            .iter()
            .map(|(memo_key, slab)| {
                JsonObject::new()
                    .push("key", Json::Str(memo_key.clone()))
                    .push("states", Json::Num(slab.num_states as f64))
                    .push("width", Json::Num(slab.width as f64))
                    .push("counts", Json::Str(encode_counts(&slab.counts)))
                    .build()
            })
            .collect();
        JsonObject::new()
            .push("schema", Json::Str(CANONICAL_TABLES_VERSION.to_string()))
            .push("table_key", Json::Str(format!("{key}")))
            .push("states", Json::Arr(states))
            .push("apply", Json::Arr(apply))
            .push("memo", Json::Arr(memo))
            .build()
            .to_string()
    }

    /// Parses a snapshot record, requiring the schema version and the stored
    /// key to match. Any malformation returns `None` — the caller treats it
    /// as a miss.
    pub fn from_json_str(text: &str, key: Fingerprint) -> Option<TableSnapshot> {
        let doc = Json::parse(text).ok()?;
        if doc.get("schema")?.as_str()? != CANONICAL_TABLES_VERSION {
            return None;
        }
        if Fingerprint::parse_hex(doc.get("table_key")?.as_str()?)? != key {
            return None;
        }
        let mut states = Vec::new();
        for entry in doc.get("states")?.as_arr()? {
            let fields = entry.as_arr()?;
            if fields.len() != 2 {
                return None;
            }
            let k = fields[0].as_u64()? as usize;
            let hex = fields[1].as_str()?;
            if hex.len() % 16 != 0 {
                return None;
            }
            let words: Option<Vec<u64>> = hex
                .as_bytes()
                .chunks(16)
                .map(|chunk| u64::from_str_radix(std::str::from_utf8(chunk).ok()?, 16).ok())
                .collect();
            states.push(State::from_raw_words(k, words?)?);
        }
        let mut apply = Vec::new();
        for entry in doc.get("apply")?.as_arr()? {
            let fields = entry.as_arr()?;
            if fields.len() != 2 {
                return None;
            }
            let key_ids: Option<Vec<u32>> = fields[0]
                .as_arr()?
                .iter()
                .map(|id| u32::try_from(id.as_u64()?).ok())
                .collect();
            let value = match &fields[1] {
                Json::Str(token) => Err(SemanticsError::from_stable_token(token)?),
                Json::Arr(ids) => {
                    let ids: Option<Vec<u32>> = ids
                        .iter()
                        .map(|id| u32::try_from(id.as_u64()?).ok())
                        .collect();
                    Ok(Arc::from(ids?.into_boxed_slice()))
                }
                _ => return None,
            };
            apply.push((key_ids?.into_boxed_slice(), value));
        }
        let mut memo = Vec::new();
        for entry in doc.get("memo")?.as_arr()? {
            let slab = MemoSlab {
                num_states: entry.get("states")?.as_u64()? as usize,
                width: entry.get("width")?.as_u64()? as usize,
                counts: decode_counts(entry.get("counts")?.as_str()?)?.into(),
            };
            if !slab.is_well_formed() {
                return None;
            }
            memo.push((entry.get("key")?.as_str()?.to_string(), slab));
        }
        Some(TableSnapshot {
            states,
            apply,
            memo,
        })
    }
}

/// Comma-joined lowercase-hex memo counts, with `?` marking
/// [`MEMO_UNKNOWN`] entries.
fn encode_counts(counts: &[u64]) -> String {
    let mut out = String::with_capacity(counts.len() * 2);
    for (i, &count) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if count == MEMO_UNKNOWN {
            out.push('?');
        } else {
            use std::fmt::Write as _;
            let _ = write!(out, "{count:x}");
        }
    }
    out
}

fn decode_counts(text: &str) -> Option<Vec<u64>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',')
        .map(|field| {
            if field == "?" {
                Some(MEMO_UNKNOWN)
            } else {
                u64::from_str_radix(field, 16).ok()
            }
        })
        .collect()
}

/// A directory of table snapshots, one `<table_key>.json` per key.
///
/// [`TableStore::warm`] and [`TableStore::persist`] are the whole protocol:
/// load-install-time before a run, capture-save-time after it. Neither
/// fails — an unreadable snapshot is a miss and a failed save is telemetry
/// (the run's results are already in hand).
#[derive(Debug, Clone)]
pub struct TableStore {
    dir: PathBuf,
}

impl TableStore {
    /// A store rooted at `dir`. The directory is created lazily on first
    /// save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TableStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot path for `key`.
    pub fn path_for(&self, key: Fingerprint) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Warms empty `tables` (`None` for a sweep interning privately) and
    /// `bank` from the snapshot stored under `key`, returning the load
    /// telemetry. A missing, unreadable, version-skewed or corrupt snapshot
    /// is a counted miss that leaves them cold.
    pub fn warm(
        &self,
        key: Fingerprint,
        tables: Option<&SharedTables>,
        bank: &MemoBank,
    ) -> TableStoreStats {
        let mut stats = TableStoreStats {
            table_key: format!("{key}"),
            ..TableStoreStats::default()
        };
        let started = Instant::now();
        if let Some(snapshot) = self.load(key) {
            stats.loaded = true;
            snapshot.install(tables, bank, &mut stats);
        }
        stats.load_micros = started.elapsed().as_micros() as u64;
        stats
    }

    /// Captures `tables` and `bank` after a run and saves them under `key`,
    /// recording the save and the bank's seeded-search counters into
    /// `stats`. An empty capture is not written; a failed write leaves
    /// `stats.saved` false.
    pub fn persist(
        &self,
        key: Fingerprint,
        tables: Option<&SharedTables>,
        bank: &MemoBank,
        stats: &mut TableStoreStats,
    ) {
        let started = Instant::now();
        let snapshot = TableSnapshot::capture(tables, bank);
        stats.saved_states = snapshot.states.len();
        stats.saved_apply_entries = snapshot.apply.len();
        stats.saved_memo_slabs = snapshot.memo.len();
        stats.saved = !snapshot.is_empty() && self.save(key, &snapshot).is_ok();
        stats.save_micros = started.elapsed().as_micros() as u64;
        stats.seeded_searches = bank.seeded_searches();
        stats.seeded_entries = bank.seeded_entries();
    }

    /// Loads and validates the snapshot stored under `key`. Missing files,
    /// unreadable files, version skew and key mismatches all return `None`.
    fn load(&self, key: Fingerprint) -> Option<TableSnapshot> {
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        TableSnapshot::from_json_str(&text, key)
    }

    /// Atomically writes `snapshot` under `key`, creating the store
    /// directory if needed.
    fn save(&self, key: Fingerprint, snapshot: &TableSnapshot) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        p2_json::write_atomically(&self.path_for(key), &snapshot.to_json_string(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_collectives::Collective;

    fn sample_tables() -> (SharedTables, MemoBank) {
        let tables = SharedTables::new();
        let (a, _) = tables.intern(State::initial(4, 0));
        let (b, _) = tables.intern(State::initial(4, 1));
        let (ok, _) = tables.apply(Collective::AllReduce, &[a, b]);
        assert!(ok.is_ok(), "disjoint initial states should reduce");
        let (err, _) = tables.apply(Collective::AllReduce, &[a, a]);
        assert!(err.is_err(), "overlapping contributions should be rejected");
        let bank = MemoBank::new();
        bank.publish(
            "memo-v1|test",
            MemoSlab {
                num_states: 2,
                width: 3,
                counts: vec![1, MEMO_UNKNOWN, u64::MAX - 1, 0, 7, MEMO_UNKNOWN].into(),
            },
        );
        (tables, bank)
    }

    fn sample_snapshot() -> TableSnapshot {
        let (tables, bank) = sample_tables();
        TableSnapshot::capture(Some(&tables), &bank)
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let snapshot = sample_snapshot();
        let key = Fingerprint::of_bytes(b"test-key");
        let text = snapshot.to_json_string(key);
        let back = TableSnapshot::from_json_str(&text, key).expect("valid snapshot");
        assert_eq!(back.states, snapshot.states);
        assert_eq!(back.apply, snapshot.apply);
        assert_eq!(back.memo, snapshot.memo);
        // Serialization is canonical: re-serializing reproduces the bytes.
        assert_eq!(back.to_json_string(key), text);
        // Saturated (near-u64::MAX) counts survive — they cannot travel as
        // JSON numbers.
        assert!(back.memo[0].1.counts.contains(&(u64::MAX - 1)));
    }

    #[test]
    fn mismatched_key_or_schema_is_a_miss() {
        let snapshot = sample_snapshot();
        let key = Fingerprint::of_bytes(b"test-key");
        let text = snapshot.to_json_string(key);
        let other = Fingerprint::of_bytes(b"other-key");
        assert!(TableSnapshot::from_json_str(&text, other).is_none());
        let skewed = text.replace(CANONICAL_TABLES_VERSION, "p2-tables-v0");
        assert!(TableSnapshot::from_json_str(&skewed, key).is_none());
        for corrupt in ["", "{", "{\"schema\":3}", "null"] {
            assert!(TableSnapshot::from_json_str(corrupt, key).is_none());
        }
    }

    #[test]
    fn store_saves_loads_and_shrugs_off_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "p2-table-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TableStore::new(&dir);
        let key = Fingerprint::of_bytes(b"store-key");
        // Missing directory, missing file: a miss that leaves the tables
        // cold, not an error; an empty capture is not written.
        let (tables, bank) = (SharedTables::new(), MemoBank::new());
        let mut stats = store.warm(key, Some(&tables), &bank);
        assert!(!stats.loaded);
        assert_eq!(stats.table_key, format!("{key}"));
        store.persist(key, Some(&tables), &bank, &mut stats);
        assert!(!stats.saved);
        assert!(!store.path_for(key).exists());
        // A populated pair persists; warming fresh tables from it reproduces
        // ids and contents and fills the counters.
        let (tables, bank) = sample_tables();
        let snapshot = TableSnapshot::capture(Some(&tables), &bank);
        let mut saved = TableStoreStats::default();
        store.persist(key, Some(&tables), &bank, &mut saved);
        assert!(saved.saved);
        assert_eq!(saved.saved_states, snapshot.states.len());
        assert_eq!(saved.saved_apply_entries, snapshot.apply.len());
        assert_eq!(saved.saved_memo_slabs, 1);
        let (tables, bank) = (SharedTables::new(), MemoBank::new());
        let stats = store.warm(key, Some(&tables), &bank);
        assert!(stats.loaded);
        assert_eq!(stats.warm_states, snapshot.states.len());
        assert_eq!(stats.warm_apply_entries, snapshot.apply.len());
        assert_eq!(stats.warm_memo_slabs, 1);
        assert_eq!(stats.warm_memo_entries, 4);
        assert_eq!(tables.num_apply_entries(), snapshot.apply.len());
        let back = TableSnapshot::capture(Some(&tables), &bank);
        assert_eq!(back.states, snapshot.states);
        assert_eq!(back.apply, snapshot.apply);
        assert_eq!(back.memo, snapshot.memo);
        // Torn/corrupt snapshot bytes under the key: a miss again.
        std::fs::write(store.path_for(key), "{\"schema\":").unwrap();
        let (tables, bank) = (SharedTables::new(), MemoBank::new());
        assert!(!store.warm(key, Some(&tables), &bank).loaded);
        assert_eq!((tables.num_states(), bank.len()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
