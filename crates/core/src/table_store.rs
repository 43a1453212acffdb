//! Cross-run persistence of the synthesis search tables.
//!
//! A sweep's hash-consing tables — the interned device-state universe and
//! collective apply cache of [`p2_collectives::SharedTables`] — are a pure
//! function of the machine shape, the collective algorithm, the synthesis
//! hierarchy and the program-size limit. Nothing about the cost model, buffer
//! size, noise or run mode reaches them, so one run's tables can warm-start
//! any later run that shares those inputs. The [`TableStore`] persists them
//! as versioned, digest-checked JSON snapshots under `<table_key>.json`,
//! where the key is [`P2Config::table_key`](crate::P2Config::table_key) — a
//! `p2_hash::stable_digest128` over the tables-subset canonical form
//! ([`canonical_tables_form`](crate::canonical::canonical_tables_form)) and
//! deliberately coarser than a plan fingerprint. The planner is the one
//! owner that persists tables; a session only borrows them.
//!
//! Warm-starting is result-invisible: interner ids are only used for
//! equality and memoization, and every apply entry a snapshot carries is the
//! one a cold run derives, so a warm run produces bit-identical programs,
//! orderings and retained sets for any thread count and steal seed (pinned
//! in `tests/determinism.rs`). Only the warm-reuse counters in
//! [`TableStoreStats`] observe the difference.
//!
//! The store is deliberately forgiving: a missing, torn, version-skewed,
//! digest-mismatched or otherwise corrupt snapshot is a counted cache miss,
//! never an error or a panic — exactly the plan store's contract. Each
//! record is framed by [`Fingerprint::seal`], as plan records are: its first
//! line is the fingerprint of the JSON document after it, so a flipped bit that still parses (an apply outcome naming the
//! wrong state, say) cannot silently change a plan. Writes go through
//! [`p2_json::write_atomically`] so a crash mid-save can never leave a torn
//! snapshot under a valid key.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use p2_collectives::{SemanticsError, SharedTables, State};
use p2_hash::Fingerprint;
use p2_json::{Json, JsonObject};

use crate::canonical::CANONICAL_TABLES_VERSION;

/// One apply-cache entry: the `[collective tag, participant ids...]` key and
/// its memoized outcome (result-state ids, or the semantics violation).
pub type ApplyEntry = (Box<[u32]>, Result<Arc<[u32]>, SemanticsError>);

/// One sweep's search tables in serializable form: the interned device
/// states in id order and the collective apply cache re-keyed by those dense
/// ids.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// Interned device states, index = interner id. Serialized in id order so
    /// re-interning them in order on load reproduces identical ids.
    pub states: Vec<State>,
    /// Apply-cache entries with their memoized outcomes.
    pub apply: Vec<ApplyEntry>,
}

/// Counters describing one table key's interaction with the table store:
/// what was loaded, how much of it warmed the tables, and what was saved
/// back.
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
    /// Whether a snapshot was written back after the run.
    pub saved: bool,
    /// Wall-clock microseconds spent serializing + writing the snapshot.
    pub save_micros: u64,
    /// Interned device states in the saved snapshot.
    pub saved_states: usize,
    /// Apply-cache entries in the saved snapshot.
    pub saved_apply_entries: usize,
}

impl TableSnapshot {
    /// Captures the current content of a sweep's shared tables. Apply
    /// entries are sorted by key so equal tables serialize to equal bytes
    /// regardless of hash-map iteration order.
    pub fn capture(tables: &SharedTables) -> Self {
        let (states, mut apply) = tables.export();
        apply.sort_by(|(a, _), (b, _)| a.cmp(b));
        TableSnapshot {
            states: states.iter().map(|s| State::clone(s)).collect(),
            apply,
        }
    }

    /// Whether the snapshot holds nothing worth persisting.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty() && self.apply.is_empty()
    }

    /// Installs the snapshot into empty tables, recording what was adopted
    /// into `stats`. The preload is all-or-nothing and refuses non-empty
    /// tables.
    pub fn install(self, tables: &SharedTables, stats: &mut TableStoreStats) {
        let num_states = self.states.len();
        let num_entries = self.apply.len();
        if tables.preload(self.states, self.apply) {
            stats.warm_states = num_states;
            stats.warm_apply_entries = num_entries;
        }
    }

    /// Serializes the snapshot as the record stored under `key`, sealed by
    /// [`Fingerprint::seal`]: one line holding the fingerprint of the JSON
    /// document that follows it, then the document. State bit-matrix words travel as hex *strings*:
    /// JSON numbers are `f64` and cannot carry a `u64` bit-exactly.
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
        let document = JsonObject::new()
            .push("schema", Json::Str(CANONICAL_TABLES_VERSION.to_string()))
            .push("table_key", Json::Str(format!("{key}")))
            .push("states", Json::Arr(states))
            .push("apply", Json::Arr(apply))
            .build()
            .to_string();
        Fingerprint::seal(&document)
    }

    /// Parses a snapshot record, requiring the digest line to match the
    /// document's bytes and the schema version and the stored key to match.
    /// Any malformation returns `None` — the caller treats it as a miss.
    pub fn from_json_str(text: &str, key: Fingerprint) -> Option<TableSnapshot> {
        let doc = Json::parse(Fingerprint::unseal(text)?).ok()?;
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
        Some(TableSnapshot { states, apply })
    }
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

    /// Warms empty `tables` from the snapshot stored under `key`, returning
    /// the load telemetry. A missing, unreadable, version-skewed or corrupt
    /// snapshot is a counted miss that leaves them cold.
    pub fn warm(&self, key: Fingerprint, tables: &SharedTables) -> TableStoreStats {
        let mut stats = TableStoreStats {
            table_key: format!("{key}"),
            ..TableStoreStats::default()
        };
        let started = Instant::now();
        if let Some(snapshot) = self.load(key) {
            stats.loaded = true;
            snapshot.install(tables, &mut stats);
        }
        stats.load_micros = started.elapsed().as_micros() as u64;
        stats
    }

    /// Captures `tables` after a run and saves them under `key`, recording
    /// the save into `stats`. An empty capture is not written; a failed
    /// write leaves `stats.saved` false.
    pub fn persist(&self, key: Fingerprint, tables: &SharedTables, stats: &mut TableStoreStats) {
        let started = Instant::now();
        let snapshot = TableSnapshot::capture(tables);
        stats.saved_states = snapshot.states.len();
        stats.saved_apply_entries = snapshot.apply.len();
        stats.saved = !snapshot.is_empty() && self.save(key, &snapshot).is_ok();
        stats.save_micros = started.elapsed().as_micros() as u64;
    }

    /// Loads and validates the snapshot stored under `key`. Missing files,
    /// unreadable files, digest mismatches, version skew and key mismatches
    /// all return `None`.
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

    fn sample_tables() -> SharedTables {
        let tables = SharedTables::new();
        let (a, _) = tables.intern(State::initial(4, 0));
        let (b, _) = tables.intern(State::initial(4, 1));
        let (ok, _) = tables.apply(Collective::AllReduce, &[a, b]);
        assert!(ok.is_ok(), "disjoint initial states should reduce");
        let (err, _) = tables.apply(Collective::AllReduce, &[a, a]);
        assert!(err.is_err(), "overlapping contributions should be rejected");
        // One more state after the reduced one, so a flipped output id can
        // still name a valid state.
        tables.intern(State::initial(4, 2));
        tables
    }

    fn sample_snapshot() -> TableSnapshot {
        TableSnapshot::capture(&sample_tables())
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let snapshot = sample_snapshot();
        let key = Fingerprint::of_bytes(b"test-key");
        let text = snapshot.to_json_string(key);
        let back = TableSnapshot::from_json_str(&text, key).expect("valid snapshot");
        assert_eq!(back.states, snapshot.states);
        assert_eq!(back.apply, snapshot.apply);
        // Serialization is canonical: re-serializing reproduces the bytes.
        assert_eq!(back.to_json_string(key), text);
    }

    #[test]
    fn mismatched_key_or_schema_is_a_miss() {
        let snapshot = sample_snapshot();
        let key = Fingerprint::of_bytes(b"test-key");
        let text = snapshot.to_json_string(key);
        let other = Fingerprint::of_bytes(b"other-key");
        assert!(TableSnapshot::from_json_str(&text, other).is_none());
        let (_, document) = text.split_once('\n').unwrap();
        let skewed = document.replace(CANONICAL_TABLES_VERSION, "p2-tables-v0");
        let resealed = format!("{}\n{skewed}", Fingerprint::of_bytes(skewed.as_bytes()));
        assert!(TableSnapshot::from_json_str(&resealed, key).is_none());
        // A document without its digest line is a miss too.
        assert!(TableSnapshot::from_json_str(document, key).is_none());
        for corrupt in ["", "{", "{\"schema\":3}", "null"] {
            assert!(TableSnapshot::from_json_str(corrupt, key).is_none());
        }
    }

    #[test]
    fn a_flipped_bit_in_an_apply_outcome_is_a_miss() {
        let snapshot = sample_snapshot();
        let key = Fingerprint::of_bytes(b"test-key");
        let text = snapshot.to_json_string(key);
        let (digest, document) = text.split_once('\n').unwrap();
        // Flip the low bit of the first output id: its last decimal digit
        // changes in the low bit alone, so the document still parses and
        // still passes the preload's id-range checks.
        let mut tampered = snapshot.clone();
        let outcome = tampered
            .apply
            .iter_mut()
            .find_map(|(_, value)| value.as_mut().ok())
            .expect("the sample caches a successful application");
        let mut ids = outcome.to_vec();
        ids[0] ^= 1;
        assert!((ids[0] as usize) < snapshot.states.len());
        *outcome = ids.into();
        let tampered_text = tampered.to_json_string(key);
        let (_, tampered_document) = tampered_text.split_once('\n').unwrap();
        let flipped_bits: u32 = document
            .bytes()
            .zip(tampered_document.bytes())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(document.len(), tampered_document.len());
        assert_eq!(flipped_bits, 1);
        // Under its own digest the tampered document loads, so only the
        // digest can tell the flip apart.
        assert!(TableSnapshot::from_json_str(&tampered_text, key).is_some());
        let forged = format!("{digest}\n{tampered_document}");
        assert!(TableSnapshot::from_json_str(&forged, key).is_none());
    }

    #[test]
    fn a_state_whose_size_overflows_is_a_miss_not_a_panic() {
        let key = Fingerprint::of_bytes(b"test-key");
        // k = 2^35: `k * k.div_ceil(64)` overflows a 64-bit usize.
        let state = Json::Arr(vec![
            Json::Num((1u64 << 35) as f64),
            Json::Str(String::new()),
        ]);
        let document = JsonObject::new()
            .push("schema", Json::Str(CANONICAL_TABLES_VERSION.to_string()))
            .push("table_key", Json::Str(format!("{key}")))
            .push("states", Json::Arr(vec![state]))
            .push("apply", Json::Arr(Vec::new()))
            .build()
            .to_string();
        let record = format!("{}\n{document}", Fingerprint::of_bytes(document.as_bytes()));
        assert!(TableSnapshot::from_json_str(&record, key).is_none());
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
        let tables = SharedTables::new();
        let mut stats = store.warm(key, &tables);
        assert!(!stats.loaded);
        assert_eq!(stats.table_key, format!("{key}"));
        store.persist(key, &tables, &mut stats);
        assert!(!stats.saved);
        assert!(!store.path_for(key).exists());
        // Populated tables persist; warming fresh tables from them
        // reproduces ids and contents and fills the counters.
        let tables = sample_tables();
        let snapshot = TableSnapshot::capture(&tables);
        let mut saved = TableStoreStats::default();
        store.persist(key, &tables, &mut saved);
        assert!(saved.saved);
        assert_eq!(saved.saved_states, snapshot.states.len());
        assert_eq!(saved.saved_apply_entries, snapshot.apply.len());
        let tables = SharedTables::new();
        let stats = store.warm(key, &tables);
        assert!(stats.loaded);
        assert_eq!(stats.warm_states, snapshot.states.len());
        assert_eq!(stats.warm_apply_entries, snapshot.apply.len());
        assert_eq!(tables.num_apply_entries(), snapshot.apply.len());
        let back = TableSnapshot::capture(&tables);
        assert_eq!(back.states, snapshot.states);
        assert_eq!(back.apply, snapshot.apply);
        // Torn/corrupt snapshot bytes under the key: a miss again.
        std::fs::write(store.path_for(key), "{\"schema\":").unwrap();
        let tables = SharedTables::new();
        assert!(!store.warm(key, &tables).loaded);
        assert_eq!(tables.num_states(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
