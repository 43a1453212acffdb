//! Property-based pinning of the cross-run table store: any snapshot
//! reachable through real interning and apply-cache traffic must survive
//! serialize → parse bit-exactly, canonical serialization must be a fixed
//! point, installing a snapshot into fresh tables must reproduce the exact
//! snapshot on re-capture (the warm-start identity the pipeline's
//! determinism pins rely on), and a damaged record must never load
//! different tables.

use proptest::prelude::*;

use p2::collectives::{Collective, SharedTables, State};
use p2::{Fingerprint, TableSnapshot, TableStoreStats};

/// Strategy: a scope size and a script of collective applications over the
/// initial states (member lists may repeat devices, so both `Ok` results
/// and cached errors appear).
fn snapshot_ingredients() -> impl Strategy<Value = (usize, Vec<(usize, Vec<usize>)>)> {
    (2usize..=6).prop_flat_map(|k| {
        let script = proptest::collection::vec(
            (0usize..5, proptest::collection::vec(0usize..k, 2..=k)),
            0..6,
        );
        (Just(k), script)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize → parse is the identity, canonical serialization is a
    /// fixed point, and install-then-recapture reproduces the snapshot.
    #[test]
    fn snapshots_round_trip_bit_exactly((k, script) in snapshot_ingredients()) {
        let tables = SharedTables::new();
        let members: Vec<u32> = (0..k)
            .map(|device| tables.intern(State::initial(k, device)).0)
            .collect();
        for (step, chosen) in script {
            let collective = Collective::ALL[step];
            let ids: Vec<u32> = chosen.iter().map(|&i| members[i]).collect();
            // Both outcomes land in the apply cache; the snapshot must
            // carry each verbatim.
            let _ = tables.apply(collective, &ids);
        }

        let snapshot = TableSnapshot::capture(&tables);
        let key = Fingerprint::of_bytes(b"proptest-table-store");
        let text = snapshot.to_json_string(key);
        let parsed = TableSnapshot::from_json_str(&text, key).expect("snapshot parses back");

        // Bit-exact payloads through the JSON (u64 state words travel as
        // hex strings, never as f64).
        prop_assert_eq!(&snapshot.states, &parsed.states);
        prop_assert_eq!(&snapshot.apply, &parsed.apply);

        // Canonical serialization: re-serializing reproduces the bytes.
        prop_assert_eq!(parsed.to_json_string(key), text);

        // Warm-start identity: installing into fresh tables reproduces the
        // exact snapshot on re-capture.
        let fresh_tables = SharedTables::new();
        let mut stats = TableStoreStats::default();
        parsed.install(&fresh_tables, &mut stats);
        prop_assert_eq!(stats.warm_states, snapshot.states.len());
        prop_assert_eq!(stats.warm_apply_entries, snapshot.apply.len());
        let recaptured = TableSnapshot::capture(&fresh_tables);
        prop_assert_eq!(recaptured.to_json_string(key), snapshot.to_json_string(key));
    }

    /// A corrupted byte anywhere in the record is a miss, or else loads the
    /// identical tables — never a panic and never different tables.
    #[test]
    fn corruption_is_a_miss(flip in 0usize..4096, delta in 1u8..=255) {
        let tables = SharedTables::new();
        let (a, _) = tables.intern(State::initial(3, 0));
        let (b, _) = tables.intern(State::initial(3, 1));
        let _ = tables.apply(Collective::AllReduce, &[a, b]);
        let _ = tables.apply(Collective::AllReduce, &[a, a]);
        let snapshot = TableSnapshot::capture(&tables);
        let key = Fingerprint::of_bytes(b"corruption-case");
        let text = snapshot.to_json_string(key);
        let mut bytes = text.into_bytes();
        let at = flip % bytes.len();
        bytes[at] = bytes[at].wrapping_add(delta);
        let torn = String::from_utf8_lossy(&bytes);
        if let Some(parsed) = TableSnapshot::from_json_str(&torn, key) {
            prop_assert_eq!(&parsed.states, &snapshot.states);
            prop_assert_eq!(&parsed.apply, &snapshot.apply);
        }
    }
}
