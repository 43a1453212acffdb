//! Stable, dependency-free hashing for the P² workspace.
//!
//! Two consumers with two different contracts live here:
//!
//! * **In-memory tables** ([`FxHasher`] / [`FxHashMap`]) — the rustc-style
//!   word-folding hash used by the synthesis interner and memo caches. Fast,
//!   not HashDoS-resistant, and only ever required to be self-consistent
//!   within one process.
//! * **Content addresses** ([`stable_digest128`] / [`Fingerprint`]) — the
//!   128-bit digest the plan service keys its on-disk store with. These
//!   values are *persisted across runs and releases*, so the digest function
//!   is frozen: any change to [`FxHasher`] or to the seeding scheme below is
//!   a cache-format break and must bump the plan-store schema version. The
//!   pinned-digest tests at the bottom of this file exist to make such a
//!   drift a loud test failure instead of a silent cache invalidation.
//!
//! Both are plain `std` code; this crate has no dependencies at all so every
//! other crate (including leaf utility crates) can use it.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash word-folding hasher (rustc's interner hash): multiply-xor per
/// word, no finalization. Far cheaper than SipHash for the short `u32`/`u64`
/// slices the interner and caches key on; these tables are never fed
/// attacker-controlled keys, so HashDoS resistance is not needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    /// A hasher whose accumulator starts at `state` instead of zero — the
    /// hook [`stable_digest128`] uses to derive two independent 64-bit
    /// lanes from one pass-compatible core.
    #[inline]
    pub fn with_state(state: u64) -> Self {
        FxHasher { hash: state }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(value as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

/// A `HashMap` keyed through [`FxHasher`] — the map type of the interning and
/// memoization layers.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Initial accumulator of the low digest lane. Arbitrary odd constants; the
/// two lanes only need to start in different states so the halves are not
/// trivially correlated. **Frozen** — changing either constant changes every
/// persisted content address.
const LANE_LO: u64 = 0x9e37_79b9_7f4a_7c15;
/// Initial accumulator of the high digest lane.
const LANE_HI: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Hashes `bytes` with [`FxHasher`] starting from `seed`. The word-at-a-time
/// fold plus a final length mix, so prefixes of each other hash differently
/// even when the tail is zero padding.
#[inline]
pub fn stable_hash64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::with_state(seed);
    hasher.write(bytes);
    hasher.write_u64(bytes.len() as u64);
    hasher.finish()
}

/// Hashes `bytes` with [`FxHasher`] from the default (zero) state, plus the
/// length mix of [`stable_hash64_seeded`].
#[inline]
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    stable_hash64_seeded(0, bytes)
}

/// The frozen 128-bit content digest: two independently seeded
/// [`stable_hash64_seeded`] lanes over the same bytes. This is what plan
/// fingerprints and any other persisted content address must go through.
#[inline]
pub fn stable_digest128(bytes: &[u8]) -> u128 {
    let lo = stable_hash64_seeded(LANE_LO, bytes);
    let hi = stable_hash64_seeded(LANE_HI, bytes);
    ((hi as u128) << 64) | lo as u128
}

/// A 128-bit content address, displayed as 32 lowercase hex digits. This is
/// the type persisted in plan-store filenames and wire responses; its
/// `Display`/`parse_hex` round-trip is part of the frozen format.
///
/// # Examples
///
/// ```
/// use p2_hash::Fingerprint;
/// let fp = Fingerprint::of_bytes(b"canonical form v1");
/// let hex = fp.to_string();
/// assert_eq!(hex.len(), 32);
/// assert_eq!(Fingerprint::parse_hex(&hex), Some(fp));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Digests raw bytes via [`stable_digest128`].
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Fingerprint(stable_digest128(bytes))
    }

    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse_hex(text: &str) -> Option<Self> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Fingerprint)
    }

    /// Frames `document` as a sealed record: a first line holding the
    /// fingerprint of the document's bytes, then the document. Both on-disk
    /// stores write their records this way, so a flipped bit that still
    /// parses is caught by [`Fingerprint::unseal`] instead of being served.
    pub fn seal(document: &str) -> String {
        format!("{}\n{document}", Fingerprint::of_bytes(document.as_bytes()))
    }

    /// The document of a record framed by [`Fingerprint::seal`], or `None`
    /// when the digest line is missing or does not match the document.
    pub fn unseal(record: &str) -> Option<&str> {
        let (digest, document) = record.split_once('\n')?;
        (Fingerprint::parse_hex(digest)? == Fingerprint::of_bytes(document.as_bytes()))
            .then_some(document)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_folding_matches_byte_stream() {
        // One 8-byte word written via `write` equals the same word via
        // `write_u64`: the chunked path and the word path are one function.
        let mut a = FxHasher::default();
        a.write(&0xdead_beef_u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn length_mix_separates_zero_padded_prefixes() {
        // Without the length mix `[1]` and `[1, 0]` fold identically.
        assert_ne!(stable_hash64(&[1]), stable_hash64(&[1, 0]));
        assert_ne!(stable_hash64(b""), stable_hash64(&[0]));
    }

    #[test]
    fn digest_lanes_are_independent() {
        let d = stable_digest128(b"p2");
        assert_ne!((d >> 64) as u64, d as u64);
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        for text in ["", "a", "rack2x2x4 axes=[4,4] reduce=[0]"] {
            let fp = Fingerprint::of_bytes(text.as_bytes());
            assert_eq!(Fingerprint::parse_hex(&fp.to_string()), Some(fp));
        }
        assert_eq!(Fingerprint::parse_hex("zz"), None);
        assert_eq!(Fingerprint::parse_hex(&"f".repeat(33)), None);
    }

    #[test]
    fn sealed_records_unseal_only_while_intact() {
        let record = Fingerprint::seal("{\"measured_bits\":\"3f7ac9\"}");
        assert_eq!(
            Fingerprint::unseal(&record),
            Some("{\"measured_bits\":\"3f7ac9\"}")
        );
        let (digest, document) = record.split_once('\n').unwrap();
        let flipped = format!("{digest}\n{}", document.replace("c9", "c8"));
        assert_eq!(Fingerprint::unseal(&flipped), None);
        assert_eq!(Fingerprint::unseal(document), None);
    }

    /// **Pinned digests.** These constants are the on-disk cache-key format.
    /// If this test fails you have changed the persisted content-address
    /// function: bump the plan-store schema version in `p2_service` and
    /// re-pin, do not just update the constants.
    #[test]
    fn pinned_digests_never_drift() {
        assert_eq!(stable_hash64(b""), PIN_EMPTY_64);
        assert_eq!(stable_hash64(b"p2 plan request"), PIN_REQUEST_64);
        assert_eq!(Fingerprint::of_bytes(b"").to_string(), PIN_EMPTY_128);
        assert_eq!(
            Fingerprint::of_bytes(b"p2 plan request").to_string(),
            PIN_REQUEST_128
        );
    }

    const PIN_EMPTY_64: u64 = 0x0000_0000_0000_0000;
    const PIN_REQUEST_64: u64 = 0x48bd_722e_1a5a_b5a6;
    const PIN_EMPTY_128: &str = "df5ba124deb25d586d5e786d8728102f";
    const PIN_REQUEST_128: &str = "372f25000262bce6e0bddbcb4b6c22dc";
}
