//! Identities of IR values: persisted fingerprints and in-memory keys.
//!
//! Two kinds of identity live here, each with its own cost:
//!
//! - **Persisted fingerprints** — [`stable_fingerprint`] and
//!   [`Program::content_fingerprint`](crate::Program::content_fingerprint)
//!   (which is `stable_fingerprint` over everything but the name) — fold
//!   a value's `Debug` rendering through FNV-1a. They are written to disk
//!   and compared across processes: shard records and the corpus manifest
//!   chain (`dlcm-datagen`), split grouping and corpus dedup, the model
//!   artifact manifest, and the data flywheel's mispredict keys. A shard
//!   reader re-fingerprints every program it loads and refuses a record
//!   whose stored value differs, so these functions must keep producing
//!   the same bytes for as long as such records exist. [`fnv1a`] is the
//!   same hash over raw bytes (shard files, `weights.bin`).
//! - **In-memory keys** — [`structural_key`], and the two `cache_key`
//!   methods built on it
//!   ([`Program::cache_key`](crate::Program::cache_key),
//!   [`Schedule::cache_key`](crate::Schedule::cache_key)) — hash a value's
//!   structure through [`std::hash::Hash`] and one fixed word hasher. No
//!   key leaves the process or decides an order: the result cache
//!   (`dlcm_eval::SharedCachedEvaluator`), the baseline-time memo of
//!   `dlcm_eval::ParallelEvaluator`, MCTS rollout scores and the beam's
//!   `seen` table only look keys up by equality. Hashing the structure
//!   directly costs a fraction of printing it, which is what lets the
//!   result cache key every call without a program memo.
//!
//! The two must not be merged while shard records store the former: a
//! key is free to change with the hasher (and std's `Hash` impls write
//! integers in native byte order), a stored fingerprint is not. Both are
//! name-insensitive for programs and see the same equality classes: two
//! programs share a `cache_key` exactly when they share a
//! `content_fingerprint` (NaN constants aside — `Debug` prints every NaN
//! payload alike, the key hashes the bits).
//!
//! A known hazard of the persisted kind: `derive(Debug)` output is not
//! guaranteed stable across Rust releases, so a toolchain that renders
//! some IR type differently would make every stored corpus fail its
//! fingerprint check on load.

use std::fmt::{self, Debug, Write};
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Sink that folds every formatted fragment into an FNV-1a state instead
/// of allocating a string.
struct FnvWriter(u64);

impl Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// FNV-1a fingerprint of a value's `Debug` rendering.
///
/// Deterministic across processes and platforms (no randomized hasher
/// state), and structurally complete for `#[derive(Debug)]` types: two
/// values collide only if their full field-by-field renderings collide.
/// This is the persisted kind of identity (see the module docs); an
/// in-memory lookup wants [`structural_key`].
pub fn stable_fingerprint<T: Debug>(value: &T) -> u64 {
    let mut w = FnvWriter(FNV_OFFSET);
    write!(w, "{value:?}").expect("hashing sink is infallible");
    w.0
}

/// Raw byte-stream FNV-1a, for content-fingerprinting serialized data
/// (e.g. dataset shard files). Start from [`FNV1A_INIT`] and fold each
/// chunk: `h = fnv1a(h, chunk)`. Same constants as
/// [`stable_fingerprint`], so a fingerprint over the bytes of a `Debug`
/// rendering matches the streaming version.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Initial state for the streaming [`fnv1a`] fold (the FNV offset basis).
pub const FNV1A_INIT: u64 = FNV_OFFSET;

/// Initial state of [`structural_key`]'s hasher (the first hex digits of
/// π): fixed, so a key depends on the value alone, never on the process.
const KEY_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multiplier of the word mix (Knuth's MMIX LCG multiplier).
const KEY_MUL: u64 = 0x5851_f42d_4c95_7f2d;

/// The 128-bit product of `a` and `b`, folded to 64 bits by XOR-ing its
/// halves, so the bits a 64-bit multiply would shift out still count.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// splitmix64's finalizer: spreads the last word's bits over the whole
/// key, so the low bits a shard or bucket index takes are as good as the
/// high ones.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The one hasher behind [`structural_key`]: each integer is one 64-bit
/// word mixed into the state, byte strings are folded 8 bytes at a time
/// followed by their length.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
        self.write_u64(bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = folded_multiply(self.0 ^ i, KEY_MUL);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// In-memory key of a value's structure: its [`Hash`] walk through one
/// fixed word hasher (no `RandomState`, nothing per process).
///
/// For lookups inside one process only — the result cache and the
/// search memos. A key is never written to disk: std's `Hash` impls may
/// write integers in native byte order, and the hasher may change
/// between releases (the pinned values in the tests make such a change
/// deliberate). What is persisted uses [`stable_fingerprint`].
pub fn structural_key<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = KeyHasher(KEY_SEED);
    value.hash(&mut h);
    h.finish()
}

/// Renders a 64-bit fingerprint the way every on-disk format in this
/// workspace stores it: 16 lower-case hex digits. JSON numbers are
/// doubles, so a raw `u64` field would silently lose precision above
/// 2^53; both the corpus shard format and the model artifact manifest
/// store fingerprints through this function instead.
pub fn to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parses a [`to_hex`]-formatted fingerprint. Returns `None` unless the
/// input is exactly 16 hex digits.
pub fn parse_hex(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, LinExpr, Program, ProgramBuilder};

    fn program(name: &str, n: i64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let i = b.iter("i", 0, n);
        let inp = b.input("in", &[n]);
        let out = b.buffer("out", &[n]);
        let acc = b.access(inp, &[LinExpr::from(i)], &[i]);
        b.assign("c", &[i], out, &[LinExpr::from(i)], Expr::Load(acc));
        b.build().unwrap()
    }

    #[test]
    fn equal_programs_share_a_fingerprint() {
        assert_eq!(
            program("p", 64).content_fingerprint(),
            program("q", 64).content_fingerprint()
        );
    }

    #[test]
    fn structure_changes_the_fingerprint() {
        // Same name, different extent: names alone must not collide.
        assert_ne!(
            program("p", 64).content_fingerprint(),
            program("p", 128).content_fingerprint()
        );
    }

    #[test]
    fn fingerprint_is_a_fixed_function() {
        // Pin the concrete value so accidental changes to the hashing
        // scheme (which would silently invalidate every content key)
        // show up as a test failure. FNV-1a over the two bytes of "42".
        assert_eq!(stable_fingerprint(&42u8), 0x07EE_7E07_B4B1_9223);
        assert_ne!(stable_fingerprint(&42u8), stable_fingerprint(&43u8));
    }
}
