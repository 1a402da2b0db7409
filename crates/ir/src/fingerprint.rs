//! Stable structural fingerprints for content-keyed caches.
//!
//! The cached evaluation layer (`dlcm-eval`) memoizes candidate speedups
//! under a `(program fingerprint, normalized schedule)` key. Names are not
//! unique across generated programs and scaled benchmark builders, so the
//! key must cover the full structure. The fingerprint streams a value's
//! `Debug` rendering — which for the IR types is a complete, deterministic
//! walk of every field — through an FNV-1a hasher, so no per-type hashing
//! code has to be kept in sync with the IR as it grows.

use std::fmt::{self, Debug, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Sink that folds every formatted fragment into an FNV-1a state instead
/// of allocating a string.
struct FnvWriter(u64);

impl Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// FNV-1a fingerprint of a value's `Debug` rendering.
///
/// Deterministic across processes and platforms (no randomized hasher
/// state), and structurally complete for `#[derive(Debug)]` types: two
/// values collide only if their full field-by-field renderings collide.
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
