//! The model's transcendentals: [`exp`], [`sigmoid`] and [`tanh`] on
//! `f32`, in plain Rust.
//!
//! Every activation the tape and the arena evaluate goes through these
//! three functions and nothing else — no libm call is left on the model
//! path — so a score or a trained weight is a function of IEEE-754
//! arithmetic alone: the same bits under any optimisation level, any
//! `target-cpu` and any C library (glibc picks `expf` by ifunc, musl and
//! macOS ship other algorithms; a compile flag reaches none of them).
//! The price was paid once: against libm every activation moved by an
//! ulp or so (CHANGES.md, PR 20, lists what moved).
//!
//! They are written like [`crate::kernel::matmul_into`]: selects instead
//! of branches, no table (a gather does not vectorise on the SSE2
//! baseline, which stays a supported build), no intrinsics, no
//! `unsafe`, no `target_feature`, `#[inline(always)]`, so the
//! element-wise loops that call them vectorise for whatever target the
//! build names. On x86_64 that is `x86-64-v3` (the workspace's
//! `.cargo/config.toml`): eight lanes per instruction, and the selects
//! become blends. Rust never contracts a multiply and an add into an
//! FMA, so wider registers change how many elements an instruction
//! covers, never what an element computes; the pinned tables below hold
//! in the default build and in the SSE2 one (`-C target-cpu=x86-64`).
//!
//! **Accuracy**: within 2 ulp of the correctly rounded result wherever
//! that result is a normal `f32` (measured over every `f32` in the
//! functions' non-trivial ranges: `exp` ≤ 0.88 ulp, `sigmoid` ≤ 1.27,
//! `tanh` ≤ 1.29; the test battery asserts 2 over a dense sweep against
//! the `f64` std functions). Results below `f32::MIN_POSITIVE` are
//! flushed to `+0.0` — no subnormal is ever returned, they cost a
//! microcode assist in whatever consumes them — NaN gives NaN, and
//! `tanh` is odd bit for bit.
//!
//! **Method.** One argument reduction and one polynomial serve all
//! three. `k = round(x · log₂e)` comes out of a magic-number addition
//! (no float → int conversion), `x − k·ln 2` is taken in two steps with
//! a two-constant Cody–Waite split whose first product and difference
//! are exact, and on the remainder `r ∈ [−ln 2 ⁄ 2, ln 2 ⁄ 2]` a
//! degree-5 minimax `q` gives `expm1(r) = r + r²·q(r)` to 3e-10. That
//! yields `eˣ = 2ᵏ · (1 + hi + c)` with `hi` exact and `c` small, and
//! `2ᵏ` is built from bits. [`exp`] multiplies it out. [`sigmoid`] and
//! [`tanh`] need `1 ⁄ (1 + eᶻ)` and `(eᶻ − 1) ⁄ (eᶻ + 1)`, where a
//! rounded denominator alone costs up to an ulp of the quotient, so
//! they keep `1 + eᶻ` as an unevaluated sum of two floats (one exact
//! `Fast2Sum` each time the big parts are added) and fold the low part
//! back in after a single division.

/// `log₂ e`, rounded to `f32`.
const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// `1.5 · 2²³`: adding it to a float of magnitude below `2²²` rounds
/// that float to the nearest integer (ties to even) in the sum's low
/// mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// High part of `ln 2`, 0.693359375: ten significant bits, so its
/// product with an integer up to `2⁸` in magnitude is exact.
const LN2_HI: f32 = 355.0 / 512.0;

/// `ln 2 − LN2_HI`, negated (the reduction subtracts `k · ln 2`).
const NEG_LN2_LO: f32 = 2.121_944_4e-4;

/// Minimax coefficients of `q(r) = (expm1(r) − r) ⁄ r²` on
/// `[−ln 2 ⁄ 2, ln 2 ⁄ 2]`, lowest degree first, fitted to the relative
/// error of `r + r²·q(r)` (2.7e-10) and rounded to `f32`.
const EXPM1_Q: [f32; 6] = [
    0.5,
    0.166_666_67,
    0.041_666_325,
    0.008_333_22,
    0.001_394_321,
    0.000_199_621_73,
];

/// `2ᵏ` for `−127 ≤ k ≤ 127`, from its bit pattern (`k = −127` gives
/// `+0.0`).
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// Splits `eˣ` as `2ᵏ · (1 + hi + c)` and returns `(k, hi, c)`: `hi` is
/// `x − k · LN2_HI` exactly, `c` collects the rest of the reduction and
/// the polynomial's second-order part, `|hi + c| < 0.42`. Wants
/// `|x| < 2²¹`; a NaN comes back as NaN in `hi` and `c`.
#[inline(always)]
fn exp_parts(x: f32) -> (i32, f32, f32) {
    let shifted = x * LOG2_E + ROUND_MAGIC;
    let kf = shifted - ROUND_MAGIC;
    let k = (shifted.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let hi = x - kf * LN2_HI;
    let lo = kf * NEG_LN2_LO;
    let r = hi + lo;
    let mut q = EXPM1_Q[5];
    q = q * r + EXPM1_Q[4];
    q = q * r + EXPM1_Q[3];
    q = q * r + EXPM1_Q[2];
    q = q * r + EXPM1_Q[1];
    q = q * r + EXPM1_Q[0];
    (k, hi, (r * r) * q + lo)
}

/// `eˣ`. Overflows to `+∞` above `ln(f32::MAX)` ≈ 88.72 and returns
/// `+0.0` wherever the result would be below `f32::MIN_POSITIVE`
/// (`x` < −87.34).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Clamped (NaN passes both selects) so `k` stays in [−127, 128];
    // the ends still over- and underflow.
    let x = if x < -87.5 { -87.5 } else { x };
    let x = if x > 89.0 { 89.0 } else { x };
    let (k, hi, c) = exp_parts(x);
    // 2ᵏ in two factors: k = 128 has no bit pattern of its own.
    let half = k >> 1;
    let y = (1.0 + (hi + c)) * pow2(half) * pow2(k - half);
    if y < f32::MIN_POSITIVE {
        0.0
    } else {
        y
    }
}

/// `1 + eᶻ` as an unevaluated sum `(d, l)`: `d` is the sum rounded to
/// `f32`, `l` what the rounding left out. Wants `−126 ≤ k ≤ 127` from
/// [`exp_parts`], i.e. `|z| ≤ 88`.
#[inline(always)]
fn one_plus_exp(z: f32) -> (f32, f32) {
    let (k, hi, c) = exp_parts(z);
    let s = pow2(k);
    // 1 + s, larger first, with what the addition drops (s or 1, once
    // they are 2²⁴ apart). Each `x − (sum − y)` below is Fast2Sum's
    // exact error term: the first operand is the larger one.
    let (big, small) = if s > 1.0 { (s, 1.0) } else { (1.0, s) };
    let a = big + small;
    let a_err = small - (a - big);
    let b = s * hi;
    let high = a + b;
    let high_err = b - (high - a);
    let low = (high_err + a_err) + s * c;
    let d = high + low;
    (d, low - (d - high))
}

/// The logistic function `1 ⁄ (1 + e⁻ˣ)`, in `[0, 1]`: exactly `1.0`
/// from `x` ≈ 17.4 up, `+0.0` wherever the result would be below
/// `f32::MIN_POSITIVE` (`x` < −87.34).
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let z = -x;
    // Below −17.5 the result has long rounded to 1.0; above 88 it is
    // flushed to zero.
    let z = if z < -17.5 { -17.5 } else { z };
    let z = if z > 88.0 { 88.0 } else { z };
    let (d, l) = one_plus_exp(z);
    // 1 ⁄ (d + l) to first order in l ⁄ d (at most 2⁻²⁴).
    let y = 1.0 / d;
    let y = y - (l * y) * y;
    if y < f32::MIN_POSITIVE {
        0.0
    } else {
        y
    }
}

/// Hyperbolic tangent: odd bit for bit (`tanh(−x)` is `−tanh(x)`,
/// `tanh(±0.0)` is `±0.0`), never above 1 in magnitude (`t ≤ 1` and the
/// correction is below `1 − t`; checked over every `f32`), exactly
/// `±1.0` for `|x| ≥ 9.02`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let a = if a > 9.5 { 9.5 } else { a };
    // tanh a = (e²ᵃ − 1) ⁄ (e²ᵃ + 1) = (D − 2) ⁄ D with D = 1 + e²ᵃ.
    let (d, l) = one_plus_exp(2.0 * a);
    // D ≥ 2, so d − 2 is exact (until d passes 2²⁵, where tanh is
    // within an ulp of 1 whichever way it rounds) and D − 2 is
    // (d − 2) + l.
    let t = (d - 2.0) / d;
    // (d − 2 + l) ⁄ (d + l) − (d − 2) ⁄ d = 2l ⁄ (d (d + l)); with
    // u = 1 − t = 2 ⁄ d and w = l ⁄ d that is u (w − w²) to second
    // order, which a tiny `a` needs: there `d − 2` is zero or a few
    // ulps of 2 and the correction is the whole result.
    let u = 1.0 - t;
    let w = l * (0.5 * u);
    (t + (w - w * w) * u).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance from `want` in units of the `f32` spacing at `want`.
    fn ulps(got: f32, want: f64) -> f64 {
        let magnitude = (want.abs() as f32).max(f32::MIN_POSITIVE);
        let spacing = 2f64.powi((magnitude.to_bits() >> 23) as i32 - 127 - 23);
        (f64::from(got) - want).abs() / spacing
    }

    /// 120 001 evenly spaced points of [−30, 30], then ~59 000 per sign
    /// spaced evenly in the exponent from 1e-30 to 88.
    fn sweep() -> impl Iterator<Item = f32> {
        let dense = (0..=120_000).map(|i| -30.0 + i as f32 * 0.0005);
        let (lo, hi) = (1e-30f32.to_bits(), 88.0f32.to_bits());
        let log_spaced = (lo..hi)
            .step_by(18_013)
            .flat_map(|bits| [f32::from_bits(bits), -f32::from_bits(bits)]);
        dense.chain(log_spaced)
    }

    /// Largest error of `f` against `reference` over the sweep, wherever
    /// the exact result is a normal `f32`; also checks that `f` never
    /// returns a subnormal where `flushes` says it must not.
    fn worst(f: fn(f32) -> f32, reference: fn(f64) -> f64, flushes: bool) -> (f64, f32) {
        let mut worst = (0.0, 0.0);
        let mut points = 0;
        for x in sweep() {
            let got = f(x);
            if flushes {
                assert!(
                    got == 0.0 || got.abs() >= f32::MIN_POSITIVE,
                    "subnormal {got:e} at {x:e}"
                );
            }
            let want = reference(f64::from(x));
            if want.abs() < f64::from(f32::MIN_POSITIVE) || want.abs() > f64::from(f32::MAX) {
                continue;
            }
            points += 1;
            let err = ulps(got, want);
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(points > 200_000, "the sweep shrank to {points} points");
        worst
    }

    fn sigmoid_f64(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    #[test]
    fn within_two_ulp_of_the_f64_functions() {
        for (name, f, reference, flushes) in [
            (
                "exp",
                exp as fn(f32) -> f32,
                f64::exp as fn(f64) -> f64,
                true,
            ),
            ("sigmoid", sigmoid, sigmoid_f64, true),
            ("tanh", tanh, f64::tanh, false),
        ] {
            let (err, x) = worst(f, reference, flushes);
            assert!(err <= 2.0, "{name}: {err:.3} ulp at {x:e}");
        }
    }

    #[test]
    fn exp_edges() {
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        // ln(f32::MAX) = 88.72283905…: finite up to it, +∞ past it.
        assert!(exp(88.72283).is_finite());
        for x in [88.7229, 89.0, 100.0, 1e10, f32::MAX] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        // ln(2⁻¹²⁶) = −87.33654475…: normal down to it, +0.0 below —
        // never a subnormal, wherever between the two the input falls.
        assert!(exp(-87.3365) >= f32::MIN_POSITIVE);
        for x in [-87.3366, -87.5, -88.0, -100.0, -104.0, -1e10, f32::MIN] {
            assert_eq!(exp(x).to_bits(), 0.0f32.to_bits(), "exp({x:e})");
        }
        let (lo, hi) = ((-87.2f32).to_bits(), (-87.6f32).to_bits());
        for bits in lo..hi {
            let y = exp(f32::from_bits(bits));
            assert!(y == 0.0 || y >= f32::MIN_POSITIVE, "subnormal {y:e}");
        }
    }

    #[test]
    fn tanh_edges() {
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        for x in [9.02, 9.5, 10.0, 20.0, 1e10, f32::MAX] {
            assert_eq!(tanh(x), 1.0, "tanh({x:e})");
        }
        // A subnormal or tiny argument is its own tanh.
        for x in [1e-45, 1e-40, f32::MIN_POSITIVE, 1e-30, 1e-10] {
            assert_eq!(tanh(x), x, "tanh({x:e})");
        }
        for x in sweep() {
            let y = tanh(x);
            assert_eq!(
                tanh(-x).to_bits(),
                (-y).to_bits(),
                "tanh is not odd at {x:e}"
            );
            assert!(y.abs() <= 1.0, "|tanh({x:e})| = {y:e}");
        }
        // The last stretch before saturation, every float of it.
        for bits in 8.0f32.to_bits()..9.6f32.to_bits() {
            let y = tanh(f32::from_bits(bits));
            assert!((0.999_999_7..=1.0).contains(&y), "tanh near 1: {y:e}");
        }
    }

    #[test]
    fn sigmoid_edges() {
        assert!(sigmoid(f32::NAN).is_nan());
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        for x in [17.4, 20.0, 88.0, 1e10, f32::MAX] {
            assert_eq!(sigmoid(x), 1.0, "sigmoid({x:e})");
        }
        for x in [-87.4, -88.0, -100.0, -1e10, f32::MIN] {
            assert_eq!(sigmoid(x).to_bits(), 0.0f32.to_bits(), "sigmoid({x:e})");
        }
        for x in sweep() {
            let y = sigmoid(x);
            assert!((0.0..=1.0).contains(&y), "sigmoid({x:e}) = {y:e}");
        }
    }

    // The cross-platform contract as a test: (input bits, output bits),
    // generated once from this implementation. Debug, release and
    // release under any `target-cpu` must all reproduce every row — a
    // contracted multiply-add, a reassociated sum or a libm call behind
    // any of the three functions fails here.
    const EXP_TABLE: [(u32, u32); 72] = [
        (0x00000000, 0x3f800000),
        (0x80000000, 0x3f800000),
        (0x3f800000, 0x402df854),
        (0xbf800000, 0x3ebc5ab2),
        (0x3f000000, 0x3fd3094c),
        (0xbf000000, 0x3f1b4598),
        (0x3a83126f, 0x3f8020c9),
        (0xba83126f, 0x3f7fbe7f),
        (0x3e317218, 0x3f9837f0),
        (0x3eb17218, 0x3fb504f3),
        (0x40200000, 0x4142eb7f),
        (0xc0200000, 0x3da81c2e),
        (0x41000000, 0x453a4f54),
        (0xc1000000, 0x39afe108),
        (0x41880000, 0x4bb849a4),
        (0xc1880000, 0x3331cf19),
        (0x38d1b717, 0x3f800347),
        (0xb8ff8452, 0x3f7ff804),
        (0x392c518d, 0x3f800563),
        (0xb95a1ec8, 0x3f7ff25e),
        (0x3986ec03, 0x3f80086f),
        (0xb9b3b93e, 0x3f7fe98a),
        (0x39e18679, 0x3f800e19),
        (0xba0e53b4, 0x3f7fdc6e),
        (0x3a3c20ef, 0x3f801786),
        (0xba68ee2a, 0x3f7fc5cb),
        (0x3a95bb65, 0x3f802574),
        (0xbac388a0, 0x3f7f9e4e),
        (0x3af055db, 0x3f803c24),
        (0xbb1d2316, 0x3f7f630d),
        (0x3b4af051, 0x3f8065a0),
        (0xbb77bd8c, 0x3f7f08ba),
        (0x3ba58ac7, 0x3f80a5f6),
        (0xbbd25802, 0x3f7e5ca9),
        (0x3bff253d, 0x3f810024),
        (0xbc2cf278, 0x3f7d4fda),
        (0x3c59bfb3, 0x3f81b668),
        (0xbc878cee, 0x3f7bcc85),
        (0x3cb45a29, 0x3f82d969),
        (0xbce12764, 0x3f790f4c),
        (0x3d0ef49f, 0x3f848bd6),
        (0xbd3bc1da, 0x3f7487b2),
        (0x3d688f15, 0x3f877a4d),
        (0xbd965c50, 0x3f6de0d8),
        (0x3dc3298b, 0x3f8ccc38),
        (0xbdf0f6c6, 0x3f63957f),
        (0x3e1dc401, 0x3f95522c),
        (0xbe4a913c, 0x3f520d75),
        (0x3e785e77, 0x3fa32290),
        (0xbea52bb2, 0x3f396962),
        (0x3ed1f8ed, 0x3fc0e474),
        (0xbeffc628, 0x3f1b5724),
        (0x3f2c9363, 0x3ffb2d14),
        (0xbf5a609e, 0x3eda2c43),
        (0x3f872dd9, 0x4038019a),
        (0xbfb3fb14, 0x3e7afacd),
        (0x3fe1c84f, 0x40babac4),
        (0xc00e958a, 0x3ddcafac),
        (0x403c62c5, 0x4197dc96),
        (0xc0693000, 0x3cd64bcc),
        (0x4095fd3b, 0x42d916e1),
        (0xc0c3ca76, 0x3b104ca6),
        (0x40f097b1, 0x44e63aaf),
        (0xc11d64ec, 0x386019f8),
        (0x414b3227, 0x489ffe03),
        (0xc177ff62, 0x3447404c),
        (0x41a5cc9d, 0x4e6ecf85),
        (0xc1d299d8, 0x2c81ddba),
        (0x41ff6713, 0x56854c5b),
        (0xc22d344e, 0x2038ca6c),
        (0x425a0189, 0x66c5f4f8),
        (0xc287cec4, 0x0e832f92),
    ];
    const SIGMOID_TABLE: [(u32, u32); 72] = [
        (0x00000000, 0x3f000000),
        (0x80000000, 0x3f000000),
        (0x3f800000, 0x3f3b26a8),
        (0xbf800000, 0x3e89b2b1),
        (0x3f000000, 0x3f1f597f),
        (0xbf000000, 0x3ec14d03),
        (0x3a83126f, 0x3f001062),
        (0xba83126f, 0x3effdf3b),
        (0x3e317218, 0x3f0b100c),
        (0x3eb17218, 0x3f15f619),
        (0x40200000, 0x3f6c948f),
        (0xc0200000, 0x3d9b5b88),
        (0x41000000, 0x3f7fea06),
        (0xc1000000, 0x39afd1ef),
        (0x41880000, 0x3f7fffff),
        (0xc1880000, 0x3331cf18),
        (0x38d1b717, 0x3f0001a4),
        (0xb8ff8452, 0x3efffc02),
        (0x392c518d, 0x3f0002b1),
        (0xb95a1ec8, 0x3efff92f),
        (0x3986ec03, 0x3f000437),
        (0xb9b3b93e, 0x3efff4c4),
        (0x39e18679, 0x3f00070c),
        (0xba0e53b4, 0x3effee35),
        (0x3a3c20ef, 0x3f000bc2),
        (0xba68ee2a, 0x3effe2e2),
        (0x3a95bb65, 0x3f0012b7),
        (0xbac388a0, 0x3effcf1e),
        (0x3af055db, 0x3f001e0b),
        (0xbb1d2316, 0x3effb16e),
        (0x3b4af051, 0x3f0032bc),
        (0xbb77bd8c, 0x3eff8421),
        (0x3ba58ac7, 0x3f0052c5),
        (0xbbd25802, 0x3eff2da8),
        (0x3bff253d, 0x3f007f93),
        (0xbc2cf278, 0x3efea61c),
        (0x3c59bfb3, 0x3f00d9bf),
        (0xbc878cee, 0x3efde1d0),
        (0x3cb45a29, 0x3f0168b1),
        (0xbce12764, 0x3efc7b71),
        (0x3d0ef49f, 0x3f023bc4),
        (0xbd3bc1da, 0x3efa2235),
        (0x3d688f15, 0x3f03a1fc),
        (0xbd965c50, 0x3ef69b4f),
        (0x3dc3298b, 0x3f06181e),
        (0xbdf0f6c6, 0x3ef0f504),
        (0x3e1dc401, 0x3f09d745),
        (0xbe4a913c, 0x3ee6c2e7),
        (0x3e785e77, 0x3f0f7289),
        (0xbea52bb2, 0x3ed70fcf),
        (0x3ed1f8ed, 0x3f19e281),
        (0xbeffc628, 0x3ec15a9b),
        (0x3f2c9363, 0x3f2994bf),
        (0xbf5a609e, 0x3e98fbd1),
        (0x3f872dd9, 0x3f3defe9),
        (0xbfb3fb14, 0x3e499309),
        (0x3fe1c84f, 0x3f5a8c1f),
        (0xc00e958a, 0x3dc7380f),
        (0x403c62c5, 0x3f73305d),
        (0xc0693000, 0x3cd0d54c),
        (0x4095fd3b, 0x3f7da9be),
        (0xc0c3ca76, 0x3b0ffb7e),
        (0x40f097b1, 0x3f7fdc70),
        (0xc11d64ec, 0x386016e8),
        (0x414b3227, 0x3f7fffcd),
        (0xc177ff62, 0x34474049),
        (0x41a5cc9d, 0x3f800000),
        (0xc1d299d8, 0x2c81ddba),
        (0x41ff6713, 0x3f800000),
        (0xc22d344e, 0x2038ca6c),
        (0x425a0189, 0x3f800000),
        (0xc287cec4, 0x0e832f92),
    ];
    const TANH_TABLE: [(u32, u32); 72] = [
        (0x00000000, 0x00000000),
        (0x80000000, 0x80000000),
        (0x3f800000, 0x3f42f7d6),
        (0xbf800000, 0xbf42f7d6),
        (0x3f000000, 0x3eec9a9e),
        (0xbf000000, 0xbeec9a9e),
        (0x3a83126f, 0x3a83126c),
        (0xba83126f, 0xba83126c),
        (0x3e317218, 0x3e2fb0cd),
        (0x3eb17218, 0x3eaaaaab),
        (0x40200000, 0x3f7c92c1),
        (0xc0200000, 0xbf7c92c1),
        (0x41000000, 0x3f7ffffc),
        (0xc1000000, 0xbf7ffffc),
        (0x41880000, 0x3f800000),
        (0xc1880000, 0xbf800000),
        (0x38d1b717, 0x38d1b717),
        (0xb8ff8452, 0xb8ff8452),
        (0x392c518d, 0x392c518d),
        (0xb95a1ec8, 0xb95a1ec8),
        (0x3986ec03, 0x3986ec03),
        (0xb9b3b93e, 0xb9b3b93e),
        (0x39e18679, 0x39e18678),
        (0xba0e53b4, 0xba0e53b3),
        (0x3a3c20ef, 0x3a3c20ed),
        (0xba68ee2a, 0xba68ee26),
        (0x3a95bb65, 0x3a95bb61),
        (0xbac388a0, 0xbac38896),
        (0x3af055db, 0x3af055c9),
        (0xbb1d2316, 0xbb1d2302),
        (0x3b4af051, 0x3b4af026),
        (0xbb77bd8c, 0xbb77bd3e),
        (0x3ba58ac7, 0x3ba58a6a),
        (0xbbd25802, 0xbbd25744),
        (0x3bff253d, 0x3bff23eb),
        (0xbc2cf278, 0xbc2cf0d3),
        (0x3c59bfb3, 0x3c59bc6b),
        (0xbc878cee, 0xbc8789c3),
        (0x3cb45a29, 0x3cb452b3),
        (0xbce12764, 0xbce118e1),
        (0x3d0ef49f, 0x3d0ee5c5),
        (0xbd3bc1da, 0xbd3ba037),
        (0x3d688f15, 0x3d684f31),
        (0xbd965c50, 0xbd96174d),
        (0x3dc3298b, 0x3dc292dc),
        (0xbdf0f6c6, 0xbdefdbb0),
        (0x3e1dc401, 0x3e1c8773),
        (0xbe4a913c, 0xbe47f738),
        (0x3e785e77, 0x3e739c48),
        (0xbea52bb2, 0xbe9fab77),
        (0x3ed1f8ed, 0x3ec6f146),
        (0xbeffc628, 0xbeec6d1f),
        (0x3f2c9363, 0x3f167298),
        (0xbf5a609e, 0xbf3151af),
        (0x3f872dd9, 0x3f48becf),
        (0xbfb3fb14, 0xbf62fc59),
        (0x3fe1c84f, 0x3f716481),
        (0xc00e958a, 0xbf7a1f85),
        (0x403c62c5, 0x3f7e9544),
        (0xc0693000, 0xbf7fa65e),
        (0x4095fd3b, 0x3f7ff4e0),
        (0xc0c3ca76, 0xbf7fff5d),
        (0x40f097b1, 0x3f7ffff6),
        (0xc11d64ec, 0xbf800000),
        (0x414b3227, 0x3f800000),
        (0xc177ff62, 0xbf800000),
        (0x41a5cc9d, 0x3f800000),
        (0xc1d299d8, 0xbf800000),
        (0x41ff6713, 0x3f800000),
        (0xc22d344e, 0xbf800000),
        (0x425a0189, 0x3f800000),
        (0xc287cec4, 0xbf800000),
    ];
    #[test]
    fn pinned_bits_do_not_move() {
        for (name, f, table) in [
            ("exp", exp as fn(f32) -> f32, &EXP_TABLE),
            ("sigmoid", sigmoid, &SIGMOID_TABLE),
            ("tanh", tanh, &TANH_TABLE),
        ] {
            for &(input, output) in table {
                let x = f32::from_bits(input);
                assert_eq!(
                    f(x).to_bits(),
                    output,
                    "{name}({x:e}) = {:e}, pinned {:e}",
                    f(x),
                    f32::from_bits(output)
                );
            }
        }
    }

    /// The loops the tape and the arena run are these functions over
    /// slices, which the compiler vectorises; a lane must compute what
    /// the scalar call computes. Generic over the function item so the
    /// slice loop inlines it (a `fn` pointer would keep both sides
    /// scalar); the reference side goes through a call that is never
    /// inlined, one element at a time.
    fn lanes_match_scalar_calls(f: impl Fn(f32) -> f32 + Copy) {
        #[inline(never)]
        fn one(f: impl Fn(f32) -> f32, x: f32) -> f32 {
            f(x)
        }
        let xs: Vec<f32> = sweep().step_by(7).collect();
        let mut out = xs.clone();
        for v in &mut out {
            *v = f(*v);
        }
        for (&x, y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), one(f, x).to_bits(), "at {x:e}");
        }
    }

    #[test]
    fn slices_match_the_scalar_calls() {
        lanes_match_scalar_calls(exp);
        lanes_match_scalar_calls(sigmoid);
        lanes_match_scalar_calls(tanh);
    }
}
