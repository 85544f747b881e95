//! Scalar arithmetic for the microscaling-era narrow floats.
//!
//! The OCP MX element formats (FP4 e2m1, FP6 e2m3/e3m2, FP8 e4m3/e5m2) and
//! the IEEE P3109-style FP8 profiles all share the `[s | e | m]` layout of
//! [`crate::fp::FpParams`] but disagree on what the *top of the code space*
//! means: full IEEE Inf/NaN reservation, a single NaN code, or no special
//! codes at all. [`MiniFloat`] parameterises exactly that choice so each
//! variant stays honest (§ISSUE satellite: clamping saturates to the format
//! max instead of round-tripping through `f32::INFINITY`, `−0.0` survives
//! where a −0 code exists, and flips landing on reclaimed "special"
//! encodings decode to defined values).
//!
//! Denormals are always on — every covered spec (OCP MX 1.0, P3109,
//! GoldenFloat) mandates subnormal support.

use crate::fp::{exp2, exponent_of, round_ties_even};

/// How a format treats the top of its code space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecialRule {
    /// IEEE-754: the all-ones exponent field is reserved for ±Inf / NaN.
    Ieee,
    /// OCP "fn" convention (FP8 e4m3): only all-ones exponent + all-ones
    /// mantissa is NaN; the rest of the top binade is finite. No Inf.
    NanOnly,
    /// Every code is a finite number (OCP FP4/FP6). No Inf, no NaN.
    Finite,
    /// P3109-style: one NaN at the would-be −0 code (`1 << (e+m)`); every
    /// other code is finite. No Inf and no −0.
    SingleNan,
}

/// A narrow `[s | e | m]` float with a configurable special-value rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MiniFloat {
    pub e: u32,
    pub m: u32,
    pub rule: SpecialRule,
}

impl MiniFloat {
    pub(crate) fn new(e: u32, m: u32, rule: SpecialRule) -> Self {
        assert!((2..=8).contains(&e), "exponent width {e} out of range 2..=8");
        assert!((1..=10).contains(&m), "mantissa width {m} out of range 1..=10");
        MiniFloat { e, m, rule }
    }

    pub(crate) fn bias(&self) -> i64 {
        (1i64 << (self.e - 1)) - 1
    }

    /// Largest exponent that holds finite values. Under [`SpecialRule::Ieee`]
    /// the all-ones field is reserved; the other rules reclaim it.
    pub(crate) fn emax(&self) -> i64 {
        match self.rule {
            SpecialRule::Ieee => (1i64 << self.e) - 2 - self.bias(),
            _ => (1i64 << self.e) - 1 - self.bias(),
        }
    }

    pub(crate) fn emin(&self) -> i64 {
        1 - self.bias()
    }

    /// Largest finite mantissa field in the top binade.
    fn top_mant(&self) -> u64 {
        match self.rule {
            SpecialRule::NanOnly => (1u64 << self.m) - 2,
            _ => (1u64 << self.m) - 1,
        }
    }

    /// Largest finite magnitude (448 for e4m3 under `NanOnly`, 57344 for
    /// e5m2 under `Ieee`, 6 for e2m1 under `Finite`).
    pub(crate) fn max_value(&self) -> f64 {
        exp2(self.emax()) * (1.0 + self.top_mant() as f64 * exp2(-(self.m as i64)))
    }

    pub(crate) fn min_denormal(&self) -> f64 {
        exp2(self.emin() - self.m as i64)
    }

    pub(crate) fn width(&self) -> usize {
        1 + self.e as usize + self.m as usize
    }

    pub(crate) fn has_nan(&self) -> bool {
        !matches!(self.rule, SpecialRule::Finite)
    }

    pub(crate) fn has_inf(&self) -> bool {
        matches!(self.rule, SpecialRule::Ieee)
    }

    /// The canonical NaN code for rules that have one.
    pub(crate) fn nan_code(&self) -> u64 {
        match self.rule {
            SpecialRule::SingleNan => 1u64 << (self.e + self.m),
            _ => ((((1u64 << self.e) - 1) << self.m) | ((1u64 << self.m) - 1)) & self.code_mask(),
        }
    }

    fn code_mask(&self) -> u64 {
        (1u64 << self.width()) - 1
    }

    /// Rounds to the nearest representable value (ties to even), saturating
    /// at `±max_value` — ±Inf inputs included. NaN maps to NaN when a NaN
    /// code exists and to 0 otherwise; `−0.0` becomes `+0.0` under
    /// [`SpecialRule::SingleNan`] (the format has no −0 code).
    ///
    /// Clamping the magnitude first makes saturation exact: `max_value` is
    /// itself on the grid, so nothing at or below it rounds past it (in
    /// particular no mantissa rounds up into a reclaimed "special" slot —
    /// 460 must become e4m3's 448, not its NaN code). The magnitude is then
    /// rounded to the step `2^k` of its binade, never finer than the
    /// subnormal step `2^(emin − m)`, by adding and subtracting `2^(k+52)`:
    /// the sum's ulp is `2^k`, so the addition rounds ties-to-even and the
    /// subtraction is exact. No branch on the binade, no libm call.
    pub(crate) fn quantize(&self, x: f64) -> f64 {
        self.quantizer()(x)
    }

    /// [`MiniFloat::quantize`] with the format's constants hoisted out, for
    /// tensor loops.
    pub(crate) fn quantizer(&self) -> impl Fn(f64) -> f64 + Copy {
        let (max, emin, m) = (self.max_value(), self.emin(), self.m as i64);
        let (nan, single_nan) = (self.has_nan(), matches!(self.rule, SpecialRule::SingleNan));
        move |x: f64| {
            if x.is_nan() {
                return if nan { f64::NAN } else { 0.0 };
            }
            let a = x.abs().min(max);
            // The raw exponent field (−1023 for zero); `max` with emin
            // covers the subnormal binades. The step exponent k then lies
            // in emin − m ..= emax − m, so 2^(k+52) is a normal f64.
            let e = ((a.to_bits() >> 52) & 0x7ff) as i64 - 1023;
            let k = e.max(emin) - m;
            let c = f64::from_bits(((k + 52 + 1023) as u64) << 52);
            let v = (a + c) - c;
            if v == 0.0 && single_nan {
                return 0.0;
            }
            v.copysign(x)
        }
    }

    /// Encodes to the integer image of the `[s | e | m]` word. Quantises
    /// first, so any f64 is accepted.
    pub(crate) fn encode(&self, x: f64) -> u64 {
        if x.is_infinite() && self.has_inf() {
            // ±Inf codes exist only under IEEE rules, and they must
            // round-trip through Methods 3/4 even though Method 1
            // saturates them (same convention as `FpParams::encode`).
            let exp_ones = (1u64 << self.e) - 1;
            return ((x.is_sign_negative() as u64) << (self.e + self.m)) | (exp_ones << self.m);
        }
        let v = self.quantize(x);
        if v.is_nan() {
            return self.nan_code();
        }
        let sign = v.is_sign_negative() as u64;
        let a = v.abs();
        if a == 0.0 {
            return sign << (self.e + self.m);
        }
        let ev = exponent_of(a);
        let (exp_field, mant_field) = if ev >= self.emin() {
            let mant = round_ties_even((a / exp2(ev) - 1.0) * exp2(self.m as i64)) as u64;
            ((ev + self.bias()) as u64, mant)
        } else {
            (0u64, round_ties_even(a / self.min_denormal()) as u64)
        };
        (sign << (self.e + self.m)) | (exp_field << self.m) | (mant_field & ((1u64 << self.m) - 1))
    }

    /// Decodes an integer code. Every code decodes to a defined value:
    /// codes that would be Inf/NaN under IEEE but are reclaimed by the rule
    /// decode as ordinary finite numbers.
    pub(crate) fn decode(&self, code: u64) -> f64 {
        let (e, m) = (self.e, self.m);
        let sign_bit = (code >> (e + m)) & 1;
        let exp_field = (code >> m) & ((1u64 << e) - 1);
        let mant = code & ((1u64 << m) - 1);
        let sign = if sign_bit == 1 { -1.0 } else { 1.0 };
        let exp_ones = (1u64 << e) - 1;
        match self.rule {
            SpecialRule::Ieee if exp_field == exp_ones => {
                return if mant == 0 { sign * f64::INFINITY } else { f64::NAN };
            }
            SpecialRule::NanOnly if exp_field == exp_ones && mant == (1u64 << m) - 1 => {
                return f64::NAN;
            }
            SpecialRule::SingleNan if code & self.code_mask() == self.nan_code() => {
                return f64::NAN;
            }
            _ => {}
        }
        if exp_field == 0 {
            return sign * mant as f64 * self.min_denormal();
        }
        sign * exp2(exp_field as i64 - self.bias()) * (1.0 + mant as f64 * exp2(-(m as i64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e4m3fn() -> MiniFloat {
        MiniFloat::new(4, 3, SpecialRule::NanOnly)
    }

    fn e2m1() -> MiniFloat {
        MiniFloat::new(2, 1, SpecialRule::Finite)
    }

    fn p3109_e4m3() -> MiniFloat {
        MiniFloat::new(4, 3, SpecialRule::SingleNan)
    }

    /// The quantiser this file used before its branch-free rewrite:
    /// per-binade divide-free rounding through `round_ties_even`.
    fn quantize_reference(f: &MiniFloat, x: f64) -> f64 {
        if x.is_nan() {
            return if f.has_nan() { f64::NAN } else { 0.0 };
        }
        if x == 0.0 {
            return if matches!(f.rule, SpecialRule::SingleNan) { 0.0 } else { x };
        }
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        if x.is_infinite() {
            return sign * f.max_value();
        }
        let a = x.abs();
        let v = if exponent_of(a) >= f.emin() {
            let scale = exp2(exponent_of(a) - f.m as i64);
            (round_ties_even(a / scale) * scale).min(f.max_value())
        } else {
            let step = f.min_denormal();
            round_ties_even(a / step) * step
        };
        if v == 0.0 && matches!(f.rule, SpecialRule::SingleNan) {
            return 0.0;
        }
        sign * v
    }

    #[test]
    fn quantize_matches_reference_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let rules =
            [SpecialRule::Ieee, SpecialRule::NanOnly, SpecialRule::Finite, SpecialRule::SingleNan];
        for (e, m) in [(2, 1), (2, 3), (3, 2), (4, 3), (5, 2), (3, 4), (8, 10), (5, 10)] {
            for rule in rules {
                let f = MiniFloat::new(e, m, rule);
                let mut cases = vec![
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    f64::MAX,
                    f64::MIN_POSITIVE,
                    5e-324,
                    f.max_value(),
                    f.min_denormal(),
                    f.min_denormal() * 0.5,
                    f.min_denormal() * 1.5,
                ];
                // Every code's value and the midpoints (ties) between codes.
                let mut grid: Vec<f64> =
                    (0..1u64 << f.width()).map(|c| f.decode(c)).filter(|v| v.is_finite()).collect();
                grid.sort_by(f64::total_cmp);
                cases.extend(grid.windows(2).map(|w| (w[0] + w[1]) * 0.5));
                cases.extend(grid);
                for _ in 0..20_000 {
                    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                    let e: i32 = rng.gen_range(-160..40);
                    cases.push(sign * rng.gen_range(1.0f64..2.0) * (2.0f64).powi(e));
                    cases.push(f64::from_bits(rng.gen::<u64>()));
                }
                for &x in &cases {
                    for x in [x, -x] {
                        let (got, want) = (f.quantize(x), quantize_reference(&f, x));
                        assert!(
                            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                            "e{e}m{m} {rule:?}: quantize({x:e}) = {got:e}, reference {want:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ocp_maxima() {
        assert_eq!(e2m1().max_value(), 6.0);
        assert_eq!(MiniFloat::new(2, 3, SpecialRule::Finite).max_value(), 7.5);
        assert_eq!(MiniFloat::new(3, 2, SpecialRule::Finite).max_value(), 28.0);
        assert_eq!(e4m3fn().max_value(), 448.0);
        assert_eq!(MiniFloat::new(5, 2, SpecialRule::Ieee).max_value(), 57344.0);
    }

    #[test]
    fn saturation_never_produces_special_codes() {
        // 460 rounds up to 480 — the bit pattern that would be e4m3fn's
        // NaN — so the quantiser must saturate to 448 instead.
        let f = e4m3fn();
        assert_eq!(f.quantize(460.0), 448.0);
        assert_eq!(f.quantize(1e30), 448.0);
        assert_eq!(f.quantize(f64::INFINITY), 448.0);
        assert_eq!(f.quantize(f64::NEG_INFINITY), -448.0);
        assert!(f.decode(f.encode(1e30)).is_finite());
    }

    #[test]
    fn finite_rule_has_no_specials() {
        let f = e2m1();
        for code in 0..(1u64 << f.width()) {
            assert!(f.decode(code).is_finite(), "code {code:#x}");
        }
        assert_eq!(f.quantize(f64::NAN), 0.0);
        assert_eq!(f.quantize(f64::INFINITY), 6.0);
    }

    #[test]
    fn single_nan_lives_at_sign_zero() {
        let f = p3109_e4m3();
        assert!(f.decode(0x80).is_nan());
        assert_eq!(f.encode(f64::NAN), 0x80);
        for code in 0..256u64 {
            if code != 0x80 {
                assert!(f.decode(code).is_finite(), "code {code:#x}");
            }
        }
        // No −0: the sign of zero cannot survive.
        assert!(!f.quantize(-0.0).is_sign_negative());
        assert_eq!(f.encode(-0.0), 0);
        // Negative underflow rounds to +0, never −0.
        assert!(!f.quantize(-f.min_denormal() / 8.0).is_sign_negative());
    }

    #[test]
    fn signed_zero_survives_outside_single_nan() {
        for rule in [SpecialRule::Ieee, SpecialRule::NanOnly, SpecialRule::Finite] {
            let f = MiniFloat::new(4, 3, rule);
            assert!(f.quantize(-0.0).is_sign_negative(), "{rule:?}");
            let code = f.encode(-0.0);
            assert_eq!(code, 1 << 7, "{rule:?}");
            assert!(f.decode(code).is_sign_negative(), "{rule:?}");
        }
    }

    #[test]
    fn decode_encode_is_a_fixpoint_for_every_code_and_rule() {
        for rule in
            [SpecialRule::Ieee, SpecialRule::NanOnly, SpecialRule::Finite, SpecialRule::SingleNan]
        {
            for (e, m) in [(2, 1), (2, 3), (3, 2), (4, 3), (5, 2)] {
                let f = MiniFloat::new(e, m, rule);
                for code in 0..(1u64 << f.width()) {
                    let v = f.decode(code);
                    let v2 = f.decode(f.encode(v));
                    let ok = v.to_bits() == v2.to_bits() || (v.is_nan() && v2.is_nan());
                    assert!(ok, "{rule:?} e{e}m{m} code {code:#x}: {v} re-decodes as {v2}");
                }
            }
        }
    }

    #[test]
    fn quantize_agrees_with_decode_encode() {
        for rule in
            [SpecialRule::Ieee, SpecialRule::NanOnly, SpecialRule::Finite, SpecialRule::SingleNan]
        {
            let f = MiniFloat::new(4, 3, rule);
            for i in -2000..2000 {
                let x = i as f64 * 0.37;
                let q = f.quantize(x);
                let via_codes = f.decode(f.encode(x));
                assert_eq!(q.to_bits(), via_codes.to_bits(), "{rule:?} at {x}");
            }
        }
    }

    #[test]
    fn ieee_rule_matches_fp_params() {
        use crate::fp::FpParams;
        let mini = MiniFloat::new(5, 2, SpecialRule::Ieee);
        let fp = FpParams::new(5, 2, true);
        for i in -4000..4000 {
            let x = i as f64 * 23.917;
            assert_eq!(mini.quantize(x).to_bits(), fp.quantize(x).to_bits(), "at {x}");
        }
    }
}
