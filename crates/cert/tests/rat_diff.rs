//! Differential tests of `BigRat` against the `Vec`-limb implementation
//! it replaced (`reference/`): every operation must give the same
//! canonical value (`parts`) and the same `approx_f64` bits.
//!
//! The generators cross the inline/heap boundary in both directions:
//! `x + 2^±e − 2^±e` spills to dozens of limbs and cancels back to one,
//! products of three and four mantissas fill the inline limbs exactly,
//! subnormals sit ~2000 bits below `f64::MAX`, and dot products that are
//! built up and then subtracted term by term shrink a spilled
//! accumulator back to a few limbs and to zero.

// float arithmetic is the domain here; the workspace lint exists for
// exact-arithmetic code (clk-cert escalates it to deny)
#![allow(clippy::float_arithmetic, clippy::float_cmp)]

mod reference;

use clk_cert::BigRat;
use proptest::prelude::*;
use reference::BigRat as RefRat;

/// A finite `f64` of one of several shapes, picked by `kind`.
fn shaped(kind: u8, bits: u64, e: i64) -> f64 {
    let sign = bits & (1 << 63);
    match kind % 6 {
        // any finite value: clear one exponent bit of NaN/∞ patterns
        0 if (bits >> 52) & 0x7ff == 0x7ff => f64::from_bits(bits & !(1 << 62)),
        0 => f64::from_bits(bits),
        // subnormal
        1 => f64::from_bits(sign | (bits & ((1 << 52) - 1))),
        // ±2^e
        2 => f64::from_bits(sign | pow2_bits(e)),
        // small integer
        3 => (bits % 2001) as f64 - 1000.0,
        // one ulp-scale step off ±1
        4 => f64::from_bits(sign | (1.0f64.to_bits() + bits % 16)),
        _ => {
            if bits & 1 == 0 {
                0.0
            } else {
                -0.0
            }
        }
    }
}

/// Bits of `2^e` for `e` in `-1074..=1023`.
fn pow2_bits(e: i64) -> u64 {
    if e >= -1022 {
        ((e + 1023) as u64) << 52
    } else {
        1 << (e + 1074)
    }
}

fn value() -> impl Strategy<Value = f64> {
    (0u8..6, 0u64..=u64::MAX, -1074i64..=1023).prop_map(|(k, b, e)| shaped(k, b, e))
}

fn both(v: f64) -> (BigRat, RefRat) {
    (
        BigRat::from_f64_exact(v).expect("finite"),
        RefRat::from_f64_exact(v).expect("finite"),
    )
}

fn same(new: &BigRat, old: &RefRat) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.parts(), old.parts());
    prop_assert_eq!(new.approx_f64().to_bits(), old.approx_f64().to_bits());
    Ok(())
}

/// Every binary and unary operation on `(a, b)`, in both implementations.
fn ops_agree(a: &(BigRat, RefRat), b: &(BigRat, RefRat)) -> Result<(), TestCaseError> {
    let ((an, ao), (bn, bo)) = (a, b);
    same(an, ao)?;
    same(&an.add(bn), &ao.add(bo))?;
    same(&an.sub(bn), &ao.sub(bo))?;
    same(&an.mul(bn), &ao.mul(bo))?;
    same(&an.negate(), &ao.negate())?;
    same(&an.abs(), &ao.abs())?;
    same(&an.max(bn), &ao.max(bo))?;
    prop_assert_eq!(an.cmp_exact(bn), ao.cmp_exact(bo));
    prop_assert_eq!(bn.cmp_exact(an), bo.cmp_exact(ao));
    prop_assert_eq!(an.within(bn), ao.within(bo));
    prop_assert_eq!(an.within(&bn.abs()), ao.within(&bo.abs()));
    prop_assert_eq!(an.is_zero(), ao.is_zero());
    prop_assert_eq!(an.is_negative(), ao.is_negative());
    prop_assert_eq!(an.is_positive(), ao.is_positive());
    // the in-place forms against the allocating reference
    let mut acc = an.clone();
    acc.add_assign(bn);
    same(&acc, &ao.add(bo))?;
    let mut acc = an.clone();
    acc.sub_assign(bn);
    same(&acc, &ao.sub(bo))?;
    let mut acc = an.clone();
    acc.add_abs_assign(bn);
    same(&acc, &ao.add(&bo.abs()))?;
    Ok(())
}

proptest! {
    // miri interprets every limb operation; a handful of cases there
    // covers the same code paths
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 512 }))]

    /// Decoding any bit pattern, NaN and ±∞ included.
    #[test]
    fn decode_matches(bits in 0u64..=u64::MAX, kind in 0u8..6, e in -1074i64..=1023) {
        for v in [f64::from_bits(bits), shaped(kind, bits, e)] {
            let (new, old) = (BigRat::from_f64_exact(v), RefRat::from_f64_exact(v));
            prop_assert_eq!(new.is_some(), old.is_some());
            if let (Some(n), Some(o)) = (&new, &old) {
                same(n, o)?;
            }
        }
    }

    /// Single-limb operands of every shape.
    #[test]
    fn operations_match(a in value(), b in value()) {
        ops_agree(&both(a), &both(b))?;
    }

    /// Multi-limb and spilled operands: products of two to four
    /// mantissas and sums across a wide exponent gap.
    #[test]
    fn wide_operations_match(
        vs in prop::collection::vec(value(), 4),
        ws in prop::collection::vec(value(), 4),
    ) {
        // the product of the first `k` values: up to four mantissas,
        // which fills the inline limbs exactly
        let wide = |xs: &[f64], k: usize| -> (BigRat, RefRat) {
            let mut acc = both(xs[0]);
            for &x in &xs[1..k] {
                let (n, o) = both(x);
                acc = (acc.0.mul(&n), acc.1.mul(&o));
            }
            acc
        };
        for k in 2..=4 {
            let (a, b) = (wide(&vs, k), wide(&ws, k));
            ops_agree(&a, &b)?;
            ops_agree(&a, &both(ws[0]))?;
            ops_agree(&both(vs[0]), &b)?;
            // heap × heap and its comparisons
            let sq = (a.0.mul(&a.0), a.1.mul(&a.1));
            ops_agree(&sq, &b)?;
        }
    }

    /// `x + 2^e − 2^e` for far-away `e`: spills to the heap and cancels
    /// back to `x`'s inline limbs, in place and allocating.
    #[test]
    fn spill_and_cancel_round_trips(
        x in value(),
        y in value(),
        e in far_exponent(),
    ) {
        let (xn, xo) = both(x);
        let (yn, yo) = both(y);
        let big = (BigRat::two_pow(e), RefRat::two_pow(e));
        for (n, o) in [(xn.clone(), xo.clone()), (xn.mul(&yn), xo.mul(&yo))] {
            let up = (n.add(&big.0), o.add(&big.1));
            same(&up.0, &up.1)?;
            let back = (up.0.sub(&big.0), up.1.sub(&big.1));
            same(&back.0, &back.1)?;
            same(&back.0, &o)?;
            ops_agree(&up, &(n.clone(), o.clone()))?;
            // in place, both orders of the exponents
            let mut acc = n.clone();
            acc.add_assign(&big.0);
            same(&acc, &up.1)?;
            acc.sub_assign(&big.0);
            same(&acc, &o)?;
            let mut acc = big.0.clone();
            acc.add_assign(&n);
            same(&acc, &up.1)?;
            acc.sub_assign(&n);
            same(&acc, &big.1)?;
            acc.sub_assign(&big.0);
            prop_assert!(acc.is_zero());
        }
    }

    /// Dot products accumulated in place, then cancelled term by term
    /// in reverse: the accumulator grows across the inline boundary and
    /// shrinks back through it to zero.
    #[test]
    fn dot_products_match(
        terms in prop::collection::vec((value(), value()), 0..40),
    ) {
        let prods: Vec<(BigRat, RefRat)> = terms
            .iter()
            .map(|&(a, b)| {
                let ((an, ao), (bn, bo)) = (both(a), both(b));
                (an.mul(&bn), ao.mul(&bo))
            })
            .collect();
        let mut sum = BigRat::zero();
        let mut mag = BigRat::zero();
        let (mut sum_ref, mut mag_ref) = (RefRat::zero(), RefRat::zero());
        for (n, o) in &prods {
            sum.add_assign(n);
            mag.add_abs_assign(n);
            sum_ref = sum_ref.add(o);
            mag_ref = mag_ref.add(&o.abs());
            same(&sum, &sum_ref)?;
            same(&mag, &mag_ref)?;
            prop_assert_eq!(sum.cmp_exact(&mag), sum_ref.cmp_exact(&mag_ref));
            prop_assert_eq!(sum.within(&mag), sum_ref.within(&mag_ref));
        }
        for (n, o) in prods.iter().rev() {
            sum.sub_assign(n);
            sum_ref = sum_ref.sub(o);
            same(&sum, &sum_ref)?;
        }
        prop_assert!(sum.is_zero());
    }
}

/// Exponents near both ends of the `f64` range, where `x + 2^e` needs
/// 16 to 34 limbs, and a few that stay within reach of the inline span.
fn far_exponent() -> impl Strategy<Value = i64> {
    (0u8..4, 0i64..64).prop_map(|(k, d)| match k {
        0 => 1000 - d,
        1 => -1074 + d,
        2 => 200 + d,
        _ => -(200 + d),
    })
}
