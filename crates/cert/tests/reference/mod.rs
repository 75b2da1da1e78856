//! Test-only copy of `BigRat` as it was before inline limb storage: the
//! magnitude in a `Vec<u64>`, every operation allocating its result. The
//! differential tests in `rat_diff.rs` hold the shipped `BigRat` to it
//! value for value. Only `parts` is new, to compare the two forms.

#![allow(dead_code, clippy::float_arithmetic, clippy::float_cmp)]

use std::cmp::Ordering;

/// An exact dyadic rational `(-1)^neg · mag · 2^exp`.
///
/// Invariants (maintained by [`BigRat::normalize`]):
/// * `mag` has no trailing (most-significant) zero limbs;
/// * the low bit of `mag` is set (odd magnitude) unless the value is 0;
/// * zero is `{ neg: false, mag: [], exp: 0 }`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BigRat {
    neg: bool,
    /// Little-endian base-2⁶⁴ limbs of the magnitude.
    mag: Vec<u64>,
    /// Power-of-two scale (the negated dyadic denominator exponent).
    exp: i64,
}

impl BigRat {
    /// Exact zero.
    pub fn zero() -> Self {
        BigRat {
            neg: false,
            mag: Vec::new(),
            exp: 0,
        }
    }

    /// Exact one.
    pub fn one() -> Self {
        BigRat {
            neg: false,
            mag: vec![1],
            exp: 0,
        }
    }

    /// Exactly `2^e` (e.g. `two_pow(-17)` is the checker tolerance unit).
    pub fn two_pow(e: i64) -> Self {
        BigRat {
            neg: false,
            mag: vec![1],
            exp: e,
        }
    }

    /// Exactly `v`.
    pub fn from_i64(v: i64) -> Self {
        let neg = v < 0;
        let mag = v.unsigned_abs();
        let mut r = BigRat {
            neg,
            mag: if mag == 0 { Vec::new() } else { vec![mag] },
            exp: 0,
        };
        r.normalize();
        r
    }

    /// The exact value of a finite `f64`, decoded from its bit pattern
    /// (sign, biased exponent, mantissa — subnormals included).
    /// `None` for NaN and ±∞.
    pub fn from_f64_exact(v: f64) -> Option<Self> {
        let bits = v.to_bits();
        let neg = (bits >> 63) != 0;
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        if biased == 0x7ff {
            return None; // NaN or infinity
        }
        let (mant, exp) = if biased == 0 {
            (frac, -1074) // subnormal (or zero)
        } else {
            (frac | (1u64 << 52), biased - 1075)
        };
        let mut r = BigRat {
            neg: neg && mant != 0,
            mag: if mant == 0 { Vec::new() } else { vec![mant] },
            exp,
        };
        r.normalize();
        Some(r)
    }

    /// The canonical form `(negative, magnitude limbs, exp)`.
    pub fn parts(&self) -> (bool, &[u64], i64) {
        (self.neg, &self.mag, self.exp)
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        !self.neg && !self.is_zero()
    }

    /// Exact negation.
    pub fn negate(&self) -> Self {
        let mut r = self.clone();
        if !r.is_zero() {
            r.neg = !r.neg;
        }
        r
    }

    /// Exact absolute value.
    pub fn abs(&self) -> Self {
        let mut r = self.clone();
        r.neg = false;
        r
    }

    /// Exact sum.
    pub fn add(&self, other: &Self) -> Self {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        // align the scales: both magnitudes shifted up to the smaller exp
        let exp = self.exp.min(other.exp);
        let a = mag_shl(&self.mag, (self.exp - exp) as u64);
        let b = mag_shl(&other.mag, (other.exp - exp) as u64);
        let mut r = if self.neg == other.neg {
            BigRat {
                neg: self.neg,
                mag: mag_add(&a, &b),
                exp,
            }
        } else {
            match mag_cmp(&a, &b) {
                Ordering::Equal => BigRat::zero(),
                Ordering::Greater => BigRat {
                    neg: self.neg,
                    mag: mag_sub(&a, &b),
                    exp,
                },
                Ordering::Less => BigRat {
                    neg: other.neg,
                    mag: mag_sub(&b, &a),
                    exp,
                },
            }
        };
        r.normalize();
        r
    }

    /// Exact difference `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.negate())
    }

    /// Exact product.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return BigRat::zero();
        }
        let mut r = BigRat {
            neg: self.neg != other.neg,
            mag: mag_mul(&self.mag, &other.mag),
            exp: self.exp + other.exp,
        };
        r.normalize();
        r
    }

    /// Exact maximum.
    pub fn max(&self, other: &Self) -> Self {
        if self.cmp_exact(other) == Ordering::Less {
            other.clone()
        } else {
            self.clone()
        }
    }

    /// Exact total order.
    pub fn cmp_exact(&self, other: &Self) -> Ordering {
        let d = self.sub(other);
        if d.is_zero() {
            Ordering::Equal
        } else if d.neg {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// Whether `|self| <= tol` (exact comparison).
    pub fn within(&self, tol: &Self) -> bool {
        self.abs().cmp_exact(tol) != Ordering::Greater
    }

    fn normalize(&mut self) {
        while self.mag.last() == Some(&0) {
            self.mag.pop();
        }
        if self.mag.is_empty() {
            self.neg = false;
            self.exp = 0;
            return;
        }
        // shift out trailing zero bits into the exponent so magnitudes
        // stay minimal across long dot products
        let mut tz: u64 = 0;
        for &limb in &self.mag {
            if limb == 0 {
                tz += 64;
            } else {
                tz += u64::from(limb.trailing_zeros());
                break;
            }
        }
        if tz > 0 {
            self.mag = mag_shr(&self.mag, tz);
            self.exp += tz as i64;
        }
    }

    /// A lossy `f64` approximation — **telemetry only**; never used in
    /// any acceptance decision (the checker compares exact rationals).
    #[allow(
        clippy::float_arithmetic,
        clippy::float_cmp,
        clippy::cast_precision_loss,
        clippy::indexing_slicing
    )]
    pub fn approx_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // take the top <= 64 bits of the magnitude and rescale
        let nlimbs = self.mag.len();
        let top = self.mag[nlimbs - 1];
        let mut v = top as f64;
        if nlimbs > 1 {
            v += self.mag[nlimbs - 2] as f64 / 1.8446744073709552e19; // 2^64
        }
        let scale = self.exp + 64 * (nlimbs as i64 - 1);
        let mut out = v;
        // apply the power-of-two scale in clamped steps so intermediate
        // values neither overflow nor flush to zero prematurely
        let mut s = scale;
        while s != 0 {
            let step = s.clamp(-512, 512);
            out *= f64::powi(2.0, step as i32);
            s -= step;
            if out == 0.0 || out.is_infinite() {
                break;
            }
        }
        if self.neg {
            -out
        } else {
            out
        }
    }
}

impl std::fmt::Display for BigRat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:e}", self.approx_f64())
    }
}

// ---- limb arithmetic ----------------------------------------------------

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

// every index below is bounded by the iteration limit of its own loop
#[allow(clippy::indexing_slicing)]
fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &li) in long.iter().enumerate() {
        let s = u128::from(li) + u128::from(short.get(i).copied().unwrap_or(0)) + u128::from(carry);
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a - b`; callers guarantee `a >= b`.
#[allow(clippy::indexing_slicing)]
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &ai) in a.iter().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, o1) = ai.overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = u64::from(o1) + u64::from(o2);
    }
    debug_assert_eq!(borrow, 0);
    out
}

// `out` is sized `a.len() + b.len()` up front, which bounds `i + j` and
// the carry walk (the product of an i-limb and j-limb number fits)
#[allow(clippy::indexing_slicing)]
fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = u128::from(out[k]) + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    out
}

fn mag_shl(a: &[u64], bits: u64) -> Vec<u64> {
    if a.is_empty() || bits == 0 {
        return a.to_vec();
    }
    let limbs = (bits / 64) as usize;
    let rem = bits % 64;
    let mut out = vec![0u64; limbs];
    if rem == 0 {
        out.extend_from_slice(a);
        return out;
    }
    let mut carry = 0u64;
    for &limb in a {
        out.push((limb << rem) | carry);
        carry = limb >> (64 - rem);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// `a >> bits`; callers guarantee the shifted-out bits are zero.
#[allow(clippy::indexing_slicing)]
fn mag_shr(a: &[u64], bits: u64) -> Vec<u64> {
    let limbs = (bits / 64) as usize;
    let rem = bits % 64;
    let kept = &a[limbs.min(a.len())..];
    if rem == 0 {
        return kept.to_vec();
    }
    let mut out = Vec::with_capacity(kept.len());
    for i in 0..kept.len() {
        let hi = kept.get(i + 1).copied().unwrap_or(0);
        out.push((kept[i] >> rem) | (hi << (64 - rem)));
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}
