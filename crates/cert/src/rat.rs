//! [`BigRat`]: a zero-dependency arbitrary-precision rational built for
//! exact verification of floating-point LP certificates.
//!
//! Every finite `f64` is exactly `(-1)^s · m · 2^e` with `m < 2^53`, so
//! every number the checker ever constructs is a *dyadic* rational:
//! sign + arbitrary-precision magnitude (base-2⁶⁴ limbs) + a power-of-
//! two scale. Dyadic rationals are closed under addition, subtraction
//! and multiplication — and the certificate checks need nothing else
//! (no division appears in primal/dual feasibility, complementary
//! slackness, or Farkas-gap arithmetic). The denominator is therefore
//! always a power of two and is carried as the `exp` field instead of a
//! second magnitude, which makes normalization a shift instead of a gcd.
//!
//! The magnitude lives inline for up to [`INLINE`] limbs and spills to
//! the heap only beyond them, so a decoded `f64`, the product of two of
//! them, and the aligned sums of well-scaled dot products never allocate.
//! Sums work in place: the operand with the larger scale is shifted up in
//! its own buffer and the other is read through a shifted view
//! ([`Shifted`]) instead of being copied.
//!
//! No `f64` arithmetic or comparison appears anywhere in this module
//! except the clearly-marked [`BigRat::approx_f64`] telemetry exporter;
//! conversion *from* `f64` goes through [`f64::to_bits`] only.

use std::cmp::Ordering;

/// Limbs held inline before a magnitude spills to the heap: 256 bits
/// hold the product of two `f64` mantissas (106 bits) and any sum whose
/// terms' scales lie within ~150 bits of each other.
const INLINE: usize = 4;

/// The limbs of a magnitude, little-endian base 2⁶⁴. A magnitude is on
/// the heap exactly when it has more than [`INLINE`] limbs; [`resize`]
/// moves it across that boundary in both directions.
///
/// [`resize`]: Limbs::resize
#[derive(Clone)]
enum Limbs {
    /// `buf[..len]` are the limbs; `buf[len..]` is unused.
    Inline { len: u8, buf: [u64; INLINE] },
    /// More than [`INLINE`] limbs.
    Heap(Vec<u64>),
}

impl Limbs {
    fn single(v: u64) -> Self {
        let mut buf = [0; INLINE];
        buf[0] = v;
        Limbs::Inline { len: 1, buf }
    }

    /// `n` zero limbs.
    fn zeroed(n: usize) -> Self {
        if n <= INLINE {
            Limbs::Inline {
                len: n as u8,
                buf: [0; INLINE],
            }
        } else {
            Limbs::Heap(vec![0; n])
        }
    }

    // `len <= INLINE` is the `Inline` variant's invariant (every
    // constructor and `resize` keep it), so the slice is in bounds
    #[allow(clippy::indexing_slicing)]
    fn as_slice(&self) -> &[u64] {
        match self {
            Limbs::Inline { len, buf } => &buf[..usize::from(*len)],
            Limbs::Heap(v) => v,
        }
    }

    #[allow(clippy::indexing_slicing)]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Limbs::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Limbs::Heap(v) => v,
        }
    }

    fn len(&self) -> usize {
        match self {
            Limbs::Inline { len, .. } => usize::from(*len),
            Limbs::Heap(v) => v.len(),
        }
    }

    /// Resizes to `n` limbs: new limbs are zero, dropped limbs are gone.
    /// Spills to the heap above [`INLINE`] limbs and moves back inline
    /// (copying exactly the kept limbs) at or below it.
    // `n <= INLINE` in the inline arms and a heap vector always holds
    // more than `INLINE` limbs, so every range below is in bounds
    #[allow(clippy::indexing_slicing)]
    fn resize(&mut self, n: usize) {
        match self {
            Limbs::Inline { len, buf } if n <= INLINE => {
                // zero the limbs `old..n` without a call to `memset`
                let old = usize::from(*len);
                for (i, l) in buf.iter_mut().enumerate() {
                    if i >= old && i < n {
                        *l = 0;
                    }
                }
                *len = n as u8;
            }
            Limbs::Inline { len, buf } => {
                let mut v = Vec::with_capacity(n + 1);
                v.extend_from_slice(&buf[..usize::from(*len)]);
                v.resize(n, 0);
                *self = Limbs::Heap(v);
            }
            Limbs::Heap(v) if n > INLINE => v.resize(n, 0),
            Limbs::Heap(v) => {
                let mut buf = [0; INLINE];
                buf[..n].copy_from_slice(&v[..n]);
                *self = Limbs::Inline { len: n as u8, buf };
            }
        }
    }
}

/// An exact dyadic rational `(-1)^neg · mag · 2^exp`.
///
/// Invariants (maintained by [`BigRat::normalize`]):
/// * `mag` has no most-significant zero limbs;
/// * the low bit of `mag` is set (odd magnitude) unless the value is 0;
/// * zero is `{ neg: false, mag: [], exp: 0 }`.
///
/// The representation is therefore canonical: equal values have equal
/// [`BigRat::parts`].
#[derive(Clone)]
pub struct BigRat {
    neg: bool,
    mag: Limbs,
    /// Power-of-two scale (the negated dyadic denominator exponent).
    exp: i64,
}

impl PartialEq for BigRat {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for BigRat {}

impl std::fmt::Debug for BigRat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BigRat")
            .field("neg", &self.neg)
            .field("mag", &self.mag.as_slice())
            .field("exp", &self.exp)
            .finish()
    }
}

impl BigRat {
    /// Exact zero.
    pub fn zero() -> Self {
        BigRat {
            neg: false,
            mag: Limbs::zeroed(0),
            exp: 0,
        }
    }

    /// Exact one.
    pub fn one() -> Self {
        BigRat::two_pow(0)
    }

    /// Exactly `2^e` (e.g. `two_pow(-17)` is the checker tolerance unit).
    pub fn two_pow(e: i64) -> Self {
        BigRat {
            neg: false,
            mag: Limbs::single(1),
            exp: e,
        }
    }

    /// Exactly `v`.
    pub fn from_i64(v: i64) -> Self {
        BigRat::from_parts(v < 0, v.unsigned_abs(), 0)
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
        Some(BigRat::from_parts(neg, mant, exp))
    }

    /// `(-1)^neg · mag · 2^exp`, normalized.
    fn from_parts(neg: bool, mag: u64, exp: i64) -> Self {
        if mag == 0 {
            return BigRat::zero();
        }
        let tz = mag.trailing_zeros();
        BigRat {
            neg,
            mag: Limbs::single(mag >> tz),
            exp: exp + i64::from(tz),
        }
    }

    /// The canonical form `(negative, magnitude limbs, exp)` of the value
    /// `(-1)^negative · Σ limbs[i]·2^(64·i) · 2^exp`: the limbs are
    /// little-endian with a nonzero top limb and an odd low limb, and
    /// zero is `(false, [], 0)`.
    pub fn parts(&self) -> (bool, &[u64], i64) {
        (self.neg, self.mag.as_slice(), self.exp)
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.mag.len() == 0
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
        r.neg = !r.neg && !r.is_zero();
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
        let mut r = self.clone();
        r.add_assign(other);
        r
    }

    /// Exact difference `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        let mut r = self.clone();
        r.sub_assign(other);
        r
    }

    /// `self += other`, exactly, in `self`'s own limbs.
    pub fn add_assign(&mut self, other: &Self) {
        self.add_signed(other, other.neg);
    }

    /// `self -= other`, exactly, in `self`'s own limbs.
    pub fn sub_assign(&mut self, other: &Self) {
        self.add_signed(other, !other.neg);
    }

    /// `self += |other|`, exactly — accumulates the absolute mass of a
    /// sum's terms.
    pub fn add_abs_assign(&mut self, other: &Self) {
        self.add_signed(other, false);
    }

    /// `self += (-1)^other_neg · |other|`.
    fn add_signed(&mut self, other: &Self, other_neg: bool) {
        if other.is_zero() {
            return;
        }
        if self.is_zero() {
            self.mag.clone_from(&other.mag);
            self.exp = other.exp;
            self.neg = other_neg;
            return;
        }
        // align to the smaller scale: shift `self` up in place, or read
        // `other` shifted up through a view
        if self.exp > other.exp {
            shl_in_place(&mut self.mag, self.exp.abs_diff(other.exp));
            self.exp = other.exp;
        }
        let b = Shifted::new(other.mag.as_slice(), other.exp.abs_diff(self.exp));
        if self.neg == other_neg {
            mag_add_assign(&mut self.mag, b);
        } else {
            match mag_cmp(self.mag.as_slice(), b) {
                Ordering::Equal => {
                    *self = BigRat::zero();
                    return;
                }
                Ordering::Greater => mag_sub_assign(self.mag.as_mut_slice(), b),
                Ordering::Less => {
                    mag_rsub_assign(&mut self.mag, b);
                    self.neg = other_neg;
                }
            }
        }
        self.normalize();
    }

    /// Exact product.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return BigRat::zero();
        }
        let mag = match (self.mag.as_slice(), other.mag.as_slice()) {
            // a power of two (the tolerance unit, a unit coefficient, a
            // slack column) only moves the other factor's scale
            ([1], _) => other.mag.clone(),
            (_, [1]) => self.mag.clone(),
            (a, b) => {
                let n = a.len() + b.len();
                let mut mag = Limbs::zeroed(n);
                mag_mul_into(mag.as_mut_slice(), a, b);
                // the product of two odd magnitudes is odd and has `n` or
                // `n − 1` limbs, so normalizing only drops a zero top limb
                if mag.as_slice().last() == Some(&0) {
                    mag.resize(n - 1);
                }
                mag
            }
        };
        BigRat {
            neg: self.neg != other.neg,
            mag,
            exp: self.exp + other.exp,
        }
    }

    /// Exact maximum.
    pub fn max(&self, other: &Self) -> Self {
        if self.cmp_exact(other) == Ordering::Less {
            other.clone()
        } else {
            self.clone()
        }
    }

    /// Exact total order: sign first, then the magnitudes.
    pub fn cmp_exact(&self, other: &Self) -> Ordering {
        match self.signum().cmp(&other.signum()) {
            Ordering::Equal if self.neg => self.cmp_abs(other).reverse(),
            Ordering::Equal => self.cmp_abs(other),
            o => o,
        }
    }

    /// Exact order of `|self|` and `|other|`: the position of the top
    /// bit first, then the aligned limbs from the top, stopping at the
    /// first that differ.
    pub(crate) fn cmp_abs(&self, other: &Self) -> Ordering {
        let (a, b) = (self.mag.as_slice(), other.mag.as_slice());
        match (a.is_empty(), b.is_empty()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        let top = |mag: &[u64], exp: i64| i128::from(exp) + i128::from(bit_len(mag));
        match top(a, self.exp).cmp(&top(b, other.exp)) {
            Ordering::Equal => {}
            o => return o,
        }
        if self.exp <= other.exp {
            mag_cmp(a, Shifted::new(b, other.exp.abs_diff(self.exp)))
        } else {
            mag_cmp(b, Shifted::new(a, self.exp.abs_diff(other.exp))).reverse()
        }
    }

    /// Whether `|self| <= tol` (exact comparison).
    pub fn within(&self, tol: &Self) -> bool {
        !tol.neg && self.cmp_abs(tol) != Ordering::Greater
    }

    fn signum(&self) -> i8 {
        if self.is_zero() {
            0
        } else if self.neg {
            -1
        } else {
            1
        }
    }

    /// Restores the invariants in place: drops most-significant zero
    /// limbs and shifts trailing zero bits into the exponent, so
    /// magnitudes stay minimal across long dot products.
    fn normalize(&mut self) {
        let mag = self.mag.as_slice();
        let Some(low) = mag.iter().position(|&l| l != 0) else {
            *self = BigRat::zero();
            return;
        };
        let top = mag.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
        let rem = mag.get(low).map_or(0, |l| l.trailing_zeros());
        if low == 0 && rem == 0 {
            self.mag.resize(top);
            return;
        }
        let kept = shr_in_place(self.mag.as_mut_slice(), top, low, rem);
        self.mag.resize(kept);
        self.exp += 64 * low as i64 + i64::from(rem);
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
        let mag = self.mag.as_slice();
        let nlimbs = mag.len();
        let top = mag[nlimbs - 1];
        let mut v = top as f64;
        if nlimbs > 1 {
            v += mag[nlimbs - 2] as f64 / 1.8446744073709552e19; // 2^64
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

/// Number of significant bits of a magnitude with a nonzero top limb.
fn bit_len(a: &[u64]) -> u64 {
    a.last().map_or(0, |&top| {
        64 * a.len() as u64 - u64::from(top.leading_zeros())
    })
}

/// `src · 2^bits`, read without materializing it.
#[derive(Clone, Copy)]
struct Shifted<'a> {
    src: &'a [u64],
    /// Whole limbs of the shift.
    limbs: usize,
    /// Remaining bits of the shift, `< 64`.
    rem: u32,
}

impl<'a> Shifted<'a> {
    fn new(src: &'a [u64], bits: u64) -> Self {
        Shifted {
            src,
            limbs: usize::try_from(bits / 64).unwrap_or(usize::MAX),
            rem: (bits % 64) as u32,
        }
    }

    /// Limbs spanned (the top one may be zero).
    fn len(&self) -> usize {
        self.src.len() + self.limbs + usize::from(self.rem != 0)
    }

    fn bit_len(&self) -> u64 {
        bit_len(self.src) + 64 * self.limbs as u64 + u64::from(self.rem)
    }

    /// Limb `k` of the shifted value.
    fn limb(&self, k: usize) -> u64 {
        let Some(i) = k.checked_sub(self.limbs) else {
            return 0;
        };
        let lo = self.src.get(i).map_or(0, |&l| l << self.rem);
        if self.rem == 0 {
            return lo;
        }
        let hi = i
            .checked_sub(1)
            .and_then(|j| self.src.get(j))
            .map_or(0, |&l| l >> (64 - self.rem));
        lo | hi
    }

    /// Limbs `limbs ..= limbs + src.len()` of the shifted value, bottom
    /// up: each source limb shifted by `rem` with the bits carried out of
    /// the limb below, then the bits carried out of the top limb.
    fn upper(&self) -> impl Iterator<Item = u64> + 'a {
        let (src, rem) = (self.src, self.rem);
        let mut below = 0u64;
        (0..=src.len()).map(move |i| {
            let l = src.get(i).copied().unwrap_or(0);
            let v = if rem == 0 {
                l
            } else {
                (l << rem) | (below >> (64 - rem))
            };
            below = l;
            v
        })
    }
}

/// Compares `a` (nonzero top limb) with the shifted `b`.
fn mag_cmp(a: &[u64], b: Shifted<'_>) -> Ordering {
    match bit_len(a).cmp(&b.bit_len()) {
        Ordering::Equal => {}
        o => return o,
    }
    // equal bit lengths: `b` spans no significant limb above `a`'s top
    for (k, &ak) in a.iter().enumerate().rev() {
        match ak.cmp(&b.limb(k)) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

/// `a += b`.
fn mag_add_assign(a: &mut Limbs, b: Shifted<'_>) {
    let n = a.len().max(b.len()) + 1;
    a.resize(n);
    let mut carry = false;
    // below `b.limbs` the shifted `b` is zero and nothing carries; above
    // the limbs `upper` yields only the carry moves (`upper` leads the
    // zip so that its end consumes no slot)
    let mut slots = a.as_mut_slice().iter_mut().skip(b.limbs);
    for (v, slot) in b.upper().zip(slots.by_ref()) {
        let (s1, c1) = slot.overflowing_add(v);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        *slot = s2;
        carry = c1 || c2;
    }
    for slot in slots {
        if !carry {
            break;
        }
        let (s, c) = slot.overflowing_add(1);
        *slot = s;
        carry = c;
    }
}

/// `a -= b`; callers guarantee `a > b`.
fn mag_sub_assign(a: &mut [u64], b: Shifted<'_>) {
    let mut borrow = false;
    let mut slots = a.iter_mut().skip(b.limbs);
    for (v, slot) in b.upper().zip(slots.by_ref()) {
        let (d1, o1) = slot.overflowing_sub(v);
        let (d2, o2) = d1.overflowing_sub(u64::from(borrow));
        *slot = d2;
        borrow = o1 || o2;
    }
    for slot in slots {
        if !borrow {
            break;
        }
        let (d, o) = slot.overflowing_sub(1);
        *slot = d;
        borrow = o;
    }
    debug_assert!(!borrow);
}

/// `a = b - a`; callers guarantee `b > a`.
fn mag_rsub_assign(a: &mut Limbs, b: Shifted<'_>) {
    let n = a.len().max(b.len());
    a.resize(n);
    let mut borrow = false;
    for (k, slot) in a.as_mut_slice().iter_mut().enumerate() {
        let (d1, o1) = b.limb(k).overflowing_sub(*slot);
        let (d2, o2) = d1.overflowing_sub(u64::from(borrow));
        *slot = d2;
        borrow = o1 || o2;
    }
    debug_assert!(!borrow);
}

/// `out = a · b`; `out` is zeroed and `a.len() + b.len()` limbs long,
/// which bounds `i + j` and the carry walk (the product of an i-limb and
/// a j-limb number fits).
#[allow(clippy::indexing_slicing)]
fn mag_mul_into(out: &mut [u64], a: &[u64], b: &[u64]) {
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
}

/// `a · 2^bits` in place, growing `a` by the limbs the shift needs and
/// dropping a zero top limb.
// `a` is resized to `old + limbs + 1` first, so `i + limbs + 1` is in
// bounds for every source limb `i < old`
#[allow(clippy::indexing_slicing)]
fn shl_in_place(a: &mut Limbs, bits: u64) {
    let Shifted { limbs, rem, .. } = Shifted::new(&[], bits);
    let old = a.len();
    let n = old + limbs + 1;
    a.resize(n);
    let s = a.as_mut_slice();
    // top-down, so every source limb is read before it is overwritten:
    // limb i lands in limbs i + limbs (low part) and i + limbs + 1 (the
    // high part, ORed onto the low part the limb above already wrote,
    // or onto a zero limb the resize added)
    for i in (0..old).rev() {
        let l = s[i];
        if rem == 0 {
            s[i + limbs] = l;
        } else {
            s[i + limbs + 1] |= l >> (64 - rem);
            s[i + limbs] = l << rem;
        }
    }
    if limbs > 0 {
        s[..limbs.min(old)].fill(0);
    }
    if s.last() == Some(&0) {
        a.resize(n - 1);
    }
}

/// Shifts `a[..top]` down by `64·limbs + rem` bits in place (callers
/// guarantee the shifted-out bits are zero) and returns the number of
/// significant limbs left.
fn shr_in_place(a: &mut [u64], top: usize, limbs: usize, rem: u32) -> usize {
    let n = top.saturating_sub(limbs);
    // bottom-up: limb i reads limbs i + limbs and i + limbs + 1, which
    // are at or above i and not yet overwritten
    for i in 0..n {
        let lo = a.get(i + limbs).map_or(0, |&l| l >> rem);
        let hi = if rem == 0 || i + limbs + 1 >= top {
            0
        } else {
            a.get(i + limbs + 1).map_or(0, |&l| l << (64 - rem))
        };
        if let Some(slot) = a.get_mut(i) {
            *slot = lo | hi;
        }
    }
    match a.get(..n) {
        Some(kept) => kept.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1),
        None => 0,
    }
}

#[cfg(test)]
// tests exercise float decode on purpose
#[allow(clippy::float_arithmetic, clippy::float_cmp)]
mod tests {
    use super::*;

    fn r(v: f64) -> BigRat {
        BigRat::from_f64_exact(v).unwrap()
    }

    #[test]
    fn f64_decode_is_exact() {
        assert!(r(0.0).is_zero());
        assert!(r(-0.0).is_zero());
        assert_eq!(r(1.0), BigRat::one());
        assert_eq!(r(-2.0), BigRat::from_i64(-2));
        assert_eq!(r(0.5), BigRat::two_pow(-1));
        // 0.1 is NOT 1/10 in binary; the decode must capture the real value
        let tenth = r(0.1);
        let ten = BigRat::from_i64(10);
        assert_ne!(tenth.mul(&ten), BigRat::one());
        // but the decode round-trips through the approximation
        assert_eq!(tenth.approx_f64(), 0.1);
        assert!(BigRat::from_f64_exact(f64::NAN).is_none());
        assert!(BigRat::from_f64_exact(f64::INFINITY).is_none());
        assert!(BigRat::from_f64_exact(f64::NEG_INFINITY).is_none());
    }

    #[test]
    fn subnormals_and_extremes_decode() {
        let tiny = r(f64::MIN_POSITIVE / 4.0); // subnormal
        assert!(tiny.is_positive());
        assert_eq!(tiny.approx_f64(), f64::MIN_POSITIVE / 4.0);
        let huge = r(f64::MAX);
        assert_eq!(huge.approx_f64(), f64::MAX);
        // product of extremes stays exact (overflows f64, not BigRat)
        let sq = huge.mul(&huge);
        assert!(sq.is_positive());
        assert!(sq.mul(&tiny).is_positive());
    }

    #[test]
    fn point_one_plus_point_two_is_not_point_three() {
        // the classic: the exact sum of the f64s 0.1 and 0.2 is the
        // unrounded 10808639105689191·2⁻⁵⁵, strictly between 0.3 and the
        // float-rounded 0.30000000000000004 — exact arithmetic keeps what
        // f64 addition throws away
        let sum = r(0.1).add(&r(0.2));
        assert_ne!(sum, r(0.3));
        assert_eq!(sum.cmp_exact(&r(0.3)), Ordering::Greater);
        assert_ne!(sum, r(0.30000000000000004));
        assert_eq!(sum.cmp_exact(&r(0.30000000000000004)), Ordering::Less);
        // and the gap is exactly one unit in the 55th binary place
        assert_eq!(r(0.30000000000000004).sub(&sum), BigRat::two_pow(-55));
    }

    #[test]
    fn ring_identities_hold() {
        let a = r(3.75);
        let b = r(-1.2109375);
        let c = r(1e-9);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.sub(&a), BigRat::zero());
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        assert_eq!(a.negate().negate(), a);
        assert_eq!(a.add(&b).approx_f64(), 3.75 + -1.2109375);
    }

    #[test]
    fn ordering_and_tolerance() {
        assert_eq!(r(1.5).cmp_exact(&r(1.5)), Ordering::Equal);
        assert_eq!(r(-3.0).cmp_exact(&r(2.0)), Ordering::Less);
        assert_eq!(r(1e300).cmp_exact(&r(1e-300)), Ordering::Greater);
        let tol = BigRat::two_pow(-20);
        assert!(r(0.0).within(&tol));
        assert!(r(1e-7).within(&tol));
        assert!(!r(1e-5).within(&tol));
        assert!(r(-1e-7).within(&tol));
        assert_eq!(r(2.0).max(&r(3.0)), r(3.0));
    }

    #[test]
    fn long_alignment_chains_stay_exact() {
        // 2^-1074 + 2^1000 - 2^1000 == 2^-1074 requires ~2100-bit alignment
        let tiny = BigRat::two_pow(-1074);
        let big = BigRat::two_pow(1000);
        let back = tiny.add(&big).sub(&big);
        assert_eq!(back, tiny);
    }

    #[test]
    fn spilled_values_shrink_back_inline() {
        // 2^-1074 + 2^1000 spills to 33 limbs; cancelling the big term in
        // place must leave exactly the one inline limb of 2^-1074 + 3
        let mut acc = BigRat::two_pow(1000);
        acc.add_assign(&BigRat::two_pow(-1074));
        assert!(matches!(acc.mag, Limbs::Heap(_)));
        acc.sub_assign(&BigRat::two_pow(1000));
        assert!(matches!(acc.mag, Limbs::Inline { len: 1, .. }));
        assert_eq!(acc, BigRat::two_pow(-1074));
        acc.add_assign(&BigRat::from_i64(3));
        let want = BigRat::from_i64(3).add(&BigRat::two_pow(-1074));
        assert_eq!(acc, want);
    }
}
