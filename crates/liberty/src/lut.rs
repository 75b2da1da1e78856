//! One- and two-dimensional lookup tables with linear interpolation —
//! the NLDM table primitive, also reused by the ECO stage-delay LUTs.

/// A one-dimensional piecewise-linear lookup table.
///
/// Outside the axis range the table **extrapolates linearly** from the two
/// nearest breakpoints, matching common Liberty delay-calculator behaviour.
///
/// ```
/// use clk_liberty::Lut1;
/// let t = Lut1::new(vec![0.0, 10.0, 20.0], vec![1.0, 2.0, 4.0]).unwrap();
/// assert_eq!(t.eval(5.0), 1.5);
/// assert_eq!(t.eval(30.0), 6.0); // extrapolated
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lut1 {
    axis: Vec<f64>,
    values: Vec<f64>,
}

/// Error building a lookup table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildLutError {
    /// Axis and value lengths differ, or a dimension is empty / too short.
    ShapeMismatch,
    /// An axis is not strictly increasing.
    AxisNotIncreasing,
}

impl std::fmt::Display for BuildLutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildLutError::ShapeMismatch => f.write_str("table shape mismatch"),
            BuildLutError::AxisNotIncreasing => f.write_str("axis not strictly increasing"),
        }
    }
}

impl std::error::Error for BuildLutError {}

/// Accepts an axis of at least two points, each strictly above the one
/// before. A NaN compares with nothing, so an axis holding one is not
/// increasing; every accepted axis is therefore also strictly increasing
/// in the `total_cmp` order [`segment`] searches by.
fn check_axis(axis: &[f64]) -> Result<(), BuildLutError> {
    if axis.len() < 2 {
        return Err(BuildLutError::ShapeMismatch);
    }
    if axis
        .windows(2)
        .any(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less))
    {
        return Err(BuildLutError::AxisNotIncreasing);
    }
    Ok(())
}

/// Index of the segment `[axis[i], axis[i+1]]` to use for `x`, clamped so
/// that out-of-range points use the first/last segment (linear
/// extrapolation).
fn segment(axis: &[f64], x: f64) -> usize {
    match axis.binary_search_by(|a| a.total_cmp(&x)) {
        Ok(i) => i.min(axis.len() - 2),
        Err(0) => 0,
        Err(i) => (i - 1).min(axis.len() - 2),
    }
}

/// [`segment`] that first tries `*hint`, the segment of an earlier
/// lookup on the same axis, and stores the segment it returns there.
///
/// `segment(axis, x)` is the number of breakpoints at or below `x` in
/// `total_cmp` order, less one, clamped to `0..=axis.len() - 2`. So the
/// hinted segment `h` is the answer exactly when `axis[h] <= x` (or `h` is
/// the first segment) and `x < axis[h + 1]` (or `h` is the last), both
/// in that order; otherwise the search runs as [`segment`]. Either way
/// the same index comes back, so a hinted lookup interpolates with the
/// same operands and returns the same bits.
fn segment_hinted(axis: &[f64], x: f64, hint: &mut usize) -> usize {
    let last = axis.len() - 2;
    let h = *hint;
    let inside = h <= last
        && (h == 0 || axis[h].total_cmp(&x).is_le())
        && (h == last || x.total_cmp(&axis[h + 1]).is_lt());
    if !inside {
        *hint = segment(axis, x);
    }
    *hint
}

impl Lut1 {
    /// Builds a 1-D table.
    ///
    /// # Errors
    ///
    /// [`BuildLutError::ShapeMismatch`] when lengths differ or are < 2;
    /// [`BuildLutError::AxisNotIncreasing`] when the axis is not strictly
    /// increasing.
    pub fn new(axis: Vec<f64>, values: Vec<f64>) -> Result<Self, BuildLutError> {
        check_axis(&axis)?;
        if axis.len() != values.len() {
            return Err(BuildLutError::ShapeMismatch);
        }
        Ok(Lut1 { axis, values })
    }

    /// Evaluates the table at `x` with linear interpolation/extrapolation.
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_in(segment(&self.axis, x), x)
    }

    /// [`Lut1::eval`], starting the segment search at `*hint` (any
    /// index; 0 to start) and leaving the segment it used there. A
    /// caller that walks nearby points keeps one hint per axis and skips
    /// the search while the points stay in one segment. Bit-identical to
    /// [`Lut1::eval`] whatever the hint.
    pub fn eval_hinted(&self, x: f64, hint: &mut usize) -> f64 {
        self.eval_in(segment_hinted(&self.axis, x, hint), x)
    }

    /// Interpolates in segment `i`.
    fn eval_in(&self, i: usize, x: f64) -> f64 {
        let (x0, x1) = (self.axis[i], self.axis[i + 1]);
        let (y0, y1) = (self.values[i], self.values[i + 1]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// The table axis.
    pub fn axis(&self) -> &[f64] {
        &self.axis
    }

    /// The table values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A two-dimensional bilinear lookup table, NLDM style.
///
/// Rows follow the first axis, columns the second. Out-of-range queries
/// extrapolate linearly along each axis, which mirrors how signoff delay
/// calculators treat slews/loads outside the characterized window.
///
/// ```
/// use clk_liberty::Lut2;
/// let t = Lut2::new(
///     vec![0.0, 1.0],          // e.g. input slew
///     vec![0.0, 10.0],         // e.g. load cap
///     vec![vec![0.0, 10.0], vec![1.0, 11.0]],
/// ).unwrap();
/// assert_eq!(t.eval(0.5, 5.0), 5.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lut2 {
    axis1: Vec<f64>,
    axis2: Vec<f64>,
    /// `values[i][j]` at `(axis1[i], axis2[j])`.
    values: Vec<Vec<f64>>,
}

impl Lut2 {
    /// Builds a 2-D table.
    ///
    /// # Errors
    ///
    /// [`BuildLutError`] when the shape is inconsistent or an axis is not
    /// strictly increasing.
    pub fn new(
        axis1: Vec<f64>,
        axis2: Vec<f64>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self, BuildLutError> {
        check_axis(&axis1)?;
        check_axis(&axis2)?;
        if values.len() != axis1.len() || values.iter().any(|r| r.len() != axis2.len()) {
            return Err(BuildLutError::ShapeMismatch);
        }
        Ok(Lut2 {
            axis1,
            axis2,
            values,
        })
    }

    /// Builds the table by sampling `f(a1, a2)` on the grid.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lut2::new`].
    pub fn tabulate(
        axis1: Vec<f64>,
        axis2: Vec<f64>,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self, BuildLutError> {
        check_axis(&axis1)?;
        check_axis(&axis2)?;
        let values = axis1
            .iter()
            .map(|&a| axis2.iter().map(|&b| f(a, b)).collect())
            .collect();
        Ok(Lut2 {
            axis1,
            axis2,
            values,
        })
    }

    /// Evaluates the table at `(x1, x2)` with bilinear
    /// interpolation/extrapolation.
    pub fn eval(&self, x1: f64, x2: f64) -> f64 {
        let i = segment(&self.axis1, x1);
        let j = segment(&self.axis2, x2);
        self.eval_in(self.weights(i, j, x1, x2))
    }

    /// [`Lut2::eval`] with one segment hint per axis, as
    /// [`Lut1::eval_hinted`]. Bit-identical to [`Lut2::eval`] whatever
    /// the hints.
    pub fn eval_hinted(&self, x1: f64, x2: f64, hint: &mut [usize; 2]) -> f64 {
        let i = segment_hinted(&self.axis1, x1, &mut hint[0]);
        let j = segment_hinted(&self.axis2, x2, &mut hint[1]);
        self.eval_in(self.weights(i, j, x1, x2))
    }

    /// `(self.eval(x1, x2), other.eval(x1, x2))` for a table `other` on
    /// the same axes (an NLDM cell's delay and output-slew tables), with
    /// one segment search and one pair of interpolation weights for
    /// both. Bit-identical to the two [`Lut2::eval`] calls.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the axes differ in any bit (`0.0 == -0.0`,
    /// but the segment search orders them apart).
    pub(crate) fn eval_pair(&self, other: &Lut2, x1: f64, x2: f64) -> (f64, f64) {
        let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        debug_assert!(
            bits(&self.axis1) == bits(&other.axis1) && bits(&self.axis2) == bits(&other.axis2)
        );
        let i = segment(&self.axis1, x1);
        let j = segment(&self.axis2, x2);
        let w = self.weights(i, j, x1, x2);
        (self.eval_in(w), other.eval_in(w))
    }

    /// The cell `(i, j)` and the weights `t`, `u` of `(x1, x2)` along
    /// each axis inside it.
    fn weights(&self, i: usize, j: usize, x1: f64, x2: f64) -> (usize, usize, f64, f64) {
        let (a0, a1) = (self.axis1[i], self.axis1[i + 1]);
        let (b0, b1) = (self.axis2[j], self.axis2[j + 1]);
        let t = (x1 - a0) / (a1 - a0);
        let u = (x2 - b0) / (b1 - b0);
        (i, j, t, u)
    }

    /// Bilinear interpolation in cell `(i, j)` at weights `t`, `u`.
    fn eval_in(&self, (i, j, t, u): (usize, usize, f64, f64)) -> f64 {
        let v00 = self.values[i][j];
        let v01 = self.values[i][j + 1];
        let v10 = self.values[i + 1][j];
        let v11 = self.values[i + 1][j + 1];
        v00 * (1.0 - t) * (1.0 - u) + v01 * (1.0 - t) * u + v10 * t * (1.0 - u) + v11 * t * u
    }

    /// First (row) axis.
    pub fn axis1(&self) -> &[f64] {
        &self.axis1
    }

    /// Second (column) axis.
    pub fn axis2(&self) -> &[f64] {
        &self.axis2
    }

    /// Raw values, row-major.
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }
}

#[cfg(test)]
// tests pin exact expected values on purpose
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn lut1_rejects_bad_shapes() {
        assert_eq!(
            Lut1::new(vec![0.0], vec![1.0]).unwrap_err(),
            BuildLutError::ShapeMismatch
        );
        assert_eq!(
            Lut1::new(vec![0.0, 0.0], vec![1.0, 2.0]).unwrap_err(),
            BuildLutError::AxisNotIncreasing
        );
        assert_eq!(
            Lut1::new(vec![0.0, 1.0], vec![1.0]).unwrap_err(),
            BuildLutError::ShapeMismatch
        );
    }

    #[test]
    fn lut1_hits_breakpoints_exactly() {
        let t = Lut1::new(vec![1.0, 2.0, 4.0], vec![10.0, 20.0, 0.0]).unwrap();
        assert_eq!(t.eval(1.0), 10.0);
        assert_eq!(t.eval(2.0), 20.0);
        assert_eq!(t.eval(4.0), 0.0);
        assert_eq!(t.eval(3.0), 10.0);
    }

    #[test]
    fn lut1_extrapolates() {
        let t = Lut1::new(vec![0.0, 1.0], vec![0.0, 2.0]).unwrap();
        assert_eq!(t.eval(-1.0), -2.0);
        assert_eq!(t.eval(2.0), 4.0);
    }

    #[test]
    fn lut2_reproduces_bilinear_function_exactly() {
        // f(x, y) = 3 + 2x + 5y is affine per axis; but bilinear
        // interpolation is exact for functions with an xy term only within
        // cells when sampled on the grid, so test an affine function.
        let f = |x: f64, y: f64| 3.0 + 2.0 * x + 5.0 * y;
        let t = Lut2::tabulate(vec![0.0, 2.0, 5.0], vec![1.0, 4.0, 9.0], f).unwrap();
        for &(x, y) in &[(0.5, 2.0), (3.0, 8.0), (-1.0, 0.0), (6.0, 12.0)] {
            assert!((t.eval(x, y) - f(x, y)).abs() < 1e-9, "at ({x},{y})");
        }
    }

    #[test]
    fn lut2_monotone_table_interpolates_within_bounds() {
        let t = Lut2::tabulate(vec![1.0, 2.0, 3.0], vec![1.0, 2.0], |a, b| a * b).unwrap();
        let v = t.eval(1.5, 1.5);
        assert!(v > 1.0 && v < 6.0);
    }

    #[test]
    fn nan_in_an_axis_is_not_increasing() {
        assert_eq!(
            Lut1::new(vec![0.0, f64::NAN, 2.0], vec![0.0; 3]).unwrap_err(),
            BuildLutError::AxisNotIncreasing
        );
        assert_eq!(
            Lut2::new(vec![0.0, 1.0], vec![f64::NAN, 1.0], vec![vec![0.0; 2]; 2]).unwrap_err(),
            BuildLutError::AxisNotIncreasing
        );
    }

    /// Every query sequence of [`hinted_matches_eval`]: each breakpoint,
    /// ±0.0, points below and above the axis, then `walk` forward and
    /// back, so one hint meets both directions of segment change.
    fn queries(axis: &[f64], walk: &[f64]) -> Vec<f64> {
        let lo = axis[0];
        let hi = axis[axis.len() - 1];
        let mut xs: Vec<f64> = axis.to_vec();
        xs.extend(axis.iter().rev());
        xs.extend([0.0, -0.0, lo - 1.0, hi + 1.0, -0.0, 0.0, f64::MAX, f64::MIN]);
        xs.extend(walk);
        xs.extend(walk.iter().rev());
        xs
    }

    fn bits_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn hinted_lookup_at_signed_zero_breakpoint() {
        // -0.0 sorts below the 0.0 breakpoint in the search order, so it
        // belongs to the segment below it; a hint left in the segment
        // above must not be kept
        let t = Lut1::new(vec![-1.0, 0.0, 1.0], vec![5.0, 1.0, 3.0]).unwrap();
        let mut hint = 1;
        assert!(bits_eq(t.eval_hinted(-0.0, &mut hint), t.eval(-0.0)));
        assert_eq!(hint, 0);
        assert!(bits_eq(t.eval_hinted(0.0, &mut hint), t.eval(0.0)));
        assert_eq!(hint, 1);
        // an out-of-range hint is searched away too
        let mut hint = usize::MAX;
        assert!(bits_eq(t.eval_hinted(0.5, &mut hint), t.eval(0.5)));
        assert_eq!(hint, 1);
    }

    use proptest::prelude::*;

    /// A strictly increasing axis of `steps.len() + 1` points from `start`.
    fn axis_of(start: f64, steps: &[f64]) -> Vec<f64> {
        let mut axis = vec![start];
        for &d in steps {
            let last = axis[axis.len() - 1];
            let next = last + d;
            if next > last {
                axis.push(next);
            }
        }
        if axis.len() < 2 {
            axis.push(start + 1.0);
        }
        axis
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn hinted_matches_eval(
            start in -50.0f64..50.0,
            steps in proptest::collection::vec(0.01f64..40.0, 1..9),
            steps2 in proptest::collection::vec(0.01f64..40.0, 1..9),
            walk in proptest::collection::vec(-120.0f64..220.0, 1..40),
            seed in 0u64..1_000_000,
        ) {
            let axis = axis_of(start, &steps);
            let axis2 = axis_of(-start, &steps2);
            let val = |i: usize, j: usize| {
                ((seed + 7 * i as u64 + 13 * j as u64) % 97) as f64 * 0.37 - 11.0
            };
            let t1 = Lut1::new(axis.clone(), (0..axis.len()).map(|i| val(i, 0)).collect()).unwrap();
            let grid = |off: usize| -> Vec<Vec<f64>> {
                (0..axis.len())
                    .map(|i| (0..axis2.len()).map(|j| val(i + off, j)).collect())
                    .collect()
            };
            let d = Lut2::new(axis.clone(), axis2.clone(), grid(0)).unwrap();
            let s = Lut2::new(axis.clone(), axis2.clone(), grid(5)).unwrap();
            let xs = queries(&axis, &walk);
            let ys = queries(&axis2, &walk);
            let mut h1 = 0;
            let mut h2 = [0, 0];
            for (k, &x) in xs.iter().enumerate() {
                prop_assert!(bits_eq(t1.eval_hinted(x, &mut h1), t1.eval(x)), "Lut1 at {x}");
                // pair each point with a second-axis point that moves on
                // its own, so the two hints change segment independently
                let y = ys[(k * 7) % ys.len()];
                prop_assert!(bits_eq(d.eval_hinted(x, y, &mut h2), d.eval(x, y)), "Lut2 at ({x}, {y})");
                let (pd, ps) = d.eval_pair(&s, x, y);
                prop_assert!(bits_eq(pd, d.eval(x, y)) && bits_eq(ps, s.eval(x, y)), "pair at ({x}, {y})");
            }
        }
    }

    #[test]
    fn lut2_shape_errors() {
        assert!(Lut2::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![vec![0.0, 1.0]]).is_err());
        assert!(Lut2::new(vec![1.0, 0.0], vec![0.0, 1.0], vec![vec![0.0; 2]; 2]).is_err());
    }
}
