//! The multi-corner library: cells + corners + generated NLDM tables.

use crate::cell::{Cell, CellId};
use crate::corner::{Corner, CornerId, StdCorners, WireRc};
use crate::lut::Lut2;

/// Drive strengths of the five-size clock-inverter family (the paper's ECO
/// lookup tables use five inverter sizes).
pub const INVERTER_DRIVES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Drive resistance of the X1 inverter at the normalization corner, kΩ.
const R_UNIT_KOHM: f64 = 4.0;
/// Self (output) capacitance per unit drive, fF.
const C_SELF_PER_DRIVE: f64 = 0.9;
/// Output-slew shape factor (`ln 9 ≈ 2.2` for a 10–90% single-pole ramp).
const SLEW_SHAPE: f64 = 2.2;
/// Fraction of the input slew carried into the output slew.
const SLEW_FEEDTHROUGH: f64 = 0.15;
/// Smallest representable transition, ps.
const MIN_SLEW_PS: f64 = 2.0;

/// A generated multi-corner cell library.
///
/// See the crate-level documentation for the modelling rationale. All delay
/// and slew queries go through NLDM-style [`Lut2`] tables generated at
/// construction; the analytic model behind the tables is also exposed
/// (`analytic_*`) so that tests can bound interpolation error.
#[derive(Debug, Clone)]
pub struct Library {
    cells: Vec<Cell>,
    corners: Vec<Corner>,
    /// `tables[cell][corner]`; a cell's delay and slew tables at a
    /// corner share their axes.
    delay_tables: Vec<Vec<Lut2>>,
    slew_tables: Vec<Vec<Lut2>>,
    /// Flip-flop clock-pin capacitance, fF.
    sink_cap_ff: f64,
    /// Maximum transition allowed anywhere in the clock tree, ps.
    max_slew_ps: f64,
}

impl Library {
    /// Generates the synthetic 28nm-LP-like library at the given corners.
    ///
    /// # Panics
    ///
    /// Panics if `corners` is empty.
    pub fn synthetic_28nm(corners: Vec<Corner>) -> Self {
        assert!(!corners.is_empty(), "a library needs at least one corner");
        let cells: Vec<Cell> = INVERTER_DRIVES
            .iter()
            .map(|&d| Cell::clock_inverter(d))
            .collect();
        let slew_axis = vec![2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0];
        let mut delay_tables = Vec::with_capacity(cells.len());
        let mut slew_tables = Vec::with_capacity(cells.len());
        for cell in &cells {
            let load_axis: Vec<f64> = [0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]
                .iter()
                .map(|s| s * cell.drive)
                .collect();
            let mut per_corner_delay = Vec::with_capacity(corners.len());
            let mut per_corner_slew = Vec::with_capacity(corners.len());
            for corner in &corners {
                let d = Lut2::tabulate(slew_axis.clone(), load_axis.clone(), |s, c| {
                    analytic_gate_delay(cell, corner, s, c)
                })
                .expect("axes are valid by construction");
                let s = Lut2::tabulate(slew_axis.clone(), load_axis.clone(), |s, c| {
                    analytic_output_slew(cell, corner, s, c)
                })
                .expect("axes are valid by construction");
                per_corner_delay.push(d);
                per_corner_slew.push(s);
            }
            delay_tables.push(per_corner_delay);
            slew_tables.push(per_corner_slew);
        }
        Library {
            cells,
            corners,
            delay_tables,
            slew_tables,
            sink_cap_ff: 1.2,
            max_slew_ps: 400.0,
        }
    }

    /// The cell masters, ordered by increasing drive.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The corners the library is characterized at.
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }

    /// Number of corners.
    pub fn corner_count(&self) -> usize {
        self.corners.len()
    }

    /// Iterator over corner ids.
    pub fn corner_ids(&self) -> impl Iterator<Item = CornerId> {
        (0..self.corners.len()).map(CornerId)
    }

    /// The cell master for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0]
    }

    /// The corner for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn corner(&self, id: CornerId) -> &Corner {
        &self.corners[id.0]
    }

    /// Finds a cell by master name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.cells.iter().position(|c| c.name == name).map(CellId)
    }

    /// The next-larger size, if any (one-step upsizing move).
    pub fn size_up(&self, id: CellId) -> Option<CellId> {
        (id.0 + 1 < self.cells.len()).then(|| CellId(id.0 + 1))
    }

    /// The next-smaller size, if any (one-step downsizing move).
    pub fn size_down(&self, id: CellId) -> Option<CellId> {
        (id.0 > 0).then(|| CellId(id.0 - 1))
    }

    /// Gate delay from the NLDM table, ps.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `corner` is out of range.
    pub fn gate_delay(&self, cell: CellId, corner: CornerId, slew_in_ps: f64, load_ff: f64) -> f64 {
        self.delay_tables[cell.0][corner.0].eval(slew_in_ps, load_ff)
    }

    /// Gate output slew from the NLDM table, ps.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `corner` is out of range.
    pub fn gate_output_slew(
        &self,
        cell: CellId,
        corner: CornerId,
        slew_in_ps: f64,
        load_ff: f64,
    ) -> f64 {
        self.slew_tables[cell.0][corner.0].eval(slew_in_ps, load_ff)
    }

    /// `(gate_delay, gate_output_slew)` from one lookup: the two tables
    /// share their axes, so the segment search and the interpolation
    /// weights are computed once (`Lut2::eval_pair`). Bit-identical to
    /// the two separate queries.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `corner` is out of range.
    pub fn gate_timing(
        &self,
        cell: CellId,
        corner: CornerId,
        slew_in_ps: f64,
        load_ff: f64,
    ) -> (f64, f64) {
        self.delay_tables[cell.0][corner.0].eval_pair(
            &self.slew_tables[cell.0][corner.0],
            slew_in_ps,
            load_ff,
        )
    }

    /// The NLDM gate-delay table of `cell` at `corner` (input slew ×
    /// load), which [`Library::gate_delay`] evaluates.
    ///
    /// # Panics
    ///
    /// Panics if `cell` or `corner` is out of range.
    pub fn delay_table(&self, cell: CellId, corner: CornerId) -> &Lut2 {
        &self.delay_tables[cell.0][corner.0]
    }

    /// Effective drive resistance of `cell` at `corner`, kΩ.
    pub fn drive_res_kohm(&self, cell: CellId, corner: CornerId) -> f64 {
        drive_res_kohm(self.cell(cell), self.corner(corner))
    }

    /// Per-unit wire parasitics at `corner`.
    pub fn wire_rc(&self, corner: CornerId) -> WireRc {
        self.corner(corner).wire_rc()
    }

    /// Flip-flop clock-pin capacitance, fF.
    pub fn sink_cap_ff(&self) -> f64 {
        self.sink_cap_ff
    }

    /// Maximum transition allowed in the clock tree, ps.
    pub fn max_slew_ps(&self) -> f64 {
        self.max_slew_ps
    }

    /// Leakage of `cell` at `corner`, nW.
    pub fn cell_leakage_nw(&self, cell: CellId, corner: CornerId) -> f64 {
        self.cell(cell).leakage_nw * self.corner(corner).leakage_factor()
    }

    /// Energy of one full swing of `cap_ff` at `corner`, fJ (`C·V²`).
    pub fn switching_energy_fj(&self, corner: CornerId, cap_ff: f64) -> f64 {
        cap_ff * self.corner(corner).voltage.powi(2)
    }
}

impl Default for Library {
    /// The library at all four Table-3 corners.
    fn default() -> Self {
        Library::synthetic_28nm(StdCorners::all())
    }
}

/// Normalization constant: delay factor of the standard `c0` corner, so the
/// X1 drive resistance is exactly [`R_UNIT_KOHM`] at `c0` regardless of
/// which corners a particular library instance carries.
fn norm_factor() -> f64 {
    StdCorners::c0().delay_factor()
}

/// Drive resistance of `cell` at `corner`, kΩ (analytic).
pub fn drive_res_kohm(cell: &Cell, corner: &Corner) -> f64 {
    R_UNIT_KOHM * (corner.delay_factor() / norm_factor()) / cell.drive
}

/// Sensitivity of gate delay to input slew at `corner` (dimensionless).
/// Larger when the gate overdrive is small, as on the 0.75 V SS corner.
fn slew_sensitivity(corner: &Corner) -> f64 {
    (0.12 + 0.10 * (corner.vth() / corner.overdrive() - 1.0)).max(0.06)
}

/// Analytic gate delay, ps: the function the NLDM tables sample.
///
/// `delay = intrinsic + R_drive · C_load + k_slew · slew_in + weak
/// slew×load cross term`. The cross term makes the surface genuinely
/// bilinear-inexact so that table interpolation behaves like real NLDM.
pub fn analytic_gate_delay(cell: &Cell, corner: &Corner, slew_in_ps: f64, load_ff: f64) -> f64 {
    let r = drive_res_kohm(cell, corner);
    let c_self = C_SELF_PER_DRIVE * cell.drive;
    let intrinsic = r * c_self;
    let cross = 0.02 * slew_in_ps * load_ff / (load_ff + 3.0 * cell.drive);
    intrinsic + r * load_ff + slew_sensitivity(corner) * slew_in_ps + cross
}

/// Analytic gate output slew, ps: the function the slew tables sample.
pub fn analytic_output_slew(cell: &Cell, corner: &Corner, slew_in_ps: f64, load_ff: f64) -> f64 {
    let r = drive_res_kohm(cell, corner);
    let c_self = C_SELF_PER_DRIVE * cell.drive;
    (SLEW_SHAPE * r * (load_ff + 0.5 * c_self) + SLEW_FEEDTHROUGH * slew_in_ps).max(MIN_SLEW_PS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib4() -> Library {
        Library::default()
    }

    #[test]
    fn library_has_five_sizes() {
        let lib = lib4();
        assert_eq!(lib.cells().len(), 5);
        assert_eq!(lib.cells()[0].name, "CLKINV_X1");
        assert_eq!(lib.cells()[4].name, "CLKINV_X16");
    }

    #[test]
    fn size_stepping() {
        let lib = lib4();
        let x4 = lib.cell_by_name("CLKINV_X4").unwrap();
        assert_eq!(lib.cell(lib.size_up(x4).unwrap()).name, "CLKINV_X8");
        assert_eq!(lib.cell(lib.size_down(x4).unwrap()).name, "CLKINV_X2");
        let x1 = lib.cell_by_name("CLKINV_X1").unwrap();
        assert!(lib.size_down(x1).is_none());
        let x16 = lib.cell_by_name("CLKINV_X16").unwrap();
        assert!(lib.size_up(x16).is_none());
    }

    #[test]
    fn delay_monotone_in_load_and_slew() {
        let lib = lib4();
        for cell in (0..5).map(CellId) {
            for corner in lib.corner_ids() {
                let d1 = lib.gate_delay(cell, corner, 10.0, 2.0);
                let d2 = lib.gate_delay(cell, corner, 10.0, 8.0);
                let d3 = lib.gate_delay(cell, corner, 40.0, 8.0);
                assert!(d2 > d1, "load monotone at {cell:?} {corner:?}");
                assert!(d3 > d2, "slew monotone at {cell:?} {corner:?}");
            }
        }
    }

    #[test]
    fn bigger_cell_is_faster_at_same_load() {
        let lib = lib4();
        let x1 = lib.cell_by_name("CLKINV_X1").unwrap();
        let x8 = lib.cell_by_name("CLKINV_X8").unwrap();
        for corner in lib.corner_ids() {
            assert!(
                lib.gate_delay(x8, corner, 20.0, 12.0) < lib.gate_delay(x1, corner, 20.0, 12.0)
            );
        }
    }

    #[test]
    fn table_matches_analytic_within_interpolation_error() {
        let lib = lib4();
        let cell_id = lib.cell_by_name("CLKINV_X4").unwrap();
        let cell = lib.cell(cell_id).clone();
        for (k, corner) in lib.corners().iter().enumerate() {
            for &(s, c) in &[(7.0, 3.0), (25.0, 9.5), (100.0, 21.0), (15.0, 1.1)] {
                let table = lib.gate_delay(cell_id, CornerId(k), s, c);
                let exact = analytic_gate_delay(&cell, corner, s, c);
                let rel = (table - exact).abs() / exact;
                assert!(rel < 0.03, "corner {k}: table {table} vs exact {exact}");
            }
        }
    }

    #[test]
    fn corner_delay_ratio_ranges() {
        let lib = lib4();
        let x4 = lib.cell_by_name("CLKINV_X4").unwrap();
        let d: Vec<f64> = lib
            .corner_ids()
            .map(|c| lib.gate_delay(x4, c, 20.0, 8.0))
            .collect();
        let r1 = d[1] / d[0];
        let r2 = d[2] / d[0];
        let r3 = d[3] / d[0];
        assert!(r1 > 1.5 && r1 < 2.5, "c1/c0 = {r1}");
        assert!(r2 > 0.35 && r2 < 0.75, "c2/c0 = {r2}");
        assert!(r3 > 0.25 && r3 < 0.6, "c3/c0 = {r3}");
    }

    #[test]
    fn gate_timing_equals_the_two_lookups() {
        let lib = lib4();
        for cell in (0..5).map(CellId) {
            for corner in lib.corner_ids() {
                for &(s, c) in &[(7.0, 3.0), (2.0, 0.2), (320.0, 480.0), (-1.0, 900.0)] {
                    let (d, o) = lib.gate_timing(cell, corner, s, c);
                    assert_eq!(d.to_bits(), lib.gate_delay(cell, corner, s, c).to_bits());
                    assert_eq!(
                        o.to_bits(),
                        lib.gate_output_slew(cell, corner, s, c).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn output_slew_floors_at_min() {
        let lib = lib4();
        let x16 = lib.cell_by_name("CLKINV_X16").unwrap();
        // huge driver, tiny load, fast corner => min slew clamp
        let s = lib.gate_output_slew(x16, CornerId(3), 2.0, 0.2);
        assert!(s >= MIN_SLEW_PS);
    }

    #[test]
    fn leakage_scales_with_corner() {
        let lib = lib4();
        let x2 = lib.cell_by_name("CLKINV_X2").unwrap();
        assert!(lib.cell_leakage_nw(x2, CornerId(3)) > lib.cell_leakage_nw(x2, CornerId(0)));
    }

    #[test]
    fn switching_energy_uses_v_squared() {
        let lib = lib4();
        let e0 = lib.switching_energy_fj(CornerId(0), 10.0);
        assert!((e0 - 10.0 * 0.9 * 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one corner")]
    fn empty_corner_list_panics() {
        let _ = Library::synthetic_28nm(vec![]);
    }
}
