//! Output checks that do not depend on a stored copy of today's output:
//! paper anchors, orderings the paper claims, Kirchhoff's current law
//! recomputed from the device I–V curves, and shadow copies of what a
//! client wrote.
//!
//! Every check returns a list of failure messages; an empty list passes.

use reram_circuit::{Crosspoint, Solution};
use reram_durable::WalRecord;

/// A paper value with the tolerance the reproduction must hold it to.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// What is measured.
    pub name: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Allowed distance from `paper` (two-sided unless `at_most`).
    pub tol: f64,
    /// One-sided: the measurement must not exceed `paper + tol`.
    pub at_most: bool,
}

impl Anchor {
    fn judge(&self, measured: f64) -> Option<String> {
        let ok = if self.at_most {
            measured <= self.paper + self.tol
        } else {
            (measured - self.paper).abs() <= self.tol
        };
        (!ok).then(|| {
            format!(
                "anchor {}: measured {measured} vs paper {} (tolerance {}{})",
                self.name,
                self.paper,
                if self.at_most { "at most +" } else { "±" },
                self.tol
            )
        })
    }
}

/// Worst-case effective RESET voltage of the 512×512 baseline MAT at 3 V
/// (paper: about 1.7 V), read from `fig4`.
pub const ANCHOR_VEFF: Anchor = Anchor {
    name: "worst_veff_v",
    paper: 1.7,
    tol: 0.05,
    at_most: false,
};
/// Baseline array RESET latency (paper: 2.3 µs), read from `fig4`, in ns.
pub const ANCHOR_LATENCY: Anchor = Anchor {
    name: "baseline_reset_ns",
    paper: 2300.0,
    tol: 50.0,
    at_most: false,
};
/// Highest DRVR charge-pump level (paper: at most 3.66 V), read from
/// `fig6`'s notes.
pub const ANCHOR_PUMP: Anchor = Anchor {
    name: "drvr_pump_v",
    paper: 3.66,
    tol: 0.0,
    at_most: true,
};

/// Splits a CSV table into its header and rows.
fn csv_rows(csv: &str) -> (Vec<&str>, Vec<Vec<&str>>) {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .map_or_else(Vec::new, |h| h.split(',').collect());
    (header, lines.map(|l| l.split(',').collect()).collect())
}

/// The numeric cell in column `col` of the row whose first cell starts
/// with `row_prefix`.
fn csv_cell(csv: &str, row_prefix: &str, col: &str) -> Option<f64> {
    let (header, rows) = csv_rows(csv);
    let k = header.iter().position(|h| *h == col)?;
    rows.iter()
        .find(|r| r.first().is_some_and(|c| c.starts_with(row_prefix)))?
        .get(k)?
        .trim_start_matches('+')
        .trim_end_matches('%')
        .parse()
        .ok()
}

/// Checks the calibration anchors against `fig4`'s CSV and `fig6`'s
/// rendered table (whose notes carry the pump level).
#[must_use]
pub fn anchors(fig4_csv: &str, fig6_rendered: &str) -> Vec<String> {
    let mut bad = Vec::new();
    match csv_cell(fig4_csv, "baseline", "Veff min") {
        Some(v) => bad.extend(ANCHOR_VEFF.judge(v)),
        None => bad.push("fig4: no baseline `Veff min`".into()),
    }
    match csv_cell(fig4_csv, "baseline", "latency ns") {
        Some(v) => bad.extend(ANCHOR_LATENCY.judge(v)),
        None => bad.push("fig4: no baseline `latency ns`".into()),
    }
    let pump = fig6_rendered
        .split("max pump level ")
        .nth(1)
        .and_then(|rest| rest.split('V').next())
        .and_then(|v| v.trim().parse::<f64>().ok());
    match pump {
        Some(v) => bad.extend(ANCHOR_PUMP.judge(v)),
        None => bad.push("fig6: no `max pump level` note".into()),
    }
    bad
}

/// Fig. 15's gmean ordering: UDRVR+PR > Hard+Sys > Hard > Baseline, and
/// UDRVR+PR stays below the 128×128 oracle.
#[must_use]
pub fn fig15_order(fig15_csv: &str) -> Vec<String> {
    let g = |col: &str| csv_cell(fig15_csv, "gmean", col);
    let (Some(base), Some(hard), Some(hs), Some(upr), Some(ora)) = (
        g("Base"),
        g("Hard"),
        g("Hard+Sys"),
        g("UDRVR+PR"),
        g("ora-128x128"),
    ) else {
        return vec!["fig15: gmean row lacks a scheme column".into()];
    };
    let mut bad = Vec::new();
    if !(upr > hs && hs > hard && hard > base) {
        bad.push(format!(
            "fig15 gmean order: UDRVR+PR {upr} > Hard+Sys {hs} > Hard {hard} > Base {base} does not hold"
        ));
    }
    if upr >= ora {
        bad.push(format!(
            "fig15 gmean: UDRVR+PR {upr} is not below ora-128x128 {ora}"
        ));
    }
    bad
}

/// The node voltages and source currents of one solved network, copied
/// out of a [`Solution`] so a check can be fed a corrupted copy.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// Word-line-plane junction voltages, row-major.
    pub vw: Vec<f64>,
    /// Bit-line-plane junction voltages, row-major.
    pub vb: Vec<f64>,
    /// Current delivered into each word-line at its decoder end.
    pub src_wl_left: Vec<f64>,
    /// … at its far end.
    pub src_wl_right: Vec<f64>,
    /// Current delivered into each bit-line at its write-driver end.
    pub src_bl_near: Vec<f64>,
    /// … at its far end.
    pub src_bl_far: Vec<f64>,
}

impl NodeState {
    /// Copies `sol`'s planes and source currents.
    #[must_use]
    pub fn of(sol: &Solution, rows: usize, cols: usize) -> NodeState {
        let mut vw = Vec::with_capacity(rows * cols);
        let mut vb = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                vw.push(sol.wl_voltage(i, j));
                vb.push(sol.bl_voltage(i, j));
            }
        }
        NodeState {
            vw,
            vb,
            src_wl_left: (0..rows).map(|i| sol.source_current_wl_left(i)).collect(),
            src_wl_right: (0..rows).map(|i| sol.source_current_wl_right(i)).collect(),
            src_bl_near: (0..cols).map(|j| sol.source_current_bl_near(j)).collect(),
            src_bl_far: (0..cols).map(|j| sol.source_current_bl_far(j)).collect(),
        }
    }

    /// Current the per-node leak `leak_s` carries to ground (amperes): by
    /// charge conservation the sources deliver exactly this much in total.
    #[must_use]
    pub fn leak_current(&self, leak_s: f64) -> f64 {
        leak_s * self.vw.iter().chain(&self.vb).sum::<f64>()
    }

    /// Sum of every source current (amperes).
    #[must_use]
    pub fn total_source_current(&self) -> f64 {
        self.src_wl_left
            .iter()
            .chain(&self.src_wl_right)
            .chain(&self.src_bl_near)
            .chain(&self.src_bl_far)
            .sum()
    }
}

/// The worst Kirchhoff-current-law imbalance over every junction of `cp`
/// at the operating point `st`, amperes: wire currents from the segment
/// resistances, cell currents from each device's own I–V curve, and the
/// reported source currents at the line ends. `leak_s` is the solver's
/// per-node regularizing conductance to ground.
#[must_use]
pub fn kcl_max_residual(cp: &Crosspoint, st: &NodeState, leak_s: f64) -> f64 {
    let (rows, cols) = (cp.rows(), cp.cols());
    let (g_wl, g_bl) = (1.0 / cp.r_wire_wl(), 1.0 / cp.r_wire_bl());
    let mut worst = 0.0f64;
    for i in 0..rows {
        for j in 0..cols {
            let k = i * cols + j;
            let cell = cp.cell(i, j).current(st.vb[k] - st.vw[k]);
            // Currents leaving the word-line junction.
            let mut w = -cell + leak_s * st.vw[k];
            if j > 0 {
                w += g_wl * (st.vw[k] - st.vw[k - 1]);
            } else {
                w -= st.src_wl_left[i];
            }
            if j + 1 < cols {
                w += g_wl * (st.vw[k] - st.vw[k + 1]);
            } else {
                w -= st.src_wl_right[i];
            }
            // Currents leaving the bit-line junction.
            let mut b = cell + leak_s * st.vb[k];
            if i > 0 {
                b += g_bl * (st.vb[k] - st.vb[k - cols]);
            } else {
                b -= st.src_bl_near[j];
            }
            if i + 1 < rows {
                b += g_bl * (st.vb[k] - st.vb[k + cols]);
            } else {
                b -= st.src_bl_far[j];
            }
            worst = worst.max(w.abs()).max(b.abs());
        }
    }
    worst
}

/// True when two solutions agree to the last bit: planes, cell and source
/// currents, and convergence statistics.
#[must_use]
pub fn bitwise_identical(a: &Solution, b: &Solution, rows: usize, cols: usize) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let (sa, sb) = (a.stats(), b.stats());
    if sa.sweeps != sb.sweeps
        || !same(sa.residual_amps, sb.residual_amps)
        || !same(sa.max_delta_volts, sb.max_delta_volts)
    {
        return false;
    }
    let planes = (0..rows).all(|i| {
        (0..cols).all(|j| {
            same(a.wl_voltage(i, j), b.wl_voltage(i, j))
                && same(a.bl_voltage(i, j), b.bl_voltage(i, j))
                && same(a.cell_current(i, j), b.cell_current(i, j))
        })
    });
    planes
        && (0..rows).all(|i| {
            same(a.source_current_wl_left(i), b.source_current_wl_left(i))
                && same(a.source_current_wl_right(i), b.source_current_wl_right(i))
        })
        && (0..cols).all(|j| {
            same(a.source_current_bl_near(j), b.source_current_bl_near(j))
                && same(a.source_current_bl_far(j), b.source_current_bl_far(j))
        })
}

/// Bytes in a served line.
pub const LINE: usize = 64;

/// A client's copy of every line it owns: the prefill, then each
/// acknowledged write.
#[derive(Debug, Clone)]
pub struct Shadow {
    lines: Vec<[u8; LINE]>,
}

impl Shadow {
    /// A shadow of `n` lines holding the prefill pattern.
    #[must_use]
    pub fn prefilled(n: usize, seed: u64) -> Shadow {
        Shadow {
            lines: (0..n as u64).map(|l| prefill_line(seed, l)).collect(),
        }
    }

    /// Number of lines.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.lines.len()
    }

    /// The expected contents of `line`.
    #[must_use]
    pub fn get(&self, line: u64) -> &[u8; LINE] {
        &self.lines[line as usize]
    }

    /// Records an acknowledged write.
    pub fn ack_write(&mut self, line: u64, data: &[u8; LINE]) {
        self.lines[line as usize] = *data;
    }

    /// A read must return the prefill or the last acknowledged write.
    ///
    /// # Errors
    ///
    /// Describes the first differing byte.
    pub fn check_read(&self, line: u64, got: &[u8; LINE]) -> Result<(), String> {
        let want = self.get(line);
        match want.iter().zip(got).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(k) => Err(format!(
                "line {line}: read byte {k} = {:#04x}, last acknowledged {:#04x}",
                got[k], want[k]
            )),
        }
    }
}

/// The deterministic prefill contents of `line`.
#[must_use]
pub fn prefill_line(seed: u64, line: u64) -> [u8; LINE] {
    let mut rng = reram_workloads::Rng64::new(seed ^ line.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = [0u8; LINE];
    rng.fill_bytes(&mut out);
    out
}

/// The write-ahead log, replayed: the last record of every line must hold
/// exactly what the shadow copy says was acknowledged last. Records are
/// `line (u64 LE) ‖ 64 data bytes`; `lines_of` maps a served line to its
/// shadow (`None` for lines this shadow does not own).
#[must_use]
pub fn wal_matches_shadow(
    records: &[WalRecord],
    shadows: &[&Shadow],
    locate: impl Fn(u64) -> Option<(usize, u64)>,
) -> Vec<String> {
    let mut last: Vec<Vec<Option<&[u8]>>> = shadows.iter().map(|s| vec![None; s.lines()]).collect();
    for r in records {
        if r.payload.len() != 8 + LINE {
            continue;
        }
        let line = u64::from_le_bytes(r.payload[..8].try_into().expect("8 bytes"));
        if let Some((c, local)) = locate(line) {
            if let Some(slot) = last.get_mut(c).and_then(|v| v.get_mut(local as usize)) {
                *slot = Some(&r.payload[8..]);
            }
        }
    }
    let mut bad = Vec::new();
    for (c, (shadow, seen)) in shadows.iter().zip(&last).enumerate() {
        for (local, rec) in seen.iter().enumerate() {
            let want = shadow.get(local as u64);
            match rec {
                None => bad.push(format!("client {c} line {local}: no WAL record")),
                Some(got) if got != want => {
                    bad.push(format!("client {c} line {local}: last WAL record differs"));
                }
                Some(_) => {}
            }
            if bad.len() >= 8 {
                return bad;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use reram_array::{ArrayGeometry, ArrayModel};
    use reram_circuit::SolveOptions;

    const FIG4: &str = "config,Veff min,Veff max,latency ns,endur min,endur max\n\
                        baseline 512x512,1.672,3.000,2300.0,5.000e6,1.803e13\n";
    const FIG6: &str =
        "  * Measured DRVR worst endurance 5.00e6; max pump level 3.597V (<= 3.66V).";
    const FIG15: &str = "name,Base,Hard,Hard+Sys,DRVR,UDRVR+PR,ora-256x256,ora-128x128\n\
                         mcf_m,0.079,0.649,0.723,0.448,0.788,0.622,0.922\n\
                         gmean,0.089,0.685,0.742,0.477,0.819,0.660,0.924\n";

    #[test]
    fn anchors_pass_on_the_reproduction() {
        assert!(anchors(FIG4, FIG6).is_empty(), "{:?}", anchors(FIG4, FIG6));
    }

    #[test]
    fn an_anchor_off_by_its_tolerance_fails() {
        let veff_off = FIG4.replace("1.672", "1.7501");
        assert_eq!(anchors(&veff_off, FIG6).len(), 1);
        let veff_edge = FIG4.replace("1.672", "1.7499");
        assert!(anchors(&veff_edge, FIG6).is_empty());
        let lat_off = FIG4.replace("2300.0", "2350.5");
        assert_eq!(anchors(&lat_off, FIG6).len(), 1);
        let pump_off = FIG6.replace("3.597V", "3.6601V");
        assert_eq!(anchors(FIG4, &pump_off).len(), 1);
        assert_eq!(anchors(FIG4, "no notes").len(), 1);
    }

    #[test]
    fn fig15_order_holds_and_breaks() {
        assert!(fig15_order(FIG15).is_empty());
        let swapped = FIG15.replace("0.685,0.742", "0.742,0.685");
        assert_eq!(fig15_order(&swapped).len(), 1);
        let above_oracle = FIG15.replace("0.819,0.660,0.924", "0.930,0.660,0.924");
        assert_eq!(fig15_order(&above_oracle).len(), 1);
    }

    fn solved() -> (Crosspoint, Solution) {
        let model = ArrayModel::paper_baseline().with_geometry(ArrayGeometry::new(16, 8));
        let cp = model.to_crosspoint(15, &[3, 12], &[3.0, 3.0]);
        let sol = cp.solve(&SolveOptions::default()).expect("converges");
        (cp, sol)
    }

    #[test]
    fn kcl_holds_on_a_solution_and_fails_on_one_flipped_voltage() {
        let (cp, sol) = solved();
        let st = NodeState::of(&sol, 16, 16);
        assert!(kcl_max_residual(&cp, &st, 1e-12) < 1e-7);
        let imbalance = (st.total_source_current() - st.leak_current(1e-12)).abs();
        assert!(imbalance < 1e-7, "{imbalance}");
        let mut bad = st.clone();
        bad.vb[7 * 16 + 5] += 1e-3;
        assert!(kcl_max_residual(&cp, &bad, 1e-12) > 1e-6);
    }

    #[test]
    fn identical_solutions_compare_equal() {
        let (cp, a) = solved();
        let b = cp.solve(&SolveOptions::default()).expect("converges");
        assert!(bitwise_identical(&a, &b, 16, 16));
        let other = ArrayModel::paper_baseline()
            .with_geometry(ArrayGeometry::new(16, 8))
            .to_crosspoint(15, &[3, 12], &[3.0, 2.9])
            .solve(&SolveOptions::default())
            .expect("converges");
        assert!(!bitwise_identical(&a, &other, 16, 16));
    }

    #[test]
    fn a_wrong_read_byte_fails() {
        let mut s = Shadow::prefilled(4, 9);
        assert!(s.check_read(2, &prefill_line(9, 2)).is_ok());
        let data = [0x5A; LINE];
        s.ack_write(2, &data);
        assert!(s.check_read(2, &data).is_ok());
        let mut wrong = data;
        wrong[17] ^= 0x04;
        assert!(s.check_read(2, &wrong).is_err());
        assert!(s.check_read(2, &prefill_line(9, 2)).is_err());
    }

    fn rec(line: u64, data: &[u8; LINE]) -> WalRecord {
        let mut payload = line.to_le_bytes().to_vec();
        payload.extend_from_slice(data);
        WalRecord {
            kind: reram_durable::REC_ENTRY,
            payload,
        }
    }

    #[test]
    fn a_dropped_wal_record_fails() {
        let mut s = Shadow::prefilled(3, 1);
        let mut log: Vec<WalRecord> = (0..3).map(|l| rec(l, &prefill_line(1, l))).collect();
        let data = [0x11; LINE];
        s.ack_write(1, &data);
        log.push(rec(1, &data));
        let locate = |l: u64| (l < 3).then_some((0, l));
        assert!(wal_matches_shadow(&log, &[&s], locate).is_empty());
        // Losing the last write of line 1 leaves its prefill as the newest
        // record; losing the only record of line 2 leaves nothing.
        let mut lost_write = log.clone();
        lost_write.pop();
        assert_eq!(wal_matches_shadow(&lost_write, &[&s], locate).len(), 1);
        let mut lost_prefill = log.clone();
        lost_prefill.remove(2);
        assert_eq!(wal_matches_shadow(&lost_prefill, &[&s], locate).len(), 1);
    }
}
