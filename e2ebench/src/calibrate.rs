//! `calibrate`: the three-scheme surrogate calibration sweep
//! (`reram_surrogate::fit`: DRVR, DRVR+PR and UDRVR+PR, with incremental
//! solves and the linearization cache) on a 128×128 MAT.
//!
//! The calibration domain — schemes, RESET counts, data width — is read
//! from the committed artifact `ci/surrogate_model.json` during set-up;
//! only the MAT is smaller, so one round takes seconds instead of minutes.
//! `--seed` seeds the random column placements. One operation is one
//! circuit solve, as counted by the fit's own report.
//!
//! The checks replay the fit's exact solve sequence through the public
//! pieces it is built from (`pattern_cols`, `WriteModel::applied_volts`,
//! `ArrayModel::to_crosspoint`, `note_cells_changed`,
//! `solve_incremental`) and verify it against the fitted table before
//! judging the solutions.

use crate::checks::{self, NodeState};
use crate::measure::{end_to_end, median, peak_rss_mib, secs_since, Cpu, Round, SetupSampler};
use crate::probes::{self, SURROGATE_ARTIFACT};
use crate::{Args, Outcome};
use reram_array::{ArrayGeometry, ArrayModel};
use reram_circuit::{SolveOptions, SolverWorkspace};
use reram_core::{Scheme, WriteModel};
use reram_obs::Obs;
use reram_surrogate::{fit, key_scheme, pattern_cols, FitConfig, Pattern, CACHE_EPSILON_VOLTS};
use std::time::Instant;

/// MAT dimension of the benchmark's calibration.
pub const SIZE: usize = 128;

/// The solver's per-node regularizing leak to ground (siemens), documented
/// in `reram_circuit::SolveOptions::extra_leak_s`.
const NODE_LEAK_S: f64 = 1e-12;

/// A solved network may not violate KCL at any junction by more than this
/// (amperes): ten times the solver's own convergence tolerance.
const KCL_TOL_A: f64 = 1e-7;

/// Solutions whose KCL balance is recomputed: every `KCL_STRIDE`-th solve.
const KCL_STRIDE: usize = 8;

/// Fresh-process set-ups timed per run, in batches spread over the run
/// (see [`SetupSampler`]); `setup_s` is their median.
const SETUP_BATCHES: usize = 8;
const SETUPS_PER_BATCH: usize = 20;

/// Analytic-vs-solver tolerances of `tests/solver_vs_analytic.rs` for a
/// single RESET: the analytic drop model stays pessimistic to within
/// 20 mV and below the solver by less than 0.35 V.
const ANALYTIC_OPTIMISM_V: f64 = 0.02;
const ANALYTIC_GAP_V: f64 = 0.35;

/// The calibration configuration: the committed artifact's domain at the
/// benchmark's MAT size, seeded by `seed`.
fn setup(seed: u64) -> Result<FitConfig, String> {
    let committed = reram_surrogate::load(std::path::Path::new(SURROGATE_ARTIFACT))
        .map_err(|e| format!("cannot load {SURROGATE_ARTIFACT}: {e}"))?;
    let schemes = committed
        .tables
        .iter()
        .map(|t| key_scheme(&t.scheme).ok_or_else(|| format!("unknown scheme key {}", t.scheme)))
        .collect::<Result<Vec<Scheme>, String>>()?;
    Ok(FitConfig {
        size: SIZE,
        data_width: committed.data_width,
        counts: committed.counts,
        seed,
        schemes,
    })
}

/// The `--setup-only` child: loads the artifact and builds the config.
///
/// # Errors
///
/// When the committed artifact cannot be loaded.
pub fn setup_only() -> Result<(), String> {
    std::hint::black_box(setup(1)?);
    Ok(())
}

/// One solve of the replayed sequence.
struct Step {
    scheme: usize,
    row: usize,
    count: usize,
    cols: Vec<usize>,
    applied: Vec<f64>,
    veff: f64,
}

/// What a replay measured and found.
#[derive(Default)]
struct Replay {
    veffs: Vec<Vec<f64>>,
    failures: Vec<String>,
    solves: u64,
    sweeps: u64,
    warm_hits: u64,
    solve_s: Vec<f64>,
    to_crosspoint_s: Vec<f64>,
    cache_skip: Vec<f64>,
    lines_skipped: u64,
    lines_relaxed: u64,
    wall_s: f64,
}

/// The order `fit` solves in for one scheme: each section's first and
/// last row for every count and pattern, then each section's middle row
/// (the held-out measurement).
fn sequence(cfg: &FitConfig) -> Vec<(usize, usize, Pattern)> {
    let sections = ArrayGeometry::new(cfg.size, cfg.data_width).drvr_sections();
    let rps = cfg.size / sections;
    let mut seq = Vec::new();
    for g in 0..sections {
        let (lo, hi) = (g * rps, g * rps + rps - 1);
        for count in 1..=cfg.counts {
            for pattern in Pattern::all() {
                seq.push((lo, count, pattern));
                if hi != lo {
                    seq.push((hi, count, pattern));
                }
            }
        }
    }
    for g in 0..sections {
        for count in 1..=cfg.counts {
            for pattern in Pattern::all() {
                seq.push((g * rps + rps / 2, count, pattern));
            }
        }
    }
    seq
}

/// Replays the fit's solves. `lockstep` schemes also run a second
/// workspace through plain warm solves of the same networks, which must
/// match the incremental results bit for bit. `judge` runs the physical
/// checks on each solution; `obs` switches the solver's own counters on.
fn replay(cfg: &FitConfig, lockstep: usize, judge_steps: bool, obs: &Obs) -> Replay {
    let t0 = Instant::now();
    let mut r = Replay::default();
    let geom = ArrayGeometry::new(cfg.size, cfg.data_width);
    let opts = SolveOptions {
        lin_cache_epsilon_volts: Some(CACHE_EPSILON_VOLTS),
        ..SolveOptions::default()
    };
    for (s, &scheme) in cfg.schemes.iter().enumerate() {
        let write = WriteModel::new(ArrayModel::paper_baseline().with_geometry(geom), scheme);
        let analytic = write.model();
        let mut ws = SolverWorkspace::new();
        let mut warm = (s < lockstep).then(SolverWorkspace::new);
        let mut prev: Vec<(usize, usize)> = Vec::new();
        let mut veffs = Vec::new();
        for (k, (row, count, pattern)) in sequence(cfg).into_iter().enumerate() {
            let cols = pattern_cols(cfg.size, count, pattern, cfg.seed, row);
            let applied: Vec<f64> = cols
                .iter()
                .map(|&j| write.applied_volts(row, geom.group_of_col(j)))
                .collect();
            let t = Instant::now();
            let cp = analytic.to_crosspoint(row, &cols, &applied);
            r.to_crosspoint_s.push(secs_since(t));
            let mut changed = prev.clone();
            changed.extend(cols.iter().map(|&j| (row, j)));
            ws.note_cells_changed(&changed);
            prev = cols.iter().map(|&j| (row, j)).collect();
            let t = Instant::now();
            let sol = match cp.solve_incremental_observed(&opts, &mut ws, obs) {
                Ok(sol) => sol,
                Err(e) => {
                    r.failures.push(format!("scheme {s} solve {k}: {e}"));
                    veffs.push(f64::NAN);
                    continue;
                }
            };
            r.solve_s.push(secs_since(t));
            r.solves += 1;
            r.sweeps += sol.stats().sweeps as u64;
            r.cache_skip.push(ws.cache_skip_ratio());
            r.lines_skipped += ws.lines_skipped();
            r.lines_relaxed += ws.lines_relaxed();
            let veff = cols
                .iter()
                .map(|&j| sol.bl_voltage(row, j) - sol.wl_voltage(row, j))
                .fold(f64::INFINITY, f64::min);
            veffs.push(veff);
            if judge_steps {
                let step = Step {
                    scheme: s,
                    row,
                    count,
                    cols,
                    applied,
                    veff,
                };
                judge(&mut r.failures, &step, &cp, &sol, analytic, k);
            }
            if let Some(w) = warm.as_mut() {
                match cp.solve_warm(&opts, w) {
                    Ok(full) if checks::bitwise_identical(&sol, &full, cfg.size, cfg.size) => {}
                    Ok(_) => r.failures.push(format!(
                        "scheme {s} solve {k}: incremental result differs from a full warm solve"
                    )),
                    Err(e) => r
                        .failures
                        .push(format!("scheme {s} solve {k}: warm solve {e}")),
                }
            }
        }
        r.warm_hits += ws.warm_hits();
        r.veffs.push(veffs);
    }
    r.wall_s = secs_since(t0);
    r
}

/// Physical checks on one solved network.
fn judge(
    bad: &mut Vec<String>,
    step: &Step,
    cp: &reram_circuit::Crosspoint,
    sol: &reram_circuit::Solution,
    analytic: &ArrayModel,
    k: usize,
) {
    let ctx = format!("scheme {} solve {k} (row {})", step.scheme, step.row);
    for (&j, &v) in step.cols.iter().zip(&step.applied) {
        let cell = sol.bl_voltage(step.row, j) - sol.wl_voltage(step.row, j);
        if cell > v + 1e-9 {
            bad.push(format!("{ctx}: Veff {cell} V exceeds the applied {v} V"));
        }
    }
    if step.count == 1 {
        let (j, v) = (step.cols[0], step.applied[0]);
        let a = analytic.effective_vrst(v, step.row, j, 1);
        if a > step.veff + ANALYTIC_OPTIMISM_V || step.veff - a >= ANALYTIC_GAP_V {
            bad.push(format!(
                "{ctx}: analytic Veff {a} V vs solver {} V outside the single-RESET tolerance",
                step.veff
            ));
        }
    }
    if k.is_multiple_of(KCL_STRIDE) {
        let st = NodeState::of(sol, cp.rows(), cp.cols());
        let worst = checks::kcl_max_residual(cp, &st, NODE_LEAK_S);
        if worst > KCL_TOL_A {
            bad.push(format!("{ctx}: KCL imbalance {worst} A"));
        }
        let (total, leak) = (st.total_source_current(), st.leak_current(NODE_LEAK_S));
        if (total - leak).abs() > KCL_TOL_A {
            bad.push(format!(
                "{ctx}: source currents sum to {total} A, the node leak carries {leak} A"
            ));
        }
    }
}

/// The replay must be the fit's own sequence: its solves rebuild every
/// fitted base value bit for bit.
fn replay_matches_fit(
    cfg: &FitConfig,
    model: &reram_surrogate::SurrogateModel,
    r: &Replay,
) -> Vec<String> {
    let seq = sequence(cfg);
    let fit_points = seq.len() - model.sections * cfg.counts * reram_surrogate::PATTERNS;
    let cps = cfg.counts * reram_surrogate::PATTERNS;
    let rps = model.rows_per_section();
    let mut bad = Vec::new();
    for (s, table) in model.tables.iter().enumerate() {
        let v = &r.veffs[s];
        let mut k = 0;
        for g in 0..model.sections {
            for count in 1..=cfg.counts {
                for pattern in Pattern::all() {
                    let lo = v[k];
                    let hi = if rps > 1 { v[k + 1] } else { lo };
                    k += if rps > 1 { 2 } else { 1 };
                    let cp = (count - 1) * reram_surrogate::PATTERNS + pattern.index();
                    let want = table.base[g * cps + cp];
                    if (0.5 * (lo + hi)).to_bits() != want.to_bits() {
                        bad.push(format!(
                            "{}: replayed base {} differs from the fitted {want} (section {g}, count {count}, {})",
                            table.scheme,
                            0.5 * (lo + hi),
                            pattern.name()
                        ));
                    }
                }
            }
        }
        debug_assert_eq!(k, fit_points);
    }
    bad.truncate(8);
    bad
}

/// Runs the workload.
///
/// # Errors
///
/// When the committed artifact or the set-up children fail.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut o = if args.trace {
        Outcome::traced()
    } else {
        Outcome::default()
    };
    let mut setups = if args.trace {
        None
    } else {
        Some(SetupSampler::start(
            "calibrate",
            args.seed,
            args.seconds,
            SETUP_BATCHES,
            SETUPS_PER_BATCH,
        )?)
    };
    let cfg = setup(args.seed)?;

    let t_run = Instant::now();
    let mut rounds = Vec::new();
    let mut first_json = None;
    let mut model = None;
    while rounds.is_empty() || (!args.trace && secs_since(t_run) < args.seconds) {
        let (t, c) = (Instant::now(), Cpu::now());
        let fitted = fit(&cfg);
        let (wall_s, cpu) = (secs_since(t), Cpu::now().since(c));
        match fitted {
            Ok((m, report)) => {
                let json = reram_surrogate::to_json(&m);
                match &first_json {
                    None => first_json = Some(json),
                    Some(j) if *j != json => o.check(
                        "determinism",
                        vec![format!(
                            "round {} fitted a different model",
                            rounds.len() + 1
                        )],
                    ),
                    Some(_) => {}
                }
                rounds.push(Round {
                    wall_s,
                    cpu,
                    ops: report.solves as u64,
                });
                model = Some(m);
            }
            Err(e) => {
                o.check("fit", vec![e.to_string()]);
                o.failed += 1;
                rounds.push(Round {
                    wall_s,
                    cpu,
                    ops: 1,
                });
            }
        }
        if let Some(s) = setups.as_mut() {
            s.between_rounds(secs_since(t_run))?;
        }
    }
    let rss = peak_rss_mib();
    let setups = setups.map(SetupSampler::finish).transpose()?;
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    o.attempted = ops;

    // Checks (outside the measured phase). The untraced run compares the
    // first scheme's incremental solves with full warm solves; the traced
    // run compares all three.
    let lockstep = if args.trace { cfg.schemes.len() } else { 1 };
    let plain = replay(&cfg, lockstep, true, &Obs::off());
    o.check("solutions", plain.failures.clone());
    match &model {
        Some(m) => o.check("replay", replay_matches_fit(&cfg, m, &plain)),
        None => o.check("replay", vec!["no fit succeeded".into()]),
    }

    if args.trace {
        let bare = replay(&cfg, 0, false, &Obs::off());
        let obs = Obs::new();
        let observed = replay(&cfg, 0, false, &obs);
        let m = &mut o.metrics;
        m.put(
            "circuit.solves",
            obs.counter("circuit.solve.solves").get() as f64,
            "count",
        );
        m.put("circuit.sweeps", observed.sweeps as f64, "count");
        m.put("circuit.solve_ms", median(&observed.solve_s) * 1e3, "ms");
        m.put(
            "circuit.warm_hits",
            obs.counter("circuit.solve.warm_hits").get() as f64,
            "count",
        );
        m.put(
            "circuit.cache_skip_ratio",
            observed.cache_skip.iter().sum::<f64>() / observed.cache_skip.len().max(1) as f64,
            "ratio",
        );
        m.put(
            "circuit.incremental_skip_ratio",
            observed.lines_skipped as f64
                / (observed.lines_skipped + observed.lines_relaxed).max(1) as f64,
            "ratio",
        );
        let r0 = rounds[0];
        m.put(
            "process.user_us_per_op",
            r0.cpu.user * 1e6 / r0.ops as f64,
            "us",
        );
        m.put(
            "process.sys_us_per_op",
            r0.cpu.sys * 1e6 / r0.ops as f64,
            "us",
        );
        m.put(
            "trace.overhead_pct",
            (observed.wall_s / bare.wall_s - 1.0) * 100.0,
            "%",
        );
        probes::measure(&mut o, args.seed);
        // The calibration's own networks, not the probe's.
        o.metrics.put(
            "array.to_crosspoint_us",
            median(&observed.to_crosspoint_s) * 1e6,
            "us",
        );
        if observed.solves != ops {
            o.check(
                "replay",
                vec![format!(
                    "replayed {} solves, the fit reports {ops}",
                    observed.solves
                )],
            );
        }
        o.note("warm_hits_untraced", plain.warm_hits.to_string());
        o.note("fit_round_s", r0.wall_s.to_string());
        o.note("untraced_replay_s", bare.wall_s.to_string());
        o.note("observed_replay_s", observed.wall_s.to_string());
    } else {
        end_to_end(&mut o.metrics, &setups.unwrap_or_default(), &rounds, rss);
        o.note_rounds(&rounds);
        o.note("solves_per_round", rounds[0].ops.to_string());
    }
    Ok(o)
}
