//! `reproduce`: every table and figure `experiments all` builds, at the
//! default budget, on one worker.
//!
//! One round builds the 26 tables in the registry order of the
//! `experiments` binary (the sweep figures through their `*_par` entry
//! points, which run the same sweep points the binary schedules as DAG
//! jobs). One operation is one table or figure.

use crate::checks;
use crate::measure::{end_to_end, peak_rss_mib, secs_since, Cpu, Round, SetupSampler};
use crate::{probes, Args, Outcome};
use reram_core::Scheme;
use reram_exec::ThreadPool;
use reram_experiments::{
    ablation, fault_drill, lifetime_exp, micro, perf, solver, traffic, Budget, ExpTable, SolverCfg,
};
use reram_obs::Obs;
use reram_sim::{SimResult, Simulator};
use reram_workloads::BenchProfile;
use std::time::Instant;

/// The budget `experiments all` runs at without flags.
const BUDGET: Budget = Budget::Standard;

/// Seed of every performance simulation in `reram_experiments::perf`.
const PERF_SEED: u64 = 2020;

/// The `experiments` registry, in its order.
const NAMES: [&str; 26] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1e",
    "fig4",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig6",
    "fig7",
    "fig9",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "ablation_drvr",
    "ablation_pr",
    "ablation_wc",
    "solver_grid",
    "fault_drill",
];

/// Which module's builders a table comes from, for the per-layer split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Module {
    Perf,
    Traffic,
    Rest,
}

fn module_of(name: &str) -> Module {
    match name {
        "fig5c" | "fig15" | "fig16" | "fig17" | "fig18" | "fig19" | "fig20" => Module::Perf,
        "table4" | "fig9" | "fig14" => Module::Traffic,
        _ => Module::Rest,
    }
}

fn build(name: &str, pool: &ThreadPool, obs: &Obs) -> ExpTable {
    match name {
        "table1" => micro::table1(),
        "table2" => micro::table2(),
        "table3" => micro::table3(),
        "table4" => traffic::table4(),
        "fig1e" => micro::fig1e(),
        "fig4" => micro::fig4(),
        "fig5b" => lifetime_exp::fig5b(),
        "fig5c" => perf::fig5c_par(BUDGET, pool, obs),
        "fig5d" => lifetime_exp::fig5d(),
        "fig6" => micro::fig6(),
        "fig7" => micro::fig7(),
        "fig9" => traffic::fig9(),
        "fig11" => micro::fig11(),
        "fig13" => micro::fig13(),
        "fig14" => traffic::fig14(),
        "fig15" => perf::fig15_par(BUDGET, pool, obs),
        "fig16" => perf::fig16_par(BUDGET, pool, obs),
        "fig17" => perf::fig17_par(BUDGET, pool, obs),
        "fig18" => perf::fig18_par(BUDGET, pool, obs),
        "fig19" => perf::fig19_par(BUDGET, pool, obs),
        "fig20" => perf::fig20_par(BUDGET, pool, obs),
        "ablation_drvr" => ablation::ablation_drvr_levels(),
        "ablation_pr" => ablation::ablation_pr_cap(),
        "ablation_wc" => ablation::ablation_coalescence(),
        "solver_grid" => solver::solver_grid(BUDGET, SolverCfg::default(), None, obs),
        "fault_drill" => fault_drill::fault_drill(None, obs),
        other => unreachable!("{other} is not in the registry"),
    }
}

/// One pass over the registry.
struct Pass {
    csv: Vec<String>,
    fig6_rendered: String,
    wall_s: f64,
    cpu: Cpu,
    /// Host seconds in each module's builders.
    perf_s: f64,
    traffic_s: f64,
    rest_s: f64,
}

impl Pass {
    fn csv_of(&self, name: &str) -> &str {
        let k = NAMES.iter().position(|n| *n == name).expect("registered");
        &self.csv[k]
    }
}

/// One pass over the registry. `between` runs after each table, outside
/// the pass's clocks: the pass's wall and CPU time are the sums over its
/// tables.
fn pass(
    pool: &ThreadPool,
    obs: &Obs,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let mut r = Pass {
        csv: Vec::with_capacity(NAMES.len()),
        fig6_rendered: String::new(),
        wall_s: 0.0,
        cpu: Cpu::default(),
        perf_s: 0.0,
        traffic_s: 0.0,
        rest_s: 0.0,
    };
    for name in NAMES {
        let (t, c) = (Instant::now(), Cpu::now());
        let table = build(name, pool, obs);
        let dt = secs_since(t);
        match module_of(name) {
            Module::Perf => r.perf_s += dt,
            Module::Traffic => r.traffic_s += dt,
            Module::Rest => r.rest_s += dt,
        }
        if name == "fig6" {
            r.fig6_rendered = table.render();
        }
        r.csv.push(table.csv());
        let spent = Cpu::now().since(c);
        r.wall_s += secs_since(t);
        r.cpu.user += spent.user;
        r.cpu.sys += spent.sys;
        between()?;
    }
    Ok(r)
}

/// The harness state a round needs: the serial pool (the binary's
/// `--jobs 1` reference) and a disabled telemetry handle. The tables
/// build their own inputs, so set-up is mostly process start.
fn setup() -> (ThreadPool, Obs) {
    (ThreadPool::serial(), Obs::off())
}

/// Fresh-process set-ups timed per run, in batches spread over the run
/// between tables (see [`SetupSampler`]); `setup_s` is their median.
const SETUP_BATCHES: usize = 16;
const SETUPS_PER_BATCH: usize = 10;

/// The `--setup-only` child: sets the harness up and exits.
///
/// # Errors
///
/// Never.
pub fn setup_only() -> Result<(), String> {
    std::hint::black_box(setup());
    Ok(())
}

fn output_checks(o: &mut Outcome, r: &Pass) {
    o.check(
        "anchors",
        checks::anchors(r.csv_of("fig4"), &r.fig6_rendered),
    );
    o.check("fig15", checks::fig15_order(r.csv_of("fig15")));
}

/// Runs the workload.
///
/// # Errors
///
/// When the set-up children cannot run; every other failure is a check
/// failure inside the outcome.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return Ok(traced(args));
    }
    let mut o = Outcome::default();
    let mut setups = SetupSampler::start(
        "reproduce",
        args.seed,
        args.seconds,
        SETUP_BATCHES,
        SETUPS_PER_BATCH,
    )?;
    let (pool, obs) = setup();

    let t_run = Instant::now();
    let mut first: Option<Pass> = None;
    let mut rounds = Vec::new();
    while rounds.is_empty() || secs_since(t_run) < args.seconds {
        let p = pass(&pool, &obs, || setups.between_rounds(secs_since(t_run)))?;
        rounds.push(Round {
            wall_s: p.wall_s,
            cpu: p.cpu,
            ops: NAMES.len() as u64,
        });
        match &first {
            None => first = Some(p),
            Some(f) if f.csv != p.csv => o.check(
                "determinism",
                vec![format!("round {} CSVs differ from round 1", rounds.len())],
            ),
            Some(_) => {}
        }
    }
    let rss = peak_rss_mib();
    let setups = setups.finish()?;
    output_checks(&mut o, first.as_ref().expect("at least one round"));
    o.attempted = rounds.iter().map(|r| r.ops).sum();
    end_to_end(&mut o.metrics, &setups, &rounds, rss);
    o.note_rounds(&rounds);
    Ok(o)
}

/// The simulator runs behind the performance figures, rebuilt from the
/// same public pieces `reram_experiments::perf` uses: Fig. 5c, 15, 16, 17
/// and every sweep point of Figs. 18–20.
fn perf_runs() -> Vec<(&'static str, Simulator)> {
    let cfg = BUDGET.sim_config();
    let sim = |s: Scheme, p: BenchProfile| Simulator::new(cfg, s, p, PERF_SEED);
    let by = |n: &str| BenchProfile::by_name(n).expect("table IV");
    let mut runs = Vec::new();
    for p in ["mcf_m", "xal_m", "ast_m"].map(by) {
        for s in [Scheme::Oracle { window: 64 }, Scheme::Hard, Scheme::HardSys] {
            runs.push(("fig5c", sim(s, p)));
        }
    }
    for p in BenchProfile::table_iv() {
        for s in FIG15_SCHEMES {
            runs.push(("fig15", sim(s, p)));
        }
    }
    for p in BenchProfile::table_iv() {
        for s in [Scheme::HardSys, Scheme::Hard, Scheme::Drvr, Scheme::UdrvrPr] {
            runs.push(("fig16", sim(s, p)));
        }
    }
    for p in BenchProfile::table_iv() {
        for s in [Scheme::Udrvr394, Scheme::UdrvrPr] {
            runs.push(("fig17", sim(s, p)));
        }
    }
    for id in ["fig18", "fig19", "fig20"] {
        let spec = perf::sweep_spec(id).expect("sweep figure");
        for (_, array) in &spec.points {
            for p in ["mcf_m", "ast_m", "gem_m", "mix_1"].map(by) {
                for s in [Scheme::HardSys, Scheme::UdrvrPr] {
                    runs.push((id, sim(s, p).with_array(*array)));
                }
            }
        }
    }
    runs
}

/// Fig. 15's columns: the ora-64×64 normalizer, then the seven plotted
/// schemes.
const FIG15_SCHEMES: [Scheme; 8] = [
    Scheme::Oracle { window: 64 },
    Scheme::Baseline,
    Scheme::Hard,
    Scheme::HardSys,
    Scheme::Drvr,
    Scheme::UdrvrPr,
    Scheme::Oracle { window: 256 },
    Scheme::Oracle { window: 128 },
];

fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Re-derives Fig. 15's and Fig. 17's data rows from the rebuilt runs.
fn rederived_rows(results: &[(&str, SimResult)]) -> (Vec<String>, Vec<String>) {
    let names: Vec<&str> = BenchProfile::table_iv().iter().map(|p| p.name).collect();
    let of = |fig: &str| -> Vec<SimResult> {
        results
            .iter()
            .filter(|(f, _)| *f == fig)
            .map(|(_, r)| *r)
            .collect()
    };
    let f15 = of("fig15");
    let mut rows15 = Vec::new();
    let mut per_scheme = vec![Vec::new(); FIG15_SCHEMES.len() - 1];
    for (j, name) in names.iter().enumerate() {
        let base = &f15[8 * j];
        let mut row = vec![(*name).to_string()];
        for (k, col) in per_scheme.iter_mut().enumerate() {
            let ratio = f15[8 * j + 1 + k].speedup_over(base);
            col.push(ratio);
            row.push(format!("{ratio:.3}"));
        }
        rows15.push(row.join(","));
    }
    let mut g = vec!["gmean".to_string()];
    g.extend(per_scheme.iter().map(|c| format!("{:.3}", gmean(c))));
    rows15.push(g.join(","));

    let f17 = of("fig17");
    let mut rows17 = Vec::new();
    let mut all = Vec::new();
    for (j, name) in names.iter().enumerate() {
        let s = f17[2 * j + 1].speedup_over(&f17[2 * j]);
        all.push(s);
        rows17.push(format!("{name},{s:.3}"));
    }
    rows17.push(format!("gmean,{:.3}", gmean(&all)));
    (rows15, rows17)
}

fn data_rows(csv: &str) -> Vec<String> {
    csv.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

fn traced(args: &Args) -> Outcome {
    let mut o = Outcome::traced();
    let pool = ThreadPool::serial();

    // The end-to-end round once more, untraced, for the module split …
    let plain = pass(&pool, &Obs::off(), || Ok(())).expect("nothing runs between tables");
    // … and with the program's counters switched on: the simulated
    // statistics must not move.
    let obs = Obs::new();
    let observed = pass(&pool, &obs, || Ok(())).expect("nothing runs between tables");
    if plain.csv != observed.csv {
        let differ: Vec<String> = NAMES
            .iter()
            .zip(plain.csv.iter().zip(&observed.csv))
            .filter(|(_, (a, b))| a != b)
            .map(|(n, _)| format!("{n}: CSV differs between untraced and traced rounds"))
            .collect();
        o.check("trace_identity", differ);
    }
    output_checks(&mut o, &plain);

    // Every simulator run behind the performance figures, timed one by one.
    let cfg = BUDGET.sim_config();
    let per_run = cfg.instructions_per_core * cfg.cores as u64;
    let mut results = Vec::new();
    let mut run_s = 0.0;
    let mut wrong_retire = Vec::new();
    for (fig, sim) in perf_runs() {
        let t = Instant::now();
        let r = sim.run();
        run_s += secs_since(t);
        if r.instructions != per_run {
            wrong_retire.push(format!(
                "{fig}: a run retired {} instructions, want {per_run}",
                r.instructions
            ));
        }
        results.push((fig, r));
    }
    o.check("retire", wrong_retire);
    let (rows15, rows17) = rederived_rows(&results);
    if rows15 != data_rows(plain.csv_of("fig15")) {
        o.check(
            "fig15",
            vec!["rebuilt runs do not reproduce the fig15 table".into()],
        );
    }
    if rows17 != data_rows(plain.csv_of("fig17")) {
        o.check(
            "fig17",
            vec!["rebuilt runs do not reproduce the fig17 table".into()],
        );
    }
    let sum = |f: fn(&SimResult) -> f64| results.iter().map(|(_, r)| f(r)).sum::<f64>();
    let instructions = sum(|r| r.instructions as f64);

    let m = &mut o.metrics;
    m.put("experiments.perf_s", plain.perf_s, "s");
    m.put("experiments.traffic_s", plain.traffic_s, "s");
    m.put("experiments.rest_s", plain.rest_s, "s");
    m.put("sim.run_s", run_s, "s");
    m.put("sim.host_ns_per_inst", run_s * 1e9 / instructions, "ns");
    m.put("sim.instructions", instructions, "count");
    m.put("core.cell_writes", sum(|r| r.cell_writes as f64), "count");
    m.put("core.resets", sum(|r| r.resets as f64), "count");
    m.put("mem.reads", sum(|r| r.mem.reads as f64), "count");
    m.put("mem.writes", sum(|r| r.mem.writes as f64), "count");
    m.put(
        "mem.write_latency_ns",
        sum(|r| r.mem.write_latency_sum_ns),
        "ns",
    );
    let counter = |name: &str| obs.counter(name).get() as f64;
    m.put(
        "core.pr.dummy_pairs",
        counter("core.pr.dummy_pairs"),
        "count",
    );
    m.put(
        "mem.controller.read_priority_stalls",
        counter("mem.controller.read_priority_stalls"),
        "count",
    );
    m.put("mem.pump.recharges", counter("mem.pump.recharges"), "count");
    m.put("circuit.solves", counter("circuit.solve.solves"), "count");
    let ops = NAMES.len() as f64;
    m.put("process.user_us_per_op", plain.cpu.user * 1e6 / ops, "us");
    m.put("process.sys_us_per_op", plain.cpu.sys * 1e6 / ops, "us");
    m.put(
        "trace.overhead_pct",
        (observed.wall_s / plain.wall_s - 1.0) * 100.0,
        "%",
    );
    probes::measure(&mut o, args.seed);
    o.attempted = 2 * NAMES.len() as u64 + results.len() as u64;
    o.note("perf_runs", results.len().to_string());
    o.note("untraced_round_s", plain.wall_s.to_string());
    o.note("traced_round_s", observed.wall_s.to_string());
    o
}

#[cfg(test)]
mod tests {
    use super::NAMES;

    /// The names listed by `experiment_names()` in the `experiments`
    /// binary, which `experiments all` builds in this order.
    fn binary_registry() -> Vec<String> {
        let src = include_str!("../../crates/experiments/src/main.rs");
        let start = src
            .find("fn experiment_names()")
            .expect("the experiments binary keeps its registry in experiment_names()");
        let body = &src[start..];
        let body = &body[..body.find("\n}").expect("end of experiment_names()")];
        body.split('"')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn names_match_the_experiments_registry() {
        assert_eq!(
            binary_registry(),
            NAMES.to_vec(),
            "the reproduce workload must build every table of `experiments all`, in its order"
        );
    }
}
