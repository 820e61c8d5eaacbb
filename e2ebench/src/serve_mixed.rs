//! `serve-mixed`: a closed loop of two clients on two connections against
//! an in-process server running the full write path — durable WAL plus
//! surrogate physics from `ci/surrogate_model.json` — fed each client's
//! `mcf_m` Table IV stream (about 48% writes).
//!
//! Set-up starts the server on an emptied WAL directory, loads the
//! artifact (CRC-checked) and prefills every served line. One round is
//! `ROUND_PER_CLIENT` requests from each client; one operation is one
//! request. Each client keeps a shadow copy of its lines, so every read is
//! checked as it returns; afterwards every line is read back, the server
//! drains, and the reopened WAL must end with each line's last
//! acknowledged contents.

use crate::checks::{self, Shadow, LINE};
use crate::measure::{
    end_to_end, median, peak_rss_mib, percentile, secs_since, Cpu, Round, SetupSampler,
};
use crate::probes::{self, SURROGATE_ARTIFACT};
use crate::{Args, Outcome, OUT_DIR};
use reram_durable::{DurableConfig, DurableLog};
use reram_obs::{Obs, TraceContext, Tracer};
use reram_serve::proto::{Request, Response};
use reram_serve::{Client, ServeConfig, Server};
use reram_workloads::{AccessKind, BenchProfile, TraceGenerator};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection and one thread each.
const CLIENTS: usize = 2;

/// Requests each client sends per round.
const ROUND_PER_CLIENT: usize = 10_000;

/// Fresh-process set-ups timed per run, one at a time spread over the run
/// (see [`SetupSampler`]); `setup_s` is their median.
const SETUP_BATCHES: usize = 5;

/// Rounds of a traced run: first untraced, then with every request traced.
const TRACED_ROUNDS: usize = 4;

/// Traced requests per client between drains of the span rings.
const TRACE_CHUNK: usize = 2_000;

/// Server stages the serve stack records per traced request.
const STAGES: [&str; 5] = [
    "server.decode",
    "server.queue",
    "server.gate",
    "server.service",
    "server.write",
];

fn serve_config(model: Arc<reram_surrogate::SurrogateModel>) -> ServeConfig {
    ServeConfig {
        surrogate: Some(model),
        ..ServeConfig::default()
    }
}

/// Lines each client owns: global line `local * CLIENTS + client`.
fn lines_per_client() -> u64 {
    let cfg = ServeConfig::default();
    cfg.shards as u64 * cfg.lines_per_shard / CLIENTS as u64
}

fn global(client: usize, local: u64) -> u64 {
    local * CLIENTS as u64 + client as u64
}

/// The prefill / shadow seed of one client.
fn shadow_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_add(client as u64)
}

/// A started server with its prefilled shadows.
struct Served {
    server: Server,
    shadows: Vec<Shadow>,
    dir: PathBuf,
}

/// Writes `data` to `line`, retrying `Busy`; returns the verify attempts.
fn write_line(c: &mut Client, line: u64, data: &[u8; LINE]) -> Result<u32, String> {
    loop {
        let req = Request::WriteLine {
            line,
            data: Box::new(*data),
        };
        match c.call(&req).map_err(|e| format!("write {line}: {e}"))? {
            Response::WriteOk { attempts, .. } => return Ok(attempts),
            Response::Busy { retry_after_us } => {
                std::thread::sleep(Duration::from_micros(u64::from(retry_after_us.min(2_000))));
            }
            other => return Err(format!("write {line}: unexpected {other:?}")),
        }
    }
}

/// Reads `line`, retrying `Busy`.
fn read_line(c: &mut Client, line: u64) -> Result<[u8; LINE], String> {
    loop {
        match c
            .call(&Request::ReadLine { line })
            .map_err(|e| format!("read {line}: {e}"))?
        {
            Response::ReadOk { data } => return Ok(*data),
            Response::Busy { retry_after_us } => {
                std::thread::sleep(Duration::from_micros(u64::from(retry_after_us.min(2_000))));
            }
            other => return Err(format!("read {line}: unexpected {other:?}")),
        }
    }
}

/// Starts the durable surrogate server on an emptied `dir` and prefills
/// every line, one connection per client.
fn setup(seed: u64, dir: &Path, obs: &Obs, tracer: Tracer) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    let model = reram_surrogate::load(Path::new(SURROGATE_ARTIFACT))
        .map_err(|e| format!("cannot load {SURROGATE_ARTIFACT}: {e}"))?;
    let server = Server::start_durable(&serve_config(Arc::new(model)), obs, tracer, None, dir)
        .map_err(|e| format!("cannot start the durable server: {e}"))?;
    let addr = server.local_addr();
    let n = lines_per_client();
    let shadows: Vec<Shadow> = (0..CLIENTS)
        .map(|c| Shadow::prefilled(n as usize, shadow_seed(seed, c)))
        .collect();
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = shadows
            .iter()
            .enumerate()
            .map(|(c, shadow)| {
                s.spawn(move || {
                    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for local in 0..n {
                        write_line(&mut conn, global(c, local), shadow.get(local))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread panicked"))
            .collect()
    });
    results.into_iter().collect::<Result<Vec<()>, String>>()?;
    Ok(Served {
        server,
        shadows,
        dir: dir.to_path_buf(),
    })
}

/// Drains the server and waits for it to stop.
fn drain(served: Served) -> Result<(Vec<Shadow>, PathBuf), String> {
    let mut c = Client::connect(served.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    match c.call(&Request::Drain).map_err(|e| format!("drain: {e}"))? {
        Response::DrainOk { .. } => {}
        other => return Err(format!("drain: unexpected {other:?}")),
    }
    drop(c);
    served.server.join();
    Ok((served.shadows, served.dir))
}

/// The `--setup-only` child: sets the server up, then drains it.
///
/// # Errors
///
/// When the server cannot start, prefill, or drain.
pub fn setup_only(seed: u64) -> Result<(), String> {
    let dir = Path::new(OUT_DIR).join("serve-setup-wal");
    let served = setup(seed, &dir, &Obs::off(), Tracer::off())?;
    drain(served)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// One closed-loop client.
struct Loop {
    idx: usize,
    gen: TraceGenerator,
    conn: Client,
    shadow: Shadow,
    lines: u64,
    /// `(rtt ns, is_write, trace id or 0)` of every completed request.
    samples: Vec<(u64, bool, u64)>,
    attempts: u64,
    writes_ok: u64,
    busy: u64,
    failed: u64,
    failures: Vec<String>,
    seq: u64,
}

impl Loop {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!("client {}: {msg}", self.idx));
        }
    }

    /// Sends `n` requests of this client's stream, each after the previous
    /// reply; `traced` stamps a fresh trace context on each.
    fn run(&mut self, n: usize, traced: bool) {
        for _ in 0..n {
            self.seq += 1;
            let trace = traced.then(|| TraceContext {
                trace_id: ((self.idx as u64 + 1) << 48) | self.seq,
                parent_span_id: 1,
            });
            let access = self.gen.next_access();
            let (req, local, new) = match access.kind {
                AccessKind::Read { line } => {
                    let local = line % self.lines;
                    (
                        Request::ReadLine {
                            line: global(self.idx, local),
                        },
                        local,
                        None,
                    )
                }
                AccessKind::Write { line, new, .. } => {
                    let local = line % self.lines;
                    let data = *new;
                    (
                        Request::WriteLine {
                            line: global(self.idx, local),
                            data: new,
                        },
                        local,
                        Some(data),
                    )
                }
            };
            let t0 = Instant::now();
            let resp = loop {
                let r = self
                    .conn
                    .send_with_trace(&req, trace)
                    .and_then(|id| self.conn.recv(id));
                match r {
                    Ok(Response::Busy { retry_after_us }) => {
                        self.busy += 1;
                        std::thread::sleep(Duration::from_micros(u64::from(
                            retry_after_us.min(2_000),
                        )));
                    }
                    other => break other,
                }
            };
            let rtt = t0.elapsed().as_nanos() as u64;
            match (resp, new) {
                (Ok(Response::ReadOk { data }), None) => {
                    if let Err(e) = self.shadow.check_read(local, &data) {
                        self.fail(e);
                        continue;
                    }
                }
                (Ok(Response::WriteOk { attempts, .. }), Some(data)) => {
                    self.shadow.ack_write(local, &data);
                    self.attempts += u64::from(attempts);
                    self.writes_ok += 1;
                }
                (other, _) => {
                    self.fail(format!("unexpected reply {other:?}"));
                    continue;
                }
            }
            self.samples
                .push((rtt, new.is_some(), trace.map_or(0, |t| t.trace_id)));
        }
    }
}

/// Runs `n` requests on every client in parallel.
fn round(loops: &mut [Loop], n: usize, traced: bool) -> Round {
    let (t0, c0) = (Instant::now(), Cpu::now());
    std::thread::scope(|s| {
        for l in loops.iter_mut() {
            s.spawn(move || l.run(n, traced));
        }
    });
    Round {
        wall_s: secs_since(t0),
        cpu: Cpu::now().since(c0),
        ops: (n * loops.len()) as u64,
    }
}

fn open_loops(served: &Served, seed: u64) -> Result<Vec<Loop>, String> {
    let mcf = BenchProfile::by_name("mcf_m").expect("table IV");
    let lines = lines_per_client();
    (0..CLIENTS)
        .map(|idx| {
            let stream_seed = seed.wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Ok(Loop {
                idx,
                gen: TraceGenerator::new(mcf, stream_seed).with_address_lines(lines),
                conn: Client::connect(served.server.local_addr())
                    .map_err(|e| format!("connect: {e}"))?,
                shadow: served.shadows[idx].clone(),
                lines,
                samples: Vec::new(),
                attempts: 0,
                writes_ok: 0,
                busy: 0,
                failed: 0,
                failures: Vec::new(),
                seq: 0,
            })
        })
        .collect()
}

/// Reads every line back, drains, and replays the WAL against the shadows.
fn final_checks(o: &mut Outcome, mut served: Served, loops: Vec<Loop>) {
    served.shadows = loops.into_iter().map(|l| l.shadow).collect();
    let mut bad = Vec::new();
    match Client::connect(served.server.local_addr()) {
        Ok(mut c) => {
            'read: for (idx, shadow) in served.shadows.iter().enumerate() {
                for local in 0..shadow.lines() as u64 {
                    let r = read_line(&mut c, global(idx, local))
                        .and_then(|d| shadow.check_read(local, &d));
                    if let Err(e) = r {
                        bad.push(format!("read-back client {idx}: {e}"));
                        if bad.len() >= 8 {
                            break 'read;
                        }
                    }
                }
            }
        }
        Err(e) => bad.push(format!("read-back connect: {e}")),
    }
    o.check("read_back", bad);
    let (shadows, dir) = match drain(served) {
        Ok(x) => x,
        Err(e) => {
            o.check("drain", vec![e]);
            return;
        }
    };
    let mut dcfg = DurableConfig::new(&dir, 8 + LINE);
    dcfg.target = "serve".to_string();
    match DurableLog::open(dcfg, &Obs::off(), None) {
        Ok((log, recovered)) => {
            drop(log);
            let refs: Vec<&Shadow> = shadows.iter().collect();
            let locate = |g: u64| Some(((g % CLIENTS as u64) as usize, g / CLIENTS as u64));
            o.check(
                "wal",
                checks::wal_matches_shadow(&recovered.records, &refs, locate),
            );
            if recovered.torn_tail + recovered.bit_rot > 0 {
                o.check("wal", vec!["the reopened WAL truncated records".into()]);
            }
        }
        Err(e) => o.check("wal", vec![format!("cannot reopen the WAL: {e}")]),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn collect_failures(o: &mut Outcome, loops: &mut [Loop]) {
    for l in loops.iter_mut() {
        o.failed += l.failed;
        o.check("replies", std::mem::take(&mut l.failures));
    }
}

/// Per-kind latency percentiles (µs) of `(rtt ns, is_write, _)` samples.
fn kind_percentiles(samples: &[(u64, bool, u64)], write: bool) -> (f64, f64) {
    let mut v: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 == write)
        .map(|s| s.0 as f64 / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    (percentile(&v, 50.0), percentile(&v, 99.0))
}

/// A `u64` field of the `STATS_JSON` text.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Sum of a per-shard `u64` field over every shard of `STATS_JSON`.
fn json_shard_sum(json: &str, key: &str) -> u64 {
    json.split("{\"shard\":")
        .skip(1)
        .filter_map(|s| json_u64(s, key))
        .sum()
}

/// Runs the workload.
///
/// # Errors
///
/// When the server cannot be set up.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let mut o = Outcome::default();
    let mut setups = SetupSampler::start("serve-mixed", args.seed, args.seconds, SETUP_BATCHES, 1)?;
    let dir = Path::new(OUT_DIR).join("serve-wal");
    let served = setup(args.seed, &dir, &Obs::off(), Tracer::off())?;
    let mut loops = open_loops(&served, args.seed)?;

    let t_run = Instant::now();
    let mut rounds = Vec::new();
    // Per round: read p50, read p99, write p50, write p99 (µs). Samples
    // are dropped after each round so memory does not grow with the run.
    let mut lat: [Vec<f64>; 4] = Default::default();
    while rounds.is_empty() || secs_since(t_run) < args.seconds {
        rounds.push(round(&mut loops, ROUND_PER_CLIENT, false));
        let samples: Vec<(u64, bool, u64)> =
            loops.iter_mut().flat_map(|l| l.samples.drain(..)).collect();
        let (r, w) = (
            kind_percentiles(&samples, false),
            kind_percentiles(&samples, true),
        );
        for (k, v) in [r.0, r.1, w.0, w.1].into_iter().enumerate() {
            lat[k].push(v);
        }
        setups.between_rounds(secs_since(t_run))?;
    }
    let rss = peak_rss_mib();
    let setups = setups.finish()?;

    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    o.attempted = ops;
    collect_failures(&mut o, &mut loops);
    let writes: u64 = loops.iter().map(|l| l.writes_ok).sum();
    o.note_rounds(&rounds);
    o.note(
        "latency_us_median_of_rounds",
        format!(
            "{{\"read_p50\": {}, \"read_p99\": {}, \"write_p50\": {}, \"write_p99\": {}}}",
            median(&lat[0]),
            median(&lat[1]),
            median(&lat[2]),
            median(&lat[3])
        ),
    );
    o.note("write_share", (writes as f64 / ops as f64).to_string());
    o.note(
        "busy",
        loops.iter().map(|l| l.busy).sum::<u64>().to_string(),
    );
    final_checks(&mut o, served, loops);
    end_to_end(&mut o.metrics, &setups, &rounds, rss);
    Ok(o)
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::traced();
    let dir = Path::new(OUT_DIR).join("serve-wal");
    let obs = Obs::new();
    let tracer = Tracer::with_capacity(1, 1 << 19);
    let served = setup(args.seed, &dir, &obs, tracer.clone())?;
    let mut loops = open_loops(&served, args.seed)?;

    // Untraced rounds: per-kind latencies and CPU per request.
    let mut plain_wall = Vec::new();
    let mut plain_cpu = Cpu::default();
    let mut plain_attempted = 0u64;
    for _ in 0..TRACED_ROUNDS {
        let r = round(&mut loops, ROUND_PER_CLIENT, false);
        plain_wall.push(r.wall_s);
        plain_attempted += r.ops;
        plain_cpu.user += r.cpu.user;
        plain_cpu.sys += r.cpu.sys;
    }
    let plain: Vec<(u64, bool, u64)> = loops
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let plain_ops = plain.len().max(1) as f64;

    // Traced rounds: every request carries a trace context; the server's
    // stage spans are matched to the client's round trips by trace id.
    let mut traced_wall = Vec::new();
    let mut stage_sum = [0.0f64; STAGES.len()];
    let mut rtt_sum = 0.0;
    let mut matched = 0u64;
    let mut others = Vec::new();
    let mut rtts = Vec::new();
    let _ = tracer.drain();
    for chunk in 0..TRACED_ROUNDS * ROUND_PER_CLIENT / TRACE_CHUNK {
        for l in loops.iter_mut() {
            l.samples.clear();
        }
        let w = round(&mut loops, TRACE_CHUNK, true).wall_s;
        if chunk % (ROUND_PER_CLIENT / TRACE_CHUNK) == 0 {
            traced_wall.push(0.0);
        }
        *traced_wall.last_mut().expect("pushed above") += w;
        // Let the last responses' `server.write` spans land, then drain
        // the rings before they can wrap.
        std::thread::sleep(Duration::from_millis(2));
        // Per trace: summed duration of each stage, and which stages
        // were seen (a request counts only when all five were).
        let mut per_trace: HashMap<u64, ([u64; STAGES.len()], u8)> = HashMap::new();
        for span in tracer.drain() {
            if let Some(k) = STAGES.iter().position(|s| *s == span.stage) {
                let e = per_trace.entry(span.trace_id).or_default();
                e.0[k] += span.dur_ns();
                e.1 |= 1 << k;
            }
        }
        for (rtt, _, id) in loops.iter().flat_map(|l| l.samples.iter().copied()) {
            let Some((st, seen)) = per_trace.get(&id) else {
                continue;
            };
            if u32::from(*seen) != (1 << STAGES.len()) - 1 {
                continue;
            }
            matched += 1;
            let mut inside = 0.0;
            for (k, &d) in st.iter().enumerate() {
                stage_sum[k] += d as f64 / 1e3;
                inside += d as f64 / 1e3;
            }
            let rtt_us = rtt as f64 / 1e3;
            rtt_sum += rtt_us;
            others.push(rtt_us - inside);
            rtts.push(rtt_us);
        }
    }
    if tracer.dropped() > 0 {
        o.check("trace", vec![format!("{} spans dropped", tracer.dropped())]);
    }
    let stats_json = match Client::connect(served.server.local_addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.call(&Request::StatsJson).map_err(|e| e.to_string()))
    {
        Ok(Response::StatsJsonOk { json }) => json,
        other => {
            o.check("stats_json", vec![format!("unexpected {other:?}")]);
            String::new()
        }
    };
    let traced_ops = (TRACED_ROUNDS * ROUND_PER_CLIENT * CLIENTS) as u64;
    o.attempted = plain_attempted + traced_ops;
    collect_failures(&mut o, &mut loops);
    let writes: u64 = loops.iter().map(|l| l.writes_ok).sum();
    let attempts: u64 = loops.iter().map(|l| l.attempts).sum();

    let m = &mut o.metrics;
    let n = matched.max(1) as f64;
    for (k, name) in [
        "server.decode_us",
        "server.queue_us",
        "server.gate_us",
        "server.service_us",
        "server.write_us",
    ]
    .iter()
    .enumerate()
    {
        m.put(name, stage_sum[k] / n, "us");
    }
    let other = (rtt_sum - stage_sum.iter().sum::<f64>()) / n;
    m.put("wire.other_us", other, "us");
    m.put("wire.other_share", other / (rtt_sum / n), "ratio");
    let (r50, r99) = kind_percentiles(&plain, false);
    let (w50, w99) = kind_percentiles(&plain, true);
    m.put("serve.read_p50_us", r50, "us");
    m.put("serve.write_p50_us", w50, "us");
    m.put("serve.read_p99_us", r99, "us");
    m.put("serve.write_p99_us", w99, "us");
    m.put(
        "serve.busy",
        obs.counter("serve.busy").get() as f64,
        "count",
    );
    m.put(
        "process.user_us_per_op",
        plain_cpu.user * 1e6 / plain_ops,
        "us",
    );
    m.put(
        "process.sys_us_per_op",
        plain_cpu.sys * 1e6 / plain_ops,
        "us",
    );
    m.put(
        "mem.verify.attempts_per_write",
        attempts as f64 / writes.max(1) as f64,
        "count",
    );
    m.put(
        "mem.reads",
        json_shard_sum(&stats_json, "reads") as f64,
        "count",
    );
    m.put(
        "mem.writes",
        json_shard_sum(&stats_json, "writes") as f64,
        "count",
    );
    m.put(
        "surrogate.hits",
        json_u64(&stats_json, "surrogate_hits").unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "surrogate.misses",
        json_u64(&stats_json, "surrogate_misses").unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "durable.wal.appends",
        obs.counter("durable.wal.appends").get() as f64,
        "count",
    );
    m.put(
        "trace.overhead_pct",
        (median(&traced_wall) / median(&plain_wall) - 1.0) * 100.0,
        "%",
    );
    rtts.sort_by(f64::total_cmp);
    others.sort_by(f64::total_cmp);
    let med_rtt = percentile(&rtts, 50.0);
    o.note(
        "attribution",
        format!(
            "{{\"matched\": {matched}, \"of\": {traced_ops}, \"mean_rtt_us\": {}, \"median_rtt_us\": {med_rtt}, \"median_wire_other_us\": {}, \"median_wire_other_share\": {}}}",
            rtt_sum / n,
            percentile(&others, 50.0),
            percentile(&others, 50.0) / med_rtt
        ),
    );
    o.note("stats_json", stats_json.clone());
    final_checks(&mut o, served, loops);
    probes::measure(&mut o, args.seed);
    Ok(o)
}
