//! Clocks, process counters and order statistics shared by the workloads.

use std::fmt::Write as _;
use std::time::Instant;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long` counters.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User and system CPU time of the whole process (every thread), seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds.
    pub sys: f64,
}

impl Cpu {
    /// Reads the process's CPU times so far.
    #[must_use]
    pub fn now() -> Cpu {
        let mut ru = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            rest: [0; 14],
        };
        // SAFETY: `ru` is a writable, properly aligned `struct rusage`
        // (the `repr(C)` layout above matches Linux on 64-bit targets), and
        // `getrusage` writes only inside it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Cpu {
            user: secs(ru.utime),
            sys: secs(ru.stime),
        }
    }

    /// User plus system seconds.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }

    /// CPU spent since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `t0`.
#[must_use]
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be in
/// ascending order: the smallest sample with at least `p`% of the samples
/// at or below it. 0 when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One measured round: its wall time, the process CPU it took, and the
/// operations it completed.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU over the round.
    pub cpu: Cpu,
    /// Operations completed.
    pub ops: u64,
}

/// The end-to-end metrics of a run, each the median over its rounds:
/// `setup_s` (median of `setups`), `wall_s` and `cpu_s` per round,
/// `ops_per_s` and `cpu_us_per_op` per round, and the process's
/// `peak_rss_mb` (read at the end of the measured phase).
pub fn end_to_end(m: &mut Metrics, setups: &[f64], rounds: &[Round], rss_mib: f64) {
    let over = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    m.put("setup_s", median(setups), "s");
    m.put("wall_s", over(&|r| r.wall_s), "s");
    m.put("cpu_s", over(&|r| r.cpu.total()), "s");
    m.put("peak_rss_mb", rss_mib, "MiB");
    m.put("ops_per_s", over(&|r| r.ops as f64 / r.wall_s), "1/s");
    m.put(
        "cpu_us_per_op",
        over(&|r| r.cpu.total() * 1e6 / r.ops as f64),
        "us",
    );
}

/// `[x, y, ...]` with every digit.
#[must_use]
pub fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Times `f` over `iters` calls and returns nanoseconds per call.
pub fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Set-up time of `workload`: wall seconds for a fresh process of this
/// benchmark to start, set the workload up and exit, once per element.
///
/// # Errors
///
/// When a child cannot be started or exits unsuccessfully.
pub fn setup_times(workload: &str, seed: u64, times: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::with_capacity(times);
    for _ in 0..times {
        let t0 = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["--setup-only", workload, &seed.to_string()])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot start the set-up child: {e}"))?;
        out.push(secs_since(t0));
        if !status.success() {
            return Err(format!("the {workload} set-up child failed: {status}"));
        }
    }
    Ok(out)
}

/// Fresh-process set-ups spread over a run, so that `setup_s` samples the
/// host over the same stretch of time as the measured rounds rather than
/// at one instant before them. A run takes `batches` batches of
/// `per_batch` set-ups: the first before its rounds, the next ones between
/// rounds as the run passes each further `1 / batches` of its length, and
/// any still missing after its last round, so every run times the same
/// number of set-ups whatever its length. A workload whose rounds are
/// long may poll more often, for instance between the operations of a
/// round, as long as the set-ups stay outside its clocks.
#[derive(Debug)]
pub struct SetupSampler {
    workload: &'static str,
    seed: u64,
    per_batch: usize,
    batches: usize,
    taken: usize,
    seconds: f64,
    times: Vec<f64>,
}

impl SetupSampler {
    /// Takes the first batch.
    ///
    /// # Errors
    ///
    /// As [`setup_times`].
    pub fn start(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        batches: usize,
        per_batch: usize,
    ) -> Result<SetupSampler, String> {
        let mut s = SetupSampler {
            workload,
            seed,
            per_batch,
            batches: batches.max(1),
            taken: 0,
            seconds,
            times: Vec::with_capacity(batches * per_batch),
        };
        s.batch()?;
        Ok(s)
    }

    fn batch(&mut self) -> Result<(), String> {
        let t = setup_times(self.workload, self.seed, self.per_batch)?;
        self.times.extend(t);
        self.taken += 1;
        Ok(())
    }

    /// Called between rounds (or operations) with the run's elapsed
    /// seconds: takes the batches whose share of the run has passed.
    ///
    /// # Errors
    ///
    /// As [`setup_times`].
    pub fn between_rounds(&mut self, elapsed: f64) -> Result<(), String> {
        while self.taken < self.batches
            && elapsed >= self.seconds * self.taken as f64 / self.batches as f64
        {
            self.batch()?;
        }
        Ok(())
    }

    /// Takes the batches still missing and returns every set-up time.
    ///
    /// # Errors
    ///
    /// As [`setup_times`].
    pub fn finish(mut self) -> Result<Vec<f64>, String> {
        while self.taken < self.batches {
            self.batch()?;
        }
        Ok(self.times)
    }
}

/// Metric values in the order they were added, printed as one JSON object.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name`, keeping its position when it is already present.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => *e = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Names whose value is not a finite number.
    #[must_use]
    pub fn non_finite(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_returns_known_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.5), 1.0);
        let ys = [3.0, 7.0, 9.0];
        assert_eq!(percentile(&ys, 50.0), 7.0);
        assert_eq!(percentile(&ys, 99.0), 9.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = Cpu::now();
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let spent = Cpu::now().since(before);
        assert!(spent.total() > 0.0, "{spent:?}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn metrics_print_every_digit() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.234_567_890_123, "s");
        m.put("ops", 12.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \
             \"ops\": {\"value\": 12, \"unit\": \"count\"}}"
        );
    }
}
