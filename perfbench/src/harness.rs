//! Shared plumbing of the workloads: command line, pass/fail tally,
//! metric collection, set-up timing, timed loops, bypass checks and the
//! run description.

use crate::report::{self, Meta, Metric, RunResult};
use ebtrain_obs::Snapshot;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["train_raw", "train_sz", "dist_sz", "serve_mixed"];

/// Set-ups per run: at least [`SETUP_MIN_REPS`], and more until they
/// took [`SETUP_MIN_SECS`] in all (at most [`SETUP_MAX_REPS`]).
/// `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 11;
pub const SETUP_MIN_SECS: f64 = 2.0;
pub const SETUP_MAX_REPS: usize = 201;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a u64")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {}, or all)",
                WORKLOADS.join(", ")
            ));
        }
        let seconds: u64 = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }

    /// The measuring window of one phase. Traced runs split `--seconds`
    /// between an untraced and a traced phase.
    pub fn phase_duration(&self) -> Duration {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            total / 2
        } else {
            total
        }
    }
}

/// Operations attempted and failed, plus failed output checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation or output check; keep the first few
    /// failure messages.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Count an operation's result.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.record(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.record(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Metrics in the order they are added, and the tail percentiles of
/// the end-to-end times with their sample counts. The tails are printed
/// but are not metrics of the result line: on a 2-core shared host they
/// measure the host's busy spells more than the program (see the
/// README).
#[derive(Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    pub tails: Vec<(Metric, usize)>,
}

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &str) {
        self.list.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn ms(&mut self, name: &str, nanos: f64) {
        self.add(name, nanos / 1e6, "ms");
    }

    /// `<prefix>_ms_p50` of nanosecond samples (sorted in place), and
    /// as a tail `<prefix>_ms_p90`, which the tail rule allows from 100
    /// samples on.
    pub fn latency(&mut self, prefix: &str, ns: &mut [f64]) {
        self.ms(
            &format!("{prefix}_ms_p50"),
            report::median(ns).unwrap_or(0.0),
        );
        if report::samples_beyond(ns.len(), 0.9) >= report::TAIL_SAMPLES {
            let p90 = report::percentile(ns, 0.9).unwrap_or(0.0);
            let tail = Metric {
                name: format!("{prefix}_ms_p90"),
                value: p90 / 1e6,
                unit: "ms".into(),
            };
            self.tails.push((tail, ns.len()));
        }
    }
}

/// Run `build` as often as the `SETUP_*` constants ask; return the
/// last product and the median wall time in seconds, scaled by the
/// share of CPU time the host granted meanwhile ([`Steal`]). Earlier
/// products are handed to `discard` outside the timed region.
pub fn timed_setup<T>(mut build: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let steal = Steal::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MAX_REPS
        && (times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_SECS)
    {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    let secs = report::median(&mut times).expect("at least one set-up");
    (last.expect("at least one set-up"), secs * steal.granted())
}

/// A timed loop: keeps going until `window` has passed **and** at least
/// `min_iters` iterations ran, but stops at `hard_cap` regardless.
pub struct Loop {
    start: Instant,
    steal: Steal,
    window: Duration,
    hard_cap: Duration,
    min_iters: usize,
    pub iters: usize,
}

impl Loop {
    pub fn new(window: Duration, min_iters: usize) -> Loop {
        Loop {
            start: Instant::now(),
            steal: Steal::now(),
            window,
            hard_cap: window * 4 + Duration::from_secs(20),
            min_iters,
            iters: 0,
        }
    }

    /// A loop of exactly `iters` iterations (unless the hard cap of a
    /// `window`-long loop passes first).
    pub fn steps(iters: usize, window: Duration) -> Loop {
        Loop {
            window: Duration::ZERO,
            ..Loop::new(window, iters)
        }
    }

    /// True while another iteration should run.
    pub fn more(&mut self) -> bool {
        let t = self.start.elapsed();
        let go = t < self.hard_cap && (t < self.window || self.iters < self.min_iters);
        if go {
            self.iters += 1;
        }
        go
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The share of CPU time the host granted since the loop started.
    pub fn granted(&self) -> f64 {
        self.steal.granted()
    }
}

/// The machine's CPU time counters of `/proc/stat`, in clock ticks:
/// time its CPUs spent working, and time they had work but the host's
/// hypervisor ran something else ("steal").
///
/// On a shared virtual machine, steal comes and goes with the load of
/// other guests and stretches every wall-clock time by the same
/// factor, whatever the program does. The benchmark reports times
/// multiplied, and rates divided, by [`Steal::granted`] over the
/// window they were measured in: the wall time the run would have
/// taken had the host granted all the CPU time the machine wanted.
/// Busy and stolen ticks both grow with the CPU time a program asks
/// for, so the factor does not reward a program for using more (or
/// less) CPU, and idle time (a program waiting) does not enter it.
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    busy: u64,
    stolen: u64,
}

impl Steal {
    pub fn now() -> Steal {
        let ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(Steal::parse_cpu_line))
            .unwrap_or((0, 0));
        Steal {
            busy: ticks.0,
            stolen: ticks.1,
        }
    }

    /// Busy and stolen ticks of the aggregate `cpu` line of
    /// `/proc/stat` (user nice system idle iowait irq softirq steal
    /// ...); zeros when it does not parse.
    pub fn parse_cpu_line(line: &str) -> (u64, u64) {
        let mut f = line.split_whitespace();
        if f.next() != Some("cpu") {
            return (0, 0);
        }
        let v: Vec<u64> = f.map_while(|x| x.parse().ok()).collect();
        if v.len() < 8 {
            return (0, 0);
        }
        (v[0] + v[1] + v[2] + v[5] + v[6], v[7])
    }

    /// Busy ticks over busy plus stolen ticks since `self` was taken;
    /// 1 when nothing was counted.
    pub fn granted(&self) -> f64 {
        let now = Steal::now();
        Steal::share(
            now.busy.saturating_sub(self.busy),
            now.stolen.saturating_sub(self.stolen),
        )
    }

    /// `busy / (busy + stolen)`, or 1 when both are 0.
    pub fn share(busy: u64, stolen: u64) -> f64 {
        if busy + stolen == 0 {
            1.0
        } else {
            busy as f64 / (busy + stolen) as f64
        }
    }
}

/// Sum of the counters whose name starts with `prefix`.
pub fn counter_sum(delta: &Snapshot, prefix: &str) -> u64 {
    delta
        .counters()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Sum of span and counter events whose name starts with `prefix`.
fn events_with_prefix(delta: &Snapshot, prefix: &str) -> u64 {
    let spans: u64 = delta
        .spans()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, s)| s.count)
        .sum();
    spans + counter_sum(delta, prefix)
}

/// Assert zero (or non-zero) registry events under each prefix.
pub fn bypass_check(
    tally: &mut Tally,
    delta: &Snapshot,
    workload: &str,
    zero: &[&str],
    some: &[&str],
) {
    for p in zero {
        let n = events_with_prefix(delta, p);
        tally.record(n == 0, || {
            format!("{workload} bypass: {n} {p}* events, want 0")
        });
    }
    for p in some {
        let n = events_with_prefix(delta, p);
        tally.record(n > 0, || format!("{workload}: no {p}* events"));
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Describe the run: seed, host cores, build profile, git rev and the
/// thread knob.
pub fn meta(args: &Args) -> Meta {
    Meta {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug".into()
        } else {
            "release".into()
        },
        git_rev: git_rev(),
        rayon_threads: std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
    }
}

/// Assemble the result, checking every metric name and value.
pub fn finish(args: &Args, mut tally: Tally, metrics: Metrics) -> RunResult {
    for m in &metrics.list {
        tally.record(report::valid_name(&m.name) && m.value.is_finite(), || {
            format!("metric {} = {} is not reportable", m.name, m.value)
        });
    }
    for f in &tally.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: metrics.list,
        meta: meta(args),
    }
}
