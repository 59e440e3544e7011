//! Result helpers: percentiles with the tail rule, self-time arithmetic,
//! metric-name validation and the result JSON (written by hand, read
//! back through `ebtrain_obs::json`).

use ebtrain_obs::json::{self, Value};

/// Samples a tail percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Number of samples strictly beyond the nearest-rank `q`-quantile of
/// `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// Smallest sample count whose `q`-quantile leaves [`TAIL_SAMPLES`]
/// samples beyond it.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= TAIL_SAMPLES)
        .expect("q < 1")
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place). `None`
/// when empty.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Some(samples[nearest_rank(samples.len(), q) - 1])
}

/// Median of `samples` (sorted in place); the mean of the middle two
/// for an even count. `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of a parent span: its duration minus the part of it that
/// child spans cover. Children may overlap each other and may stick out
/// of the parent; only their union inside the parent is subtracted.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let (ps, pe) = parent;
    if pe <= ps {
        return 0;
    }
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<Interval> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps) - covered
}

/// True when `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a run was and where it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Meta {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub profile: String,
    pub git_rev: String,
    pub rayon_threads: String,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub meta: Meta,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunResult {
    /// The one-line summary object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. Values print with every digit (Rust's
    /// shortest round-trip form).
    pub fn summary_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record (summary plus `meta`) kept in the result file.
    pub fn record_json(&self) -> String {
        let m = &self.meta;
        let summary = self.summary_json();
        format!(
            "{}, \"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {}, \"profile\": {}, \"git_rev\": {}, \"rayon_num_threads\": {}}}}}",
            &summary[..summary.len() - 1],
            json_str(&m.workload),
            m.seed,
            m.seconds,
            m.trace,
            m.nproc,
            json_str(&m.profile),
            json_str(&m.git_rev),
            json_str(&m.rayon_threads),
        )
    }

    /// Parse a record written by [`record_json`](Self::record_json).
    pub fn parse_record(text: &str) -> Result<RunResult, String> {
        let v = json::parse(text)?;
        let num = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number {key}"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {key}"))
        };
        let flag = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("missing bool {key}")),
        };
        let metrics = match v.get("metrics") {
            Some(Value::Obj(members)) => members
                .iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        name: name.clone(),
                        value: num(m, "value")?,
                        unit: text_of(m, "unit")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing metrics object".into()),
        };
        let meta = v.get("meta").ok_or("missing meta")?;
        Ok(RunResult {
            correct: flag(&v, "correct")?,
            attempted: num(&v, "attempted")? as u64,
            failed: num(&v, "failed")? as u64,
            metrics,
            meta: Meta {
                workload: text_of(meta, "workload")?,
                seed: num(meta, "seed")? as u64,
                seconds: num(meta, "seconds")? as u64,
                trace: flag(meta, "trace")?,
                nproc: num(meta, "nproc")? as usize,
                profile: text_of(meta, "profile")?,
                git_rev: text_of(meta, "git_rev")?,
                rayon_threads: text_of(meta, "rayon_num_threads")?,
            },
        })
    }
}
