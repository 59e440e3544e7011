//! The metric catalogue and the per-layer metrics read from the obs
//! registry. Every untraced run reports each [`END_TO_END`] metric and
//! every traced run each [`PER_LAYER`] metric; a layer a workload
//! bypasses reads 0.

use crate::harness::{counter_sum, frac, Metrics, Tally, MIB};
use ebtrain_core::AdaptiveTrainer;
use ebtrain_obs::Snapshot;

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("peak_activation_mib", "MiB"),
    ("activation_ratio", "ratio"),
    ("loss_final", "1"),
    ("store_ms_p50", "ms"),
    ("fetch_ms_p50", "ms"),
    ("serve_mib_per_s", "MiB/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name, unit.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("dnn.forward_ms", "ms"),
    ("dnn.backward_ms", "ms"),
    ("dnn.optimizer_ms", "ms"),
    ("dnn.store.save_ms", "ms"),
    ("dnn.store.load_ms", "ms"),
    ("dnn.compute_ms", "ms"),
    ("codec.compress_ms", "ms"),
    ("codec.decompress_ms", "ms"),
    ("codec.calls", "count"),
    ("codec.compress_mib_per_s", "MiB/s"),
    ("sz.quantize_ms", "ms"),
    ("encoding.range_frac", "frac"),
    ("membudget.compress_ms", "ms"),
    ("membudget.decompress_ms", "ms"),
    ("membudget.demotions", "count"),
    ("membudget.evictions_host", "count"),
    ("membudget.prefetch_hit_frac", "frac"),
    ("membudget.demote_ratio", "ratio"),
    ("core.step_ms", "ms"),
    ("core.eb_geomean", "abs"),
    ("dist.encode_ms", "ms"),
    ("dist.decode_ms", "ms"),
    ("dist.wire_ms", "ms"),
    ("dist.wait_ms", "ms"),
    ("dist.bytes_per_step", "B"),
    ("dist.reduction", "ratio"),
    ("dist.messages_per_step", "count"),
    ("serve.store_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.frame_errors", "count"),
    ("pool.tasks", "count"),
    ("pool.task_ms", "ms"),
    ("pool.queue_depth_peak", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.spans", "count"),
];

/// Put `got` in catalogue order. A catalogue entry a workload did not
/// report reads 0 for a per-layer metric and fails the run for an
/// end-to-end one (those are never 0); a name outside the catalogue or
/// with the wrong unit fails the run too.
pub fn complete(
    catalogue: &[(&str, &str)],
    got: Metrics,
    zero_fill: bool,
    tally: &mut Tally,
) -> Metrics {
    let mut out = Metrics::default();
    for m in &got.list {
        let known = catalogue.iter().any(|&(n, u)| n == m.name && u == m.unit);
        tally.record(known, || {
            format!("metric {} [{}] is not in the catalogue", m.name, m.unit)
        });
    }
    for &(name, unit) in catalogue {
        match got.list.iter().find(|m| m.name == name) {
            Some(m) => out.add(name, m.value, unit),
            None => {
                tally.record(zero_fill, || format!("end-to-end metric {name} missing"));
                out.add(name, 0.0, unit);
            }
        }
    }
    out.tails = got.tails;
    out
}

/// Per-layer metrics the obs registry delta of a traced window gives
/// for every workload. `per` is the number of steps or rounds in it;
/// `queue_peak` is the window's `pool.queue_depth` high-water mark
/// ([`QueuePeak`]).
pub fn common(m: &mut Metrics, delta: &Snapshot, per: f64, queue_peak: i64) {
    let per = per.max(1.0);
    let compress = delta.span_stats("codec.compress");
    let decompress = delta.span_stats("codec.decompress");
    m.ms("codec.compress_ms", compress.total_nanos as f64 / per);
    m.ms("codec.decompress_ms", decompress.total_nanos as f64 / per);
    m.add(
        "codec.calls",
        (compress.count + decompress.count) as f64 / per,
        "count",
    );
    m.add(
        "codec.compress_mib_per_s",
        frac(
            compress.total_bytes as f64 / MIB,
            compress.total_nanos as f64 / 1e9,
        ),
        "MiB/s",
    );
    m.ms("sz.quantize_ms", delta.nanos("sz.quantize") as f64 / per);
    let range = delta.counter("encoding.entropy.range") as f64;
    let huffman = delta.counter("encoding.entropy.huffman") as f64;
    m.add("encoding.range_frac", frac(range, range + huffman), "frac");

    m.ms(
        "membudget.compress_ms",
        delta.nanos("membudget.compress") as f64 / per,
    );
    m.ms(
        "membudget.decompress_ms",
        delta.nanos("membudget.decompress") as f64 / per,
    );
    m.add(
        "membudget.demotions",
        delta.counter("membudget.demotions") as f64 / per,
        "count",
    );
    m.add(
        "membudget.evictions_host",
        delta.counter("membudget.evictions_host") as f64 / per,
        "count",
    );
    let hits = [
        "membudget.hits.hot",
        "membudget.hits.warm",
        "membudget.hits.host",
    ]
    .iter()
    .map(|k| delta.counter(k))
    .sum::<u64>() as f64;
    let prefetch = delta.counter("membudget.prefetch.hits") as f64;
    m.add(
        "membudget.prefetch_hit_frac",
        frac(prefetch, prefetch + hits),
        "frac",
    );

    m.ms("dist.encode_ms", delta.nanos("dist.encode") as f64 / per);
    m.ms("dist.decode_ms", delta.nanos("dist.decode") as f64 / per);
    m.ms(
        "dist.wire_ms",
        delta.counter("dist.wire.nanos") as f64 / per,
    );
    m.ms(
        "dist.wait_ms",
        delta.counter("dist.wait.nanos") as f64 / per,
    );

    m.add(
        "serve.rejected",
        counter_sum(delta, "serve.rejected.") as f64,
        "count",
    );
    m.add(
        "serve.frame_errors",
        delta.counter("serve.frame_errors") as f64,
        "count",
    );

    let pool = delta.span_stats("pool.task");
    m.add(
        "pool.tasks",
        delta.counter("pool.tasks") as f64 / per,
        "count",
    );
    m.ms(
        "pool.task_ms",
        frac(pool.total_nanos as f64, pool.count as f64),
    );
    m.add("pool.queue_depth_peak", queue_peak.max(0) as f64, "count");

    let spans: u64 = delta.spans().map(|(_, s)| s.count).sum();
    m.add("obs.spans", spans as f64 / per, "count");
}

/// `core.step_ms` (mean `core.step` span) and `core.eb_geomean` (the
/// geometric mean of the controller's current per-layer bounds).
pub fn core(m: &mut Metrics, delta: &Snapshot, trainer: &AdaptiveTrainer) {
    let step = delta.span_stats("core.step");
    m.ms(
        "core.step_ms",
        frac(step.total_nanos as f64, step.count as f64),
    );
    let ebs: Vec<f64> = trainer
        .plan_entries()
        .iter()
        .map(|e| e.error_bound as f64)
        .filter(|&e| e > 0.0)
        .collect();
    let geomean = if ebs.is_empty() {
        0.0
    } else {
        (ebs.iter().map(|e| e.ln()).sum::<f64>() / ebs.len() as f64).exp()
    };
    m.add("core.eb_geomean", geomean, "abs");
}

/// The high-water mark of `pool.queue_depth` over a traced window.
///
/// The trainers take the gauge's watermark themselves at the end of
/// every step and file it in their flight record, so on a training
/// workload the window's peak is the largest of those records; a take
/// at the end of the window would only see what came after the last
/// step's take. Where no trainer takes it (`train_raw`, `serve_mixed`)
/// the window's own take at its end is the peak.
pub struct QueuePeak(i64);

impl QueuePeak {
    /// Start a window: clear the watermark.
    pub fn start() -> QueuePeak {
        let _ = ebtrain_obs::gauge_peak_take("pool.queue_depth");
        QueuePeak(0)
    }

    /// Fold in the flight records the step just finished filed: the
    /// newest `records` of the ring (one per `core.step` or
    /// `dist.step` report).
    pub fn after_step(&mut self, records: usize) {
        let ring = ebtrain_obs::flight_records();
        let newest = ring.iter().rev().take(records);
        for r in newest.filter(|r| r.source == "core.step" || r.source == "dist.step") {
            self.0 = self.0.max(r.queue_depth_peak);
        }
    }

    /// End the window: the peak of the folded records and of whatever
    /// the watermark held since the last take.
    pub fn finish(self) -> i64 {
        self.0.max(ebtrain_obs::gauge_peak_take("pool.queue_depth"))
    }
}
