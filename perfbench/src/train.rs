//! `train_raw` and `train_sz`: single-worker training of `tiny_vgg` at
//! 32 px on `SynthImageNet`, with a raw store (the baseline) and with
//! the paper's adaptive compressed framework.

use crate::harness::{self, Args, Loop, Metrics, Tally, MIB};
use crate::layers::{self, QueuePeak};
use crate::report::{self, Interval};
use crate::timing::{extent, span_ns, Clock, TimingStore};
use ebtrain_core::{AdaptiveTrainer, FrameworkConfig};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::{BackwardContext, CompressionPlan, ForwardContext};
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::network::Network;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::{ActivationStore, RawStore};
use ebtrain_dnn::train::train_step;
use ebtrain_dnn::zoo;
use ebtrain_tensor::Tensor;

pub const CLASSES: usize = 10;
/// Per-worker batch of every training workload.
pub const BATCH: usize = 8;
/// Network initialisation seed (the workload seed drives the data).
pub const NET_SEED: u64 = 7;
/// Distinct batches generated at set-up and cycled through.
pub const N_BATCHES: usize = 64;
/// Untimed warm-up steps.
pub const WARMUP: usize = 3;
/// Untimed warm-up steps of the workloads that run the adaptive
/// controller (`train_sz`, `dist_sz`): through its third collection
/// (iterations 0, `W` and 2`W`). Until then its bounds have not settled
/// and steps compress and decompress markedly slower; a seed-dependent
/// number of such steps would otherwise move the timed figures.
pub const WARMUP_ADAPTIVE: usize = 2 * W_INTERVAL + 1;
/// Steps (counted from the first warm-up step) whose mean loss is
/// `loss_final`. A fixed window keeps the figure bit-deterministic for
/// a seed however many steps the time budget allows; an early one keeps
/// it close across seeds (later losses depend more on which samples a
/// seed drew).
pub const LOSS_WINDOW: std::ops::Range<usize> = 0..24;
/// Controller collection interval `W` of `train_sz` and `dist_sz`:
/// several collections per run, and collection steps (the slow ones)
/// stay a small share of the timed steps.
pub const W_INTERVAL: usize = 20;

/// Class prototypes of the synthetic dataset. Fixed, so that every
/// seed trains on the same task and figures stay comparable across
/// seeds; the workload seed picks the samples.
pub const DATASET_SEED: u64 = 47;

/// The `n` batches of `batch` images a run cycles through: consecutive
/// samples of the dataset's stream from a seed-chosen offset.
pub fn make_batches(seed: u64, n: usize, batch: usize) -> Vec<(Tensor, Vec<usize>)> {
    let data = SynthImageNet::new(SynthConfig {
        classes: CLASSES,
        image_hw: 32,
        noise: 0.2,
        seed: DATASET_SEED,
    });
    let start = seed.wrapping_mul(1 << 20);
    (0..n)
        .map(|i| data.batch(start.wrapping_add((i * batch) as u64), batch))
        .collect()
}

/// Minimum timed steps: as many as the tail rule asks of a p90 (100),
/// and enough to reach the end of the loss window.
pub fn min_timed_steps() -> usize {
    report::min_samples_for_tail(0.9).max(LOSS_WINDOW.end - WARMUP)
}

/// Steps per `--seconds` of the untraced `train_raw` and `train_sz`
/// runs (about 8 a second on the 2-core development host).
pub const STEPS_PER_S: u64 = 8;

/// The timed loop of an untraced training run: a fixed number of steps,
/// `steps_per_s` per `--seconds` but never fewer than
/// [`min_timed_steps`], so that every run of a seed does the same work
/// however fast the host runs. (The controller's bounds, and with them
/// the codec's work per step, change as training goes on: a run that
/// stopped on time would do cheaper late steps only when the host ran
/// fast.)
pub fn timed_loop(args: &Args, steps_per_s: u64) -> Loop {
    let n = (args.seconds * steps_per_s) as usize;
    Loop::steps(n.max(min_timed_steps()), args.phase_duration())
}

/// Minimum steps of each phase of a traced run, which compares medians
/// only.
pub fn min_traced_steps() -> usize {
    report::min_samples_for_tail(0.5)
}

/// Mean of the losses whose step index falls in [`LOSS_WINDOW`].
pub fn loss_final(losses: &[f32]) -> f64 {
    // A run cut short by a failed step (already counted) averages what
    // it has.
    let w = losses.get(LOSS_WINDOW).unwrap_or(losses);
    w.iter().map(|&l| l as f64).sum::<f64>() / w.len().max(1) as f64
}

/// One timed step: wall time and the time it spent storing and fetching
/// activations (or gradient segments) in ns, and its peak store bytes.
pub struct Step {
    pub ns: f64,
    pub store_ns: f64,
    pub fetch_ns: f64,
    pub peak: usize,
}

/// Per-step samples of a training run (see [`Step`]).
#[derive(Default)]
pub struct StepTimes {
    pub step: Vec<f64>,
    pub store: Vec<f64>,
    pub fetch: Vec<f64>,
}

impl StepTimes {
    pub fn push(&mut self, st: &Step) {
        self.step.push(st.ns);
        self.store.push(st.store_ns);
        self.fetch.push(st.fetch_ns);
    }

    /// `samples_per_s` and the step, store and fetch medians, with
    /// times scaled by `granted` (see [`harness::Steal`]).
    pub fn report(mut self, m: &mut Metrics, images_per_step: usize, elapsed_s: f64, granted: f64) {
        let images = self.step.len() * images_per_step;
        m.add(
            "samples_per_s",
            images as f64 / (elapsed_s * granted),
            "1/s",
        );
        for v in [&mut self.step, &mut self.store, &mut self.fetch] {
            v.iter_mut().for_each(|t| *t *= granted);
        }
        m.latency("step", &mut self.step);
        m.latency("store", &mut self.store);
        m.latency("fetch", &mut self.fetch);
    }
}

struct RawSetup {
    batches: Vec<(Tensor, Vec<usize>)>,
    net: Network,
    opt: Sgd,
    store: TimingStore<RawStore>,
}

fn raw_setup(seed: u64, clock: Clock) -> RawSetup {
    RawSetup {
        batches: make_batches(seed, N_BATCHES, BATCH),
        net: zoo::tiny_vgg(CLASSES, NET_SEED),
        opt: Sgd::new(SgdConfig::default()),
        store: TimingStore::new(RawStore::new(), clock),
    }
}

/// One `train_step` on the raw store; returns the loss and the step's
/// peak store bytes.
fn raw_step(
    s: &mut RawSetup,
    head: &SoftmaxCrossEntropy,
    plan: &CompressionPlan,
    i: usize,
) -> ebtrain_dnn::Result<(f32, usize)> {
    let (x, labels) = &s.batches[i % s.batches.len()];
    let x = x.clone();
    let r = train_step(
        &mut s.net,
        head,
        &mut s.opt,
        &mut s.store,
        plan,
        x,
        labels,
        false,
    )?;
    Ok((r.loss, r.peak_store_bytes))
}

/// Time of each part of one composed step, in ns.
#[derive(Default, Clone, Copy)]
struct Parts {
    forward: u64,
    backward: u64,
    optimizer: u64,
    save: u64,
    load: u64,
    compute: u64,
}

/// The calls `train_step` makes, composed here and timed one by one.
/// Must produce the same losses as `train_step`, bit for bit.
fn composed_step(
    s: &mut RawSetup,
    head: &SoftmaxCrossEntropy,
    plan: &CompressionPlan,
    clock: &Clock,
    i: usize,
) -> ebtrain_dnn::Result<(f32, Parts)> {
    let (x, labels) = &s.batches[i % s.batches.len()];
    let x = x.clone();
    s.store.clear_intervals();
    let t0 = clock.now();
    s.store.reset_peak();
    let logits = {
        let mut fctx = ForwardContext {
            store: &mut s.store,
            training: true,
            collect: false,
            plan,
        };
        s.net.forward(x, &mut fctx)?
    };
    let (loss, dlogits) = head.loss(&logits, labels)?;
    let t1 = clock.now();
    {
        let mut bctx = BackwardContext {
            store: &mut s.store,
            collect: false,
            grad_ready: None,
        };
        s.net.backward(dlogits, &mut bctx)?;
    }
    let t2 = clock.now();
    s.opt.step(s.net.params_mut());
    s.net.zero_grads();
    let t3 = clock.now();
    let children: Vec<Interval> = s
        .store
        .saves
        .iter()
        .chain(&s.store.loads)
        .copied()
        .collect();
    Ok((
        loss,
        Parts {
            forward: t1 - t0,
            backward: t2 - t1,
            optimizer: t3 - t2,
            save: s.store.saves.iter().map(|&c| span_ns(c)).sum(),
            load: s.store.loads.iter().map(|&c| span_ns(c)).sum(),
            compute: report::self_time((t0, t3), &children),
        },
    ))
}

pub fn train_raw(args: &Args, tally: &mut Tally) -> Metrics {
    let clock = Clock::new();
    let head = SoftmaxCrossEntropy::new();
    let plan = CompressionPlan::new();
    let (mut s, setup_s) = harness::timed_setup(|| raw_setup(args.seed, clock), drop);
    let mut m = Metrics::default();
    if args.trace {
        return train_raw_traced(args, tally, s, &head, &plan, &clock);
    }
    m.add("setup_s", setup_s, "s");

    let mut losses = Vec::new();
    for i in 0..WARMUP {
        if let Some((loss, _)) = tally.result("warm-up step", raw_step(&mut s, &head, &plan, i)) {
            losses.push(loss);
        }
    }
    s.store.clear_intervals();
    let before = s.store.metrics();
    let mut times = StepTimes::default();
    let mut peak = 0usize;
    let mut lp = timed_loop(args, STEPS_PER_S);
    while lp.more() {
        let i = WARMUP + lp.iters - 1;
        let t0 = clock.now();
        let r = raw_step(&mut s, &head, &plan, i);
        times.step.push((clock.now() - t0) as f64);
        // The raw store does no work of its own (a save or load is a
        // hash-map move of about a microsecond; the traced run reports
        // those calls): what a step spends putting activations into it
        // and taking them out is the stretch from its first save to the
        // end of its last (the forward pass), and likewise for loads
        // (the backward pass).
        times.store.push(span_ns(extent(&s.store.saves)) as f64);
        times.fetch.push(span_ns(extent(&s.store.loads)) as f64);
        s.store.clear_intervals();
        match tally.result("train step", r) {
            Some((loss, p)) => {
                tally.record(loss.is_finite(), || format!("step {i}: loss {loss}"));
                losses.push(loss);
                peak = peak.max(p);
            }
            None => break,
        }
    }
    let (elapsed, granted) = (lp.elapsed_s(), lp.granted());
    let after = s.store.metrics();
    times.report(&mut m, BATCH, elapsed, granted);
    m.add("peak_activation_mib", peak as f64 / MIB, "MiB");
    m.add(
        "activation_ratio",
        harness::frac(
            (after.compressible_raw_bytes - before.compressible_raw_bytes) as f64,
            (after.compressible_stored_bytes - before.compressible_stored_bytes) as f64,
        ),
        "ratio",
    );
    m.add("loss_final", loss_final(&losses), "1");
    m.add(
        "serve_mib_per_s",
        2.0 * (after.raw_bytes_saved - before.raw_bytes_saved) as f64 / MIB / (elapsed * granted),
        "MiB/s",
    );
    m
}

/// Traced `train_raw`: `train_step` on one network (untraced phase),
/// then the same calls composed and timed one by one on an identical
/// network fed the same batches (traced phase). The two must agree on
/// every loss bit for bit.
fn train_raw_traced(
    args: &Args,
    tally: &mut Tally,
    mut untraced: RawSetup,
    head: &SoftmaxCrossEntropy,
    plan: &CompressionPlan,
    clock: &Clock,
) -> Metrics {
    let mut traced = raw_setup(args.seed, *clock);
    let mut losses_a = Vec::new();
    let mut step_a = Vec::new();
    let mut lp = Loop::new(args.phase_duration(), WARMUP + min_traced_steps());
    while lp.more() {
        let i = lp.iters - 1;
        let t0 = clock.now();
        let r = raw_step(&mut untraced, head, plan, i);
        if i >= WARMUP {
            step_a.push((clock.now() - t0) as f64);
        }
        untraced.store.clear_intervals();
        match tally.result("train step", r) {
            Some((loss, _)) => losses_a.push(loss),
            None => break,
        }
    }
    let granted_a = lp.granted();

    ebtrain_obs::set_trace_enabled(true);
    let queue = QueuePeak::start();
    let obs_before = ebtrain_obs::snapshot();
    let mut losses_b = Vec::new();
    let mut step_b = Vec::new();
    let mut sum = Parts::default();
    let mut lp = Loop::new(args.phase_duration(), losses_a.len());
    while lp.more() {
        let i = lp.iters - 1;
        let t0 = clock.now();
        let r = composed_step(&mut traced, head, plan, clock, i);
        let dt = clock.now() - t0;
        match tally.result("composed step", r) {
            Some((loss, p)) => {
                losses_b.push(loss);
                if i >= WARMUP {
                    step_b.push(dt as f64);
                    sum.forward += p.forward;
                    sum.backward += p.backward;
                    sum.optimizer += p.optimizer;
                    sum.save += p.save;
                    sum.load += p.load;
                    sum.compute += p.compute;
                }
            }
            None => break,
        }
    }
    let delta = ebtrain_obs::snapshot().delta_since(&obs_before);
    let queue_peak = queue.finish();
    ebtrain_obs::set_trace_enabled(false);
    let granted_b = lp.granted();

    let n = losses_a.len().min(losses_b.len());
    let mismatch = (0..n).find(|&k| losses_a[k].to_bits() != losses_b[k].to_bits());
    tally.record(n > WARMUP && mismatch.is_none(), || match mismatch {
        Some(k) => format!(
            "composed step {k} loss {} != train_step loss {}",
            losses_b[k], losses_a[k]
        ),
        None => format!("only {n} steps to compare"),
    });
    harness::bypass_check(
        tally,
        &delta,
        "train_raw",
        &["codec.", "membudget.", "dist.", "serve."],
        &[],
    );

    let steps = step_b.len().max(1) as f64;
    let mut m = Metrics::default();
    m.ms("dnn.forward_ms", sum.forward as f64 / steps);
    m.ms("dnn.backward_ms", sum.backward as f64 / steps);
    m.ms("dnn.optimizer_ms", sum.optimizer as f64 / steps);
    m.ms("dnn.store.save_ms", sum.save as f64 / steps);
    m.ms("dnn.store.load_ms", sum.load as f64 / steps);
    m.ms("dnn.compute_ms", sum.compute as f64 / steps);
    layers::common(&mut m, &delta, steps, queue_peak);
    let p50_a = report::median(&mut step_a).unwrap_or(0.0) * granted_a;
    let p50_b = report::median(&mut step_b).unwrap_or(0.0) * granted_b;
    m.add(
        "obs.trace_overhead_frac",
        harness::frac(p50_b - p50_a, p50_a),
        "frac",
    );
    m
}

fn sz_setup(seed: u64) -> (Vec<(Tensor, Vec<usize>)>, AdaptiveTrainer) {
    let cfg = FrameworkConfig {
        w_interval: W_INTERVAL,
        ..FrameworkConfig::default()
    };
    (
        make_batches(seed, N_BATCHES, BATCH),
        AdaptiveTrainer::new(zoo::tiny_vgg(CLASSES, NET_SEED), SgdConfig::default(), cfg),
    )
}

pub fn train_sz(args: &Args, tally: &mut Tally) -> Metrics {
    let ((batches, mut trainer), setup_s) = harness::timed_setup(|| sz_setup(args.seed), drop);
    let mut losses = Vec::new();
    let step =
        |trainer: &mut AdaptiveTrainer, i: usize, tally: &mut Tally, losses: &mut Vec<f32>| {
            let (x, labels) = &batches[i % batches.len()];
            let x = x.clone();
            let t0 = std::time::Instant::now();
            let r = trainer.step(x, labels);
            let dt = t0.elapsed().as_nanos() as f64;
            let r = tally.result("adaptive step", r)?;
            tally.record(r.loss.is_finite(), || format!("step {i}: loss {}", r.loss));
            losses.push(r.loss);
            // Every compressible save is a codec compress on the stepping
            // thread, every load of one a decompress.
            let (compress, decompress) = trainer.step_report().map_or((0, 0), |r| {
                (r.nanos("codec.compress"), r.nanos("codec.decompress"))
            });
            Some(Step {
                ns: dt,
                store_ns: compress as f64,
                fetch_ns: decompress as f64,
                peak: r.peak_store_bytes,
            })
        };
    // The memory figures cover the whole run, warm-up included: its
    // early steps, under the controller's first bounds, store the most.
    let mut peak = 0usize;
    for i in 0..WARMUP_ADAPTIVE {
        if let Some(st) = step(&mut trainer, i, tally, &mut losses) {
            peak = peak.max(st.peak);
        }
    }
    let mut m = Metrics::default();
    let mut times = StepTimes::default();
    let before = trainer.store_metrics();
    let mut lp = if args.trace {
        Loop::new(args.phase_duration(), min_traced_steps())
    } else {
        timed_loop(args, STEPS_PER_S)
    };
    while lp.more() {
        let i = WARMUP_ADAPTIVE + lp.iters - 1;
        let Some(st) = step(&mut trainer, i, tally, &mut losses) else {
            break;
        };
        times.push(&st);
        peak = peak.max(st.peak);
    }
    let (elapsed, granted) = (lp.elapsed_s(), lp.granted());
    let after = trainer.store_metrics();

    if args.trace {
        let p50_untraced = report::median(&mut times.step).unwrap_or(0.0) * granted;
        ebtrain_obs::set_trace_enabled(true);
        let mut queue = QueuePeak::start();
        let obs_before = ebtrain_obs::snapshot();
        let mut step_ns = Vec::new();
        let mut compute_ns = 0.0;
        let mut lp = Loop::new(args.phase_duration(), 1);
        while lp.more() {
            let i = losses.len();
            let Some(st) = step(&mut trainer, i, tally, &mut losses) else {
                break;
            };
            queue.after_step(1);
            step_ns.push(st.ns);
            // Codec calls run on the stepping thread, between layer
            // computations: the rest of the step is network compute.
            compute_ns += (st.ns - st.store_ns - st.fetch_ns).max(0.0);
        }
        let delta = ebtrain_obs::snapshot().delta_since(&obs_before);
        let queue_peak = queue.finish();
        ebtrain_obs::set_trace_enabled(false);
        let granted = lp.granted();
        harness::bypass_check(
            tally,
            &delta,
            "train_sz",
            &["membudget.", "dist.", "serve."],
            &["codec."],
        );
        let steps = step_ns.len().max(1) as f64;
        let mut m = Metrics::default();
        m.ms("dnn.compute_ms", compute_ns / steps);
        layers::common(&mut m, &delta, steps, queue_peak);
        layers::core(&mut m, &delta, &trainer);
        let p50 = report::median(&mut step_ns).unwrap_or(0.0) * granted;
        m.add(
            "obs.trace_overhead_frac",
            harness::frac(p50 - p50_untraced, p50_untraced),
            "frac",
        );
        return m;
    }

    m.add("setup_s", setup_s, "s");
    times.report(&mut m, BATCH, elapsed, granted);
    m.add("peak_activation_mib", peak as f64 / MIB, "MiB");
    m.add(
        "activation_ratio",
        harness::frac(
            after.compressible_raw_bytes as f64,
            after.compressible_stored_bytes as f64,
        ),
        "ratio",
    );
    m.add("loss_final", loss_final(&losses), "1");
    m.add(
        "serve_mib_per_s",
        2.0 * (after.raw_bytes_saved - before.raw_bytes_saved) as f64 / MIB / (elapsed * granted),
        "MiB/s",
    );
    m
}
