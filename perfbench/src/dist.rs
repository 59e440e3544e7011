//! `dist_sz`: two data-parallel replicas of the adaptive trainer on the
//! compressed gradient ring (error feedback, fixed bound, backward
//! overlap, modeled wire), each storing activations in an arena budgeted
//! to half the raw activation peak probed at set-up.

use crate::harness::{self, Args, Loop, Metrics, Tally, MIB};
use crate::layers::{self, QueuePeak};
use crate::report;
use crate::train::{
    loss_final, make_batches, min_traced_steps, timed_loop, Step, StepTimes, BATCH, CLASSES,
    NET_SEED, N_BATCHES, WARMUP_ADAPTIVE, W_INTERVAL,
};
use ebtrain_dist::{CommMode, CommStats, DistConfig, DistributedTrainer};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::{BudgetConfig, RawStore, StoreMetrics};
use ebtrain_dnn::train::train_step;
use ebtrain_dnn::zoo;
use ebtrain_membudget::ArenaMetrics;
use ebtrain_tensor::Tensor;

/// Replicas (one per core of a 2-core host).
pub const WORLD: usize = 2;
/// Steps per `--seconds` of an untraced run (about 4.5 a second on the
/// 2-core development host).
const STEPS_PER_S: u64 = 5;
/// Fixed absolute bound of the gradient streams.
pub const COMM_EB: f32 = 1e-3;
/// Modeled interconnect rate, MiB/s: `fig12_dist_scaling`'s default,
/// which scales the wire down with this host's compute so that a step
/// keeps the paper's compute:comm ratio.
pub const WIRE_MIBPS: f64 = 1.5;

struct Setup {
    batches: Vec<(Tensor, Vec<usize>)>,
    trainer: DistributedTrainer,
    budget: usize,
}

/// Peak raw activation bytes of one replica's step (batch [`BATCH`]).
fn probe_raw_peak(x: Tensor, labels: &[usize]) -> ebtrain_dnn::Result<usize> {
    let mut net = zoo::tiny_vgg(CLASSES, NET_SEED);
    let mut opt = Sgd::new(SgdConfig::default());
    let mut store = RawStore::new();
    let head = SoftmaxCrossEntropy::new();
    let r = train_step(
        &mut net,
        &head,
        &mut opt,
        &mut store,
        &CompressionPlan::new(),
        x,
        labels,
        false,
    )?;
    Ok(r.peak_store_bytes)
}

fn setup(seed: u64) -> Result<Setup, String> {
    let batches = make_batches(seed, N_BATCHES, BATCH * WORLD);
    let (x, labels) = make_batches(seed, 1, BATCH).remove(0);
    let raw_peak = probe_raw_peak(x, &labels).map_err(|e| format!("raw-peak probe: {e}"))?;
    let budget = (raw_peak / 2).max(1);
    let mut cfg = DistConfig::new(
        WORLD,
        CommMode::Compressed {
            error_bound: COMM_EB,
            error_feedback: true,
            adaptive: false,
        },
    );
    cfg.framework.w_interval = W_INTERVAL;
    cfg.sync.overlap = true;
    cfg.sync.wire_mibps = Some(WIRE_MIBPS);
    cfg.budget = Some(BudgetConfig::with_budget(budget));
    let trainer = DistributedTrainer::new(cfg, |_| zoo::tiny_vgg(CLASSES, NET_SEED))
        .map_err(|e| format!("build group: {e}"))?;
    Ok(Setup {
        batches,
        trainer,
        budget,
    })
}

/// Store metrics summed over replicas.
fn store_totals(t: &DistributedTrainer) -> StoreMetrics {
    let mut sum = StoreMetrics::default();
    for r in 0..t.world_size() {
        let m = t.replica(r).store_metrics();
        sum.raw_bytes_saved += m.raw_bytes_saved;
        sum.compressible_raw_bytes += m.compressible_raw_bytes;
        sum.compressible_stored_bytes += m.compressible_stored_bytes;
    }
    sum
}

/// Demotion compressor bytes in and out, summed over replica arenas.
fn demote_bytes(t: &DistributedTrainer) -> (u64, u64) {
    (0..t.world_size())
        .filter_map(|r| t.replica(r).budget_metrics())
        .fold((0, 0), |(i, o), m: ArenaMetrics| {
            (i + m.bytes_compressed_raw, o + m.bytes_compressed_out)
        })
}

/// Every parameter of every replica, as bits, must equal replica 0's.
fn replicas_identical(t: &DistributedTrainer) -> bool {
    let bits = |r: usize| {
        let mut out = Vec::new();
        t.replica(r).network().visit_layers(&mut |layer| {
            for p in layer.params() {
                out.extend(p.value.data().iter().map(|v| v.to_bits()));
            }
        });
        out
    };
    let first = bits(0);
    (1..t.world_size()).all(|r| bits(r) == first)
}

pub fn dist_sz(args: &Args, tally: &mut Tally) -> Metrics {
    let (built, setup_s) = harness::timed_setup(|| setup(args.seed), drop);
    let mut m = Metrics::default();
    let Some(mut s) = tally.result("dist set-up", built) else {
        return m;
    };
    let mut losses = Vec::new();
    let step = |s: &mut Setup, i: usize, tally: &mut Tally, losses: &mut Vec<f32>| {
        let (x, labels) = &s.batches[i % s.batches.len()];
        let x = x.clone();
        let t0 = std::time::Instant::now();
        let r = s.trainer.step(x, labels);
        let dt = t0.elapsed().as_nanos() as f64;
        let r = tally.result("distributed step", r)?;
        tally.record(r.loss.is_finite(), || format!("step {i}: loss {}", r.loss));
        let budget = s.budget;
        tally.record(r.peak_store_bytes <= budget, || {
            format!(
                "step {i}: replica peak {} over budget {budget}",
                r.peak_store_bytes
            )
        });
        losses.push(r.loss);
        // The gradient ring is this workload's tensor store: segments
        // encoded for sending and received segments decoded, per replica.
        let (encode, decode) = s
            .trainer
            .step_report()
            .map_or((0, 0), |r| (r.nanos("dist.encode"), r.nanos("dist.decode")));
        Some(Step {
            ns: dt,
            store_ns: encode as f64 / WORLD as f64,
            fetch_ns: decode as f64 / WORLD as f64,
            peak: r.peak_store_bytes,
        })
    };
    // The memory figures cover the whole run, warm-up included.
    let mut peak = 0usize;
    for i in 0..WARMUP_ADAPTIVE {
        if let Some(st) = step(&mut s, i, tally, &mut losses) {
            peak = peak.max(st.peak);
        }
    }

    let before = store_totals(&s.trainer);
    let mut times = StepTimes::default();
    let mut lp = if args.trace {
        Loop::new(args.phase_duration(), min_traced_steps())
    } else {
        timed_loop(args, STEPS_PER_S)
    };
    while lp.more() {
        let i = WARMUP_ADAPTIVE + lp.iters - 1;
        let Some(st) = step(&mut s, i, tally, &mut losses) else {
            break;
        };
        times.push(&st);
        peak = peak.max(st.peak);
    }
    let (elapsed, granted) = (lp.elapsed_s(), lp.granted());
    let after = store_totals(&s.trainer);

    let m = if args.trace {
        let p50_untraced = report::median(&mut times.step).unwrap_or(0.0) * granted;
        ebtrain_obs::set_trace_enabled(true);
        let mut queue = QueuePeak::start();
        let obs_before = ebtrain_obs::snapshot();
        let comm_before = s.trainer.comm_stats();
        let demote_before = demote_bytes(&s.trainer);
        let mut step_ns = Vec::new();
        let mut compute_ns = 0.0;
        let mut lp = Loop::new(args.phase_duration(), 1);
        while lp.more() {
            let i = losses.len();
            let Some(st) = step(&mut s, i, tally, &mut losses) else {
                break;
            };
            // Each replica files a `core.step` record and the group a
            // `dist.step` one.
            queue.after_step(WORLD + 1);
            step_ns.push(st.ns);
            // Codec work (activation tier moves and gradient streams)
            // and exposed comm waits, per replica: the rest of the step
            // is network compute.
            let other = s.trainer.step_report().map_or(0, |r| {
                r.nanos("codec.compress")
                    + r.nanos("codec.decompress")
                    + r.counter("dist.wait.nanos")
            });
            compute_ns += (st.ns - other as f64 / WORLD as f64).max(0.0);
        }
        let delta = ebtrain_obs::snapshot().delta_since(&obs_before);
        let queue_peak = queue.finish();
        ebtrain_obs::set_trace_enabled(false);
        let granted = lp.granted();
        let comm: CommStats = s.trainer.comm_stats().delta_since(&comm_before);
        let demote_after = demote_bytes(&s.trainer);
        harness::bypass_check(
            tally,
            &delta,
            "dist_sz",
            &["serve."],
            &["dist.", "membudget."],
        );

        let steps = step_ns.len().max(1) as f64;
        let mut m = Metrics::default();
        m.ms("dnn.compute_ms", compute_ns / steps);
        layers::common(&mut m, &delta, steps, queue_peak);
        layers::core(&mut m, &delta, s.trainer.chief());
        m.add(
            "membudget.demote_ratio",
            harness::frac(
                (demote_after.0 - demote_before.0) as f64,
                (demote_after.1 - demote_before.1) as f64,
            ),
            "ratio",
        );
        m.add(
            "dist.bytes_per_step",
            comm.payload_bytes as f64 / steps,
            "B",
        );
        m.add("dist.reduction", comm.reduction_ratio(), "ratio");
        m.add(
            "dist.messages_per_step",
            comm.messages as f64 / steps,
            "count",
        );
        let p50 = report::median(&mut step_ns).unwrap_or(0.0) * granted;
        m.add(
            "obs.trace_overhead_frac",
            harness::frac(p50 - p50_untraced, p50_untraced),
            "frac",
        );
        m
    } else {
        m.add("setup_s", setup_s, "s");
        times.report(&mut m, BATCH * WORLD, elapsed, granted);
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
            2.0 * (after.raw_bytes_saved - before.raw_bytes_saved) as f64
                / MIB
                / (elapsed * granted),
            "MiB/s",
        );
        m
    };
    tally.record(replicas_identical(&s.trainer), || {
        "replica parameters differ after the run".into()
    });
    m
}
