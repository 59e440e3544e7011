//! `serve_mixed`: an in-process `ServeDaemon` driven as a closed loop,
//! from one thread, over two client connections, one tenant each. Each
//! tenant's working set is about twice its budget, so the arena's tiers
//! engage; payloads are compressed at set-up. A round stores the whole
//! set, fetches it back, fetches two tensors as compressed streams and
//! reads two plane ranges.

use crate::harness::{self, Args, Metrics, Steal, Tally, MIB};
use crate::layers::{self, QueuePeak};
use crate::report;
use ebtrain_codec::{BoundSpec, Codec, CodecRegistry, SzCodec};
use ebtrain_serve::{ColdPolicy, DataLayout, ServeClient, ServeConfig, ServeDaemon, TaggedStream};
use std::time::{Duration, Instant};

/// Client connections, one tenant each.
pub const CLIENTS: usize = 2;
/// Per-tenant device budget.
pub const TENANT_BUDGET: usize = 512 << 10;
/// Every tensor: 64 planes of 512 values (128 KiB raw).
pub const LAYOUT: DataLayout = DataLayout::D2(64, 512);
/// Bound the client compresses with.
pub const CLIENT_EB: f32 = 1e-3;
/// At-rest bound each store declares for demotion.
pub const REST_EB: f32 = 1e-3;
/// Planes read by one `fetch_planes`.
pub const PLANES: usize = 8;
/// Untimed rounds per client (the first one populates the set).
pub const WARMUP_ROUNDS: usize = 2;

/// A fetched value may differ from the client's original by the
/// client's bound plus the at-rest bound of a demotion.
const DECLARED_BOUND: f32 = CLIENT_EB + REST_EB;

fn tensors_per_tenant() -> usize {
    (2 * TENANT_BUDGET).div_ceil(LAYOUT.len() * 4).max(2)
}

/// Tensor `k` of the working set, as `fig14_serve_scaling` makes it (a
/// smooth wave whose frequency and amplitude depend on `k`), shifted by
/// a seed-chosen offset so that each seed stores different values of
/// the same compressibility. Every tenant stores the same set.
fn make_tensor(seed: u64, k: usize) -> Vec<f32> {
    let offset = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize;
    (0..LAYOUT.len())
        .map(|i| ((i + k * 37 + offset) as f32 * 0.013).sin() * (1.0 + k as f32 * 0.1))
        .collect()
}

struct Tenant {
    id: u32,
    originals: Vec<Vec<f32>>,
    streams: Vec<TaggedStream>,
}

struct Setup {
    daemon: ServeDaemon,
    tenants: Vec<Tenant>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let n = tensors_per_tenant();
    let codec = SzCodec::classic();
    let mut tenants = Vec::with_capacity(CLIENTS);
    for t in 0..CLIENTS {
        let originals: Vec<Vec<f32>> = (0..n).map(|k| make_tensor(seed, k)).collect();
        let streams = originals
            .iter()
            .map(|d| codec.compress(d, LAYOUT, &BoundSpec::Abs(CLIENT_EB)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("client-side compress: {e}"))?;
        tenants.push(Tenant {
            id: t as u32 + 1,
            originals,
            streams,
        });
    }
    let cfg = ServeConfig {
        workers: 2,
        tenant_budget_bytes: TENANT_BUDGET,
        max_resident_bytes: 2 * CLIENTS * TENANT_BUDGET,
        max_raw_bytes: 64 << 20,
        cold: ColdPolicy::HostMigrate,
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::spawn(cfg).map_err(|e| format!("spawn daemon: {e}"))?;
    Ok(Setup { daemon, tenants })
}

/// What the clients saw, all together.
#[derive(Default)]
struct ClientRun {
    store_ns: Vec<f64>,
    fetch_ns: Vec<f64>,
    round_ns: Vec<f64>,
    /// RPCs that moved a tensor or part of one, and raw bytes moved, in
    /// the timed window.
    rpcs: u64,
    raw_bytes: u64,
    /// The timed window in seconds, scaled by `granted`, the share of
    /// CPU time the host granted meanwhile ([`Steal`]).
    secs: f64,
    granted: f64,
    /// Values checked, and the sum of |error| / declared bound.
    values: u64,
    err_sum: f64,
    attempted: u64,
    failures: Vec<String>,
}

impl ClientRun {
    fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Check fetched values against the original slice.
    fn check(&mut self, what: &str, got: &[f32], want: &[f32]) {
        self.attempted += 1;
        if got.len() != want.len() {
            self.failures
                .push(format!("{what}: {} values, want {}", got.len(), want.len()));
            return;
        }
        let mut worst = 0.0f32;
        for (g, w) in got.iter().zip(want) {
            let e = (g - w).abs();
            worst = worst.max(e);
            self.err_sum += (e / DECLARED_BOUND) as f64;
        }
        self.values += got.len() as u64;
        if worst > DECLARED_BOUND * (1.0 + 1e-4) || !worst.is_finite() {
            self.failures.push(format!(
                "{what}: error {worst} over the declared bound {DECLARED_BOUND}"
            ));
        }
    }

    /// One client's round on its connection: store the tenant's set,
    /// fetch it back, fetch two tensors as compressed streams and read
    /// two plane ranges. Latencies and traffic count when `timed`.
    fn round(
        &mut self,
        client: &mut ServeClient,
        tenant: &Tenant,
        registry: &CodecRegistry,
        round: usize,
        timed: bool,
    ) {
        let n = tenant.streams.len();
        let raw = (LAYOUT.len() * 4) as u64;
        let plane_len = LAYOUT.len() / LAYOUT.plane_count();
        let r0 = Instant::now();
        for (k, stream) in tenant.streams.iter().enumerate() {
            let t0 = Instant::now();
            let r = client.store_stream(tenant.id, k as u64, LAYOUT, REST_EB, stream);
            let dt = t0.elapsed().as_nanos() as f64;
            if self.op("store", r).is_some() && timed {
                self.store_ns.push(dt);
                self.rpcs += 1;
                self.raw_bytes += raw;
            }
        }
        for k in 0..n {
            let t0 = Instant::now();
            let r = client.fetch(tenant.id, k as u64);
            let dt = t0.elapsed().as_nanos() as f64;
            if let Some((vals, layout)) = self.op("fetch", r) {
                if layout != LAYOUT {
                    self.failures.push(format!("fetch {k}: layout {layout:?}"));
                }
                self.check("fetch", &vals, &tenant.originals[k]);
                if timed {
                    self.fetch_ns.push(dt);
                    self.rpcs += 1;
                    self.raw_bytes += raw;
                }
            }
        }
        for k in [round % n, (round + n / 2) % n] {
            let r = client.fetch_compressed(tenant.id, k as u64);
            if let Some((stream, _)) = self.op("fetch_compressed", r) {
                if let Some(vals) = self.op("decode fetched stream", registry.decompress(&stream)) {
                    self.check("fetch_compressed", &vals, &tenant.originals[k]);
                }
                if timed {
                    self.rpcs += 1;
                    self.raw_bytes += raw;
                }
            }
        }
        for k in [(round + 1) % n, (round + n / 2 + 1) % n] {
            let p0 = (round * 7 + k) % (LAYOUT.plane_count() - PLANES);
            let r = client.fetch_planes(tenant.id, k as u64, p0..p0 + PLANES);
            if let Some(vals) = self.op("fetch_planes", r) {
                let want = &tenant.originals[k][p0 * plane_len..(p0 + PLANES) * plane_len];
                self.check("fetch_planes", &vals, want);
                if timed {
                    self.rpcs += 1;
                    self.raw_bytes += (vals.len() * 4) as u64;
                }
            }
        }
        if timed {
            self.round_ns.push(r0.elapsed().as_nanos() as f64);
        }
    }
}

/// The closed loop: one connection per tenant, driven in turn from this
/// thread, so one RPC is in flight at a time and the client side adds
/// no thread of its own to the daemon's. [`WARMUP_ROUNDS`] untimed
/// rounds per client, then timed rounds until `window` has passed and
/// every client ran at least `min_rounds` (or an operation failed).
/// Times are scaled by the share of CPU time the host granted over the
/// timed window ([`Steal`]).
fn load(s: &Setup, window: Duration, min_rounds: usize) -> ClientRun {
    let mut run = ClientRun::default();
    let registry = CodecRegistry::standard();
    let mut clients = Vec::with_capacity(s.tenants.len());
    for _ in &s.tenants {
        match run.op("connect", ServeClient::connect(s.daemon.addr())) {
            Some(c) => clients.push(c),
            None => return run,
        }
    }
    let mut each_client = |run: &mut ClientRun, round: usize, timed: bool| {
        for (client, tenant) in clients.iter_mut().zip(&s.tenants) {
            run.round(client, tenant, &registry, round, timed);
        }
    };
    for round in 0..WARMUP_ROUNDS {
        each_client(&mut run, round, false);
    }
    let steal = Steal::now();
    let start = Instant::now();
    let mut timed_rounds = 0;
    loop {
        let t = start.elapsed();
        if (t >= window && timed_rounds >= min_rounds)
            || t >= window * 4
            || !run.failures.is_empty()
        {
            break;
        }
        each_client(&mut run, WARMUP_ROUNDS + timed_rounds, true);
        timed_rounds += 1;
    }
    run.granted = steal.granted();
    run.secs = start.elapsed().as_secs_f64() * run.granted;
    for v in [&mut run.store_ns, &mut run.fetch_ns, &mut run.round_ns] {
        v.iter_mut().for_each(|t| *t *= run.granted);
    }
    run
}

/// Fold the clients' outcome into the tally.
fn count(tally: &mut Tally, run: &ClientRun) {
    tally.attempted += run.attempted;
    tally.failed += run.failures.len() as u64;
    for f in run.failures.iter().take(8) {
        if tally.failures.len() < 8 {
            tally.failures.push(f.clone());
        }
    }
}

pub fn serve_mixed(args: &Args, tally: &mut Tally) -> Metrics {
    let (built, setup_s) = harness::timed_setup(
        || setup(args.seed),
        |s| {
            if let Ok(s) = s {
                s.daemon.shutdown();
            }
        },
    );
    let mut m = Metrics::default();
    let Some(s) = tally.result("serve set-up", built) else {
        return m;
    };
    // As many rounds in all as the tail rule asks of a p90 (100), like
    // the training workloads' minimum step count.
    let min_rounds = report::min_samples_for_tail(0.9).div_ceil(CLIENTS);

    let mut all = load(&s, args.phase_duration(), min_rounds);
    count(tally, &all);

    if args.trace {
        let store_p50_untraced = report::median(&mut all.store_ns).unwrap_or(0.0);
        ebtrain_obs::set_trace_enabled(true);
        let queue = QueuePeak::start();
        let obs_before = ebtrain_obs::snapshot();
        let mut traced = load(&s, args.phase_duration(), 1);
        let delta = ebtrain_obs::snapshot().delta_since(&obs_before);
        let queue_peak = queue.finish();
        ebtrain_obs::set_trace_enabled(false);
        count(tally, &traced);
        harness::bypass_check(
            tally,
            &delta,
            "serve_mixed",
            &["core.step", "dist."],
            &["serve."],
        );
        tenant_checks(tally, &s);

        let rounds = traced.round_ns.len().max(1) as f64;
        let mut m = Metrics::default();
        layers::common(&mut m, &delta, rounds, queue_peak);
        let server_p50 = |name| delta.quantiles(name).map_or(0.0, |q| q.p50 as f64);
        let server_store = server_p50("serve.store");
        let server_fetch = server_p50("serve.fetch");
        let client_store = report::median(&mut traced.store_ns).unwrap_or(0.0);
        m.ms("serve.store_ms", server_store);
        m.ms("serve.fetch_ms", server_fetch);
        // Server spans are wall time as measured: compare the client's.
        m.ms(
            "serve.transport_ms",
            client_store / traced.granted - server_store,
        );
        m.add(
            "obs.trace_overhead_frac",
            harness::frac(client_store - store_p50_untraced, store_p50_untraced),
            "frac",
        );
        s.daemon.shutdown();
        return m;
    }

    let (peak, raw, resident) = tenant_checks(tally, &s);
    s.daemon.shutdown();
    m.add("setup_s", setup_s, "s");
    m.add(
        "samples_per_s",
        harness::frac(all.rpcs as f64, all.secs),
        "1/s",
    );
    m.latency("step", &mut all.round_ns);
    m.add("peak_activation_mib", peak as f64 / MIB, "MiB");
    m.add(
        "activation_ratio",
        harness::frac(raw as f64, resident as f64),
        "ratio",
    );
    m.add(
        "loss_final",
        harness::frac(all.err_sum, all.values as f64),
        "1",
    );
    m.latency("store", &mut all.store_ns);
    m.latency("fetch", &mut all.fetch_ns);
    m.add(
        "serve_mib_per_s",
        harness::frac(all.raw_bytes as f64, all.secs) / MIB,
        "MiB/s",
    );
    m
}

/// Every tenant's peak residency must be within its budget. Returns the
/// summed peak, raw and resident bytes.
fn tenant_checks(tally: &mut Tally, s: &Setup) -> (u64, u64, u64) {
    let mut sums = (0, 0, 0);
    for t in &s.tenants {
        match s.daemon.tenant_stats(t.id) {
            Some(st) => {
                tally.record(st.peak_resident_bytes <= st.budget_bytes, || {
                    format!(
                        "tenant {}: peak {} over budget {}",
                        t.id, st.peak_resident_bytes, st.budget_bytes
                    )
                });
                sums.0 += st.peak_resident_bytes;
                sums.1 += st.raw_bytes;
                sums.2 += st.resident_bytes;
            }
            None => tally.record(false, || format!("tenant {} has no stats", t.id)),
        }
    }
    sums
}
