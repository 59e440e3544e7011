//! Criterion micro-benchmarks: the compute kernels under the training
//! substrate (GEMM, im2col, full conv fwd/bwd, entropy stages).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ebtrain_dnn::layer::Layer;
use ebtrain_dnn::layer::{BackwardContext, CompressionPlan, ForwardContext};
use ebtrain_dnn::layers::Conv2d;
use ebtrain_dnn::store::RawStore;
use ebtrain_encoding::{huffman, lz};
use ebtrain_tensor::{gemm, gemm_nn, im2col, Conv2dGeometry, GemmLayout, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("gemm");
    for n in [64usize, 128, 256] {
        let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                gemm_nn(n, n, n, &a, &b, &mut out);
                out
            })
        });
    }
    // The three products of a `tiny_vgg` 16→16 3×3 conv at 32 px, per
    // sample: forward (W·col), weight gradient (dY·colᵀ) and input
    // gradient (Wᵀ·dY), as `m×k×n`.
    for (layout, (m, k, n)) in [
        (GemmLayout::NN, (16, 144, 1024)),
        (GemmLayout::NT, (16, 1024, 144)),
        (GemmLayout::TN, (144, 16, 1024)),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        group.throughput(Throughput::Elements((m * k * n) as u64));
        group.bench_function(format!("{layout:?}/{m}x{k}x{n}"), |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; m * n];
                gemm(layout, m, k, n, &a, &b, &mut out);
                out
            })
        });
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let geo = Conv2dGeometry {
        in_c: 16,
        in_h: 32,
        in_w: 32,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let input = vec![1.0f32; geo.in_c * geo.in_h * geo.in_w];
    let mut out = vec![0.0f32; geo.col_rows() * geo.col_cols()];
    c.bench_function("im2col/16x32x32_k3", |b| {
        b.iter(|| im2col(&geo, &input, &mut out))
    });
}

fn bench_conv_layer(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::randn(&[4, 16, 16, 16], 1.0, &mut rng);
    let mut group = c.benchmark_group("conv2d");
    group.bench_function("forward_b4_16c_16px_k3", |b| {
        let mut conv = Conv2d::new(0, "c", 16, 32, 3, 1, 1, 3);
        let plan = CompressionPlan::new();
        b.iter(|| {
            let mut store = RawStore::new();
            let mut ctx = ForwardContext {
                store: &mut store,
                training: false,
                collect: false,
                plan: &plan,
            };
            conv.forward(x.clone(), &mut ctx).unwrap()
        })
    });
    group.bench_function("fwd_bwd_b4_16c_16px_k3", |b| {
        let mut conv = Conv2d::new(0, "c", 16, 32, 3, 1, 1, 3);
        let plan = CompressionPlan::new();
        b.iter(|| {
            let mut store = RawStore::new();
            let y = {
                let mut ctx = ForwardContext {
                    store: &mut store,
                    training: true,
                    collect: false,
                    plan: &plan,
                };
                conv.forward(x.clone(), &mut ctx).unwrap()
            };
            let dy = Tensor::full(y.shape(), 0.1);
            let mut bctx = BackwardContext {
                store: &mut store,
                collect: false,
                grad_ready: None,
            };
            conv.backward(dy, &mut bctx).unwrap()
        })
    });
    group.finish();
}

fn bench_entropy(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    // SZ-shaped code stream: dominant hit symbol + spread.
    let symbols: Vec<u32> = (0..100_000)
        .map(|_| {
            if rng.gen_bool(0.85) {
                32_768
            } else {
                32_768 + rng.gen_range(-200i32..200) as u32
            }
        })
        .collect();
    let mut group = c.benchmark_group("entropy");
    group.throughput(Throughput::Elements(symbols.len() as u64));
    group.bench_function("huffman_encode", |b| b.iter(|| huffman::encode(&symbols)));
    let enc = huffman::encode(&symbols);
    group.bench_function("huffman_decode", |b| {
        b.iter(|| huffman::decode(&enc).unwrap())
    });
    group.throughput(Throughput::Bytes(enc.len() as u64));
    group.bench_function("lz_compress", |b| b.iter(|| lz::compress(&enc)));
    let packed = lz::compress(&enc);
    group.bench_function("lz_decompress", |b| {
        b.iter(|| lz::decompress(&packed).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_gemm, bench_im2col, bench_conv_layer, bench_entropy
}
criterion_main!(benches);
