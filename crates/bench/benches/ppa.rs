//! Microbenchmarks of the paper's core contribution: gram formation and
//! the Pattern Prediction Algorithm. The paper's Table IV reports 7–26 µs
//! per PPA-invoking call on 2010s-era Xeons through uthash; these benches
//! report what the Rust implementation actually costs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ibp_core::{GramBuilder, GramInterner, PowerConfig, Ppa, RankRuntime};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall::{Allreduce, Sendrecv};

fn alya_stream(iters: usize) -> Vec<(ibp_trace::MpiCall, SimDuration)> {
    let mut v = Vec::with_capacity(iters * 5);
    for i in 0..iters {
        let lead = if i == 0 { 0 } else { 300 };
        v.push((Sendrecv, SimDuration::from_us(lead)));
        v.push((Sendrecv, SimDuration::from_us(2)));
        v.push((Sendrecv, SimDuration::from_us(3)));
        v.push((Allreduce, SimDuration::from_us(250)));
        v.push((Allreduce, SimDuration::from_us(250)));
    }
    v
}

fn bench_runtime_interception(c: &mut Criterion) {
    let stream = alya_stream(2000);
    let mut g = c.benchmark_group("runtime");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("intercept_alya_10k_events", |b| {
        b.iter_batched(
            || RankRuntime::new(0, PowerConfig::paper(SimDuration::from_us(20), 0.01)),
            |mut rt| {
                for &(call, gap) in &stream {
                    rt.intercept(call, gap);
                }
                rt.finish(SimDuration::ZERO)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_gram_formation(c: &mut Criterion) {
    let stream = alya_stream(2000);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let mut g = c.benchmark_group("gram");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("formation_10k_events", |b| {
        b.iter_batched(
            || (GramBuilder::new(&cfg), GramInterner::new()),
            |(mut builder, mut interner)| {
                let mut count = 0;
                for &(call, gap) in &stream {
                    if builder.push(call, gap, &mut interner).is_some() {
                        count += 1;
                    }
                }
                count
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_ppa_scan(c: &mut Criterion) {
    // Gram stream with period-3 pattern (A B B) like Fig. 3.
    let grams: Vec<u32> = (0..3000).map(|i| if i % 3 == 0 { 0 } else { 1 }).collect();
    let mut g = c.benchmark_group("ppa");
    g.throughput(Throughput::Elements(grams.len() as u64));
    g.bench_function("scan_until_declaration", |b| {
        b.iter_batched(
            || Ppa::new(3, 64),
            |mut ppa| {
                for n in 1..=grams.len() {
                    if ppa.advance(&grams[..n]).is_some() {
                        break;
                    }
                }
                ppa.work()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_runtime_interception,
    bench_gram_formation,
    bench_ppa_scan
);
criterion_main!(benches);
