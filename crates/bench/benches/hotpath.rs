//! Criterion wrappers over the [`ibp_bench::hotpath`] probes, so the
//! regression-gated paths get full statistical treatment locally while
//! CI's smoke job reuses the identical workloads through
//! `ibpower bench-report`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ibp_bench::hotpath;
use ibp_core::{PowerConfig, RankRuntime};
use ibp_network::{replay_with_scratch, ReplayOptions, ReplayScratch, SimParams};
use ibp_simcore::SimDuration;

fn bench_intercept_path(c: &mut Criterion) {
    let stream = hotpath::alya_stream(2000);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let mut g = c.benchmark_group("hotpath");
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("intercept_ns_per_call", |b| {
        b.iter_batched(
            || {
                let mut rt = RankRuntime::new(0, cfg.clone());
                rt.reserve_events(stream.len());
                rt
            },
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

fn bench_replay_scratch(c: &mut Criterion) {
    let trace = hotpath::replay_trace(8, 50);
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let events: u64 = trace.ranks.iter().map(|r| r.events.len() as u64).sum();
    let mut g = c.benchmark_group("hotpath");
    g.throughput(Throughput::Elements(events));

    // Fresh arenas every replay (the old engine's behaviour) …
    g.bench_function("replay_fresh_scratch", |b| {
        b.iter(|| {
            replay_with_scratch(&trace, None, &params, &opts, &mut ReplayScratch::new())
                .expect("replay")
        })
    });
    // … vs the recycled arena the sweep engine sees.
    let mut scratch = ReplayScratch::new();
    g.bench_function("replay_reused_scratch", |b| {
        b.iter(|| replay_with_scratch(&trace, None, &params, &opts, &mut scratch).expect("replay"))
    });
    g.finish();
}

fn bench_serve_roundtrip(c: &mut Criterion) {
    use ibp_serve::{run_load, Endpoint, LoadConfig, ServeConfig, Server, SessionSpec};

    let stream = hotpath::alya_stream(500);
    let events: Vec<(u16, u64)> = stream
        .iter()
        .map(|&(call, gap)| (call.id(), gap.as_ns()))
        .collect();
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let sessions = 4u32;
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|rank| SessionSpec {
            rank,
            config: cfg.clone(),
            events: events.clone(),
            final_compute_ns: 0,
            golden_directives: None,
            golden_stats: None,
        })
        .collect();

    let path =
        std::env::temp_dir().join(format!("ibp-criterion-serve-{}.sock", std::process::id()));
    let server =
        Server::bind(&Endpoint::Unix(path), ServeConfig::default()).expect("bench server bind");
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let load = LoadConfig {
        batch: 64,
        split: None,
        check: false,
        chaos: None,
        retry: Default::default(),
        drivers: 0,
        open_rate: 0,
    };
    let mut g = c.benchmark_group("hotpath");
    g.throughput(Throughput::Elements(
        events.len() as u64 * u64::from(sessions),
    ));
    g.bench_function("serve_roundtrip", |b| {
        b.iter(|| run_load(&bound, specs.clone(), &load).expect("bench load"))
    });
    g.finish();

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().expect("bench server thread");
}

criterion_group!(
    benches,
    bench_intercept_path,
    bench_replay_scratch,
    bench_serve_roundtrip
);
criterion_main!(benches);
