//! One benchmark per paper exhibit: each regenerates (a reduced-scale
//! version of) the corresponding table or figure, so `cargo bench`
//! exercises every reproduction path end to end. The full-size exhibits
//! are produced by the `ibp-analysis` binaries (`table1`, `table3`,
//! `table4`, `fig7`–`fig10`, `all`).

use criterion::{criterion_group, criterion_main, Criterion};
use ibp_analysis::exhibits::SEED;
use ibp_analysis::{choose_gt, make_trace, run_on_trace, run_runtime_only, sweep, RunConfig};
use ibp_trace::IdleDistribution;
use ibp_workloads::AppKind;

/// Reduced scale axis for bench-speed exhibit regeneration.
fn bench_procs(app: AppKind) -> [u32; 2] {
    match app {
        AppKind::NasBt => [9, 16],
        _ => [8, 16],
    }
}

fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    g.bench_function("table1_idle_distribution", |b| {
        b.iter(|| {
            let mut rows = Vec::new();
            for app in AppKind::ALL {
                for &n in &bench_procs(app) {
                    let trace = make_trace(app, n, SEED);
                    rows.push(IdleDistribution::from_trace(&trace));
                }
            }
            rows
        })
    });
    g.finish();
}

fn bench_table3(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    g.bench_function("table3_gt_selection", |b| {
        b.iter(|| {
            AppKind::ALL
                .iter()
                .map(|&app| {
                    let trace = make_trace(app, bench_procs(app)[0], SEED);
                    choose_gt(&trace, 0.01).gt_us
                })
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

fn bench_table4(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    g.bench_function("table4_ppa_overheads", |b| {
        b.iter(|| {
            AppKind::ALL
                .iter()
                .map(|&app| {
                    let trace = make_trace(app, 16, SEED);
                    let cfg = RunConfig::new(20.0, 0.01);
                    let r = run_runtime_only(&trace, app, &cfg);
                    (r.stats.ppa_invocation_pct(), r.stats.overhead_per_call_us())
                })
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    for (name, disp) in [
        ("fig7_disp10", 0.10),
        ("fig8_disp5", 0.05),
        ("fig9_disp1", 0.01),
    ] {
        g.bench_function(format!("{name}_savings_and_slowdown"), |b| {
            b.iter(|| {
                AppKind::ALL
                    .iter()
                    .map(|&app| {
                        let trace = make_trace(app, bench_procs(app)[0], SEED);
                        let cfg = RunConfig::new(20.0, disp);
                        let r = run_on_trace(&trace, app, &cfg);
                        (r.power_saving_pct, r.slowdown_pct)
                    })
                    .collect::<Vec<_>>()
            })
        });
    }
    g.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    g.bench_function("fig10_gt_sweep_gromacs", |b| {
        let trace = make_trace(AppKind::Gromacs, 16, SEED);
        b.iter(|| sweep(&trace, 0.01))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_table3,
    bench_table4,
    bench_figures,
    bench_fig10
);
criterion_main!(benches);
