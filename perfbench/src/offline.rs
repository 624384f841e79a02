//! The offline workloads: `paper_exhibits` (everything `ibpower exhibits
//! all` writes) and `gt_sweep` (Table III plus Fig. 10).
//!
//! An untraced `paper_exhibits` pass is a run of `ibpower exhibits all`.
//! No single command produces `gt_sweep`, so its untraced pass runs the
//! library's `exhibits::table3` and `exhibits::fig10` in a process of this
//! binary. Either way every pass is a fresh process.
//!
//! The traced pass cannot put spans inside the program, so it re-drives
//! the same cells on a sweep engine of its own and makes each call into a
//! layer itself, inside a span: a copy of the exhibit code. Its outputs
//! must equal the untraced pass's byte for byte, and its call counts
//! (cells, traces generated, baselines and GT selections computed) must
//! equal the untraced engine's `SweepStats`, so a change to the program's
//! call structure that the copy does not follow fails the run.

use crate::span::{self, span, span_named};
use crate::stats::{self, Dist};
use crate::{probes, Opts, Outcome};
use ibp_analysis::exhibits::{
    self, Fig10Data, FigureData, FigureRow, Table1Row, Table3Row, Table4Row, SELECT_DISPLACEMENT,
};
use ibp_analysis::generation::{GenerationFrontierRow, DEEP_THRESHOLD, FRONTIER_GENERATIONS};
use ibp_analysis::sweep::default_trace_fn;
use ibp_analysis::{
    paper_ref, select, CellCtx, CellKey, ExhibitGrid, GtPoint, OutputDir, RunConfig, SweepEngine,
    SweepOptions, SweepStats, GT_GRID_US,
};
use ibp_core::{annotate_trace_jobs, PowerConfig, RankStats, TraceAnnotations};
use ibp_network::{replay, IbGeneration, ReplayOptions, SimParams, SimResult};
use ibp_simcore::SimDuration;
use ibp_trace::{IdleDistribution, Trace};
use ibp_workloads::AppKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which offline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every exhibit of `ibpower exhibits all` on the full paper grid.
    Paper,
    /// Table III plus Fig. 10: GT sweeps, annotation only.
    GtSweep,
}

/// The exhibits a workload produces: (output file, cell count).
fn exhibits_of(kind: Kind) -> &'static [(&'static str, u64)] {
    match kind {
        Kind::Paper => &[
            ("table1.json", 25),
            ("table3.json", 25),
            ("table4.json", 5),
            ("fig7.json", 25),
            ("fig8.json", 25),
            ("fig9.json", 25),
            ("fig10.json", 2),
            ("generation_frontier.json", 20),
        ],
        Kind::GtSweep => &[("table3.json", 25), ("fig10.json", 2)],
    }
}

fn displacement_of(file: &str) -> f64 {
    match file {
        "fig7.json" => 0.10,
        "fig8.json" => 0.05,
        _ => 0.01,
    }
}

/// Cell keys of one exhibit, in its cell order.
fn cell_keys(file: &str, seed: u64) -> Vec<CellKey> {
    match file {
        "table4.json" => AppKind::ALL
            .iter()
            .map(|&a| CellKey::new(a, 16, seed))
            .collect(),
        "fig10.json" => [64, 128]
            .iter()
            .map(|&n| CellKey::new(AppKind::Gromacs, n, seed))
            .collect(),
        "generation_frontier.json" => FRONTIER_GENERATIONS
            .iter()
            .flat_map(|_| AppKind::ALL.iter().map(|&a| frontier_key(a, seed)))
            .collect(),
        _ => ExhibitGrid::paper().cells(seed),
    }
}

fn frontier_key(app: AppKind, seed: u64) -> CellKey {
    CellKey::new(app, if app == AppKind::NasBt { 9 } else { 8 }, seed)
}

/// The output files of a pass, in exhibit order: (name, bytes).
type Files = Vec<(&'static str, Vec<u8>)>;

/// Per-event counters the traced pass fills.
#[derive(Default)]
struct Counters {
    generated_events: AtomicU64,
    annotated_events: AtomicU64,
    correct_calls: AtomicU64,
    total_calls: AtomicU64,
    mispredictions: AtomicU64,
    gt_points: AtomicU64,
    /// Replayed events per rank bucket, managed and baseline together.
    replayed: Mutex<HashMap<&'static str, (u64, u64)>>,
}

/// A keyed once-cache whose lookups are spans: named after the layer call
/// when this thread computed the value, `analysis.sweep.cache_wait` when
/// it found (or waited for) another thread's.
struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    /// Values computed, to hold against the program's `SweepStats`.
    fills: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> Memo<K, V> {
    fn new() -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            fills: AtomicU64::new(0),
        }
    }

    fn get(&self, key: &K, name: &'static str, compute: impl FnOnce() -> V) -> Arc<V> {
        let slot = self
            .map
            .lock()
            .unwrap()
            .entry(key.clone())
            .or_default()
            .clone();
        span_named(|| {
            let mut fresh = false;
            let v = slot
                .get_or_init(|| {
                    fresh = true;
                    self.fills.fetch_add(1, Ordering::Relaxed);
                    Arc::new(compute())
                })
                .clone();
            (
                v,
                if fresh {
                    name
                } else {
                    "analysis.sweep.cache_wait"
                },
            )
        })
    }
}

/// The traced replica of the sweep engine's memoized artefacts.
struct Traced {
    baselines: Memo<CellKey, SimResult>,
    gts: Memo<CellKey, GtPoint>,
    counters: Arc<Counters>,
}

impl Traced {
    fn annotate(&self, trace: &Trace, pc: &PowerConfig, jobs: usize) -> TraceAnnotations {
        let ann = span("core.annotate", || annotate_trace_jobs(trace, pc, jobs));
        let st = ann.aggregate_stats();
        let c = &self.counters;
        c.annotated_events
            .fetch_add(trace.total_calls() as u64, Ordering::Relaxed);
        c.correct_calls
            .fetch_add(st.correct_calls, Ordering::Relaxed);
        c.total_calls.fetch_add(st.total_calls, Ordering::Relaxed);
        c.mispredictions.fetch_add(
            st.pattern_mispredictions + st.timing_mispredictions,
            Ordering::Relaxed,
        );
        ann
    }

    fn replay(
        &self,
        name: &'static str,
        trace: &Trace,
        ann: Option<&TraceAnnotations>,
        params: &SimParams,
    ) -> SimResult {
        let t0 = Instant::now();
        let r = span(name, || {
            replay(trace, ann, params, &ReplayOptions::default())
        })
        .expect("replay of a generated trace");
        let ns = t0.elapsed().as_nanos() as u64;
        let mut by = self.counters.replayed.lock().unwrap();
        let e = by.entry(stats::rank_bucket(trace.nprocs)).or_default();
        e.0 += trace.total_calls() as u64;
        e.1 += ns;
        r
    }

    fn baseline(&self, ctx: &CellCtx<'_>) -> Arc<SimResult> {
        self.baselines
            .get(&ctx.key, "analysis.sweep.cache_fill", || {
                self.replay(
                    "network.baseline_replay",
                    &ctx.trace,
                    None,
                    &SimParams::paper(),
                )
            })
    }

    /// `run_runtime_only_jobs`, call for call: annotation plus the
    /// bookkeeping the library does on every runtime-only pass.
    fn runtime_only(&self, trace: &Trace, cfg: &RunConfig, jobs: usize) -> (f64, f64, RankStats) {
        let pc = cfg.power_config();
        let ann = self.annotate(trace, &pc, jobs);
        span("analysis.collect", || {
            let hit = ann.mean_hit_rate_pct();
            let est = ann.mean_est_power_saving_pct(pc.low_power_fraction);
            let st = ann.aggregate_stats();
            span("trace.idle_distribution", || {
                IdleDistribution::from_trace(trace)
            });
            (hit, est, st)
        })
    }

    /// `gt_select::sweep`: the 20-point runtime-only GT sweep.
    fn sweep(&self, trace: &Trace, displacement: f64) -> Vec<GtPoint> {
        self.counters
            .gt_points
            .fetch_add(GT_GRID_US.len() as u64, Ordering::Relaxed);
        GT_GRID_US
            .iter()
            .map(|&gt| {
                let (hit, est, _) = self.runtime_only(trace, &RunConfig::new(gt, displacement), 1);
                GtPoint {
                    gt_us: gt,
                    hit_rate_pct: hit,
                    est_saving_pct: est,
                }
            })
            .collect()
    }

    fn choose_gt(&self, ctx: &CellCtx<'_>) -> Arc<GtPoint> {
        self.gts.get(&ctx.key, "analysis.gt_select", || {
            select(&self.sweep(&ctx.trace, SELECT_DISPLACEMENT)).clone()
        })
    }
}

/// Run `work` over `cells` on the engine, each cell inside an
/// `analysis.cell` span tagged with its global cell index.
fn cells<I: Sync, T: Send>(
    engine: &SweepEngine,
    items: &[I],
    key_of: impl Fn(&I) -> CellKey + Sync,
    base: u64,
    work: impl Fn(&CellCtx<'_>, &I) -> T + Sync,
) -> Vec<T> {
    engine.run_cells(items, key_of, |ctx, item, i| {
        span::with_tag(base + i as u64, || {
            span("analysis.cell", || work(ctx, item))
        })
    })
}

fn table1(e: &SweepEngine, seed: u64, base: u64) -> Vec<Table1Row> {
    cells(
        e,
        &ExhibitGrid::paper().cells(seed),
        |&k| k,
        base,
        |ctx, key| Table1Row {
            app: key.app.name().to_string(),
            nprocs: key.nprocs,
            idle: span("trace.idle_distribution", || {
                IdleDistribution::from_trace(&ctx.trace)
            }),
        },
    )
}

fn table3(t: &Traced, e: &SweepEngine, seed: u64, base: u64) -> Vec<Table3Row> {
    cells(
        e,
        &ExhibitGrid::paper().cells(seed),
        |&k| k,
        base,
        |ctx, key| {
            let best = t.choose_gt(ctx);
            let i = paper_ref::paper_procs(key.app)
                .iter()
                .position(|&n| n == key.nprocs)
                .expect("paper grid cell");
            Table3Row {
                app: key.app.name().to_string(),
                nprocs: key.nprocs,
                gt_us: best.gt_us,
                hit_rate_pct: best.hit_rate_pct,
                paper_gt_us: paper_ref::table3_gt(key.app)[i],
                paper_hit_pct: paper_ref::table3_hit(key.app)[i],
            }
        },
    )
}

fn table4(t: &Traced, e: &SweepEngine, seed: u64, base: u64) -> Vec<Table4Row> {
    cells(
        e,
        &cell_keys("table4.json", seed),
        |&k| k,
        base,
        |ctx, key| {
            let best = t.choose_gt(ctx);
            let cfg = RunConfig::new(best.gt_us, SELECT_DISPLACEMENT);
            let (_, _, st) = t.runtime_only(&ctx.trace, &cfg, ctx.rank_jobs);
            Table4Row {
                app: key.app.name().to_string(),
                ppa_invoked_pct: st.ppa_invocation_pct(),
                overhead_per_invoked_us: st.overhead_per_invoked_call_us(),
                overhead_per_call_us: st.overhead_per_call_us(),
                paper: paper_ref::table4(key.app),
            }
        },
    )
}

fn figure(t: &Traced, e: &SweepEngine, displacement: f64, seed: u64, base: u64) -> FigureData {
    let grid = ExhibitGrid::paper();
    let keys = grid.cells(seed);
    let measured: Vec<(f64, f64, f64)> = cells(
        e,
        &keys,
        |&k| k,
        base,
        |ctx, _| {
            let best = t.choose_gt(ctx);
            let cfg = RunConfig::new(best.gt_us, displacement);
            let baseline = t.baseline(ctx);
            let pc = cfg.power_config();
            let ann = t.annotate(&ctx.trace, &pc, ctx.rank_jobs);
            let managed = t.replay(
                "network.managed_replay",
                &ctx.trace,
                Some(&ann),
                &SimParams::paper(),
            );
            span("analysis.collect", || {
                let _ = (
                    ann.mean_hit_rate_pct(),
                    ann.mean_est_power_saving_pct(pc.low_power_fraction),
                );
                let _ = ann.aggregate_stats();
                span("trace.idle_distribution", || {
                    IdleDistribution::from_trace(&ctx.trace)
                });
                (
                    best.gt_us,
                    managed.power_saving_pct(),
                    managed.slowdown_pct(&baseline),
                )
            })
        },
    );
    // Regroup exactly as `exhibits::figure` does.
    let mut flat = measured.into_iter();
    let rows = AppKind::ALL
        .iter()
        .map(|&app| {
            let procs = grid.procs(app);
            let full = paper_ref::paper_procs(app);
            let idx: Vec<usize> = procs
                .iter()
                .map(|&n| full.iter().position(|&m| m == n).unwrap())
                .collect();
            let mut row = FigureRow {
                app: app.name().to_string(),
                procs: procs.clone(),
                gt_us: Vec::new(),
                savings_pct: Vec::new(),
                slowdown_pct: Vec::new(),
                paper_savings_pct: idx
                    .iter()
                    .map(|&i| paper_ref::savings(app, displacement)[i])
                    .collect(),
                paper_slowdown_pct: if displacement <= 0.02 {
                    idx.iter()
                        .map(|&i| paper_ref::slowdown_disp1(app)[i])
                        .collect()
                } else {
                    Vec::new()
                },
            };
            for _ in &procs {
                let (gt, saving, slowdown) = flat.next().expect("one result per cell");
                row.gt_us.push(gt);
                row.savings_pct.push(saving);
                row.slowdown_pct.push(slowdown);
            }
            row
        })
        .collect();
    FigureData { displacement, rows }
}

fn fig10(t: &Traced, e: &SweepEngine, seed: u64, base: u64) -> Fig10Data {
    let curves = cells(
        e,
        &cell_keys("fig10.json", seed),
        |&k| k,
        base,
        |ctx, key| {
            let points = span("analysis.gt_select", || {
                t.sweep(&ctx.trace, SELECT_DISPLACEMENT)
            });
            (key.nprocs, points)
        },
    );
    Fig10Data { curves }
}

/// `generation_frontier`, call for call (its policy list is private, so
/// it is restated here; the byte-equality check pins it).
fn frontier(t: &Traced, e: &SweepEngine, seed: u64, base: u64) -> Vec<GenerationFrontierRow> {
    let policies = |gen: IbGeneration, gt: SimDuration| {
        vec![
            ("wrps", PowerConfig::paper(gt, SELECT_DISPLACEMENT)),
            (
                "deep",
                PowerConfig::paper(gt, SELECT_DISPLACEMENT).with_deep_sleep(DEEP_THRESHOLD),
            ),
            ("ladder", gen.ladder().power_config(gt, SELECT_DISPLACEMENT)),
        ]
    };
    for gen in FRONTIER_GENERATIONS {
        gen.switch_power_model().validate().expect("switch model");
        gen.ladder().validate().expect("ladder");
        for (_, cfg) in policies(gen, SimDuration::from_us(20)) {
            cfg.validate().expect("policy");
        }
    }
    let items: Vec<(IbGeneration, CellKey)> = FRONTIER_GENERATIONS
        .iter()
        .flat_map(|&g| {
            AppKind::ALL
                .iter()
                .map(move |&a| (g, frontier_key(a, seed)))
        })
        .collect();
    let per_cell = cells(
        e,
        &items,
        |&(_, k)| k,
        base,
        |ctx, &(gen, key)| {
            let params = gen.sim_params();
            let baseline = if gen == IbGeneration::Qdr {
                t.baseline(ctx)
            } else {
                Arc::new(t.replay("network.baseline_replay", &ctx.trace, None, &params))
            };
            let model = gen.switch_power_model();
            policies(gen, SimDuration::from_us(20))
                .into_iter()
                .map(|(name, cfg)| {
                    let ann = t.annotate(&ctx.trace, &cfg, ctx.rank_jobs);
                    let managed =
                        t.replay("network.managed_replay", &ctx.trace, Some(&ann), &params);
                    span("analysis.collect", || {
                        let report = model.report(&managed, managed.exec_time);
                        GenerationFrontierRow {
                            generation: gen.name().to_string(),
                            link_gbps: gen.link_gbps(),
                            app: key.app.name().to_string(),
                            nprocs: key.nprocs,
                            policy: name.to_string(),
                            saving_pct: managed.power_saving_pct(),
                            slowdown_pct: managed.slowdown_pct(&baseline),
                            switch_saving_pct: report.switch_saving_pct,
                            wrps_time_pct: 100.0 * managed.mean_low_fraction(),
                            rate_time_pct: 100.0 * managed.mean_rate_fraction(),
                            deep_time_pct: 100.0 * managed.mean_deep_fraction(),
                        }
                    })
                })
                .collect::<Vec<_>>()
        },
    );
    per_cell.into_iter().flatten().collect()
}

/// A sweep engine whose trace generation is a `workloads.generate` span.
fn traced_engine(jobs: usize, counters: Arc<Counters>) -> SweepEngine {
    let inner = default_trace_fn();
    SweepEngine::with_trace_fn(
        SweepOptions::with_jobs(jobs),
        Arc::new(move |key: &CellKey| {
            let t = span("workloads.generate", || inner(key));
            counters
                .generated_events
                .fetch_add(t.total_calls() as u64, Ordering::Relaxed);
            t
        }),
    )
}

/// The traced pass: the copy of the workload's exhibit code, with every
/// layer call inside a span, writing under `dir`. Returns its wall time,
/// its output files and its engine.
fn traced_pass(
    kind: Kind,
    seed: u64,
    jobs: usize,
    dir: &Path,
    t: &Traced,
) -> Result<(f64, Files, SweepEngine), String> {
    let t0 = Instant::now();
    let engine = traced_engine(jobs, Arc::clone(&t.counters));
    let out = OutputDir::new(dir).map_err(|e| e.to_string())?;
    let mut base = 0u64;
    for &(file, ncells) in exhibits_of(kind) {
        let json = match file {
            "table1.json" => to_json(&table1(&engine, seed, base)),
            "table3.json" => to_json(&table3(t, &engine, seed, base)),
            "table4.json" => to_json(&table4(t, &engine, seed, base)),
            "fig10.json" => to_json(&fig10(t, &engine, seed, base)),
            "generation_frontier.json" => to_json(&frontier(t, &engine, seed, base)),
            fig => to_json(&figure(t, &engine, displacement_of(fig), seed, base)),
        }?;
        span("analysis.output", || out.write_text(file, &json)).map_err(|e| e.to_string())?;
        base += ncells;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Ok((wall_s, read_files(kind, dir)?, engine))
}

fn to_json<T: serde::Serialize>(v: &T) -> Result<String, String> {
    serde_json::to_string_pretty(v).map_err(|e| e.to_string())
}

/// The workload's output files under `dir`, in exhibit order.
fn read_files(kind: Kind, dir: &Path) -> Result<Files, String> {
    exhibits_of(kind)
        .iter()
        .map(|&(file, _)| {
            std::fs::read(dir.join(file))
                .map(|bytes| (file, bytes))
                .map_err(|e| format!("{file}: {e}"))
        })
        .collect()
}

/// Trace events over every cell of every exhibit of the workload (a cell
/// counts once per exhibit that runs it). Counted once per run, outside
/// the timed passes.
fn cell_events(kind: Kind, seed: u64) -> u64 {
    let engine = SweepEngine::new(SweepOptions::with_jobs(1));
    exhibits_of(kind)
        .iter()
        .flat_map(|&(file, _)| cell_keys(file, seed))
        .map(|k| engine.trace(&k).total_calls() as u64)
        .sum()
}

/// Cells of every exhibit whose file differs from `reference`.
fn mismatched_cells(
    kind: Kind,
    files: &[(&str, Vec<u8>)],
    reference: &[(&str, Vec<u8>)],
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut which = Vec::new();
    for ((&(name, ncells), (_, a)), (_, b)) in exhibits_of(kind).iter().zip(files).zip(reference) {
        if a != b {
            failed += ncells;
            which.push(name.to_string());
        }
    }
    (failed, which)
}

/// At the paper seed the outputs must equal the committed exhibits:
/// `results/*.json` byte for byte, and `generation_frontier.json` the
/// golden snapshot under the test suite's float tolerance.
fn golden_mismatches(kind: Kind, files: &[(&str, Vec<u8>)]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut which = Vec::new();
    for (&(name, ncells), (_, bytes)) in exhibits_of(kind).iter().zip(files) {
        let ok = if name == "generation_frontier.json" {
            let golden = std::fs::read_to_string(Path::new("tests/golden").join(name)).ok();
            let parse = |s: &str| serde_json::from_str::<serde::Value>(s).ok();
            match (
                golden.as_deref().and_then(parse),
                std::str::from_utf8(bytes).ok().and_then(parse),
            ) {
                (Some(g), Some(a)) => {
                    let mut diffs = Vec::new();
                    ibpower_integration_tests::golden::diff("$", &g, &a, &mut diffs);
                    diffs.is_empty()
                }
                _ => false,
            }
        } else {
            std::fs::read(Path::new("results").join(name))
                .ok()
                .as_deref()
                == Some(&bytes[..])
        };
        if !ok {
            failed += ncells;
            which.push(format!("{name} (vs committed)"));
        }
    }
    (failed, which)
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (s, n) = v
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    s / n.max(1) as f64
}

/// paper_exhibits' simulated results: the mean Fig. 9 switch power saving
/// and execution-time increase over the grid, %.
fn fig9_means(fig: &FigureData) -> (f64, f64) {
    let all = |f: fn(&FigureRow) -> &Vec<f64>| mean(fig.rows.iter().flat_map(|r| f(r).clone()));
    (all(|r| &r.savings_pct), all(|r| &r.slowdown_pct))
}

/// gt_sweep's simulated results: the mean estimated saving at the
/// selected GT, and the mean time the mechanism adds at that GT
/// (runtime-only, so an estimate), %.
fn gt_means(engine: &SweepEngine, seed: u64) -> (f64, f64) {
    let per: Vec<(f64, f64)> = ExhibitGrid::paper()
        .cells(seed)
        .iter()
        .map(|k| {
            let best = engine.choose_gt(k, SELECT_DISPLACEMENT);
            let cfg = RunConfig::new(best.gt_us, SELECT_DISPLACEMENT);
            let r = ibp_analysis::run_runtime_only(&engine.trace(k), k.app, &cfg);
            (best.est_saving_pct, r.stats.added_time_pct())
        })
        .collect();
    (mean(per.iter().map(|x| x.0)), mean(per.iter().map(|x| x.1)))
}

/// What one untraced pass reports.
#[derive(Serialize, Deserialize)]
struct PassReport {
    wall_s: f64,
    /// Peak RSS of the pass's process, MB, sampled by the harness from
    /// outside it (a `--pass` child leaves it 0).
    rss_mb: f64,
    saving_pct: f64,
    slowdown_pct: f64,
    /// The program's sweep counters for the pass.
    stats: SweepStats,
}

/// A child process run to completion.
struct Finished {
    stdout: String,
    wall_s: f64,
    rss_mb: f64,
}

/// Run `cmd` to completion with its standard output captured, timing it
/// and sampling its peak resident set (`VmHWM`, which only grows) every
/// few milliseconds while it runs.
fn run_child(mut cmd: Command) -> Result<Finished, String> {
    let name = format!("{cmd:?}");
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let mut pipe = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let pid = child.id().to_string();
    let mut rss_mb = 0f64;
    let status = loop {
        rss_mb = rss_mb.max(crate::rss_peak_mb(&pid));
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = reader.join().unwrap_or_default();
    if !status.success() {
        return Err(format!("{name} exited with {status}"));
    }
    Ok(Finished {
        stdout,
        wall_s,
        rss_mb,
    })
}

/// One untraced paper_exhibits pass: `ibpower exhibits all` writing under
/// `dir`. Saving and slowdown come from its fig9.json, the sweep counters
/// from its stats sidecar.
fn cli_pass(o: &Opts, dir: &Path) -> Result<(PassReport, Files), String> {
    let mut cmd = Command::new(&o.ibpower);
    cmd.args(["exhibits", "all", "--jobs"])
        .arg(crate::jobs().to_string())
        .arg("--seed")
        .arg(o.seed.to_string())
        .arg("--out")
        .arg(dir);
    let f = run_child(cmd)?;
    let files = read_files(Kind::Paper, dir)?;
    let fig9 = files
        .iter()
        .find(|(name, _)| *name == "fig9.json")
        .and_then(|(_, b)| std::str::from_utf8(b).ok())
        .ok_or("no fig9.json")?;
    let fig9: FigureData = serde_json::from_str(fig9).map_err(|e| format!("fig9.json: {e}"))?;
    let (saving_pct, slowdown_pct) = fig9_means(&fig9);
    let stats = std::fs::read_to_string(dir.join("all.stats.json"))
        .map_err(|e| format!("all.stats.json: {e}"))?;
    let stats = serde_json::from_str(&stats).map_err(|e| format!("all.stats.json: {e}"))?;
    let report = PassReport {
        wall_s: f.wall_s,
        rss_mb: f.rss_mb,
        saving_pct,
        slowdown_pct,
        stats,
    };
    Ok((report, files))
}

/// One untraced gt_sweep pass, in a fresh process of this binary
/// (`--pass`), writing under `dir`.
fn gt_pass(o: &Opts, dir: &Path) -> Result<(PassReport, Files), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--pass")
        .arg(o.seed.to_string())
        .arg(crate::jobs().to_string())
        .arg(dir);
    let f = run_child(cmd)?;
    let line = f.stdout.lines().last().unwrap_or_default();
    let mut report: PassReport =
        serde_json::from_str(line).map_err(|e| format!("pass report: {e}"))?;
    report.rss_mb = f.rss_mb;
    Ok((report, read_files(Kind::GtSweep, dir)?))
}

/// Child-process mode (`--pass <seed> <jobs> <dir>`): one untraced
/// gt_sweep pass through the library's exhibit functions, printing its
/// [`PassReport`] as one JSON line.
pub fn pass_child(args: &[String]) -> Result<(), String> {
    let [seed, jobs, dir] = args else {
        return Err("--pass needs <seed> <jobs> <dir>".into());
    };
    let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
    let jobs: usize = jobs.parse().map_err(|_| "bad jobs".to_string())?;
    let io = |e: std::io::Error| format!("writing under {dir}: {e}");
    let t0 = Instant::now();
    let engine = SweepEngine::new(SweepOptions::with_jobs(jobs));
    let out = OutputDir::new(dir).map_err(io)?;
    let t3 = exhibits::table3(&engine, &ExhibitGrid::paper(), seed);
    out.write_json("table3.json", &t3).map_err(io)?;
    let f10 = exhibits::fig10(&engine, seed);
    out.write_json("fig10.json", &f10).map_err(io)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    let (saving_pct, slowdown_pct) = gt_means(&engine, seed);
    let report = PassReport {
        wall_s,
        rss_mb: 0.0,
        saving_pct,
        slowdown_pct,
        stats,
    };
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Passes a run measures at least, so that passes are always compared
/// with each other; with two, the reported wall time is their mean.
const MIN_PASSES: usize = 2;

/// Share of worker busy time, in %, the traced pass's layer spans must
/// cover.
const MIN_COVERAGE_PCT: f64 = 90.0;

/// Run the workload: untraced passes for `o.seconds` (at least
/// [`MIN_PASSES`]), and with `o.trace` one more traced pass.
pub fn run(o: &Opts, kind: Kind) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut out = Outcome::default();
    let cells_per_pass: u64 = exhibits_of(kind).iter().map(|e| e.1).sum();
    let events = cell_events(kind, o.seed);

    let started = Instant::now();
    let mut passes: Vec<PassReport> = Vec::new();
    let mut first_files = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < o.seconds {
        setup.extend(crate::probe_offline_setup()?);
        let dir = o.out.join(format!("untraced-{}", passes.len()));
        let (p, files) = match kind {
            Kind::Paper => cli_pass(o, &dir)?,
            Kind::GtSweep => gt_pass(o, &dir)?,
        };
        out.attempted += cells_per_pass;
        if passes.is_empty() {
            first_files = files;
        } else {
            let (failed, which) = mismatched_cells(kind, &files, &first_files);
            out.fail(
                failed,
                which.iter().map(|w| format!("{w} differs between passes")),
            );
        }
        passes.push(p);
    }
    if o.seed == exhibits::SEED {
        let (failed, which) = golden_mismatches(kind, &first_files);
        out.fail(failed, which.into_iter());
        out.notes
            .push("outputs compared with the committed exhibits (paper seed)".into());
    }
    let (saving, slowdown) = (passes[0].saving_pct, passes[0].slowdown_pct);
    if !(saving > 0.0 && saving < 100.0) {
        out.fail(1, std::iter::once(format!("implausible saving {saving}%")));
    }

    // One pass is one request for every output of the workload, so the
    // latency distribution is the pass walls.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall = stats::median(&walls).unwrap();
    let lat = Dist::of(&walls).unwrap();
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    let e = &mut out.e2e;
    setup.extend(crate::probe_offline_setup()?);
    e.put("setup_s", stats::median(&setup).unwrap(), "s");
    e.put("wall_s", wall, "s");
    e.put("rss_peak_mb", stats::median(&rss).unwrap(), "MB");
    e.put("saving_pct", saving, "%");
    e.put("slowdown_pct", slowdown, "%");
    e.put("events_per_s", events as f64 / wall, "events/s");
    e.put("lat_p50_us", wall * 1e6, "us");
    e.put("lat_p99_us", lat.p99 * 1e6, "us");
    out.notes.push(format!(
        "{} passes of {walls:.3?} s; latency is per pass: p50 is the median pass \
         (the mean of the middle two for an even count), p99 the slowest",
        lat.n
    ));

    if o.trace {
        traced(o, kind, &passes[0], &first_files, wall, &mut out)?;
    }
    Ok(out)
}

/// The traced pass and the per-layer metrics it yields.
fn traced(
    o: &Opts,
    kind: Kind,
    untraced: &PassReport,
    untraced_files: &[(&str, Vec<u8>)],
    untraced_wall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let jobs = crate::jobs();
    let counters = Arc::new(Counters::default());
    let t = Traced {
        baselines: Memo::new(),
        gts: Memo::new(),
        counters: Arc::clone(&counters),
    };
    span::enable(true);
    let (wall_s, files, engine) = traced_pass(kind, o.seed, jobs, &o.out.join("traced"), &t)?;
    span::enable(false);
    let traced_stats = engine.stats();
    out.attempted += exhibits_of(kind).iter().map(|e| e.1).sum::<u64>();
    let (failed, which) = mismatched_cells(kind, &files, untraced_files);
    out.fail(
        failed,
        which
            .iter()
            .map(|w| format!("{w}: traced output differs from untraced")),
    );
    // The copy must make the program's calls: as many cells, trace
    // generations, baseline replays and GT selections as the program's
    // own engine counted.
    let s = &untraced.stats;
    let calls = [
        ("cells", s.cells, traced_stats.cells),
        (
            "traces generated",
            s.traces_generated,
            traced_stats.traces_generated,
        ),
        (
            "baselines computed",
            s.baselines_computed,
            t.baselines.fills.load(Ordering::Relaxed),
        ),
        (
            "GT selections computed",
            s.gt_selections,
            t.gts.fills.load(Ordering::Relaxed),
        ),
    ];
    let off: Vec<String> = calls
        .iter()
        .filter(|c| c.1 != c.2)
        .map(|(what, program, copy)| {
            format!("traced copy: {what} {copy}, the program's engine {program}")
        })
        .collect();
    out.fail(off.len() as u64, off.into_iter());

    let spans = span::drain();
    let self_ns = stats::self_times(&spans);
    let sum_ns = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum::<u64>()
    };
    let sum_ms = |name: &str| sum_ns(name) as f64 / 1e6;
    let c = &counters;
    let l = &mut out.layer;
    let generated = c.generated_events.load(Ordering::Relaxed);
    l.put("workloads.generate_ms", sum_ms("workloads.generate"), "ms");
    l.put("workloads.events", generated as f64, "count");
    let annotated = c.annotated_events.load(Ordering::Relaxed);
    l.put("analysis.gt_select_ms", sum_ms("analysis.gt_select"), "ms");
    l.put(
        "analysis.gt_points",
        c.gt_points.load(Ordering::Relaxed) as f64,
        "count",
    );
    l.put("core.annotate_ms", sum_ms("core.annotate"), "ms");
    l.put(
        "core.annotate_ns_per_event",
        sum_ms("core.annotate") * 1e6 / annotated.max(1) as f64,
        "ns",
    );
    l.put(
        "core.hit_rate_pct",
        stats::hit_rate_pct(
            c.correct_calls.load(Ordering::Relaxed),
            c.total_calls.load(Ordering::Relaxed),
        )
        .unwrap_or(0.0),
        "%",
    );
    l.put(
        "core.mispredictions",
        c.mispredictions.load(Ordering::Relaxed) as f64,
        "count",
    );
    l.put(
        "trace.idle_distribution_ms",
        sum_ms("trace.idle_distribution"),
        "ms",
    );

    let replayed = c.replayed.lock().unwrap().clone();
    let (ev, ns) = replayed
        .values()
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    if ev > 0 {
        l.put(
            "network.baseline_replay_ms",
            sum_ms("network.baseline_replay"),
            "ms",
        );
        l.put(
            "network.managed_replay_ms",
            sum_ms("network.managed_replay"),
            "ms",
        );
        l.put("network.replay_ns_per_event", ns as f64 / ev as f64, "ns");
        for b in ["r8_16", "r32_36", "r64", "r100_128"] {
            if let Some(&(ev, ns)) = replayed.get(b) {
                l.put(
                    format!("network.replay_ns_per_event.{b}"),
                    ns as f64 / ev as f64,
                    "ns",
                );
            }
        }
    }

    // Cache counters are the program's own, from the untraced pass.
    for (name, v) in [
        ("cells", s.cells),
        ("traces_generated", s.traces_generated),
        ("trace_hits", s.trace_hits),
        ("baselines_computed", s.baselines_computed),
        ("baseline_hits", s.baseline_hits),
        ("gt_selections", s.gt_selections),
        ("gt_hits", s.gt_hits),
    ] {
        l.put(format!("analysis.sweep.{name}"), v as f64, "count");
    }
    // Worker busy time: root spans on pool threads (cells, and trace
    // generation, which the engine runs before handing a cell over).
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == 0 && (s.name == "analysis.cell" || s.name == "workloads.generate"))
        .collect();
    let busy_ns: u64 = roots.iter().map(|s| s.dur_ns()).sum();
    let unattributed_ns: u64 = roots
        .iter()
        .filter(|s| s.name == "analysis.cell")
        .map(|s| self_ns[&s.id])
        .sum();
    // Time blocked on another thread's cache fill is no layer's work.
    let waited_ns = sum_ns("analysis.sweep.cache_wait");
    let wall_ns = (wall_s * 1e9) as u64;
    l.put(
        "analysis.sweep.pool_busy_ratio",
        stats::pool_busy_ratio(busy_ns, wall_ns, jobs).unwrap_or(0.0),
        "ratio",
    );
    let longest = spans
        .iter()
        .filter(|s| s.name == "analysis.cell")
        .map(|s| s.dur_ns())
        .max()
        .unwrap_or(0);
    l.put("analysis.sweep.longest_cell_ms", longest as f64 / 1e6, "ms");
    l.put("analysis.sweep.cache_wait_ms", waited_ns as f64 / 1e6, "ms");
    l.put("analysis.output_ms", sum_ms("analysis.output"), "ms");
    let coverage = stats::layer_coverage_pct(busy_ns, unattributed_ns, waited_ns).unwrap_or(0.0);
    l.put("span.layer_coverage_pct", coverage, "%");
    l.put("tracing.traced_wall_ratio", wall_s / untraced_wall, "ratio");
    if coverage < MIN_COVERAGE_PCT {
        out.fail(
            1,
            std::iter::once(format!(
                "layer spans cover {coverage:.1}% of worker busy time, \
                 below {MIN_COVERAGE_PCT}%"
            )),
        );
    }

    // Out-of-band layer probes on one of the workload's own traces.
    let probe_trace = engine.trace(&CellKey::new(AppKind::Gromacs, 64, o.seed));
    drop(engine);
    let streams: Vec<_> = probe_trace
        .ranks
        .iter()
        .map(|r| (r.rank, probes::wire_events(r)))
        .collect();
    let replay_probe = (ev == 0).then_some(&*probe_trace);
    let pr = probes::run(&streams, replay_probe, &o.out.join("probe-store"))?;
    pr.put_into(&mut out.layer);
    out.spans = spans;
    Ok(())
}
