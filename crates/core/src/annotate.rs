//! Whole-trace annotation: run the runtime over every rank.
//!
//! This mirrors the paper's evaluation methodology: the PPA runs over the
//! recorded traces, the resulting lane-off events / overheads /
//! reactivation delays are inserted, and the modified traces are then
//! replayed through the network simulator (`ibp-network`).

use crate::config::PowerConfig;
use crate::runtime::{annotate_rank, annotate_rank_stats, RankAnnotation};
use crate::stats::RankStats;
use ibp_simcore::SimDuration;
use ibp_trace::{RankTrace, Trace};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A trace plus everything the power-saving runtime derived from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceAnnotations {
    /// Per-rank annotations, indexed by rank.
    pub ranks: Vec<RankAnnotation>,
}

impl TraceAnnotations {
    /// Aggregate statistics over all ranks (sums of counters; ratios are
    /// recomputed from the sums, which matches the paper's "averaged over
    /// all MPI processes").
    pub fn aggregate_stats(&self) -> RankStats {
        RankStats::aggregate(self.ranks.iter().map(|r| &r.stats))
    }

    /// Mean per-rank hit rate (Table III averages per process).
    pub fn mean_hit_rate_pct(&self) -> f64 {
        RankStats::mean_hit_rate_pct(self.ranks.iter().map(|r| &r.stats))
    }

    /// Mean per-rank quick power-saving estimate (%), see
    /// [`RankStats::est_power_saving_pct`].
    pub fn mean_est_power_saving_pct(&self, low_power_draw: f64) -> f64 {
        RankStats::mean_est_power_saving_pct(self.ranks.iter().map(|r| &r.stats), low_power_draw)
    }

    /// Total number of lane-off directives across ranks.
    pub fn total_directives(&self) -> usize {
        self.ranks.iter().map(|r| r.directives.len()).sum()
    }
}

/// Below this many total trace events, `map_ranks` ignores `jobs` and
/// runs serially. Even on the persistent pool (no thread spawning since
/// the work-stealing rewrite) a parallel map still pays queueing and
/// wake-up latency per task, and annotation runs at roughly a
/// microsecond per event, so tiny traces finish faster inline. 32k
/// events puts the cutover where coordination is safely under ~1% of
/// the serial runtime.
pub const SERIAL_CUTOVER_EVENTS: usize = 32 * 1024;

/// The worker count `map_ranks` will actually use for `ranks` when asked
/// for `jobs`: clamped to the rank count, and forced to 1 below the
/// [`SERIAL_CUTOVER_EVENTS`] size cutover. Exposed so benches and tests
/// can assert the cutover without timing anything.
pub fn effective_jobs(ranks: &[RankTrace], jobs: usize) -> usize {
    let jobs = jobs.max(1).min(ranks.len().max(1));
    if jobs <= 1 {
        return 1;
    }
    let events: usize = ranks.iter().map(|r| r.events.len()).sum();
    if events < SERIAL_CUTOVER_EVENTS {
        1
    } else {
        jobs
    }
}

/// Map `f` over the ranks of a trace on up to `jobs` worker threads,
/// collecting results in rank order. Ranks are annotated independently
/// (the runtime holds no cross-rank state), so the output is
/// byte-identical to the serial map *by construction* — parallelism only
/// changes which thread computes each element, never the element.
///
/// `jobs <= 1` (or a single rank) runs inline with no pool at all, and
/// small inputs are forced serial — see [`effective_jobs`].
pub fn map_ranks<T, F>(ranks: &[RankTrace], jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&RankTrace) -> T + Sync,
{
    let jobs = effective_jobs(ranks, jobs);
    if jobs <= 1 || ranks.len() <= 1 {
        return ranks.iter().map(f).collect();
    }
    // Runs on the process-wide persistent pool: spawning exactly `jobs`
    // self-scheduling tasks caps concurrency at `jobs` regardless of the
    // pool's width, and repeated calls reuse the same parked workers.
    let slots: Vec<Mutex<Option<T>>> = ranks.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    rayon::global_pool().scope(|s| {
        for _ in 0..jobs {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ranks.len() {
                    break;
                }
                let out = f(&ranks[i]);
                *slots[i].lock().expect("rank slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("rank slot poisoned")
                .expect("every rank index was claimed exactly once")
        })
        .collect()
}

/// Run the power-saving runtime over every rank of `trace`.
pub fn annotate_trace(trace: &Trace, cfg: &PowerConfig) -> TraceAnnotations {
    annotate_trace_jobs(trace, cfg, 1)
}

/// [`annotate_trace`] with rank-level parallelism on up to `jobs`
/// threads. Output is identical to the serial version for any `jobs`.
pub fn annotate_trace_jobs(trace: &Trace, cfg: &PowerConfig, jobs: usize) -> TraceAnnotations {
    TraceAnnotations {
        ranks: map_ranks(&trace.ranks, jobs, |r| annotate_rank(r, cfg)),
    }
}

/// Per-rank statistics of [`annotate_trace_jobs`] without its per-event
/// output: the runtime makes the same decisions but records no
/// directives, overheads or penalties. GT sweeps and other runtime-only
/// passes read nothing else. Equal to
/// `annotate_trace_jobs(trace, cfg, jobs).ranks[i].stats` for every rank.
pub fn annotate_trace_stats(trace: &Trace, cfg: &PowerConfig, jobs: usize) -> Vec<RankStats> {
    map_ranks(&trace.ranks, jobs, |r| annotate_rank_stats(r, cfg))
}

/// The per-rank statistics of a runtime-only sweep over a GT grid; see
/// [`annotate_gt_sweep_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct GtSweepStats {
    /// `per_gt[i][r]`: rank `r`'s statistics at grid point `i`, equal to
    /// `annotate_trace_stats` at that grouping threshold.
    pub per_gt: Vec<Vec<RankStats>>,
    /// Rank annotations the sweep ran: one per rank per GT class.
    pub rank_passes: u64,
}

/// The GT classes of one rank on the strictly ascending grid `gts`, as
/// the index of each class's first grid point (always starting with 0).
///
/// The runtime reads the grouping threshold only as `gap < GT`, so two
/// neighbouring grid points give the rank the same grams, predictions
/// and [`RankStats`] unless one of its call gaps lies in
/// `[gts[i-1], gts[i])`; only such a gap starts a new class at `i`.
fn gt_class_starts(rank: &RankTrace, gts: &[SimDuration]) -> Vec<usize> {
    let mut starts_class = vec![false; gts.len()];
    if let Some(first) = starts_class.first_mut() {
        *first = true;
    }
    for e in &rank.events {
        // `i` grid points lie at or below the gap: it is in `[gts[i-1], gts[i])`.
        let i = gts.partition_point(|&g| g <= e.compute_before);
        if (1..gts.len()).contains(&i) {
            starts_class[i] = true;
        }
    }
    (0..gts.len()).filter(|&i| starts_class[i]).collect()
}

/// [`annotate_trace_stats`] at every grouping threshold of the strictly
/// ascending grid `gts`, with every other setting taken from `base`
/// (its own threshold is ignored). Each rank is annotated once per GT
/// class (see `gt_class_starts`) and the result copied to the rest of the
/// class, so the output equals a pass per grid point exactly.
///
/// # Panics
/// Panics if `gts` is not strictly ascending.
pub fn annotate_gt_sweep_stats(
    trace: &Trace,
    base: &PowerConfig,
    gts: &[SimDuration],
) -> GtSweepStats {
    assert!(
        gts.windows(2).all(|w| w[0] < w[1]),
        "GT grid must be strictly ascending"
    );
    let per_rank: Vec<_> = trace
        .ranks
        .iter()
        .map(|rank| {
            let starts = gt_class_starts(rank, gts);
            let mut stats = Vec::with_capacity(gts.len());
            for (c, &first) in starts.iter().enumerate() {
                let end = starts.get(c + 1).copied().unwrap_or(gts.len());
                let cfg = PowerConfig {
                    grouping_threshold: gts[first],
                    ..base.clone()
                };
                let s = annotate_rank_stats(rank, &cfg);
                stats.resize(end, s);
            }
            (stats, starts.len() as u64)
        })
        .collect();
    GtSweepStats {
        per_gt: (0..gts.len())
            .map(|i| per_rank.iter().map(|(s, _)| s[i].clone()).collect())
            .collect(),
        rank_passes: per_rank.iter().map(|(_, n)| n).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_trace::{MpiOp, TraceBuilder};

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    fn alya_like(nprocs: u32, iters: usize) -> Trace {
        let mut b = TraceBuilder::new("alya-like", nprocs);
        for it in 0..iters {
            for r in 0..nprocs {
                let lead = if it == 0 { us(0) } else { us(300) };
                b.compute(r, lead);
                for k in 0..3u64 {
                    if k > 0 {
                        b.compute(r, us(2));
                    }
                    b.op(
                        r,
                        MpiOp::Sendrecv {
                            to: (r + 1) % nprocs,
                            send_bytes: 2048,
                            from: (r + nprocs - 1) % nprocs,
                            recv_bytes: 2048,
                        },
                    );
                }
                b.compute(r, us(300));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
                b.compute(r, us(300));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
            }
        }
        b.build()
    }

    #[test]
    fn annotates_every_rank() {
        let trace = alya_like(4, 20);
        let cfg = PowerConfig::default();
        let ann = annotate_trace(&trace, &cfg);
        assert_eq!(ann.ranks.len(), 4);
        for (i, r) in ann.ranks.iter().enumerate() {
            assert_eq!(r.rank as usize, i);
            assert_eq!(r.overhead.len(), trace.ranks[i].call_count());
            assert!(r.stats.correct_calls > 0, "rank {i} never predicted");
        }
    }

    #[test]
    fn aggregate_sums_counters() {
        let trace = alya_like(3, 15);
        let ann = annotate_trace(&trace, &PowerConfig::default());
        let agg = ann.aggregate_stats();
        assert_eq!(
            agg.total_calls as usize,
            trace.total_calls(),
            "aggregate call count must equal the trace's"
        );
        let sum: u64 = ann.ranks.iter().map(|r| r.stats.correct_calls).sum();
        assert_eq!(agg.correct_calls, sum);
    }

    #[test]
    fn parallel_annotation_is_byte_identical_to_serial() {
        // Big enough to clear the serial cutover, so jobs > 1 really
        // does run the pool path being checked here.
        let trace = alya_like(6, 1_200);
        assert!(effective_jobs(&trace.ranks, 2) > 1, "trace below cutover");
        let cfg = PowerConfig::default();
        let serial = annotate_trace(&trace, &cfg);
        for jobs in [2, 3, 4, 16] {
            let par = annotate_trace_jobs(&trace, &cfg, jobs);
            assert_eq!(serial, par, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn small_traces_cut_over_to_serial() {
        // Below the event cutover a parallel request degrades to one
        // worker (pool setup would dominate); above it, it sticks.
        let small = alya_like(6, 25);
        let total: usize = small.ranks.iter().map(|r| r.events.len()).sum();
        assert!(total < SERIAL_CUTOVER_EVENTS);
        assert_eq!(effective_jobs(&small.ranks, 4), 1);
        assert_eq!(effective_jobs(&small.ranks, 1), 1);

        let big = alya_like(6, 1_200);
        let total: usize = big.ranks.iter().map(|r| r.events.len()).sum();
        assert!(total >= SERIAL_CUTOVER_EVENTS);
        assert_eq!(effective_jobs(&big.ranks, 4), 4);
        // Still clamped to the rank count and to >= 1.
        assert_eq!(effective_jobs(&big.ranks, 64), 6);
        assert_eq!(effective_jobs(&[], 4), 1);

        // Cutover or not, the output never changes.
        let cfg = PowerConfig::default();
        assert_eq!(
            annotate_trace(&small, &cfg),
            annotate_trace_jobs(&small, &cfg, 4)
        );
    }

    #[test]
    fn symmetric_ranks_have_symmetric_outcomes() {
        // Every rank runs the same pattern, so hit rates must agree.
        let trace = alya_like(4, 30);
        let ann = annotate_trace(&trace, &PowerConfig::default());
        let rates: Vec<f64> = ann.ranks.iter().map(|r| r.stats.hit_rate_pct()).collect();
        for r in &rates[1..] {
            assert!((r - rates[0]).abs() < 1e-9, "rates diverged: {rates:?}");
        }
        assert!(ann.mean_hit_rate_pct() > 80.0);
        assert!(ann.mean_est_power_saving_pct(0.43) > 10.0);
        assert!(ann.total_directives() > 0);
    }
}
