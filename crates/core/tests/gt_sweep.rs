//! Differential oracle for the class-based GT sweep: on every rank and at
//! every grid point, `annotate_gt_sweep_stats` must equal a separate
//! stats-only pass at that grouping threshold (`annotate_trace_stats`),
//! compared as whole `RankStats` values.

use ibp_core::{annotate_gt_sweep_stats, annotate_trace_stats, PowerConfig, ResilienceConfig};
use ibp_simcore::SimDuration;
use ibp_trace::{MpiOp, Trace, TraceBuilder};
use proptest::prelude::*;

mod common;
use common::paper_trace;

/// The smallest legal grouping threshold, `2·T_react`.
const GT_MIN_NS: u64 = 20_000;

/// A call the generated streams can carry without peers.
fn op_of(idx: u8) -> MpiOp {
    match idx % 4 {
        0 => MpiOp::Barrier,
        1 => MpiOp::Allreduce { bytes: 8 },
        2 => MpiOp::Allgather { bytes: 64 },
        _ => MpiOp::Alltoall { bytes: 32 },
    }
}

/// An ascending grid from a first point at least `2·T_react` and
/// positive steps (ns).
fn grid(first_ns: u64, steps: &[u64]) -> Vec<SimDuration> {
    let mut g = vec![SimDuration::from_ns(GT_MIN_NS + first_ns)];
    for &s in steps {
        let next = *g.last().unwrap() + SimDuration::from_ns(s);
        g.push(next);
    }
    g
}

/// The gap a generated `(kind, value)` pair stands for, placed relative
/// to the grid so gaps land on, just below and just above grid points
/// as well as inside grams and far beyond the grid.
fn gap(kind: u8, value: u64, gts: &[SimDuration]) -> SimDuration {
    let ns = SimDuration::from_ns;
    let at = gts[value as usize % gts.len()];
    let last = *gts.last().unwrap();
    match kind % 7 {
        0 | 1 => ns(value % GT_MIN_NS),
        2 => at,
        3 => at - ns(1),
        4 => at + ns(value % 1_000),
        5 => last + ns(value % 2_000_000),
        _ => ns(value % (last.as_ns() + 100_000)),
    }
}

/// One rank's stream: phases of a repeated motif of `(call, gap kind,
/// gap value, other gap kind, every)` steps. Repeats let the PPA declare
/// patterns; a new phase breaks them, and so does a step taking its
/// other gap on every `every`-th repeat (a gram ending early or late).
type Phase = (Vec<(u8, u8, u64, u8, usize)>, usize);

fn build(ranks: &[Vec<Phase>], tails: &[u64], gts: &[SimDuration]) -> Trace {
    let mut b = TraceBuilder::new("gt-sweep", ranks.len() as u32);
    for (r, phases) in ranks.iter().enumerate() {
        let r = r as u32;
        for (motif, repeats) in phases {
            for rep in 1..=*repeats {
                for &(call, kind, value, other, every) in motif {
                    let kind = if rep % every == 0 { other } else { kind };
                    b.compute(r, gap(kind, value, gts));
                    b.op(r, op_of(call));
                }
            }
        }
        b.compute(r, SimDuration::from_ns(tails[r as usize]));
    }
    b.build()
}

/// The configuration under test: one of the three sleep policies, with
/// or without the resilience controller.
fn config(gt: SimDuration, disp: f64, policy: usize, resilient: bool) -> PowerConfig {
    let cfg = PowerConfig::paper(gt, disp);
    let cfg = match policy {
        0 => cfg,
        1 => cfg.with_deep_sleep(SimDuration::from_ms(2)),
        _ => cfg.with_ladder(),
    };
    if resilient {
        cfg.with_resilience(ResilienceConfig::with_budget(2.0))
    } else {
        cfg
    }
}

/// Compare the class sweep with one pass per grid point, rank by rank.
fn check(trace: &Trace, base: &PowerConfig, gts: &[SimDuration]) -> Result<(), String> {
    let swept = annotate_gt_sweep_stats(trace, base, gts);
    let nranks = trace.ranks.len() as u64;
    if swept.per_gt.len() != gts.len() {
        return Err(format!(
            "{} grid points swept, {} asked",
            swept.per_gt.len(),
            gts.len()
        ));
    }
    if swept.rank_passes < nranks || swept.rank_passes > nranks * gts.len() as u64 {
        return Err(format!(
            "{} rank passes for {nranks} ranks",
            swept.rank_passes
        ));
    }
    let mut distinct = 0u64;
    for (i, &gt) in gts.iter().enumerate() {
        let cfg = PowerConfig {
            grouping_threshold: gt,
            ..base.clone()
        };
        let brute = annotate_trace_stats(trace, &cfg, 1);
        for (r, (got, want)) in swept.per_gt[i].iter().zip(&brute).enumerate() {
            if got != want {
                return Err(format!("rank {r} at GT {gt}: {got:?} != {want:?}"));
            }
            if i == 0 || swept.per_gt[i - 1][r] != *got {
                distinct += 1;
            }
        }
    }
    // A class never spans two different results.
    if swept.rank_passes < distinct {
        return Err(format!(
            "{} rank passes for {distinct} distinct results",
            swept.rank_passes
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random multi-phase streams on one to three ranks, with gaps on,
    /// next to and between the points of a random ascending grid.
    #[test]
    fn class_sweep_equals_a_pass_per_grid_point(
        first_ns in 0u64..40_000,
        steps in proptest::collection::vec(1u64..150_000, 1..9),
        ranks in proptest::collection::vec(
            proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0u8..4, 0u8..7, 0u64..u64::MAX / 2, 0u8..7, 2usize..12),
                        1..6,
                    ),
                    1usize..40,
                ),
                1..5,
            ),
            1..4,
        ),
        tails in proptest::collection::vec(0u64..1_000_000, 3..4),
        disp_sel in 0usize..3,
        policy in 0usize..3,
        resilient in any::<bool>(),
    ) {
        let gts = grid(first_ns, &steps);
        let trace = build(&ranks, &tails, &gts);
        let disp = [0.01, 0.05, 0.10][disp_sel];
        let base = config(gts[0], disp, policy, resilient);
        let verdict = check(&trace, &base, &gts);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The paper workloads at up to 16 ranks, on a random grid.
    #[test]
    fn class_sweep_equals_a_pass_per_grid_point_on_paper_workloads(
        app_idx in 0usize..5,
        nprocs_sel in 0usize..3,
        seed in 0u64..1_000,
        first_ns in 0u64..40_000,
        steps in proptest::collection::vec(1_000u64..120_000, 1..6),
        disp_sel in 0usize..3,
        policy in 0usize..3,
    ) {
        let (_, _, trace) = paper_trace(app_idx, nprocs_sel, seed);
        let gts = grid(first_ns, &steps);
        let base = config(gts[0], [0.01, 0.05, 0.10][disp_sel], policy, false);
        let verdict = check(&trace, &base, &gts);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// Grid points with no call gap between them share one pass, and the
/// sweep still matches a pass per point.
#[test]
fn grid_points_without_gaps_between_them_share_a_pass() {
    let us = SimDuration::from_us;
    let mut b = TraceBuilder::new("two-gap", 2);
    for r in 0..2 {
        for _ in 0..30 {
            b.compute(r, us(2));
            b.op(r, MpiOp::Barrier);
            b.compute(r, us(50));
            b.op(r, MpiOp::Allreduce { bytes: 8 });
            b.compute(r, us(300));
            b.op(r, MpiOp::Allreduce { bytes: 8 });
        }
    }
    let trace = b.build();
    // Classes {20, 30}, {50, 100, 200}, {300, 400}: the 50 µs and 300 µs
    // gaps open the second and third.
    let gts: Vec<SimDuration> = [20, 30, 50, 100, 200, 300, 400].map(us).to_vec();
    let base = PowerConfig::paper(gts[0], 0.01);
    let swept = annotate_gt_sweep_stats(&trace, &base, &gts);
    assert_eq!(swept.rank_passes, 2 * 3);
    assert!(swept.per_gt[0][0].declarations > 0, "no pattern declared");
    check(&trace, &base, &gts).unwrap();
}
