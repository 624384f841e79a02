//! Grouping-threshold evaluation and selection (Table III, Fig. 10).
//!
//! The paper evaluates PPA prediction quality across a range of GT values
//! (Fig. 10 shows the GROMACS curves) and picks, per application and
//! scale, the GT that maximises correct prediction while not grouping
//! away the exploitable idle intervals (Table III). We sweep the same
//! range with the runtime-only pass (no network replay needed) and select
//! by the quick power-saving estimate, which penalises both failure
//! modes: mispredictions (low coverage) and over-grouping (idle windows
//! swallowed into grams). Hit rate breaks ties, then the smaller GT.
//!
//! A rank's curve is a step function of GT: grid points with none of
//! the rank's call gaps between them form one class with equal stats
//! (see [`ibp_core::annotate_gt_sweep_stats`]), so the sweep annotates
//! each rank once per class, not once per point.

use crate::experiment::RunConfig;
use ibp_core::{annotate_gt_sweep_stats, RankStats};
use ibp_simcore::SimDuration;
use ibp_trace::Trace;
use serde::{Deserialize, Serialize};

/// The GT grid swept, in µs. Starts at the legal minimum `2·T_react`
/// and covers the paper's Fig. 10 range (up to 400 µs), including every
/// value Table III reports.
pub const GT_GRID_US: &[f64] = &[
    20.0, 22.0, 26.0, 30.0, 36.0, 46.0, 50.0, 56.0, 72.0, 100.0, 136.0, 150.0, 186.0, 222.0, 260.0,
    290.0, 300.0, 340.0, 382.0, 400.0,
];

/// One sweep point (one GT value on one trace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GtPoint {
    /// Grouping threshold, µs.
    pub gt_us: f64,
    /// Correctly predicted MPI calls, %.
    pub hit_rate_pct: f64,
    /// Quick power-saving estimate, %.
    pub est_saving_pct: f64,
}

/// Sweep the GT grid over one trace (stats-only runtime pass, one per
/// rank per GT class).
pub fn sweep(trace: &Trace, displacement: f64) -> Vec<GtPoint> {
    sweep_counted(trace, displacement).0
}

/// [`sweep`] plus the rank annotations it ran (for
/// [`SweepStats::gt_rank_passes`](crate::SweepStats::gt_rank_passes)).
pub(crate) fn sweep_counted(trace: &Trace, displacement: f64) -> (Vec<GtPoint>, u64) {
    let base = RunConfig::new(GT_GRID_US[0], displacement).power_config();
    let gts: Vec<SimDuration> = GT_GRID_US
        .iter()
        .map(|&gt| SimDuration::from_us_f64(gt))
        .collect();
    let swept = annotate_gt_sweep_stats(trace, &base, &gts);
    let points = GT_GRID_US
        .iter()
        .zip(&swept.per_gt)
        .map(|(&gt, ranks)| GtPoint {
            gt_us: gt,
            hit_rate_pct: RankStats::mean_hit_rate_pct(ranks),
            est_saving_pct: RankStats::mean_est_power_saving_pct(ranks, base.low_power_fraction),
        })
        .collect();
    (points, swept.rank_passes)
}

/// Select the best GT from a sweep: maximise the saving estimate, break
/// ties by hit rate, then by the smaller threshold.
pub fn select(points: &[GtPoint]) -> &GtPoint {
    points
        .iter()
        .max_by(|a, b| {
            a.est_saving_pct
                .partial_cmp(&b.est_saving_pct)
                .unwrap()
                .then(a.hit_rate_pct.partial_cmp(&b.hit_rate_pct).unwrap())
                .then(b.gt_us.partial_cmp(&a.gt_us).unwrap())
        })
        .expect("non-empty sweep")
}

/// Sweep + select in one step for an application at one scale.
pub fn choose_gt(trace: &Trace, displacement: f64) -> GtPoint {
    let points = sweep(trace, displacement);
    select(&points).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workloads::Workload;

    fn small_alya(n: u32) -> Trace {
        let alya = ibp_workloads::Alya {
            iterations: 40,
            ..Default::default()
        };
        alya.generate(n, 5)
    }

    #[test]
    fn sweep_covers_grid() {
        let t = small_alya(8);
        let pts = sweep(&t, 0.01);
        assert_eq!(pts.len(), GT_GRID_US.len());
        assert!(pts.iter().all(|p| p.hit_rate_pct >= 0.0));
    }

    #[test]
    fn grid_starts_at_legal_minimum() {
        assert_eq!(GT_GRID_US[0], 20.0);
        assert!(GT_GRID_US.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn selection_maximises_estimate() {
        let t = small_alya(8);
        let pts = sweep(&t, 0.01);
        let best = select(&pts);
        assert!(pts.iter().all(|p| p.est_saving_pct <= best.est_saving_pct));
        // ALYA at 8 ranks saves meaningfully at its best GT.
        assert!(best.est_saving_pct > 20.0, "{:?}", best);
    }

    #[test]
    fn selection_breaks_exact_ties_towards_the_smallest_gt() {
        let p = |gt_us, hit_rate_pct, est_saving_pct| GtPoint {
            gt_us,
            hit_rate_pct,
            est_saving_pct,
        };
        // Two classes tie on (estimate, hit rate); a third has a higher
        // hit rate but a lower estimate.
        let pts = [
            p(20.0, 90.0, 30.0),
            p(22.0, 90.0, 30.0),
            p(26.0, 80.0, 35.0),
            p(30.0, 80.0, 35.0),
            p(36.0, 80.0, 35.0),
            p(46.0, 95.0, 34.0),
        ];
        assert_eq!(select(&pts).gt_us, 26.0);
        // The order of the input does not matter.
        let mut rev = pts.to_vec();
        rev.reverse();
        assert_eq!(select(&rev).gt_us, 26.0);
        // Hit rate decides between equal estimates.
        let pts = [
            p(20.0, 70.0, 35.0),
            p(22.0, 80.0, 35.0),
            p(26.0, 80.0, 35.0),
        ];
        assert_eq!(select(&pts).gt_us, 22.0);
    }

    #[test]
    fn selection_picks_the_first_member_of_its_class() {
        // On a real curve, GT classes show up as runs of exactly equal
        // points; the selected GT opens its run.
        let t = small_alya(8);
        let pts = sweep(&t, 0.01);
        let best = select(&pts);
        let tied = |q: &&GtPoint| {
            q.est_saving_pct == best.est_saving_pct && q.hit_rate_pct == best.hit_rate_pct
        };
        assert!(pts.iter().filter(tied).count() > 1, "no tie: {pts:?}");
        let first = pts.iter().find(tied).unwrap();
        assert_eq!(best.gt_us, first.gt_us, "{pts:?}");
    }

    #[test]
    fn over_grouping_hurts_alya() {
        // A 400 µs GT at 8 ranks swallows ALYA's solver gaps (600 µs
        // survives, but the structure coarsens): the estimate at GT=400
        // must not beat the selected one.
        let t = small_alya(8);
        let pts = sweep(&t, 0.01);
        let best = select(&pts);
        let last = pts.last().unwrap();
        assert!(last.est_saving_pct <= best.est_saving_pct);
    }
}
