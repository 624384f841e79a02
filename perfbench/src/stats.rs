//! The harness's own arithmetic: percentiles with their sample counts,
//! ratios with explicit bases, rank buckets and span self time.

use crate::span::Span;
use std::collections::HashMap;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median, `None` when empty: the middle sample, or the mean of the two
/// middle samples when the count is even (so the median of two runs is
/// their mean, not the faster one).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A latency distribution summary with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Samples strictly above the p99 rank: the p99 is only trustworthy
    /// when at least ten samples lie beyond it.
    pub beyond_p99: usize,
}

impl Dist {
    /// Summarise `values` (any order); `None` when empty.
    pub fn of(values: &[f64]) -> Option<Dist> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Dist {
            n: v.len(),
            p50: percentile(&v, 0.5)?,
            p99: percentile(&v, 0.99)?,
            beyond_p99: v.len() - nearest_rank(v.len(), 0.99),
        })
    }
}

/// `num / den`, `None` when the base is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// PPA hit rate in %: correctly predicted calls over all intercepted
/// calls (the base is every call, not only the predicted ones).
pub fn hit_rate_pct(correct_calls: u64, total_calls: u64) -> Option<f64> {
    ratio(100.0 * correct_calls as f64, total_calls as f64)
}

/// Share of session touches served by a hot engine:
/// `1 - rehydrations / touches`, a touch being one applied batch, open or
/// close.
pub fn hot_hit_ratio(rehydrations: u64, touches: u64) -> Option<f64> {
    ratio(rehydrations as f64, touches as f64).map(|r| 1.0 - r)
}

/// Pool busy ratio: summed busy span time over the pool's capacity
/// (`wall × jobs`).
pub fn pool_busy_ratio(busy_ns: u64, wall_ns: u64, jobs: usize) -> Option<f64> {
    ratio(busy_ns as f64, wall_ns as f64 * jobs as f64)
}

/// Share of busy time, in %, spent inside layer calls: busy time minus the
/// time no layer span covers and minus the time spent blocked on another
/// thread's cache fill. `None` when nothing was busy.
pub fn layer_coverage_pct(busy_ns: u64, unattributed_ns: u64, waited_ns: u64) -> Option<f64> {
    let covered = busy_ns.saturating_sub(unattributed_ns + waited_ns);
    ratio(100.0 * covered as f64, busy_ns as f64)
}

/// The replay-cost bucket a rank count falls in. The buckets follow the
/// paper grid's scales (8/9 and 16, 32/36, 64, 100/128); replay cost per
/// event grows with the rank count, so each scale gets its own figure.
pub fn rank_bucket(nprocs: u32) -> &'static str {
    match nprocs {
        0..=16 => "r8_16",
        17..=36 => "r32_36",
        37..=64 => "r64",
        _ => "r100_128",
    }
}

/// Self time of every span, keyed by span id: its duration minus the part
/// of its interval covered by its direct children (overlapping children
/// count once; parts outside the parent are ignored).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[22.0, 21.0]), Some(21.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn dist_states_samples_beyond_p99() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let d = Dist::of(&v).unwrap();
        assert_eq!((d.n, d.p50, d.p99), (1000, 499.0, 989.0));
        assert_eq!(d.beyond_p99, 10, "1000 samples put exactly ten past p99");
        let small = Dist::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((small.p99, small.beyond_p99), (3.0, 0));
        assert!(Dist::of(&[]).is_none());
    }

    #[test]
    fn ratios_use_their_stated_bases() {
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(hit_rate_pct(45, 60), Some(75.0));
        assert_eq!(hit_rate_pct(0, 0), None);
        assert_eq!(hot_hit_ratio(25, 100), Some(0.75));
        assert_eq!(hot_hit_ratio(0, 0), None);
        assert_eq!(pool_busy_ratio(3_000, 2_000, 2), Some(0.75));
        assert_eq!(layer_coverage_pct(1_000, 50, 0), Some(95.0));
        assert_eq!(layer_coverage_pct(1_000, 50, 100), Some(85.0));
        assert_eq!(layer_coverage_pct(0, 0, 0), None);
    }

    #[test]
    fn rank_buckets_cover_the_paper_grid() {
        for (n, b) in [
            (8, "r8_16"),
            (9, "r8_16"),
            (16, "r8_16"),
            (32, "r32_36"),
            (36, "r32_36"),
            (64, "r64"),
            (100, "r100_128"),
            (128, "r100_128"),
        ] {
            assert_eq!(rank_bucket(n), b, "{n} ranks");
        }
    }

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            thread: 1,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 50),  // overlaps child 2 by 10
            sp(4, 1, 90, 120), // runs past the parent's end
            sp(5, 2, 12, 14),  // grandchild: charged to 2, not 1
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 2);
    }
}
