//! Golden-exhibit regression suite: Table I/III/IV and Figs. 7–9 rows
//! at the canonical seed, pinned as JSON snapshots in `tests/golden/`.
//!
//! All tests share one [`SweepEngine`] (worker count from `IBP_JOBS`),
//! so CI can run the whole suite under different job counts and assert
//! the snapshots still match — the engine's determinism guarantee made
//! into a regression test. Figures and Table III run on a grid capped
//! at 16 ranks to keep the suite tractable under the debug profile;
//! Table I (trace generation only) and Table IV (16 ranks by
//! definition) use the full paper grid.
//!
//! Regenerate after an intentional model change with:
//! `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests golden`

use ibp_analysis::exhibits::{self, SEED};
use ibp_analysis::{ExhibitGrid, SweepEngine, SweepOptions};
use ibpower_integration_tests::golden::assert_matches_golden;
use std::sync::OnceLock;

fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(|| SweepEngine::new(SweepOptions::from_env()))
}

/// The capped grid used by the replay-heavy exhibits.
fn small_grid() -> ExhibitGrid {
    ExhibitGrid::capped(16)
}

#[test]
fn golden_table1() {
    let rows = exhibits::table1(engine(), &ExhibitGrid::paper(), SEED);
    assert_eq!(rows.len(), 25, "full paper grid is 5 apps x 5 scales");
    assert_matches_golden("table1.json", &rows);
}

#[test]
fn golden_table3() {
    let rows = exhibits::table3(engine(), &small_grid(), SEED);
    assert_matches_golden("table3.json", &rows);
}

#[test]
fn golden_table4() {
    let rows = exhibits::table4(engine(), SEED);
    assert_eq!(rows.len(), 5, "one row per application");
    assert_matches_golden("table4.json", &rows);
}

#[test]
fn golden_fig7() {
    let fig = exhibits::figure(engine(), &small_grid(), 0.10, SEED);
    assert_matches_golden("fig7.json", &fig);
}

#[test]
fn golden_fig8() {
    let fig = exhibits::figure(engine(), &small_grid(), 0.05, SEED);
    assert_matches_golden("fig8.json", &fig);
}

#[test]
fn golden_fig9() {
    let fig = exhibits::figure(engine(), &small_grid(), 0.01, SEED);
    assert_matches_golden("fig9.json", &fig);
}

#[test]
fn golden_generation_frontier() {
    let rows = ibp_analysis::generation_frontier(engine(), SEED)
        .expect("standard generation hardware validates");
    assert_eq!(
        rows.len(),
        ibp_analysis::FRONTIER_GENERATIONS.len() * 5 * 3,
        "4 generations x 5 apps x 3 policies"
    );
    assert_matches_golden("generation_frontier.json", &rows);
}

#[test]
fn golden_ablation() {
    let rows = ibp_analysis::extensions::policy_ablation(engine(), 16, SEED);
    assert_eq!(rows.len(), 5 * 5, "5 apps x 5 policies");
    assert_matches_golden("ablation.json", &rows);
}
