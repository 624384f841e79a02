//! The table of every exhibit `ibpower exhibits <name>` regenerates.
//!
//! Each [`Exhibit`] runs on a shared [`SweepEngine`] with a seed, writes
//! its JSON (plus light/dark SVGs for the figures) to an [`OutputDir`]
//! and returns its rendered text. [`run_all`] loops over the entries
//! `all` covers, in table order, on one engine, so traces, baselines
//! and GT selections are computed once for the whole batch.

use crate::exhibits::{self, ExhibitGrid};
use crate::extensions;
use crate::output::OutputDir;
use crate::svg::{self, Mode};
use crate::sweep::{SweepEngine, SweepStats};
use ibp_network::SimParams;
use ibp_simcore::SimDuration;
use ibp_workloads::AppKind;
use std::io;

/// Whether and how `all` runs an exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Run by `all`, its text in `summary.txt` after this heading.
    Summary(&'static str),
    /// Run by `all`, its text left out of `summary.txt`.
    Files,
    /// Only run on its own (the extension studies).
    Alone,
}

/// One regenerable exhibit.
pub struct Exhibit {
    /// Name on the command line; also the stem of its output files.
    pub name: &'static str,
    /// Whether and how `all` runs it.
    pub batch: Batch,
    /// Run it: write its files under the directory, return its text.
    pub run: fn(&SweepEngine, u64, &OutputDir) -> io::Result<String>,
}

/// Every exhibit, in the order `all` runs them.
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit {
        name: "table2",
        batch: Batch::Summary("== Table II ==\n"),
        run: |_, _, out| {
            let params = SimParams::paper();
            out.write_json("table2.json", &params)?;
            Ok(format!("{}\n", params.describe()))
        },
    },
    Exhibit {
        name: "table1",
        batch: Batch::Summary("== Table I ==\n"),
        run: |engine, seed, out| {
            let rows = exhibits::table1(engine, &ExhibitGrid::paper(), seed);
            out.write_json("table1.json", &rows)?;
            Ok(exhibits::render_table1(&rows))
        },
    },
    Exhibit {
        name: "table3",
        batch: Batch::Summary("== Table III ==\n"),
        run: |engine, seed, out| {
            let rows = exhibits::table3(engine, &ExhibitGrid::paper(), seed);
            out.write_json("table3.json", &rows)?;
            Ok(exhibits::render_table3(&rows))
        },
    },
    Exhibit {
        name: "table4",
        batch: Batch::Summary("== Table IV ==\n"),
        run: |engine, seed, out| {
            let rows = exhibits::table4(engine, seed);
            out.write_json("table4.json", &rows)?;
            Ok(exhibits::render_table4(&rows))
        },
    },
    Exhibit {
        name: "fig7",
        batch: Batch::Summary("== fig7 ==\n"),
        run: |engine, seed, out| figure("fig7", 0.10, engine, seed, out),
    },
    Exhibit {
        name: "fig8",
        batch: Batch::Summary("== fig8 ==\n"),
        run: |engine, seed, out| figure("fig8", 0.05, engine, seed, out),
    },
    Exhibit {
        name: "fig9",
        batch: Batch::Summary("== fig9 ==\n"),
        run: |engine, seed, out| figure("fig9", 0.01, engine, seed, out),
    },
    Exhibit {
        name: "fig10",
        // The rendered text opens with its own heading.
        batch: Batch::Summary(""),
        run: |engine, seed, out| {
            let data = exhibits::fig10(engine, seed);
            out.write_json("fig10.json", &data)?;
            write_svgs(out, "fig10", |mode| svg::fig10_svg(&data, mode))?;
            Ok(exhibits::render_fig10(&data))
        },
    },
    Exhibit {
        name: "generation_frontier",
        batch: Batch::Files,
        run: |engine, seed, out| {
            let rows = crate::generation::generation_frontier(engine, seed)
                .map_err(|e| io::Error::other(format!("generation_frontier: {e}")))?;
            out.write_json("generation_frontier.json", &rows)?;
            Ok(crate::generation::render_generation_frontier(&rows))
        },
    },
    Exhibit {
        name: "ablation",
        batch: Batch::Alone,
        run: |engine, seed, out| {
            let rows = extensions::policy_ablation(engine, 16, seed);
            out.write_json("ablation.json", &rows)?;
            Ok(format!(
                "== Policy ablation at 16 ranks (displacement 1%, GT 20us) ==\n\
                 oracle: perfect idle knowledge, zero stalls (upper bound)\n\
                 reactive-Xus: hardware idle-timeout, full T_react stall per wake\n\n{}",
                extensions::render_policy_ablation(&rows)
            ))
        },
    },
    Exhibit {
        name: "deepsleep",
        batch: Batch::Alone,
        run: |engine, seed, out| {
            let threshold = SimDuration::from_ms(5);
            let rows = extensions::deep_sleep_study(engine, 8, threshold, seed);
            out.write_json("deepsleep.json", &rows)?;
            Ok(format!(
                "== Deep-sleep extension at 8 ranks (threshold {threshold}) ==\n\
                 deep state: 1 ms reactivation, 10% draw; WRPS: 10 us, 43% draw\n\n{}",
                extensions::render_deep_sleep(&rows)
            ))
        },
    },
    Exhibit {
        name: "weak_scaling",
        batch: Batch::Alone,
        run: |engine, seed, out| {
            let rows: Vec<_> = AppKind::ALL
                .iter()
                .map(|&app| extensions::weak_scaling_study(engine, app, seed))
                .collect();
            out.write_json("weak_scaling.json", &rows)?;
            Ok(format!(
                "== Strong vs weak scaling: IB switch power savings [%] ==\n\n{}",
                extensions::render_weak_scaling(&rows)
            ))
        },
    },
    Exhibit {
        name: "robustness",
        batch: Batch::Alone,
        run: |engine, seed, out| {
            let rows = extensions::robustness_study(engine, 16, seed);
            out.write_json("robustness.json", &rows)?;
            Ok(format!(
                "== Robustness: ALYA at 16 ranks under jitter amplification ==\n\
                 (displacement 1%; stalls are capped at T_react per wake-up; seed {seed:#x})\n\n{}",
                extensions::render_robustness(&rows)
            ))
        },
    },
    Exhibit {
        name: "fault_tolerance",
        batch: Batch::Alone,
        run: |engine, seed, out| {
            let rows = extensions::fault_tolerance_study(engine, 16, seed);
            out.write_json("fault_tolerance.json", &rows)?;
            Ok(format!(
                "== Fault tolerance: ALYA at 16 ranks under link fault injection ==\n\
                 (slowdowns vs a power-unaware baseline under the same faults; seed {seed:#x})\n\n{}",
                extensions::render_fault_tolerance(&rows)
            ))
        },
    },
];

/// The name that runs every exhibit of the [`Batch::Summary`] and
/// [`Batch::Files`] kinds.
pub const ALL: &str = "all";

/// The exhibit called `name`.
pub fn find(name: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// Every name `ibpower exhibits` accepts: [`ALL`], then the table's.
pub fn names() -> impl Iterator<Item = &'static str> {
    std::iter::once(ALL).chain(EXHIBITS.iter().map(|e| e.name))
}

/// The exhibits `all` runs, in order.
pub fn batch() -> impl Iterator<Item = &'static Exhibit> {
    EXHIBITS.iter().filter(|e| e.batch != Batch::Alone)
}

/// Run every exhibit of [`batch`] on `engine`. Each writes its files and
/// a `<name>.stats.json` holding only the work it added on top of the
/// shared caches; then `summary.txt` (the [`Batch::Summary`] texts
/// under their headings) and `all.stats.json` follow.
pub fn run_all(engine: &SweepEngine, seed: u64, out: &OutputDir) -> io::Result<()> {
    let mut sections = Vec::new();
    let mut mark = SweepStats::default();
    for exhibit in batch() {
        let text = (exhibit.run)(engine, seed, out)?;
        let now = engine.stats();
        out.write_stats(exhibit.name, &now.since(&mark))?;
        mark = now;
        if let Batch::Summary(heading) = exhibit.batch {
            sections.push(format!("{heading}{text}"));
        }
    }
    out.write_text("summary.txt", &sections.join("\n"))?;
    out.write_stats(ALL, &engine.stats())?;
    Ok(())
}

/// Figs. 7–9: one displacement's savings and slowdown on the paper grid.
fn figure(
    name: &str,
    displacement: f64,
    engine: &SweepEngine,
    seed: u64,
    out: &OutputDir,
) -> io::Result<String> {
    let fig = exhibits::figure(engine, &ExhibitGrid::paper(), displacement, seed);
    out.write_json(&format!("{name}.json"), &fig)?;
    write_svgs(out, name, |mode| svg::figure_svg(&fig, mode))?;
    Ok(exhibits::render_figure(&fig))
}

/// Write `<name>.svg` and `<name>-dark.svg`.
fn write_svgs(out: &OutputDir, name: &str, render: impl Fn(Mode) -> String) -> io::Result<()> {
    out.write_text(&format!("{name}.svg"), &render(Mode::Light))?;
    out.write_text(&format!("{name}-dark.svg"), &render(Mode::Dark))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_runs_exactly_the_paper_subset_with_unique_names() {
        let batch: Vec<&str> = batch().map(|e| e.name).collect();
        assert_eq!(
            batch,
            [
                "table2",
                "table1",
                "table3",
                "table4",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "generation_frontier",
            ]
        );
        let mut all: Vec<&str> = names().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate exhibit names");
        assert!(find(ALL).is_none(), "`all` is not a table entry");
    }
}
