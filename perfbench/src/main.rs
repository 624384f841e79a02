//! `perfbench`: the end-to-end and per-layer benchmark of ibpower.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --ibpower <path> --out <dir> [--fingerprint <json>]
//! ```
//!
//! Workloads: `paper_exhibits`, `gt_sweep` and `serve_steady` (see
//! `BENCHMARK.json` and `perfbench/README.md`). The
//! run prints one `metric` line per metric, writes a result record (and,
//! traced, the spans) under `--out`, and ends with one JSON line holding
//! `correct`, `attempted`, `failed` and the metrics `BENCHMARK.json`
//! lists: its end-to-end ones untraced, its per-layer ones traced.
//! `perfbench/run.py` builds everything and runs this binary.

mod offline;
mod probes;
mod serve;
mod span;
mod stats;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Command-line options.
pub struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ibpower: PathBuf,
    out: PathBuf,
    fingerprint: String,
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Add (or replace) a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        self.0.retain(|m| m.0 != name);
        self.0.push((name, value, unit.to_string()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// A workload's result.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    e2e: Metrics,
    layer: Metrics,
    spans: Vec<span::Span>,
    notes: Vec<String>,
}

impl Outcome {
    /// Count `n` failures, with what failed.
    pub fn fail(&mut self, n: u64, why: impl Iterator<Item = String>) {
        self.failed += n;
        self.notes.extend(why.map(|w| format!("FAIL {w}")));
    }
}

/// Worker threads and connections: the machine's core count.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of `/proc/<pid>`, MB.
pub fn rss_peak_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Offline set-up probes per group; a run takes a group before each pass
/// and one after the last, and reports the median of all of them. A probe
/// takes under a millisecond and its times skew high, so the groups are
/// large enough for the median to hold from run to run.
const OFFLINE_SETUP_PROBES: usize = 24;

/// Offline set-up times, s: from spawning a fresh process until its sweep
/// engine is ready (this binary in `--setup-probe` mode).
pub fn probe_offline_setup() -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut v = Vec::new();
    for _ in 0..OFFLINE_SETUP_PROBES {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", &jobs().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("setup probe: {e}"))?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let t = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| e.to_string())?;
        if line.trim() != "ready" || !status.success() {
            return Err("setup probe failed".into());
        }
        v.push(t);
    }
    Ok(v)
}

fn setup_probe_child(jobs: &str) {
    let jobs = jobs.parse().unwrap_or(1);
    let engine = ibp_analysis::SweepEngine::new(ibp_analysis::SweepOptions::with_jobs(jobs));
    println!("ready");
    drop(engine);
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let val = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        val(flag)?.parse::<f64>().map_err(|_| format!("bad {flag}"))
    };
    Ok(Opts {
        workload: val("--workload")?.to_string(),
        seed: val("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds: num("--seconds")?,
        trace: val("--trace")? == "1",
        ibpower: PathBuf::from(val("--ibpower")?),
        out: PathBuf::from(val("--out")?),
        fingerprint: val("--fingerprint").unwrap_or("{}").to_string(),
    })
}

/// The metric names and units `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Result<Vec<(String, String)>, String> {
    use serde::Value;
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |v: &Value, k: &str| match v {
        Value::Map(m) => m.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()),
        _ => None,
    };
    let Some(Value::Seq(items)) = field(&doc, section) else {
        return Err(format!("BENCHMARK.json: no {section} list"));
    };
    items
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n, u)),
            _ => Err(format!("BENCHMARK.json: malformed {section} entry")),
        })
        .collect()
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"\"".into())
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(n, v, u)| format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(n), json_str(u)))
            .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--setup-probe") => {
            setup_probe_child(args.get(1).map_or("1", String::as_str));
            return;
        }
        Some("--pass") => {
            if let Err(e) = offline::pass_child(&args[1..]) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let section = if o.trace { "per_layer" } else { "end_to_end" };
    let wanted = match listed(section) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&o.out);
    if let Err(e) = std::fs::create_dir_all(&o.out) {
        eprintln!("error: {}: {e}", o.out.display());
        std::process::exit(2);
    }
    let result = match o.workload.as_str() {
        "paper_exhibits" => offline::run(&o, offline::Kind::Paper),
        "gt_sweep" => offline::run(&o, offline::Kind::GtSweep),
        "serve_steady" => serve::run(&o),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {}: {e}", o.workload);
            std::process::exit(1);
        }
    };

    // The final line carries exactly the metrics BENCHMARK.json lists.
    let source = if o.trace { &out.layer } else { &out.e2e };
    let mut reported = Metrics::default();
    let mut missing = Vec::new();
    for (name, unit) in &wanted {
        match source.get(name).filter(|v| v.is_finite()) {
            Some(v) => reported.put(name.clone(), v, unit),
            None => {
                missing.push(name.clone());
                reported.put(name.clone(), 0.0, unit);
            }
        }
    }
    if !missing.is_empty() {
        out.fail(
            1,
            std::iter::once(format!("metrics not measured: {}", missing.join(", "))),
        );
    }
    let correct = out.failed == 0;
    report(&o, &out, correct);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&reported)
    );
    let _ = std::io::stdout().flush();
}

/// Print every metric by name with its unit, and write the result record
/// (and the spans, when traced) under the run directory.
fn report(o: &Opts, out: &Outcome, correct: bool) {
    let error_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "perfbench {} seed={} trace={} seconds={}",
        o.workload, o.seed, o.trace as u8, o.seconds
    );
    println!("fingerprint {}", o.fingerprint);
    for (kind, m) in [("end_to_end", &out.e2e), ("per_layer", &out.layer)] {
        for (n, v, u) in &m.0 {
            println!("metric {kind} {n} = {v} {u}");
        }
    }
    println!(
        "metric error_ratio = {error_ratio} failed/attempted ({} / {})",
        out.failed, out.attempted
    );
    for n in &out.notes {
        println!("note {n}");
    }
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"fingerprint\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"error_ratio\":{error_ratio},\"end_to_end\":{},\"per_layer\":{},\"notes\":{}}}\n",
        json_str(&o.workload),
        o.seed,
        o.trace as u8,
        o.seconds,
        o.fingerprint,
        out.attempted,
        out.failed,
        metrics_json(&out.e2e),
        metrics_json(&out.layer),
        serde_json::to_string(&out.notes).unwrap_or_else(|_| "[]".into()),
    );
    let path = o.out.join("record.json");
    if std::fs::write(&path, record).is_ok() {
        println!("record {}", path.display());
    }
    if !out.spans.is_empty() {
        let path = o.out.join("spans.jsonl");
        if std::fs::write(&path, span::to_json_lines(&out.spans)).is_ok() {
            println!("spans {} ({} spans)", path.display(), out.spans.len());
        }
    }
    cleanup(&o.out);
}

/// Drop the bulky per-run artefacts (exhibit copies, stores), keeping the
/// record and the spans.
fn cleanup(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.path().is_dir() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}
