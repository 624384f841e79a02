//! The serve workload, `serve_steady`: 64 full-stream sessions, every one
//! with a batch in flight, on a server with no store.
//!
//! The server is the `ibpower serve` binary, started fresh for every
//! set-up probe and every measured run. The load comes from this process:
//! one thread per connection, at most `nproc` of them, each pipelining
//! one outstanding request per session over raw protocol frames.

use crate::probes::{self, BATCH};
use crate::span::{self, span};
use crate::stats::{self, Dist};
use crate::{Opts, Outcome};
use ibp_core::{annotate_rank, LaneDirective, RankAnnotation, RankStats};
use ibp_serve::protocol::{decode_server, read_frame, read_hello, write_frame, write_hello};
use ibp_serve::{Client, ClientFrame, Endpoint, ServeSummary, ServerFrame, WireEvent};
use ibp_trace::Trace;
use ibp_workloads::AppKind;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Ranks of the trace the sessions replay, one session per rank.
const RANKS: u32 = 64;
/// The application whose trace the sessions stream: NAS-BT has a fixed
/// call count per rank and a saving that holds from seed to seed
/// (GROMACS's swings by ~5%).
const APP: AppKind = AppKind::NasBt;
/// Set-up probes per group; a run takes a group before and one after its
/// measured rounds, and reports the median of all of them.
const SETUP_PROBES: usize = 8;
/// Rounds a run measures at least: the first round of a fresh server
/// runs cold, so a median never rests on it alone.
const MIN_ROUNDS: usize = 2;

/// Server workers and client connections: `nproc`, capped at 2 so that a
/// bigger machine drives the same shape of load.
fn threads() -> usize {
    crate::jobs().min(2)
}

/// One distinct session stream and its offline reference.
struct Stream {
    rank: u32,
    events: Vec<WireEvent>,
    final_compute_ns: u64,
    golden: RankAnnotation,
}

/// The workload's inputs: the trace and one stream per rank.
struct Inputs {
    trace: Trace,
    streams: Vec<Stream>,
}

fn inputs(seed: u64) -> Inputs {
    let trace = span("workloads.generate", || {
        ibp_analysis::make_trace(APP, RANKS, seed)
    });
    let cfg = probes::session_config();
    let streams = trace
        .ranks
        .iter()
        .map(|rank| {
            let golden = span("core.annotate", || annotate_rank(rank, &cfg));
            Stream {
                rank: rank.rank,
                events: probes::wire_events(rank),
                final_compute_ns: rank.final_compute.as_ns(),
                golden,
            }
        })
        .collect();
    Inputs { trace, streams }
}

/// A running `ibpower serve`.
struct ServerProc {
    child: Child,
    endpoint: Endpoint,
    spawned: Instant,
}

impl ServerProc {
    fn start(o: &Opts) -> Result<ServerProc, String> {
        let workers = threads().to_string();
        let mut cmd = Command::new(&o.ibpower);
        cmd.args([
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            &workers,
            "--io-threads",
            "1",
        ]);
        let spawned = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", o.ibpower.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if err.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("ibpower serve exited before it was ready".into());
            }
            if let Some(rest) = line.split("serving on tcp://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        // Keep draining stderr so the server never blocks on the pipe.
        std::thread::spawn(move || std::io::copy(&mut err, &mut std::io::sink()));
        Ok(ServerProc {
            child,
            endpoint: Endpoint::Tcp(addr),
            spawned,
        })
    }

    fn summary(&self) -> Result<ServeSummary, String> {
        let mut c = Client::connect(&self.endpoint).map_err(|e| format!("query: {e}"))?;
        Ok(c.query_server()
            .map_err(|e| format!("query: {e}"))?
            .server
            .summary)
    }

    /// Stop the server; returns its peak RSS in MB and its user and
    /// system CPU seconds.
    fn stop(mut self) -> (f64, f64, f64) {
        let pid = self.child.id().to_string();
        let rss = crate::rss_peak_mb(&pid);
        // utime and stime: fields 14 and 15 of /proc/<pid>/stat, counted
        // from field 3 (the first after the command name), in clock
        // ticks of 1/100 s.
        let cpu = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| {
                let f: Vec<&str> = s.rsplit(')').next()?.split_whitespace().collect();
                let tick = |i: usize| f.get(i)?.parse::<f64>().ok().map(|t| t / 100.0);
                Some((tick(11)?, tick(12)?))
            });
        let _ = self.child.kill();
        let _ = self.child.wait();
        let (user, sys) = cpu.unwrap_or((0.0, 0.0));
        (rss, user, sys)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One session of a round: its id and its stream.
struct Plan<'a> {
    id: u32,
    stream: &'a Stream,
}

/// What one connection saw during one round.
#[derive(Default)]
struct ConnOut {
    rtt_us: Vec<f64>,
    open_us: Vec<f64>,
    close_us: Vec<f64>,
    events: u64,
    batches: u64,
    failed: u64,
    notes: Vec<String>,
    stats: Vec<RankStats>,
    /// When this connection's stream phase started and ended.
    streamed: Option<(Instant, Instant)>,
}

impl ConnOut {
    fn absorb(&mut self, o: ConnOut) {
        self.rtt_us.extend(o.rtt_us);
        self.open_us.extend(o.open_us);
        self.close_us.extend(o.close_us);
        self.events += o.events;
        self.batches += o.batches;
        self.failed += o.failed;
        self.notes.extend(o.notes);
        self.stats.extend(o.stats);
    }
}

/// Per-session progress on a connection.
struct State {
    cursor: usize,
    journal: Vec<LaneDirective>,
    sent: Instant,
}

struct Conn {
    reader: BufReader<ibp_serve::Stream>,
    writer: BufWriter<ibp_serve::Stream>,
}

impl Conn {
    fn open(ep: &Endpoint) -> Result<Conn, String> {
        let s = ep.connect().map_err(|e| format!("connect {ep}: {e}"))?;
        // A server that stops answering fails the run instead of hanging it.
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = s.try_clone().map_err(|e| e.to_string())?;
        let mut c = Conn {
            reader: BufReader::new(r),
            writer: BufWriter::new(s),
        };
        write_hello(&mut c.writer).map_err(|e| e.to_string())?;
        read_hello(&mut c.reader).map_err(|e| e.to_string())?;
        Ok(c)
    }

    fn send(&mut self, f: &ClientFrame) -> Result<(), String> {
        write_frame(&mut self.writer, &f.encode()).map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<ServerFrame, String> {
        match read_frame(&mut self.reader).map_err(|e| e.to_string())? {
            Some(p) => decode_server(&p).map_err(|e| e.to_string()),
            None => Err("server closed the connection".into()),
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// The three phases of a round.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Open every session.
    Open,
    /// Stream every session's events, one batch in flight per session.
    Stream,
    /// Close every session and check it against the offline reference.
    Close,
}

/// One connection's sessions through one phase: every session has
/// exactly one request in flight, and its next request goes out when its
/// reply arrives.
struct Pump<'p, 'a> {
    c: &'p mut Conn,
    plans: &'p [Plan<'a>],
    st: &'p mut [State],
    out: &'p mut ConnOut,
}

impl Pump<'_, '_> {
    /// Send session `k`'s next request in `phase`; false if it has none.
    fn send(&mut self, phase: Phase, k: usize) -> Result<bool, String> {
        let (p, s) = (&self.plans[k], &mut self.st[k]);
        let frame = match phase {
            Phase::Open => ClientFrame::Open {
                session: p.id,
                rank: p.stream.rank,
                config: Box::new(probes::session_config()),
            },
            Phase::Stream if s.cursor < p.stream.events.len() => {
                let end = (s.cursor + BATCH).min(p.stream.events.len());
                ClientFrame::Events {
                    session: p.id,
                    events: p.stream.events[s.cursor..end].to_vec(),
                }
            }
            Phase::Stream => return Ok(false),
            Phase::Close => ClientFrame::Close {
                session: p.id,
                final_compute_ns: p.stream.final_compute_ns,
            },
        };
        s.sent = Instant::now();
        self.c.send(&frame)?;
        Ok(true)
    }

    /// Handle one reply; true when it finished its session for `phase`.
    fn reply(&mut self, phase: Phase, frame: ServerFrame) -> Result<bool, String> {
        let t = Instant::now();
        let first = self.plans[0].id;
        let k = |id: u32| id.wrapping_sub(first) as usize;
        Ok(match frame {
            ServerFrame::OpenAck { session, .. } => {
                let sent = self.st[k(session)].sent;
                span::record_interval("serve.open", sent, t, session as u64);
                self.out.open_us.push(us(t - sent));
                true
            }
            ServerFrame::Directives {
                session,
                directives,
                ..
            } => {
                let k = k(session);
                self.st[k].journal.extend(directives);
                if phase == Phase::Close {
                    return Ok(false); // the close's tail; `Closed` follows
                }
                let s = &mut self.st[k];
                span::record_interval("serve.batch_rtt", s.sent, t, session as u64);
                self.out.rtt_us.push(us(t - s.sent));
                let n = BATCH.min(self.plans[k].stream.events.len() - s.cursor);
                s.cursor += n;
                self.out.events += n as u64;
                self.out.batches += 1;
                !self.send(phase, k)?
            }
            ServerFrame::Closed { session, stats, .. } => {
                let k = k(session);
                let s = &mut self.st[k];
                span::record_interval("serve.close", s.sent, t, session as u64);
                self.out.close_us.push(us(t - s.sent));
                let golden = &self.plans[k].stream.golden;
                if s.journal != golden.directives || *stats != golden.stats {
                    self.out.failed += 1;
                    self.out.notes.push(format!(
                        "session {session}: stream differs from offline annotate_rank"
                    ));
                }
                s.journal = Vec::new();
                self.out.stats.push(*stats);
                true
            }
            ServerFrame::Error {
                session,
                code,
                message,
            } => {
                self.out.failed += 1;
                self.out
                    .notes
                    .push(format!("session {session}: server error {code}: {message}"));
                true
            }
            _ => false,
        })
    }

    fn run(&mut self, phase: Phase) -> Result<(), String> {
        let mut active = 0;
        for k in 0..self.plans.len() {
            active += self.send(phase, k)? as usize;
        }
        while active > 0 {
            self.c.flush()?;
            let frame = self.c.recv()?;
            if self.reply(phase, frame)? {
                active -= 1;
            }
        }
        Ok(())
    }
}

/// Drive `plans` over one connection through the three phases, meeting
/// the other connections at `barrier` between phases so that no phase
/// overlaps another.
fn drive(ep: &Endpoint, plans: &[Plan<'_>], barrier: &Barrier) -> Result<ConnOut, String> {
    let mut c = Conn::open(ep)?;
    let mut out = ConnOut::default();
    let now = Instant::now();
    let mut st: Vec<State> = plans
        .iter()
        .map(|_| State {
            cursor: 0,
            journal: Vec::new(),
            sent: now,
        })
        .collect();
    let mut pump = Pump {
        c: &mut c,
        plans,
        st: &mut st,
        out: &mut out,
    };
    pump.run(Phase::Open)?;
    barrier.wait();
    let t0 = Instant::now();
    pump.run(Phase::Stream)?;
    let t1 = Instant::now();
    barrier.wait();
    pump.run(Phase::Close)?;
    out.streamed = Some((t0, t1));
    Ok(out)
}

/// One round: every session of the workload, split over the connections.
/// Returns the stream phase's wall time (first start to last end). Every
/// round reuses the same session ids.
fn round(ep: &Endpoint, inputs: &Inputs) -> Result<(f64, ConnOut), String> {
    let n = inputs.streams.len();
    let plans: Vec<Plan<'_>> = inputs
        .streams
        .iter()
        .enumerate()
        .map(|(i, stream)| Plan {
            id: i as u32,
            stream,
        })
        .collect();
    let conns = threads();
    let barrier = Barrier::new(conns);
    let parts: Vec<Result<ConnOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .chunks(n.div_ceil(conns))
            .map(|part| s.spawn(|| drive(ep, part, &barrier)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });
    let mut all = ConnOut::default();
    let (mut start, mut end): (Option<Instant>, Option<Instant>) = (None, None);
    for p in parts {
        let p = p?;
        if let Some((a, b)) = p.streamed {
            start = Some(start.map_or(a, |s| s.min(a)));
            end = Some(end.map_or(b, |e| e.max(b)));
        }
        all.absorb(p);
    }
    let wall = match (start, end) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    Ok((wall, all))
}

/// A measured run: a fresh server, rounds for `seconds` (at least
/// [`MIN_ROUNDS`]).
struct Run {
    round_s: Vec<f64>,
    /// Each round's batch RTT distribution, µs.
    round_rtt: Vec<Dist>,
    total: ConnOut,
    first_round_stats: Vec<RankStats>,
    before: ServeSummary,
    after: ServeSummary,
    rss_mb: f64,
    /// Server CPU seconds over the run (user, system).
    server_cpu_s: (f64, f64),
}

fn measured(o: &Opts, inputs: &Inputs, seconds: f64) -> Result<Run, String> {
    let server = ServerProc::start(o)?;
    let before = server.summary()?;
    let started = Instant::now();
    let mut run = Run {
        round_s: Vec::new(),
        round_rtt: Vec::new(),
        total: ConnOut::default(),
        first_round_stats: Vec::new(),
        before,
        after: ServeSummary::default(),
        rss_mb: 0.0,
        server_cpu_s: (0.0, 0.0),
    };
    while run.round_s.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let (wall, r) = round(&server.endpoint, inputs)?;
        run.round_s.push(wall);
        run.round_rtt.extend(Dist::of(&r.rtt_us));
        if run.first_round_stats.is_empty() {
            run.first_round_stats = r.stats.clone();
        }
        run.total.absorb(ConnOut {
            stats: Vec::new(),
            ..r
        });
    }
    run.after = server.summary()?;
    let (rss, user, sys) = server.stop();
    run.rss_mb = rss;
    run.server_cpu_s = (user, sys);
    Ok(run)
}

/// Set-up times, s: server spawn (bind) to the first `OpenAck`.
fn setup_probes(o: &Opts) -> Result<Vec<f64>, String> {
    let cfg = probes::session_config();
    let mut v = Vec::new();
    for _ in 0..SETUP_PROBES {
        let server = ServerProc::start(o)?;
        let mut c = Client::connect(&server.endpoint).map_err(|e| format!("setup probe: {e}"))?;
        c.open(0, 0, &cfg)
            .map_err(|e| format!("setup probe: {e}"))?;
        v.push(server.spawned.elapsed().as_secs_f64());
        let _ = c.close(0, 0);
        drop(c);
        server.stop();
    }
    Ok(v)
}

fn delta(after: &ServeSummary, before: &ServeSummary) -> ServeSummary {
    ServeSummary {
        sessions_opened: after.sessions_opened - before.sessions_opened,
        sessions_closed: after.sessions_closed - before.sessions_closed,
        events_applied: after.events_applied - before.events_applied,
        directives_sent: after.directives_sent - before.directives_sent,
        protocol_errors: after.protocol_errors - before.protocol_errors,
        responses_shed: after.responses_shed - before.responses_shed,
        snapshots_persisted: after.snapshots_persisted - before.snapshots_persisted,
        persist_failures: after.persist_failures - before.persist_failures,
        sessions_rehydrated: after.sessions_rehydrated - before.sessions_rehydrated,
        evictions: after.evictions - before.evictions,
        ..ServeSummary::default()
    }
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    s / n.max(1) as f64
}

/// Account a run's failures: parity mismatches and error frames from the
/// client side, shed responses and protocol errors from the server.
fn account(out: &mut Outcome, run: &Run, d: &ServeSummary) {
    out.attempted += run.total.batches.max(1);
    out.fail(run.total.failed, run.total.notes.iter().take(5).cloned());
    let server_side = d.responses_shed + d.protocol_errors + d.persist_failures;
    out.fail(
        server_side,
        (server_side > 0)
            .then(|| format!("server: {d:?}"))
            .into_iter(),
    );
}

/// Run the workload.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = setup_probes(o)?;
    let inputs = inputs(o.seed);
    let untraced = measured(o, &inputs, o.seconds)?;
    setup.extend(setup_probes(o)?);
    let d = delta(&untraced.after, &untraced.before);
    account(&mut out, &untraced, &d);

    let cfg = probes::session_config();
    let wall = stats::median(&untraced.round_s).unwrap();
    // A round's p50 and p99 rest on thousands of batches; the median
    // over rounds keeps a burst of outside load during one round from
    // setting the run's figure. The run-wide percentiles are noted below.
    let per_round = |f: fn(&Dist) -> f64| {
        stats::median(&untraced.round_rtt.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let lat = Dist::of(&untraced.total.rtt_us).unwrap_or(Dist {
        n: 0,
        p50: 0.0,
        p99: 0.0,
        beyond_p99: 0,
    });
    let round_n = untraced.round_rtt.iter().map(|d| d.n).min().unwrap_or(0);
    let round_beyond = untraced
        .round_rtt
        .iter()
        .map(|d| d.beyond_p99)
        .min()
        .unwrap_or(0);
    let first = &untraced.first_round_stats;
    let e = &mut out.e2e;
    e.put("setup_s", stats::median(&setup).unwrap(), "s");
    e.put("wall_s", wall, "s");
    e.put("rss_peak_mb", untraced.rss_mb, "MB");
    e.put(
        "saving_pct",
        mean(
            first
                .iter()
                .map(|s| s.est_power_saving_pct(cfg.low_power_fraction)),
        ),
        "%",
    );
    e.put(
        "slowdown_pct",
        mean(first.iter().map(RankStats::added_time_pct)),
        "%",
    );
    e.put(
        "events_per_s",
        untraced.total.events as f64 / untraced.round_s.iter().sum::<f64>(),
        "events/s",
    );
    e.put("lat_p50_us", per_round(|d| d.p50), "us");
    e.put("lat_p99_us", per_round(|d| d.p99), "us");
    out.notes.push(format!(
        "{} round(s) of {} sessions, stream phases {:.3?} s, server cpu {:.2?} s (user, sys)",
        untraced.round_s.len(),
        inputs.streams.len(),
        untraced.round_s,
        untraced.server_cpu_s,
    ));
    out.notes.push(format!(
        "batch RTT: latency is the median over rounds of each round's percentile, \
         >= {round_n} samples and >= {round_beyond} beyond p99 per round; \
         run-wide p50 {:.1} us, p99 {:.1} us over {} samples",
        lat.p50, lat.p99, lat.n
    ));

    if o.trace {
        traced(o, &mut out, wall, lat.p50)?;
    }
    Ok(out)
}

fn traced(
    o: &Opts,
    out: &mut Outcome,
    untraced_wall: f64,
    untraced_p50: f64,
) -> Result<(), String> {
    span::enable(true);
    let inputs = inputs(o.seed);
    // A quarter of the untraced run's length bounds the span count (one
    // per request) while still covering several rounds.
    let run = measured(o, &inputs, o.seconds / 4.0)?;
    span::enable(false);
    let d = delta(&run.after, &run.before);
    account(out, &run, &d);
    let spans = span::drain();
    let sum_ms = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            / 1e6
    };

    let l = &mut out.layer;
    let events: usize = inputs.streams.iter().map(|s| s.events.len()).sum();
    l.put("workloads.generate_ms", sum_ms("workloads.generate"), "ms");
    l.put(
        "workloads.events",
        inputs.trace.total_calls() as f64,
        "count",
    );
    l.put("core.annotate_ms", sum_ms("core.annotate"), "ms");
    l.put(
        "core.annotate_ns_per_event",
        sum_ms("core.annotate") * 1e6 / events.max(1) as f64,
        "ns",
    );
    let mut agg = RankStats::default();
    for s in &run.first_round_stats {
        agg.merge(s);
    }
    l.put(
        "core.hit_rate_pct",
        stats::hit_rate_pct(agg.correct_calls, agg.total_calls).unwrap_or(0.0),
        "%",
    );
    l.put(
        "core.mispredictions",
        (agg.pattern_mispredictions + agg.timing_mispredictions) as f64,
        "count",
    );

    let t = &run.total;
    if let Some(open) = Dist::of(&t.open_us) {
        l.put("serve.open_us", open.p50, "us");
    }
    let rtt = Dist::of(&t.rtt_us);
    if let Some(r) = rtt {
        l.put("serve.batch_rtt_us.p50", r.p50, "us");
        l.put("serve.batch_rtt_us.p99", r.p99, "us");
        l.put("serve.batch_rtt_samples", r.n as f64, "count");
    }
    if let Some(c) = Dist::of(&t.close_us) {
        l.put("serve.close_us.p50", c.p50, "us");
        l.put("serve.close_us.p99", c.p99, "us");
    }
    l.put("serve.events_applied", d.events_applied as f64, "count");
    l.put("serve.directives", d.directives_sent as f64, "count");
    l.put("serve.shed", d.responses_shed as f64, "count");
    l.put("serve.protocol_errors", d.protocol_errors as f64, "count");
    l.put("serve.evictions", d.evictions as f64, "count");
    l.put("serve.rehydrations", d.sessions_rehydrated as f64, "count");
    l.put(
        "serve.snapshots_persisted",
        d.snapshots_persisted as f64,
        "count",
    );
    let touches = t.batches + d.sessions_opened + d.sessions_closed;
    l.put(
        "serve.hot_hit_ratio",
        stats::hot_hit_ratio(d.sessions_rehydrated, touches).unwrap_or(0.0),
        "ratio",
    );
    l.put(
        "tracing.traced_wall_ratio",
        stats::median(&run.round_s).unwrap() / untraced_wall,
        "ratio",
    );

    let streams: Vec<(u32, Vec<WireEvent>)> = inputs
        .streams
        .iter()
        .map(|s| (s.rank, s.events.clone()))
        .collect();
    let pr = probes::run(&streams, Some(&inputs.trace), &o.out.join("probe-store"))?;
    pr.put_into(l);
    l.put(
        "serve.unexplained_us_p50",
        untraced_p50 - pr.batch_path_us(),
        "us",
    );
    out.spans = spans;
    Ok(())
}
