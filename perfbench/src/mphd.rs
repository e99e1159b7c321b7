//! `mphd_sessions`: the `mphd` daemon on loopback under one closed-loop
//! client.
//!
//! Set-up starts the daemon (`--addr 127.0.0.1:0`, a checkpoint root
//! that is fresh for every start) and waits for its `listening` line and
//! a `ping` answer; that start-to-ready time is repeated and its median
//! is `setup_s`. In the timed region the client submits its next
//! session only after the previous one's terminal `done` event, on a new
//! connection each time, as `mphd_smoke` does. One client, not two:
//! two sessions at once on a 2-vCPU host made the session latency
//! quantiles follow the scheduler (p50 spread 0.14 of the median over
//! five seeds, against 0.05 with one client).
//!
//! The session mix, every field drawn from the workload seed:
//! * 4 in 5 are SimLine grids of the `GridSpec::default()` shape
//!   (w = 48, v = 8, m = 4, 3 windows, 3 trials), 1 in 5 a longer Line
//!   grid (w = 256, v = 16, m = 4, 2 windows, 2 trials);
//! * every session gets a new seed, except that about half re-use the
//!   seed of one of the last 8 sessions of the same shape with another
//!   window set — the sweep-one-parameter pattern that finds the
//!   daemon's `OracleHub` warm.
//!
//! Timed sessions run with `durable: false`. Durable sessions write a
//! checkpoint directory each, and their throughput then follows the
//! disk's burst state rather than the code: back to back on a 2-vCPU VM
//! it fell from 571 to 285 sessions/s over five runs, while non-durable
//! runs in the same period stayed between 760 and 925. The checkpoint
//! layer is measured in the traced run instead, by running the same
//! specs in-process durably and not.
//!
//! No two sessions of a run share a session key, and the checkpoint
//! root is new, so no session could resume from earlier checkpoints.
//!
//! Correctness: every session ends in `done`, undegraded, and its report
//! and markdown are byte-equal to `session::run_local` of the same spec,
//! computed after the timed region.

use crate::trace::{self, Analysis};
use crate::util::{
    dir_bytes, fresh_work_dir, median, ms, peak_rss_mb, quantile, HostSpeed, Outcome, SplitMix,
};
use crate::Args;
use mph_serve::jsonio;
use mph_serve::proto::GridSpec;
use mph_serve::session;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients (and the daemon's session cap).
const CLIENTS: usize = 1;
/// Daemon starts whose median start-to-ready time is `setup_s`.
const SETUP_REPS: usize = 25;
/// Sessions of the checkpoint-layer probe in the traced run.
const CHECKPOINT_PROBE: usize = 40;

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn daemon_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("mphd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("mphd binary not found at {}; build it", bin.display()))
    }
}

/// Starts a daemon and waits until it answers a ping.
fn start_daemon(bin: &Path, ckpt_root: &Path) -> Result<Daemon, String> {
    let mut child = Command::new(bin)
        .args(["--addr", "127.0.0.1:0", "--max-sessions", &CLIENTS.to_string(), "--ckpt-root"])
        .arg(ckpt_root)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let mut daemon = Daemon { child, addr: String::new(), _stdout: stdout };
    match (read, line.trim().strip_prefix("mphd listening on ")) {
        (Ok(_), Some(addr)) => daemon.addr = addr.to_string(),
        _ => return Err(format!("mphd did not report its address (got {line:?})")),
    }
    let stream = TcpStream::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    (&stream)
        .write_all(b"{\"v\":1,\"id\":0,\"method\":\"ping\"}\n")
        .map_err(|e| format!("ping: {e}"))?;
    line.clear();
    reader.read_line(&mut line).map_err(|e| format!("ping reply: {e}"))?;
    if !line.contains("\"pong\"") {
        return Err(format!("unexpected ping reply {line:?}"));
    }
    Ok(daemon)
}

/// Starts `SETUP_REPS` daemons one after another, each on a fresh
/// checkpoint root, and keeps the last; returns it with every
/// start-to-ready time at reference speed.
fn setup_daemon(
    bin: &Path,
    work: &Path,
    tag: &str,
    speed: &Mutex<HostSpeed>,
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut daemon = None;
    let mut speed = speed.lock().expect("speed lock");
    for rep in 0..SETUP_REPS {
        drop(daemon.take());
        let root = work.join(format!("{tag}-ckpt-{rep}"));
        speed.sample();
        let t = Instant::now();
        daemon = Some(start_daemon(bin, &root)?);
        times.push(speed.secs(t, t.elapsed()));
    }
    Ok((daemon.expect("SETUP_REPS > 0"), times))
}

/// The seeded session mix.
struct SpecGen {
    rng: SplitMix,
    /// `(long?, seed)` of every issued session.
    issued: Vec<(bool, u64)>,
    keys: HashSet<String>,
    specs: Vec<(String, GridSpec)>,
}

const SMALL_WINDOWS: [&str; 5] = ["[2,3,4]", "[1,2,3]", "[2,4,6]", "[3,4,5]", "[1,3,5]"];
const LONG_WINDOWS: [&str; 4] = ["[4,8]", "[2,6]", "[8,12]", "[4,12]"];

impl SpecGen {
    fn new(seed: u64) -> Self {
        SpecGen {
            rng: SplitMix::new(seed ^ 0x5E55_1045),
            issued: Vec::new(),
            keys: HashSet::new(),
            specs: Vec::new(),
        }
    }

    /// Session `i` of the mix (generated in order, so session `i` is the
    /// same whichever client asks for it).
    fn get(&mut self, i: usize) -> (String, GridSpec) {
        while self.specs.len() <= i {
            let next = self.draw();
            self.specs.push(next);
        }
        self.specs[i].clone()
    }

    fn draw(&mut self) -> (String, GridSpec) {
        loop {
            let long = self.rng.below(5) == 0;
            let sets = if long { LONG_WINDOWS.len() } else { SMALL_WINDOWS.len() };
            let windows = self.rng.below(sets as u64) as usize;
            let recent: Vec<u64> =
                self.issued.iter().rev().filter(|e| e.0 == long).take(8).map(|e| e.1).collect();
            let seed = if !recent.is_empty() && self.rng.below(2) == 0 {
                recent[self.rng.below(recent.len() as u64) as usize]
            } else {
                self.rng.seed()
            };
            let params = if long {
                format!(
                    "{{\"exp\":\"perfbench\",\"durable\":false,\"target\":\"line\",\"w\":256,\"v\":16,\"m\":4,\"windows\":{},\"trials\":2,\"seed\":{seed}}}",
                    LONG_WINDOWS[windows]
                )
            } else {
                format!(
                    "{{\"exp\":\"perfbench\",\"durable\":false,\"target\":\"simline\",\"w\":48,\"v\":8,\"m\":4,\"windows\":{},\"trials\":3,\"seed\":{seed}}}",
                    SMALL_WINDOWS[windows]
                )
            };
            let doc = jsonio::parse(&params).expect("generated params are valid JSON");
            let spec = GridSpec::from_params(&doc).expect("generated params are a valid grid");
            if self.keys.insert(spec.session_key()) {
                self.issued.push((long, seed));
                return (params, spec);
            }
        }
    }
}

/// What a client saw of one session.
struct Served {
    index: usize,
    started: Instant,
    latency: Duration,
    /// Submit → `accepted`.
    ack: Option<Duration>,
    /// Submit → first `cell` event.
    first_cell: Option<Duration>,
    /// Last `cell` event → `done`.
    tail: Option<Duration>,
    events: u64,
    event_bytes: u64,
    busy: bool,
    /// The raw `done` line, or the failure.
    result: Result<String, String>,
}

/// Submits `params` as request `index` on a new connection, as
/// `mphd_smoke` does, and reads up to its terminal event. With `traced`,
/// records client-side spans for the session.
fn submit(addr: &str, index: usize, params: &str, traced: bool) -> Served {
    let start = Instant::now();
    let start_ns = if traced { trace::now_ns() } else { 0 };
    let mut served = Served {
        index,
        started: start,
        latency: Duration::ZERO,
        ack: None,
        first_cell: None,
        tail: None,
        events: 0,
        event_bytes: 0,
        busy: false,
        result: Err("no terminal event".into()),
    };
    let connected = TcpStream::connect(addr).and_then(|s| Ok((s.try_clone()?, BufReader::new(s))));
    let (mut writer, mut reader) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            served.result = Err(format!("connect: {e}"));
            return served;
        }
    };
    let request = format!("{{\"v\":1,\"id\":{index},\"method\":\"submit\",\"params\":{params}}}\n");
    if let Err(e) = writer.write_all(request.as_bytes()) {
        served.result = Err(format!("send: {e}"));
        return served;
    }
    let mut last_cell: Option<(Duration, u64)> = None;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                served.result = Err("daemon closed the connection".into());
                break;
            }
            Ok(n) => {
                served.events += 1;
                served.event_bytes += n as u64;
            }
            Err(e) => {
                served.result = Err(format!("read: {e}"));
                break;
            }
        }
        let now = start.elapsed();
        let now_ns = if traced { trace::now_ns() } else { 0 };
        // The load generator stays light: it classifies each line by its
        // header and keeps the `done` line raw, to be parsed after the
        // timed region.
        match event_name(&line, index) {
            Some("accepted") => {
                served.ack = Some(now);
                if traced {
                    trace::record("serve.ack", start_ns, now_ns);
                }
            }
            Some("cell") => {
                if served.first_cell.is_none() {
                    served.first_cell = Some(now);
                }
                last_cell = Some((now, now_ns));
            }
            Some("done") => {
                if let Some((at, at_ns)) = last_cell {
                    served.tail = Some(now - at);
                    if traced {
                        trace::record("serve.tail", at_ns, now_ns);
                    }
                }
                served.result = Ok(std::mem::take(&mut line));
                break;
            }
            _ => {
                served.busy = line.contains("\"code\":\"busy\"");
                served.result = Err(format!("reply {}", line.trim_end()));
                break;
            }
        }
    }
    served.latency = start.elapsed();
    served
}

impl Served {
    /// The served report and markdown, or why there are none.
    fn report(&self) -> Result<(String, String), String> {
        match &self.result {
            Ok(line) => done_report(line),
            Err(e) => Err(e.clone()),
        }
    }
}

/// The event name of a response line to request `index`:
/// `{"id":<index>,"event":"<name>",…}`; `None` for anything else (an
/// error reply or a malformed line).
fn event_name(line: &str, index: usize) -> Option<&str> {
    let rest = line.strip_prefix(&format!("{{\"id\":{index},\"event\":\""))?;
    rest.split('"').next()
}

/// The report and markdown of a `done` line, rendered as the daemon
/// rendered them. A degraded session (a failed or degraded cell) is a
/// failure even when the reference degrades the same way.
fn done_report(line: &str) -> Result<(String, String), String> {
    let doc = jsonio::parse(line.trim_end()).map_err(|e| format!("unparseable done line ({e})"))?;
    if jsonio::get(&doc, "degraded").and_then(jsonio::as_bool) != Some(false) {
        return Err("session degraded".into());
    }
    let report = jsonio::get(&doc, "report").map(|r| r.to_string());
    let markdown = jsonio::get(&doc, "markdown").and_then(jsonio::as_str).map(str::to_string);
    match (report, markdown) {
        (Some(r), Some(m)) => Ok((r, m)),
        _ => Err("done event without report and markdown".into()),
    }
}

/// Drives the daemon with `CLIENTS` closed-loop clients, each sampling
/// the host's speed between its sessions. Sessions come from `next()`
/// until it yields `None`; returns them with the wall time.
fn drive(
    addr: &str,
    gen: &Mutex<SpecGen>,
    next: &(dyn Fn() -> Option<usize> + Sync),
    speed: &Mutex<HostSpeed>,
    traced: bool,
) -> (Vec<Served>, Duration) {
    let start = Instant::now();
    let served = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    while let Some(i) = next() {
                        let (params, _) = gen.lock().expect("generator lock").get(i);
                        speed.lock().expect("speed lock").tick();
                        let s = if traced {
                            trace::span("serve.session", || submit(addr, i, &params, true))
                        } else {
                            submit(addr, i, &params, false)
                        };
                        served.lock().expect("results lock").push(s);
                    }
                    if traced {
                        trace::flush_thread();
                    }
                })
            })
            .collect();
        clients.into_iter().for_each(|c| c.join().expect("client thread panicked"));
    });
    let mut served = served.into_inner().expect("results lock");
    served.sort_by_key(|s| s.index);
    (served, start.elapsed())
}

/// Counts each session as attempted and fails those without a result
/// equal to `reference`.
fn check(
    served: &[Served],
    gen: &Mutex<SpecGen>,
    out: &mut Outcome,
    mut reference: impl FnMut(&Served, &GridSpec) -> Result<(String, String), String>,
) {
    for s in served {
        out.attempted += 1;
        let (_, spec) = gen.lock().expect("generator lock").get(s.index);
        let got = s.report();
        match (&got, reference(s, &spec)) {
            (Ok(got), Ok(want)) if *got == want => {}
            (Ok(_), Ok(_)) => {
                out.fail(format!("session {}: served report differs from the reference", s.index))
            }
            (Err(e), _) => out.fail(format!("session {}: {e}", s.index)),
            (_, Err(e)) => out.fail(format!("session {}: reference failed: {e}", s.index)),
        }
    }
}

fn run_local(spec: &GridSpec) -> Result<(String, String), String> {
    session::run_local(spec).map(|o| (o.report.to_string(), o.markdown)).map_err(|e| e.to_string())
}

/// [`run_local`] of every served session's spec, indexed like `served`,
/// on `CHECK_THREADS` threads.
fn local_references(
    served: &[Served],
    gen: &Mutex<SpecGen>,
) -> Vec<Result<(String, String), String>> {
    let specs: Vec<GridSpec> =
        served.iter().map(|s| gen.lock().expect("generator lock").get(s.index).1).collect();
    let per = specs.len().div_ceil(crate::CHECK_THREADS).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = specs
            .chunks(per)
            .map(|part| scope.spawn(move || part.iter().map(run_local).collect::<Vec<_>>()))
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
    })
}

/// Trials a session runs.
fn trials_of(spec: &GridSpec) -> usize {
    spec.windows.len() * spec.trials
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = daemon_bin()?;
    let work = fresh_work_dir("mphd")?;
    let result = if args.trace { traced(args, &bin, &work) } else { untraced(args, &bin, &work) };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn untraced(args: &Args, bin: &Path, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let speed = Mutex::new(HostSpeed::new());
    let (daemon, setup) = setup_daemon(bin, work, "run", &speed)?;
    let gen = Mutex::new(SpecGen::new(args.seed));
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    let budget = args.seconds;
    let next = || (start.elapsed() < budget).then(|| counter.fetch_add(1, Ordering::Relaxed));
    let (served, _) = drive(&daemon.addr, &gen, &next, &speed, false);
    let rss = peak_rss_mb(daemon.child.id()).unwrap_or(0.0);
    drop(daemon);
    let refs = local_references(&served, &gen);
    let mut refs = refs.into_iter();
    check(&served, &gen, &mut out, |_, _| refs.next().expect("one reference per session"));

    let done: Vec<&Served> = served.iter().filter(|s| s.result.is_ok()).collect();
    let trials: usize =
        done.iter().map(|s| trials_of(&gen.lock().expect("generator lock").get(s.index).1)).sum();
    // Every time below is at the reference host speed (see `HostSpeed`).
    let speed = speed.into_inner().expect("speed lock");
    let latencies: Vec<f64> =
        done.iter().map(|s| speed.secs(s.started, s.latency) * 1e3).collect();
    let busy = latencies.iter().sum::<f64>() * 1e-3;
    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("trials_per_s", trials as f64 / busy, "1/s", trials);
    out.metric("sessions_per_s", done.len() as f64 / busy, "1/s", done.len());
    out.metric("session_p50_ms", quantile(&latencies, 0.5), "ms", done.len());
    out.metric("session_p90_ms", quantile(&latencies, 0.9), "ms", done.len());
    out.metric("peak_rss_mb", rss, "MiB", 1);
    Ok(out)
}

/// The traced run: sessions untraced for half the budget on one daemon,
/// the same sessions traced on a fresh daemon and checkpoint root, then
/// the checkpoint-layer probe in-process.
fn traced(args: &Args, bin: &Path, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let gen = Mutex::new(SpecGen::new(args.seed));
    let speed = Mutex::new(HostSpeed::new());

    let (daemon, _) = setup_daemon(bin, work, "untraced", &speed)?;
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    let budget = args.seconds / 2;
    let next = || (start.elapsed() < budget).then(|| counter.fetch_add(1, Ordering::Relaxed));
    let (untraced, untraced_wall) = drive(&daemon.addr, &gen, &next, &speed, false);
    drop(daemon);

    let (daemon, _) = setup_daemon(bin, work, "traced", &speed)?;
    let counter = AtomicUsize::new(0);
    let total = untraced.len();
    let next = || {
        let i = counter.fetch_add(1, Ordering::Relaxed);
        (i < total).then_some(i)
    };
    let t0 = trace::now_ns();
    let (replayed, _) = drive(&daemon.addr, &gen, &next, &speed, true);
    let wall_ns = trace::now_ns() - t0;
    drop(daemon);
    let serve = Analysis::new(&trace::take());

    // The traced replay must serve exactly what the untraced run served.
    check(&replayed, &gen, &mut out, |s, _| {
        let u = untraced.get(s.index).ok_or("no untraced session")?;
        u.report()
    });

    // Checkpoint layer: the same specs run in-process, durably and not.
    let root = work.join("probe");
    let mut flushes = 0usize;
    let probe: Vec<GridSpec> = (0..total.min(CHECKPOINT_PROBE))
        .map(|i| gen.lock().expect("generator lock").get(i).1)
        .collect();
    for spec in &probe {
        let spec = &GridSpec { durable: true, ..spec.clone() };
        let durable = trace::span("checkpoint.durable", || {
            session::run_session(spec, None, Some(&root), |_, _| {})
        });
        let plain =
            trace::span("checkpoint.plain", || session::run_session(spec, None, None, |_, _| {}));
        flushes += spec.windows.len().div_ceil(spec.checkpoint_every.max(1));
        match (durable, plain) {
            (Ok(d), Ok(p)) if d.report.to_string() == p.report.to_string() => {}
            _ => out.fail(format!("checkpoint probe of session {} disagrees", spec.session_key())),
        }
    }
    let ckpt = Analysis::new(&trace::take());

    let n = serve.count("serve.session") as usize;
    let mean_ms = |v: Vec<Duration>| v.iter().map(|d| ms(*d)).sum::<f64>() / v.len().max(1) as f64;
    out.metric("serve.ack_ms", mean_ms(replayed.iter().filter_map(|s| s.ack).collect()), "ms", n);
    out.metric(
        "serve.first_cell_ms",
        mean_ms(replayed.iter().filter_map(|s| s.first_cell).collect()),
        "ms",
        n,
    );
    out.metric("serve.tail_ms", mean_ms(replayed.iter().filter_map(|s| s.tail).collect()), "ms", n);
    out.metric("serve.events", replayed.iter().map(|s| s.events).sum::<u64>() as f64, "count", n);
    out.metric(
        "serve.event_bytes",
        replayed.iter().map(|s| s.event_bytes).sum::<u64>() as f64,
        "bytes",
        n,
    );
    out.metric("serve.busy", replayed.iter().filter(|s| s.busy).count() as f64, "count", n);
    out.metric("checkpoint.flushes", flushes as f64, "count", probe.len());
    out.metric("checkpoint.bytes", dir_bytes(&root) as f64, "bytes", probe.len());
    out.metric(
        "checkpoint.busy_s",
        ckpt.total_s("checkpoint.durable") - ckpt.total_s("checkpoint.plain"),
        "s",
        probe.len(),
    );
    crate::line_grid::report_absent(&mut out);
    let trials: usize =
        (0..total).map(|i| trials_of(&gen.lock().expect("generator lock").get(i).1)).sum();
    out.metric("sweep.trials", trials as f64, "count", n);
    // The daemon's pool is not visible from outside; sessions overlap on
    // its 2 threads, so utilization is not measured here.
    out.metric("sweep.utilization", 0.0, "ratio", 0);
    crate::sharded::report_absent(&mut out);
    crate::line_grid::report_trace(
        &mut out,
        &serve,
        wall_ns,
        untraced_wall.as_nanos() as f64,
        wall_ns,
    );
    Ok(out)
}

/// Absent-layer placeholders for workloads that never serve.
pub fn report_absent(out: &mut Outcome) {
    for (name, unit) in [
        ("checkpoint.flushes", "count"),
        ("checkpoint.bytes", "bytes"),
        ("checkpoint.busy_s", "s"),
        ("serve.ack_ms", "ms"),
        ("serve.first_cell_ms", "ms"),
        ("serve.tail_ms", "ms"),
        ("serve.events", "count"),
        ("serve.event_bytes", "bytes"),
        ("serve.busy", "count"),
    ] {
        out.metric(name, 0.0, unit, 0);
    }
}
