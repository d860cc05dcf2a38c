//! The live run: set up the served process, drive one workload over the
//! line protocol with at most two connections, and record every request,
//! response and timing.

use crate::process::{Connection, ServerProcess};
use crate::served::{self, ReadStream, ScriptedWrite, Target};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How many times a run sets the server up; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Warm-up before the measured window of `point` and `write-churn`.
const WARM_UP: Duration = Duration::from_secs(1);
/// `write-churn`'s open-loop write rate, per second: about half a core of
/// server CPU. Writes alone at this rate, with the four views subscribed,
/// kept the server at 0.47–0.51 cores (157–171 ms of CPU per write) on a
/// 2-vCPU x86-64 host; see the README.
pub const WRITE_RATE: f64 = 3.0;
/// Writes of the quiet write probe that starts `point`. Their cost drifts
/// by ±15% over seconds with the host's other tenants, so the probe spans
/// ≈16 s rather than a few.
const POINT_PROBE_WRITES: usize = 180;
/// Writes of `analytic`'s quiet write probe: fewer, so that a traced run,
/// which replays them, stays well inside its time limit.
const ANALYTIC_PROBE_WRITES: usize = 60;
/// `point` reads its memory high-water mark once this many reads have been
/// sent: its memos grow with the distinct texts answered, so a fixed amount
/// of work, not of time, makes runs of different throughput comparable.
pub const POINT_RSS_READS: u64 = 150_000;
/// How often the window's monitor samples the host's CPU counters.
const HOST_SAMPLE: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Point,
    Analytic,
    WriteChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "point" => Some(Workload::Point),
            "analytic" => Some(Workload::Analytic),
            "write-churn" => Some(Workload::WriteChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Analytic => "analytic",
            Workload::WriteChurn => "write-churn",
        }
    }

    /// How many scripted writes the workload sends: `write-churn`'s open
    /// loop over `seconds` plus slack, or the read-only workloads' quiet
    /// write probe.
    pub fn writes(self, seconds: f64) -> usize {
        match self {
            Workload::Point => POINT_PROBE_WRITES,
            Workload::Analytic => ANALYTIC_PROBE_WRITES,
            Workload::WriteChurn => ((seconds + 2.0) * WRITE_RATE).ceil() as usize,
        }
    }

    /// Why the workload exists, for the per-run record.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Point => {
                "cheap keyed reads from 2 closed-loop connections: per-request machinery \
                 (parse, render, pool handoff, memos, compiles on new texts) dominates"
            }
            Workload::Analytic => {
                "heavy first-order queries (open q(x) at 135k facts, the quadratic open \
                 q(z), a scanning Boolean path3, open conference) on 1 connection: \
                 enumeration and the vectorized decide dominate"
            }
            Workload::WriteChurn => {
                "open-loop writes to a small and a large relation with 4 live views, \
                 while a closed-loop reader mixes view reads and keyed reads"
            }
        }
    }
}

/// One response the gate checks: what was sent, what came back, and the
/// range of scripted writes that may have been applied when it was
/// answered.
#[derive(Clone, Debug)]
pub struct Observed {
    pub text: String,
    pub response: String,
    pub lo: usize,
    pub hi: usize,
    /// Seconds from the start of the live run to the send.
    pub sent: f64,
    pub latency_ms: f64,
    pub measured: bool,
}

#[derive(Clone, Debug)]
pub struct WriteRecord {
    pub target: Target,
    pub text: String,
    pub reply: String,
    pub latency_ms: f64,
    /// How late the send was against its due time.
    pub late_ms: f64,
    pub measured: bool,
    pub sent: f64,
    /// The host's steal share while the write was in flight.
    pub steal: Option<f64>,
}

/// Everything a live run observed.
pub struct Live {
    pub setup_s: Vec<f64>,
    /// Each set-up's host steal share.
    pub setup_steal: Vec<Option<f64>>,
    pub probes: Vec<Observed>,
    pub base_epoch: u64,
    pub reads: Vec<Observed>,
    pub writes: Vec<WriteRecord>,
    pub finals: Vec<Observed>,
    /// `analytic`'s region probes (traced runs only), sent after the window.
    pub regions: Vec<Observed>,
    pub window_s: f64,
    /// The server's CPU time over the measured window, in seconds.
    pub window_cpu_s: f64,
    /// The host's CPU counters through the measured window.
    pub host: Vec<HostSample>,
    /// The server's CPU time over the quiet write probe, in seconds.
    pub probe_cpu_s: f64,
    /// Peak resident memory of the server after the workload (`point`:
    /// after [`POINT_RSS_READS`] reads), before the region probes and the
    /// final dumps of the correctness gate.
    pub rss_kb: u64,
    /// Reads sent when `rss_kb` was read.
    pub rss_reads: u64,
    pub pinned_max: usize,
}

pub struct Inputs<'a> {
    pub bin: PathBuf,
    pub doc: PathBuf,
    pub cqdb: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub workload: Workload,
    pub stream: &'a ReadStream,
    pub script: &'a [ScriptedWrite],
    /// A traced run: sample `\stats` for the pinned-epoch gauge and send
    /// the region probes.
    pub traced: bool,
}

fn observed(text: String, response: String, sent: f64, latency: Duration) -> Observed {
    Observed {
        text,
        response,
        lo: 0,
        hi: 0,
        sent,
        latency_ms: latency.as_secs_f64() * 1e3,
        measured: false,
    }
}

/// The set-up probe: the workload's first request.
pub fn setup_probe(workload: Workload, stream: &ReadStream) -> String {
    match workload {
        Workload::Analytic => served::analytic_classes()[0].clone(),
        Workload::Point | Workload::WriteChurn => stream.request(0),
    }
}

/// Starts the server and sends the workload's set-up requests; the set-up
/// time runs from the process start to the first workload response.
fn set_up(inputs: &Inputs) -> io::Result<(ServerProcess, Connection, f64, Vec<Observed>)> {
    let started = Instant::now();
    let server = ServerProcess::start(
        &inputs.bin,
        &inputs.doc,
        &inputs.cqdb,
        served::SERVER_THREADS,
    )?;
    let mut conn = Connection::open(server.addr)?;
    let mut probes = Vec::new();
    if inputs.workload == Workload::WriteChurn {
        for (name, query) in served::views() {
            let text = format!("\\subscribe {name} {query}");
            let sent = Instant::now();
            let reply = conn.request(&text)?;
            probes.push(observed(text, reply, 0.0, sent.elapsed()));
        }
    }
    let text = setup_probe(inputs.workload, inputs.stream);
    let sent = Instant::now();
    let reply = conn.request(&text)?;
    let setup = started.elapsed().as_secs_f64();
    probes.push(observed(text, reply, 0.0, sent.elapsed()));
    Ok((server, conn, setup, probes))
}

pub fn run(inputs: &Inputs) -> io::Result<Live> {
    let mut setup_s = Vec::new();
    let mut setup_steal = Vec::new();
    let clock = Instant::now();
    let mut probes = Vec::new();
    let mut last = None;
    for round in 0..SETUPS {
        let before = host_sample(clock);
        let (mut server, conn, setup, mut observed) = set_up(inputs)?;
        setup_s.push(setup);
        setup_steal.push(stolen(before, host_sample(clock)));
        probes.append(&mut observed);
        if round + 1 == SETUPS {
            last = Some((server, conn));
        } else {
            server.stop();
        }
    }
    let (mut server, mut conn) = last.expect("at least one set-up");
    let epoch_reply = conn.request("\\epoch")?;
    let base_epoch = epoch_reply
        .strip_prefix("epoch: ")
        .and_then(|e| e.parse().ok())
        .ok_or_else(|| io::Error::other(format!("unexpected \\epoch reply {epoch_reply:?}")))?;
    let origin = Instant::now();
    let mut live = Live {
        setup_s,
        setup_steal,
        probes,
        base_epoch,
        reads: Vec::new(),
        writes: Vec::new(),
        finals: Vec::new(),
        regions: Vec::new(),
        window_s: 0.0,
        window_cpu_s: f64::NAN,
        host: Vec::new(),
        probe_cpu_s: f64::NAN,
        rss_kb: 0,
        rss_reads: 0,
        pinned_max: 0,
    };
    if inputs.workload != Workload::WriteChurn {
        // The read-only workloads time their writes on the freshly set-up
        // server, before the reads grow its memos.
        let before = server.cpu_s();
        quiet_writes(inputs, &mut conn, origin, &mut live)?;
        live.probe_cpu_s = cpu_since(&server, before);
    }
    let mut conn = match inputs.workload {
        Workload::Point => point(inputs, &server, conn, origin, &mut live)?,
        Workload::Analytic => analytic(inputs, &server, conn, origin, &mut live)?,
        Workload::WriteChurn => churn(inputs, &server, conn, origin, &mut live)?,
    };
    if live.rss_kb == 0 {
        live.rss_kb = server.peak_rss_kb().unwrap_or(0);
        live.rss_reads = live.reads.len() as u64;
    }
    if inputs.workload == Workload::Analytic && inputs.traced {
        region_probes(&mut conn, origin, &mut live)?;
    }
    finals(inputs, &mut conn, origin, &mut live)?;
    server.stop();
    Ok(live)
}

/// The server's CPU seconds since `before`, a reading of
/// [`ServerProcess::cpu_s`].
fn cpu_since(server: &ServerProcess, before: Option<f64>) -> f64 {
    match (before, server.cpu_s()) {
        (Some(before), Some(after)) => after - before,
        _ => f64::NAN,
    }
}

/// The host's CPU counters at one moment, from the first line of
/// `/proc/stat`, in clock ticks summed over all CPUs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostSample {
    /// Seconds from the start of the live run.
    pub at: f64,
    /// Time the hypervisor ran something else while a CPU of this host
    /// was ready to run.
    pub steal: u64,
    pub total: u64,
}

fn host_sample(origin: Instant) -> Option<HostSample> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    Some(HostSample {
        at: origin.elapsed().as_secs_f64(),
        steal: *ticks.get(7)?,
        total: ticks.iter().sum(),
    })
}

/// The host's steal share between two samples.
fn stolen(from: Option<HostSample>, to: Option<HostSample>) -> Option<f64> {
    crate::stats::stolen(&from?, &to?)
}

/// What the monitor beside a timed workload saw in `[from, to)`.
struct Watched {
    cpu_s: f64,
    host: Vec<HostSample>,
    /// Peak resident memory (kB) and reads sent when it was read.
    rss: Option<(u64, u64)>,
}

/// Samples the host's CPU counters every [`HOST_SAMPLE`] from `from` to
/// `to` and the server's CPU time at both ends. With `rss_after`, also
/// reads the server's memory high-water mark as soon as that many reads
/// have been sent.
fn watch(
    server: &ServerProcess,
    origin: Instant,
    from: Instant,
    to: Instant,
    rss_after: Option<(&AtomicU64, u64)>,
) -> Watched {
    if let Some(wait) = from.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let before = server.cpu_s();
    let mut host = Vec::new();
    let mut rss = None;
    loop {
        host.extend(host_sample(origin));
        if let Some((sent, after)) = rss_after {
            let reads = sent.load(Ordering::SeqCst);
            if rss.is_none() && reads >= after {
                rss = server.peak_rss_kb().map(|kb| (kb, reads));
            }
        }
        let now = Instant::now();
        if now >= to {
            break;
        }
        std::thread::sleep(HOST_SAMPLE.min(to - now));
    }
    Watched {
        cpu_s: cpu_since(server, before),
        host,
        rss,
    }
}

/// A closed loop on one connection over the shared read stream, until the
/// send time passes `end`. Reads sent in `[warm_end, end)` are measured.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    conn: &mut Connection,
    stream: &ReadStream,
    next: &AtomicU64,
    origin: Instant,
    warm_end: Instant,
    end: Instant,
    writes: Option<(&AtomicUsize, &AtomicUsize)>,
    stats: Option<&Mutex<usize>>,
) -> io::Result<Vec<Observed>> {
    let mut out = Vec::new();
    let mut next_stats = Instant::now();
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let text = stream.request(i);
        let lo = writes.map_or(0, |(_, acked)| acked.load(Ordering::SeqCst));
        let sent = Instant::now();
        if sent >= end {
            return Ok(out);
        }
        let response = conn.request(&text)?;
        let latency = sent.elapsed();
        let hi = writes.map_or(0, |(sent, _)| sent.load(Ordering::SeqCst));
        let mut read = observed(text, response, (sent - origin).as_secs_f64(), latency);
        read.lo = lo;
        read.hi = hi;
        read.measured = sent >= warm_end;
        out.push(read);
        if let Some(pinned) = stats {
            if Instant::now() >= next_stats {
                next_stats = Instant::now() + Duration::from_millis(100);
                let line = conn.request("\\stats")?;
                if let Some(n) = line
                    .split("pinned epochs ")
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|n| n.trim().parse::<usize>().ok())
                {
                    let mut max = pinned.lock().expect("stats lock poisoned");
                    *max = (*max).max(n);
                }
            }
        }
    }
}

fn point(
    inputs: &Inputs,
    server: &ServerProcess,
    conn: Connection,
    origin: Instant,
    live: &mut Live,
) -> io::Result<Connection> {
    let warm_end = Instant::now() + WARM_UP;
    let end = warm_end + Duration::from_secs_f64(inputs.seconds);
    let next = AtomicU64::new(1);
    let second = Connection::open(server.addr)?;
    let pinned = Mutex::new(0);
    let stats = inputs.traced.then_some(&pinned);
    let (joined, watched) = std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            watch(
                server,
                origin,
                warm_end,
                end,
                Some((&next, POINT_RSS_READS)),
            )
        });
        let handles: Vec<_> = [conn, second]
            .into_iter()
            .map(|mut c| {
                let next = &next;
                s.spawn(move || {
                    closed_loop(
                        &mut c,
                        inputs.stream,
                        next,
                        origin,
                        warm_end,
                        end,
                        None,
                        stats,
                    )
                    .map(|reads| (reads, c))
                })
            })
            .collect();
        let joined: Vec<io::Result<(Vec<Observed>, Connection)>> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (joined, watcher.join().expect("monitor thread panicked"))
    });
    live.window_cpu_s = watched.cpu_s;
    live.host = watched.host;
    if let Some((kb, reads)) = watched.rss {
        (live.rss_kb, live.rss_reads) = (kb, reads);
    }
    let mut conns = Vec::new();
    for result in joined {
        let (reads, c) = result?;
        live.reads.extend(reads);
        conns.push(c);
    }
    let written = live.writes.len();
    for read in &mut live.reads {
        (read.lo, read.hi) = (written, written);
    }
    live.reads.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    live.window_s = inputs.seconds;
    live.pinned_max = pinned.into_inner().expect("stats lock poisoned");
    let conn = conns.swap_remove(0);
    drop(conns);
    Ok(conn)
}

fn analytic(
    inputs: &Inputs,
    server: &ServerProcess,
    mut conn: Connection,
    origin: Instant,
    live: &mut Live,
) -> io::Result<Connection> {
    let classes = served::analytic_classes();
    // Warm-up: the rest of the fixed first round (the set-up probe was its
    // first request), so every class has compiled and built its indexes.
    for text in &classes[1..] {
        let sent = Instant::now();
        let response = conn.request(text)?;
        live.reads.push(observed(
            text.clone(),
            response,
            (sent - origin).as_secs_f64(),
            sent.elapsed(),
        ));
    }
    // Whole seeded rounds until the window is spent, so every run measures
    // the same mix.
    let start = Instant::now();
    let before = server.cpu_s();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < inputs.seconds {
        for class in served::analytic_round(inputs.seed, round) {
            let text = &classes[class];
            let sent = Instant::now();
            let response = conn.request(text)?;
            let mut read = observed(
                text.clone(),
                response,
                (sent - origin).as_secs_f64(),
                sent.elapsed(),
            );
            read.measured = true;
            live.reads.push(read);
        }
        round += 1;
    }
    live.window_s = start.elapsed().as_secs_f64();
    live.window_cpu_s = cpu_since(server, before);
    let written = live.writes.len();
    for read in &mut live.reads {
        (read.lo, read.hi) = (written, written);
    }
    Ok(conn)
}

/// `analytic`'s region probes (traced runs only), sent after the window:
/// one query per polynomial region of the chart.
fn region_probes(conn: &mut Connection, origin: Instant, live: &mut Live) -> io::Result<()> {
    let written = live.writes.len();
    for text in served::region_probes() {
        let sent = Instant::now();
        let response = conn.request(&text)?;
        let mut probe = observed(
            text,
            response,
            (sent - origin).as_secs_f64(),
            sent.elapsed(),
        );
        (probe.lo, probe.hi) = (written, written);
        live.regions.push(probe);
    }
    Ok(())
}

fn churn(
    inputs: &Inputs,
    server: &ServerProcess,
    mut conn: Connection,
    origin: Instant,
    live: &mut Live,
) -> io::Result<Connection> {
    let warm_end = origin + WARM_UP;
    let end = warm_end + Duration::from_secs_f64(inputs.seconds);
    let sent_writes = AtomicUsize::new(0);
    let acked_writes = AtomicUsize::new(0);
    let next = AtomicU64::new(1);
    let pinned = Mutex::new(0);
    let stats = inputs.traced.then_some(&pinned);
    let mut writer = Connection::open(server.addr)?;
    let (reads, writes, watched) = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch(server, origin, warm_end, end, None));
        let handle = s.spawn(|| -> io::Result<Vec<WriteRecord>> {
            let mut out = Vec::new();
            for (k, write) in inputs.script.iter().enumerate() {
                // Open loop: write k is due at k / rate, whatever the
                // server did with the ones before it.
                let due = origin + Duration::from_secs_f64(k as f64 / WRITE_RATE);
                if due >= end {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let send = Instant::now();
                let before = host_sample(origin);
                sent_writes.store(k + 1, Ordering::SeqCst);
                let reply = writer.request(&write.text)?;
                acked_writes.store(k + 1, Ordering::SeqCst);
                let steal = stolen(before, host_sample(origin));
                out.push(WriteRecord {
                    target: write.target,
                    text: write.text.clone(),
                    reply,
                    latency_ms: due.elapsed().as_secs_f64() * 1e3,
                    late_ms: (send - due).as_secs_f64() * 1e3,
                    measured: due >= warm_end,
                    sent: (send - origin).as_secs_f64(),
                    steal,
                });
            }
            Ok(out)
        });
        let reads = closed_loop(
            &mut conn,
            inputs.stream,
            &next,
            origin,
            warm_end,
            end,
            Some((&sent_writes, &acked_writes)),
            stats,
        );
        (
            reads,
            handle.join().expect("writer thread panicked"),
            watcher.join().expect("monitor thread panicked"),
        )
    });
    live.reads = reads?;
    live.writes = writes?;
    live.window_s = inputs.seconds;
    live.window_cpu_s = watched.cpu_s;
    live.host = watched.host;
    live.pinned_max = pinned.into_inner().expect("stats lock poisoned");
    drop(writer);
    Ok(conn)
}

/// The quiet write probe of the read-only workloads: scripted writes one at
/// a time before the reads, timed from send to reply.
fn quiet_writes(
    inputs: &Inputs,
    conn: &mut Connection,
    origin: Instant,
    live: &mut Live,
) -> io::Result<()> {
    for write in inputs.script {
        let send = Instant::now();
        let before = host_sample(origin);
        let reply = conn.request(&write.text)?;
        let steal = stolen(before, host_sample(origin));
        live.writes.push(WriteRecord {
            target: write.target,
            text: write.text.clone(),
            reply,
            latency_ms: send.elapsed().as_secs_f64() * 1e3,
            late_ms: 0.0,
            measured: true,
            sent: (send - origin).as_secs_f64(),
            steal,
        });
    }
    Ok(())
}

/// The final state after the last write: every view, every write target
/// whole, and the epoch.
fn finals(
    inputs: &Inputs,
    conn: &mut Connection,
    origin: Instant,
    live: &mut Live,
) -> io::Result<()> {
    let mut texts: Vec<String> = Vec::new();
    if inputs.workload == Workload::WriteChurn {
        texts.extend(
            served::views()
                .iter()
                .map(|(name, _)| format!("\\view {name}")),
        );
    }
    texts.extend(served::final_probes().iter().map(|t| t.to_string()));
    texts.push("\\epoch".to_string());
    let done = live.writes.len();
    for text in texts {
        let sent = Instant::now();
        let response = conn.request(&text)?;
        let mut read = observed(
            text,
            response,
            (sent - origin).as_secs_f64(),
            sent.elapsed(),
        );
        read.lo = done;
        read.hi = done;
        live.finals.push(read);
    }
    Ok(())
}
