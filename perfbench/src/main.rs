//! `perfbench`: the repository's benchmark of the served database.
//!
//! One invocation generates the served database from `--seed`, stores it
//! as a CQDB file, starts `certainty serve --listen` on it with a 2-thread
//! pool, drives one workload over the line protocol with at most two
//! connections, checks every response against the single-threaded
//! in-process reference, and prints the metrics. With `--trace 1` it also
//! replays the same seeded requests in-process through each layer's public
//! functions and prints the per-layer metrics instead.
//!
//! ```text
//! perfbench --workload <point|analytic|write-churn> --seed N --seconds S
//!           --trace <0|1> --server-bin <path to certainty>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod check;
mod drive;
mod process;
mod replay;
mod served;
mod spans;
mod stats;

use drive::{Inputs, Live, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut server_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The end-to-end metrics of a live run.
fn end_to_end(live: &Live) -> Vec<Metric> {
    let slices = read_slices(live);
    let kept: Vec<&Vec<f64>> = slices.kept().collect();
    let reads: usize = kept.iter().map(|s| s.len()).sum();
    let qps: Vec<f64> = kept.iter().map(|s| s.len() as f64 / slices.width).collect();
    let read_pct = |p: f64| {
        let per_slice: Vec<f64> = kept
            .iter()
            .filter_map(|s| stats::percentile(s, p))
            .collect();
        stats::median(&per_slice).unwrap_or(f64::NAN)
    };
    let writes = least_disturbed(
        live.writes
            .iter()
            .filter(|w| w.measured)
            .map(|w| (w.latency_ms, w.steal)),
    );
    let setups = least_disturbed(
        live.setup_s
            .iter()
            .copied()
            .zip(live.setup_steal.iter().copied()),
    );
    let write_pct = |p: f64| stats::percentile(&writes, p).unwrap_or(f64::NAN);
    vec![
        metric(
            "setup_s",
            stats::median(&setups).unwrap_or(f64::NAN),
            "s",
            setups.len(),
        ),
        metric(
            "read_qps",
            stats::median(&qps).unwrap_or(f64::NAN),
            "1/s",
            reads,
        ),
        metric("read_p50_ms", read_pct(50.0), "ms", reads),
        metric("read_p90_ms", read_pct(90.0), "ms", reads),
        metric("read_p99_ms", read_pct(99.0), "ms", reads),
        metric("write_p50_ms", write_pct(50.0), "ms", writes.len()),
        metric("write_p90_ms", write_pct(90.0), "ms", writes.len()),
        metric("rss_peak_mb", live.rss_kb as f64 / 1024.0, "MB", 1),
    ]
}

/// The values measured while the hypervisor stole no more of the host's
/// CPU than in the median measurement, and those without a reading.
fn least_disturbed(measured: impl Iterator<Item = (f64, Option<f64>)>) -> Vec<f64> {
    let (values, steal): (Vec<f64>, Vec<Option<f64>>) = measured.unzip();
    let kept = stats::least_disturbed(&steal);
    values
        .into_iter()
        .zip(kept)
        .filter_map(|(value, kept)| kept.then_some(value))
        .collect()
}

/// Reads that count towards a slice's percentiles.
const SLICE_READS: usize = 1000;

/// The measured reads' latencies in equal slices of the window, by send
/// time, and which slices count.
struct Slices {
    width: f64,
    reads: Vec<Vec<f64>>,
    /// Each slice's share of the host's CPU time stolen by the hypervisor.
    steal: Vec<Option<f64>>,
    kept: Vec<bool>,
}

impl Slices {
    fn kept(&self) -> impl Iterator<Item = &Vec<f64>> {
        self.reads
            .iter()
            .zip(&self.kept)
            .filter_map(|(reads, &kept)| kept.then_some(reads))
    }
}

/// One slice per whole second of the window, or fewer so that each holds
/// about [`SLICE_READS`] reads (a single slice for `analytic`). The slices
/// in which the hypervisor stole more of the host's CPU than in the median
/// slice are dropped, and the read metrics are medians over the rest, so
/// other tenants of the host move them little.
fn read_slices(live: &Live) -> Slices {
    let measured: Vec<(f64, f64)> = live
        .reads
        .iter()
        .filter(|r| r.measured)
        .map(|r| (r.sent, r.latency_ms))
        .collect();
    let start = measured.iter().map(|m| m.0).reduce(f64::min).unwrap_or(0.0);
    let count = if measured.is_empty() {
        0
    } else {
        (live.window_s.floor() as usize)
            .min(measured.len() / SLICE_READS)
            .max(1)
    };
    let width = live.window_s / count.max(1) as f64;
    let mut reads = vec![Vec::new(); count];
    for (sent, latency) in measured {
        reads[(((sent - start) / width) as usize).min(count - 1)].push(latency);
    }
    let steal: Vec<Option<f64>> = (0..count)
        .map(|i| {
            let from = start + i as f64 * width;
            stats::steal_share(&live.host, from, from + width)
        })
        .collect();
    let kept = stats::least_disturbed(&steal);
    Slices {
        width,
        reads,
        steal,
        kept,
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(args, &dir, started);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, dir: &Path, started: Instant) -> Result<String, String> {
    let served = served::Served::generate(args.seed);
    let doc = dir.join("served.cqa");
    let cqdb = dir.join("served.cqdb");
    std::fs::write(&doc, &served.schema_doc).map_err(|e| format!("{}: {e}", doc.display()))?;
    let summary = cqa_data::store::save(&served.db, &cqdb).map_err(|e| e.to_string())?;
    let stream = served::ReadStream::new(&served, args.seed, args.workload == Workload::WriteChurn);
    let script = served::write_script(&served, args.seed, args.workload.writes(args.seconds));

    println!("# perfbench {} seed {}", args.workload.name(), args.seed);
    println!("# why: {}", args.workload.why());
    println!(
        "# commit {}; host_cpus {}; {}",
        command_output("git", &["rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_output("rustc", &["--version"]),
    );
    println!(
        "# server: {} serve served.cqa --db=served.cqdb {}",
        args.server_bin.display(),
        process::ServerProcess::flags(served::SERVER_THREADS).join(" ")
    );
    for group in served.group_sizes() {
        println!(
            "# group {:<12} {:>7} facts {:>7} blocks",
            group.name, group.facts, group.blocks
        );
    }
    println!("# cqdb {summary}");
    drop(served);

    let inputs = Inputs {
        bin: args.server_bin.clone(),
        doc,
        cqdb: cqdb.clone(),
        seed: args.seed,
        seconds: args.seconds,
        workload: args.workload,
        stream: &stream,
        script: &script,
        traced: args.trace,
    };
    let live_started = Instant::now();
    let live = drive::run(&inputs).map_err(|e| format!("live run failed: {e}"))?;
    let live_s = live_started.elapsed().as_secs_f64();
    let verify_started = Instant::now();
    let mut mirror = cqa_data::store::load(&cqdb).map_err(|e| e.to_string())?;
    let verdict = check::verify(&mut mirror, &live);
    drop(mirror);
    let verify_s = verify_started.elapsed().as_secs_f64();
    print_record(&live, &verdict, verify_s);

    let e2e = end_to_end(&live);
    let replay_started = Instant::now();
    let metrics = if args.trace {
        let spans_out = PathBuf::from(".bench_run").join(format!(
            "spans-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        let per_layer = replay::per_layer(&replay::Setup {
            cqdb: &cqdb,
            seconds: args.seconds,
            workload: args.workload,
            live: &live,
            spans_out: &spans_out,
        });
        print_metrics(&e2e);
        per_layer
    } else {
        e2e
    };
    print_metrics(&metrics);
    println!(
        "# run time {:.1} s: generate and save {:.1} s, live {:.1} s, verify {:.1} s{}",
        started.elapsed().as_secs_f64(),
        (live_started - started).as_secs_f64(),
        live_s,
        verify_s,
        if args.trace {
            format!(", replay {:.1} s", replay_started.elapsed().as_secs_f64())
        } else {
            String::new()
        }
    );
    Ok(json_line(
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        &metrics,
    ))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "# metric {:<32} {:>14.4} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The per-run record: what was sent, what the reference found, and how
/// the latency and throughput were spread.
fn print_record(live: &Live, verdict: &check::Verdict, verify_s: f64) {
    let texts: Vec<&str> = live.reads.iter().map(|r| r.text.as_str()).collect();
    let distinct: std::collections::HashSet<&str> = texts.iter().copied().collect();
    println!(
        "# reads {} ({} distinct texts, share {:.3}); writes {} (small {}, large {}); \
         writer max lateness {:.1} ms",
        texts.len(),
        distinct.len(),
        distinct.len() as f64 / texts.len().max(1) as f64,
        live.writes.len(),
        live.writes
            .iter()
            .filter(|w| w.target == served::Target::Small)
            .count(),
        live.writes
            .iter()
            .filter(|w| w.target == served::Target::Large)
            .count(),
        live.writes.iter().map(|w| w.late_ms).fold(0.0, f64::max),
    );
    for target in [served::Target::Small, served::Target::Large] {
        let latencies: Vec<f64> = live
            .writes
            .iter()
            .filter(|w| w.measured && w.target == target)
            .map(|w| w.latency_ms)
            .collect();
        println!(
            "# writes to the {} target: {} measured, p50 {:.2} ms",
            target.name(),
            latencies.len(),
            stats::median(&latencies).unwrap_or(f64::NAN)
        );
    }
    for (class, counts) in &verdict.classes {
        let solver = verdict
            .solvers
            .get(class)
            .map_or(String::new(), |s| format!(", solver {s}"));
        println!(
            "# class {class:<16} {} evaluations, {} candidates, certain share {:.3}{solver}",
            counts.evaluations,
            counts.candidates,
            counts.certain as f64 / counts.candidates.max(1) as f64,
        );
    }
    println!(
        "# checked {} responses against the reference ({} failed of {} attempted, \
         error_rate {:.6}) in {:.1} s",
        verdict.checked,
        verdict.failed,
        verdict.attempted,
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verify_s,
    );
    for mismatch in &verdict.mismatches {
        eprintln!("mismatch: {mismatch}");
    }

    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for read in live.reads.iter().filter(|r| r.measured) {
        let class = read.response.split(':').next().unwrap_or("");
        by_class.entry(class).or_default().push(read.latency_ms);
    }
    for (class, latencies) in &by_class {
        println!(
            "# latency {class:<12} {} reads, p50 {:.3} ms, p90 {:.3} ms",
            latencies.len(),
            stats::median(latencies).unwrap_or(f64::NAN),
            stats::percentile(latencies, 90.0).unwrap_or(f64::NAN),
        );
    }
    if live.probe_cpu_s.is_finite() {
        println!(
            "# server CPU over the quiet write probe: {:.1} ms per write ({} writes, no views)",
            live.probe_cpu_s * 1e3 / live.writes.len().max(1) as f64,
            live.writes.len(),
        );
    }
    println!(
        "# server CPU over the {:.1} s window: {:.3} cores; host CPU stolen by the hypervisor: {:.1}%",
        live.window_s,
        live.window_cpu_s / live.window_s,
        100.0
            * live
                .host
                .first()
                .zip(live.host.last())
                .and_then(|(a, b)| stats::stolen(a, b))
                .unwrap_or(f64::NAN),
    );
    println!("# rss_peak_mb read after {} reads", live.rss_reads);
    let slices = read_slices(live);
    let qps: Vec<f64> = slices
        .reads
        .iter()
        .map(|s| s.len() as f64 / slices.width)
        .collect();
    for (i, reads) in qps.iter().enumerate() {
        println!(
            "# slice {i:>2}: {reads:>9.1} reads/s, steal {:>5.1}%{}",
            100.0 * slices.steal[i].unwrap_or(f64::NAN),
            if slices.kept[i] { "" } else { ", dropped" },
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive::Observed;

    fn live_with(reads: Vec<(f64, f64)>, window_s: f64) -> Live {
        Live {
            setup_s: vec![1.0],
            setup_steal: vec![None],
            probes: Vec::new(),
            base_epoch: 0,
            reads: reads
                .into_iter()
                .map(|(sent, latency_ms)| Observed {
                    text: String::new(),
                    response: String::new(),
                    lo: 0,
                    hi: 0,
                    sent,
                    latency_ms,
                    measured: true,
                })
                .collect(),
            writes: Vec::new(),
            finals: Vec::new(),
            regions: Vec::new(),
            window_s,
            window_cpu_s: 0.0,
            host: Vec::new(),
            probe_cpu_s: 0.0,
            rss_kb: 0,
            rss_reads: 0,
            pinned_max: 0,
        }
    }

    #[test]
    fn read_metrics_are_medians_over_one_second_slices() {
        // Three seconds of 2000 reads each at 1 ms; the middle second is
        // disturbed: half as many reads, at 10 ms.
        let mut reads = Vec::new();
        for second in 0..3 {
            let (count, latency) = if second == 1 {
                (1000, 10.0)
            } else {
                (2000, 1.0)
            };
            for i in 0..count {
                reads.push((second as f64 + i as f64 / count as f64, latency));
            }
        }
        let slices = read_slices(&live_with(reads.clone(), 3.0));
        assert_eq!(
            slices.reads.iter().map(Vec::len).collect::<Vec<_>>(),
            [2000, 1000, 2000]
        );
        // Without host readings every slice counts.
        assert_eq!(slices.kept, [true, true, true]);
        let metrics = end_to_end(&live_with(reads, 3.0));
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("read_qps"), 2000.0);
        assert_eq!(value("read_p99_ms"), 1.0);
        assert_eq!(metrics[1].samples, 5000);
    }

    #[test]
    fn too_few_reads_make_one_slice() {
        let reads: Vec<(f64, f64)> = (0..90).map(|i| (i as f64 * 0.1, i as f64)).collect();
        let slices = read_slices(&live_with(reads, 9.0));
        assert_eq!(slices.reads.len(), 1);
        assert_eq!(slices.reads[0].len(), 90);
        assert!(read_slices(&live_with(Vec::new(), 9.0)).reads.is_empty());
    }

    #[test]
    fn slices_with_more_steal_than_the_median_are_dropped() {
        // Four seconds of 1000 reads each; the hypervisor steals 20% of
        // the host in the third second only, when the reads slow down.
        let mut reads = Vec::new();
        for second in 0..4 {
            let latency = if second == 2 { 9.0 } else { 1.0 };
            for i in 0..1000 {
                reads.push((second as f64 + i as f64 / 1000.0, latency));
            }
        }
        let mut live = live_with(reads, 4.0);
        let stolen_by = [0, 0, 0, 20, 20];
        live.host = (0..5)
            .map(|t| drive::HostSample {
                at: t as f64,
                steal: stolen_by[t],
                total: 100 * t as u64,
            })
            .collect();
        let slices = read_slices(&live);
        assert_eq!(slices.kept, [true, true, false, true]);
        let metrics = end_to_end(&live);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("read_p99_ms"), 1.0);
        assert_eq!(metrics[1].samples, 3000);
    }

    #[test]
    fn writes_and_set_ups_with_more_steal_than_the_median_are_dropped() {
        let mut live = live_with(Vec::new(), 1.0);
        live.setup_s = vec![1.0, 3.0, 1.2];
        live.setup_steal = vec![Some(0.0), Some(0.3), Some(0.0)];
        live.writes = [
            (10.0, Some(0.0)),
            (90.0, Some(0.2)),
            (12.0, None),
            (11.0, Some(0.0)),
        ]
        .into_iter()
        .map(|(latency_ms, steal)| drive::WriteRecord {
            target: served::Target::Small,
            text: String::new(),
            reply: String::new(),
            latency_ms,
            late_ms: 0.0,
            measured: true,
            sent: 0.0,
            steal,
        })
        .collect();
        let metrics = end_to_end(&live);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert_eq!(value("setup_s").value, 1.0);
        assert_eq!(value("setup_s").samples, 2);
        assert_eq!(value("write_p90_ms").value, 12.0);
        assert_eq!(value("write_p90_ms").samples, 3);
    }
}
