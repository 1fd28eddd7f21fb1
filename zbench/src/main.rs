//! `zbench`: the Zeus benchmark.
//!
//! One command drives a 3-node `ThreadedCluster` (replication degree 3)
//! through the public `ClusterDriver`/`Session` API with closed-loop client
//! threads — every Zeus caller blocks on its transaction — and prints every
//! metric by name with its unit:
//!
//! ```text
//! zbench --workload <local_oltp|ownership_churn|read_mostly> --seed <n> \
//!        --seconds <n> --trace <0|1>
//! ```
//!
//! The measured time is split into trials of [`run::TRIAL`], each on a
//! fresh cluster with its own set-up and warm-up; every metric is the
//! median over the trials, except that failures are counted over the whole
//! run. With `--trace 0` the trials are untraced and the run reports the
//! end-to-end metrics. With `--trace 1` each trial alternates untraced and
//! traced slices, and the run reports the per-layer metrics, the tracing
//! overhead between the two kinds of slice, and writes the last trial's
//! spans to `.bench_spans/<workload>.tsv` (see [`trace`] for what each span
//! covers). After every trial the benchmark checks that every replica's
//! write counters match the bumps the clients saw commit. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod ops;
mod run;
mod trace;

use std::path::Path;
use std::time::Duration;

use ops::Workload;
use run::Trial;
use trace::Kind;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Nearest-rank percentile of sorted nanosecond samples, in µs (0 if none).
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1_000.0
}

fn sorted(samples: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut all: Vec<u64> = samples.collect();
    all.sort_unstable();
    all
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median of a non-empty sample.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Each metric's median over the trials, which all list the same metrics in
/// the same order.
fn median_by_name(per_trial: &[Metrics]) -> Metrics {
    per_trial[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            (
                name,
                median(per_trial.iter().map(|m| m[i].1).collect()),
                unit,
            )
        })
        .collect()
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// End-to-end metrics of one untraced trial.
fn end_to_end(trial: &Trial) -> Metrics {
    let committed: u64 = trial.clients.iter().map(|c| c.committed()).sum();
    let writes = sorted(
        trial
            .clients
            .iter()
            .flat_map(|c| c.write_ns.iter().copied()),
    );
    let reads = sorted(trial.clients.iter().flat_map(|c| c.read_ns.iter().copied()));
    vec![
        ("tps", committed as f64 / trial.elapsed.as_secs_f64(), "1/s"),
        ("write_p50_us", percentile_us(&writes, 50.0), "us"),
        ("write_p99_us", percentile_us(&writes, 99.0), "us"),
        ("read_p50_us", percentile_us(&reads, 50.0), "us"),
        ("read_p99_us", percentile_us(&reads, 99.0), "us"),
        ("setup_s", trial.setup.as_secs_f64(), "s"),
    ]
}

/// Per-layer metrics of one traced trial and the verdict of its span
/// nesting check. With `text`, the trial's spans are rendered into it.
fn per_layer(
    trial: &Trial,
    window: Duration,
    mut text: Option<&mut String>,
) -> (Metrics, Result<(), String>) {
    let traces: Vec<&trace::TxTrace> = trial.clients.iter().flat_map(|c| &c.traces).collect();
    let mut durations: Vec<(Kind, bool, u64)> = Vec::new();
    let mut self_us = Vec::new();
    let mut nesting = Ok(());
    for (id, tx) in traces.iter().enumerate() {
        let Some(spans) = trace::spans(id as u64, tx, trial.start) else {
            nesting = Err(format!("txn {id} committed without entering its closure"));
            continue;
        };
        if let Err(e) = trace::check_nesting(&spans) {
            nesting = nesting.and(Err(e));
        }
        self_us.push(trace::self_micros(&spans));
        durations.extend(spans.iter().map(|s| (s.kind, tx.read_only, s.nanos())));
        if let Some(text) = text.as_deref_mut() {
            trace::render(&spans, text);
        }
    }
    let pick = |kind: Kind, writes_only: bool| {
        sorted(
            durations
                .iter()
                .filter(|&&(k, read_only, _)| k == kind && !(writes_only && read_only))
                .map(|&(_, _, ns)| ns),
        )
    };
    let queue = pick(Kind::Queue, false);
    let reply = pick(Kind::Reply, false);
    let store = pick(Kind::StoreExec, false);
    let commit = pick(Kind::CommitBegin, true);
    let acquire = pick(Kind::Acquire, true);
    let retry = pick(Kind::ReadRetry, false);

    let writes = traces.iter().filter(|t| !t.read_only).count();
    let reads = traces.len() - writes;
    let remote = traces.iter().filter(|t| t.ownership_rounds() > 0).count();
    let rounds: u32 = traces.iter().map(|t| t.ownership_rounds()).sum();
    let retried_reads = traces
        .iter()
        .filter(|t| t.read_only && t.entries() > 1)
        .count();

    let ((s0, s1), (n0, n1)) = (&trial.stats, &trial.net);
    let txs = (s1.total_committed() - s0.total_committed()) as f64;
    let per_tx = |delta: u64| ratio(delta as f64, txs);
    let time = run::parity_time(window);
    let [untraced, traced] = [0, 1].map(|p| {
        let committed: u64 = trial.clients.iter().map(|c| c.committed_by_parity[p]).sum();
        committed as f64 / time[p].as_secs_f64()
    });
    let metrics = vec![
        ("core.queue_p50_us", percentile_us(&queue, 50.0), "us"),
        ("core.queue_p99_us", percentile_us(&queue, 99.0), "us"),
        ("core.reply_p50_us", percentile_us(&reply, 50.0), "us"),
        ("core.reply_p99_us", percentile_us(&reply, 99.0), "us"),
        (
            "core.batched_share",
            per_tx(s1.batched_commands - s0.batched_commands),
            "ratio",
        ),
        ("store.exec_p50_us", percentile_us(&store, 50.0), "us"),
        ("commit.begin_p50_us", percentile_us(&commit, 50.0), "us"),
        ("commit.begin_p99_us", percentile_us(&commit, 99.0), "us"),
        (
            "commit.aborts_per_tx",
            per_tx(s1.txs_aborted - s0.txs_aborted),
            "ratio",
        ),
        (
            "ownership.acquire_p50_us",
            percentile_us(&acquire, 50.0),
            "us",
        ),
        (
            "ownership.acquire_p99_us",
            percentile_us(&acquire, 99.0),
            "us",
        ),
        (
            "ownership.remote_share",
            ratio(remote as f64, writes as f64),
            "ratio",
        ),
        (
            "ownership.rounds_per_remote",
            ratio(f64::from(rounds), remote as f64),
            "ratio",
        ),
        (
            "ownership.handovers_per_tx",
            per_tx(s1.ownership_completed - s0.ownership_completed),
            "ratio",
        ),
        (
            "read.retry_share",
            ratio(retried_reads as f64, reads as f64),
            "ratio",
        ),
        ("read.retry_p99_us", percentile_us(&retry, 99.0), "us"),
        (
            "net.msgs_per_tx",
            per_tx(n1.messages_sent - n0.messages_sent),
            "count",
        ),
        (
            "net.bytes_per_tx",
            per_tx(n1.bytes_sent - n0.bytes_sent),
            "bytes",
        ),
        // A high-water mark has no delta: this is the trial cluster's own,
        // and the cluster only carries protocol traffic once clients start.
        ("net.inbox_hwm", n1.queue_depth_hwm as f64, "count"),
        (
            "client.self_p50_us",
            if self_us.is_empty() {
                0.0
            } else {
                median(self_us)
            },
            "us",
        ),
        (
            "trace.tps_overhead_pct",
            100.0 * ratio(untraced - traced, untraced),
            "%",
        ),
        ("trace.spans", durations.len() as f64, "count"),
    ];
    (metrics, nesting)
}

/// Writes the last trial's spans, headed by the run's tracing overhead.
fn write_spans(args: &Args, overhead: f64, spans: &str) {
    let path = Path::new(".bench_spans").join(format!("{}.tsv", args.workload.name()));
    let header = format!(
        "# workload={} seed={} trace.tps_overhead_pct={overhead}\n\
         # txn\tspan\tstart_ns\tend_ns\n",
        args.workload.name(),
        args.seed,
    );
    match std::fs::create_dir_all(".bench_spans")
        .and_then(|()| std::fs::write(&path, header + spans))
    {
        Ok(()) => println!(
            "# spans of the last trial: {} (trace.tps_overhead_pct={overhead})",
            path.display()
        ),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
}

/// The commit the checkout is at, read from `.git` without leaving it;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let head = read("HEAD").unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(reference).or_else(|| {
            let packed = read("packed-refs")?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        }),
        None => Some(head),
    };
    commit
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zbench: {e}");
            eprintln!(
                "usage: zbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let balancer = ops::balancer(run::NODES);
    let streams = ops::streams(args.workload, args.seed, &balancer);
    let homes = ops::homes(&balancer);
    println!(
        "# zbench workload={} seed={} clients={} seconds={} trace={} nproc={} \
         rustc=\"{}\" commit={} ops_digest={:016x}",
        args.workload.name(),
        args.seed,
        args.workload.clients(),
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("ZBENCH_RUSTC_VERSION"),
        git_commit(),
        ops::digest(&streams),
    );

    let total = Duration::from_secs(args.seconds);
    let trials = (total.as_nanos() / run::TRIAL.as_nanos()).max(1) as u32;
    let window = total / trials;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut per_trial = Vec::new();
    let mut spans = String::new();
    for i in 0..trials {
        let trial = run::trial(&streams, &homes, window, args.trace);
        for client in &trial.clients {
            attempted += client.attempted;
            failed += client.failed;
            if let Some(error) = &client.first_error {
                println!("# trial {i}: a transaction failed: {error:?}");
            }
        }
        if let Err(e) = &trial.check {
            println!("# trial {i}: replica check FAILED: {e}");
            correct = false;
        }
        let metrics = if args.trace {
            let last = i + 1 == trials;
            let (metrics, nesting) = per_layer(&trial, window, last.then_some(&mut spans));
            if let Err(e) = nesting {
                println!("# trial {i}: span nesting FAILED: {e}");
                correct = false;
            }
            metrics
        } else {
            end_to_end(&trial)
        };
        let line: Vec<String> = metrics
            .iter()
            .map(|(name, value, _)| format!("{name}={value:.4}"))
            .collect();
        println!("# trial {i}: {}", line.join(" "));
        per_trial.push(metrics);
    }

    let mut metrics = median_by_name(&per_trial);
    if args.trace {
        let overhead = metrics
            .iter()
            .find(|m| m.0 == "trace.tps_overhead_pct")
            .map_or(0.0, |m| m.1);
        write_spans(&args, overhead, &spans);
    } else {
        // Failures count over the whole run, warm-ups included: a median
        // over trials would hide them.
        let ok = ratio((attempted - failed) as f64, attempted as f64);
        metrics.insert(5, ("ok_ratio", ok, "ratio"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
    }
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload read_mostly --seed 42 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ReadMostly);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 3, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload local_oltp --seed x").is_err());
        assert!(args("--workload local_oltp --seed 1 --trace 2").is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank_and_medians_split_even_samples() {
        let samples: Vec<u64> = (1..=100).map(|us| us * 1_000).collect();
        assert_eq!(percentile_us(&samples, 50.0), 50.0);
        assert_eq!(percentile_us(&samples, 99.0), 99.0);
        assert_eq!(percentile_us(&[], 99.0), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
