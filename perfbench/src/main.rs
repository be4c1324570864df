//! The oodb benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run starts with one warm-up round, checked but not timed.
//! `--trace 0` then repeats whole rounds of the workload against the
//! engine while another round still fits into `--seconds`, and reports
//! the end-to-end metrics as medians over the rounds. `--trace 1`
//! alternates untraced and ring-traced rounds for half that time, then
//! drives the lower layers
//! directly on the same inputs with a span around every call, writes
//! the spans to `.perfbench_out/`, and reports the per-layer metrics.
//! Every round's outputs are checked; the last line of standard output
//! is one JSON object `{correct, attempted, failed, metrics}`.

mod check;
mod layers;
mod run;
mod stats;
mod workload;

use run::{peak_rss_mb, run_round, Round};
use stats::{bucket_delta_mean, lowest_quarter, median, per};
use std::time::{Duration, Instant};
use workload::Spec;

/// How long past `--seconds` a run may go on before it counts as hung,
/// so that a hung 40 s run still prints its result within three minutes.
const HANG_MARGIN: Duration = Duration::from_secs(100);

/// End-to-end metrics, reported by `--trace 0` on every workload.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "commit_tput",
    "commit_p50_ms",
    "batch_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by `--trace 1` on every workload.
pub const PER_LAYER: [&str; 42] = [
    "engine.queue.wait_p50_ms",
    "engine.cc.wait_p50_ms",
    "engine.cc.attempts_per_commit",
    "engine.cc.cert_actions_per_commit",
    "engine.cc.versions_live",
    "engine.worker.exec_p50_ms",
    "engine.durability.fsync_wait_p50_ms",
    "engine.durability.fsyncs_per_commit",
    "engine.durability.group_size_mean",
    "engine.durability.appends_per_commit",
    "commit_p99_ms",
    "log_bytes_per_commit",
    "audit_s",
    "recovery_s",
    "trace.overhead_pct",
    "trace.setup_overhead_pct",
    "trace.engine_events",
    "btree.search_us",
    "btree.insert_us",
    "btree.change_us",
    "btree.delete_us",
    "storage.pool.misses_per_op",
    "storage.pool.evictions_per_op",
    "storage.pool.pages_per_frame",
    "model.recorder.actions_per_txn",
    "lock.acquire_us",
    "lock.acquire_us_large_txn",
    "model.recorder.snapshot_ms",
    "core.extension.extend_ms",
    "core.schedule.infer_ms",
    "core.serializability.decentralized_ms",
    "core.serializability.global_ms",
    "core.serializability.conventional_ms",
    "core.serializability.multilevel_ms",
    "recovery.framing.scan_ms",
    "recovery.engine_log.decode_ms",
    "self_ms.btree",
    "self_ms.core",
    "self_ms.drive",
    "self_ms.lock",
    "self_ms.model",
    "self_ms.recovery",
];

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::spec(name).ok_or(format!(
        "unknown workload {name:?}; known: {}",
        workload::NAMES.join(", ")
    ))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace is 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
    })
}

/// One reported metric.
type Metric = (&'static str, f64, &'static str);

/// Median over rounds of `f`.
fn med<'a>(rounds: impl IntoIterator<Item = &'a Round>, f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.into_iter().map(f).collect::<Vec<_>>())
}

/// Median set-up time over the quarter of `rounds` whose set-up the
/// hypervisor stole least from.
fn setup_med(rounds: &[Round]) -> f64 {
    let quiet = lowest_quarter(rounds.iter().collect(), |r| r.setup_steal_share);
    med(quiet, |r| r.setup_s)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end metrics of untraced rounds; `rss_mb` is the peak
/// resident set after the first round (later rounds add allocator
/// fragmentation that varies from process to process).
fn end_to_end(rounds: &[Round], setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    vec![
        ("setup_s", setup_s, "s"),
        ("commit_tput", med(rounds, Round::commit_tput), "1/s"),
        ("commit_p50_ms", med(rounds, |r| ms(r.after.e2e_p50)), "ms"),
        ("batch_s", med(rounds, |r| r.batch_s), "s"),
        ("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// The engine-layer metrics of untraced rounds, from `MetricsSnapshot`.
fn engine_layers(spec: &Spec, rounds: &[Round]) -> Vec<Metric> {
    let per_commit =
        |f: fn(&Round) -> u64| med(rounds, move |r| per(f(r) as f64, r.committed() as f64));
    vec![
        (
            "engine.queue.wait_p50_ms",
            med(rounds, |r| ms(r.after.phase_queue.p50)),
            "ms",
        ),
        (
            "engine.cc.wait_p50_ms",
            med(rounds, |r| ms(r.after.phase_wait.p50)),
            "ms",
        ),
        (
            "engine.cc.attempts_per_commit",
            per_commit(|r| r.committed() + r.failed + r.after.retries - r.before.retries),
            "count",
        ),
        (
            "engine.cc.cert_actions_per_commit",
            per_commit(|r| r.after.cert_actions_inferred - r.before.cert_actions_inferred),
            "count",
        ),
        (
            "engine.cc.versions_live",
            med(rounds, |r| {
                (r.after.version_installs - r.after.versions_gcd) as f64
            }),
            "count",
        ),
        (
            "engine.worker.exec_p50_ms",
            med(rounds, |r| ms(r.after.phase_exec.p50)),
            "ms",
        ),
        (
            "engine.durability.fsync_wait_p50_ms",
            med(rounds, |r| ms(r.after.phase_fsync.p50)),
            "ms",
        ),
        (
            "engine.durability.fsyncs_per_commit",
            per_commit(|r| r.after.fsyncs - r.before.fsyncs),
            "count",
        ),
        (
            "engine.durability.group_size_mean",
            med(rounds, |r| {
                bucket_delta_mean(&r.before.wal_group_buckets, &r.after.wal_group_buckets)
            }),
            "count",
        ),
        (
            "engine.durability.appends_per_commit",
            per_commit(|r| r.after.wal_appends - r.before.wal_appends),
            "count",
        ),
        ("commit_p99_ms", med(rounds, |r| ms(r.after.e2e_p99)), "ms"),
        (
            "log_bytes_per_commit",
            per_commit(|r| r.after.wal_bytes - r.before.wal_bytes),
            "B",
        ),
        (
            "audit_s",
            if spec.audit_recover {
                med(rounds, |r| r.shutdown_s)
            } else {
                0.0
            },
            "s",
        ),
        ("recovery_s", med(rounds, |r| r.recovery_s), "s"),
    ]
}

/// Run the workload; `Err` when an output check failed.
fn bench(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    let spec = &args.workload;
    let txns = spec.txns(args.seed);
    let start = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let round = |traced: bool| -> Result<(Round, f64), String> {
        let t = Instant::now();
        let r = run_round(spec, args.seed, &txns, traced)?;
        let spent = t.elapsed().as_secs_f64();
        eprintln!(
            "round traced={traced}: setup {:.3}s timed {:.3}s ({:.1}/s, p50 {:.3} ms) shutdown {:.3}s recovery {:.3}s, {spent:.3}s with checks, peak rss {:.1} MB, steal {:.1}%",
            r.setup_s,
            r.timed_s,
            r.commit_tput(),
            ms(r.after.e2e_p50),
            r.shutdown_s,
            r.recovery_s,
            peak_rss_mb(),
            100.0 * r.steal_share
        );
        Ok((r, spent))
    };
    // The first round warms the allocator, caches and lazily built state.
    // Its outputs are checked and its transactions counted, but none of
    // its times is reported.
    let (warm_up, _) = round(false)?;
    let rss_mb = peak_rss_mb();
    // Another round (or traced pair) starts only while one of the median
    // length so far still ends inside the run length, so a run measures
    // for about `--seconds` and then stops.
    let mut lengths = Vec::new();
    let fits =
        |lengths: &[f64], limit: f64| start.elapsed().as_secs_f64() + median(lengths) <= limit;
    if !args.trace {
        loop {
            let (r, spent) = round(false)?;
            untraced.push(r);
            lengths.push(spent);
            if !fits(&lengths, args.seconds) {
                break;
            }
        }
    } else {
        loop {
            let t = Instant::now();
            untraced.push(round(false)?.0);
            traced.push(round(true)?.0);
            lengths.push(t.elapsed().as_secs_f64());
            if !fits(&lengths, args.seconds / 2.0) {
                break;
            }
        }
    }
    let all = untraced.iter().chain(&traced).chain([&warm_up]);
    let attempted = all.clone().map(|r| r.attempted).sum();
    let failed = all.map(|r| r.failed).sum();
    // Other guests on a shared host take CPU in bursts that last seconds;
    // a round inside one runs slow for reasons outside the program. The
    // medians are taken over the quarter of the rounds the hypervisor
    // stole least from; set-up time over the quarter whose set-up it
    // stole least from.
    let (setup, setup_traced) = (setup_med(&untraced), setup_med(&traced));
    let untraced = lowest_quarter(untraced, |r| r.steal_share);
    let traced = lowest_quarter(traced, |r| r.steal_share);
    if !args.trace {
        return Ok((attempted, failed, end_to_end(&untraced, setup, rss_mb)));
    }

    let mut metrics = engine_layers(spec, &untraced);
    let (plain, with) = (
        med(&untraced, Round::commit_tput),
        med(&traced, Round::commit_tput),
    );
    metrics.push(("trace.overhead_pct", 100.0 * (plain - with) / plain, "%"));
    metrics.push((
        "trace.setup_overhead_pct",
        100.0 * (setup_traced - setup) / setup,
        "%",
    ));
    metrics.push((
        "trace.engine_events",
        med(&traced, |r| r.trace_events as f64),
        "count",
    ));
    let wal = untraced.last().and_then(|r| r.wal.as_deref());
    let drive = layers::drive(spec, &txns, wal)?;
    metrics.extend(drive.metrics);
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
    std::fs::write(&path, drive.spans.to_jsonl())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok((attempted, failed, metrics))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            // `+ 0.0` turns the -0 of an empty float sum into 0
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // A run that stops making progress (say, an engine worker panicked and
    // the closed loop waits forever) must still end: this watchdog is
    // deliberately never joined, and the process exit ends it.
    let limit = Duration::from_secs_f64(args.seconds) + HANG_MARGIN;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}, giving up");
        println!("{}", json_line(false, 1, 0, &[]));
        std::process::exit(3);
    });
    match bench(&args) {
        Ok((attempted, failed, metrics)) => {
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            let want: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(names, want, "reported metrics must match the declared list");
            for (n, v, u) in &metrics {
                eprintln!("{n:>40} {v:>14.4} {u}");
            }
            println!("{}", json_line(true, attempted, failed, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: output check failed: {e}");
            println!("{}", json_line(false, 1, 0, &[]));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_declared_shape() {
        let line = json_line(
            true,
            10,
            0,
            &[
                ("setup_s", 0.5, "s"),
                ("x", f64::NAN, "ms"),
                ("y", -0.0, "ms"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}, \
             \"y\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn declared_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
