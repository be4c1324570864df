//! One round of a workload against the engine: start, populate, submit
//! the timed transactions through a closed loop, shut down (auditing
//! when configured), recover the WAL image when configured, and check
//! every output.

use crate::check;
use crate::stats::per;
use crate::workload::{Spec, FANOUT};
use oodb_engine::{recover, Engine, MetricsSnapshot, TraceMode};
use oodb_sim::EncOp;
use std::time::{Duration, Instant};

/// Per-lane ring capacity of a traced round; a round must drop nothing.
const TRACE_LANE_EVENTS: usize = 1 << 17;

/// What one round measured.
pub struct Round {
    /// Engine start plus populating the database.
    pub setup_s: f64,
    /// First submission of the timed phase to its last completion.
    pub timed_s: f64,
    /// `Engine::shutdown`, which runs the audit when configured.
    pub shutdown_s: f64,
    /// `recover` on the round's WAL image (0 when not configured).
    pub recovery_s: f64,
    /// First submission of the timed phase to a finished shutdown and,
    /// where configured, recovery.
    pub batch_s: f64,
    /// Timed-phase transactions submitted.
    pub attempted: u64,
    /// Timed-phase transactions that did not commit (aborted after
    /// retries, shed, or past their deadline).
    pub failed: u64,
    /// Counters at the start of the timed phase.
    pub before: MetricsSnapshot,
    /// Counters and latency quantiles at its end.
    pub after: MetricsSnapshot,
    /// The full WAL image, when durability is on.
    pub wal: Option<Vec<u8>>,
    /// Trace events captured (traced rounds).
    pub trace_events: usize,
    /// Share of the machine's CPU time that the hypervisor gave to other
    /// guests while the round ran (0 where the kernel reports none).
    pub steal_share: f64,
    /// The same share during set-up alone.
    pub setup_steal_share: f64,
}

impl Round {
    /// Transactions committed in the timed phase.
    pub fn committed(&self) -> u64 {
        self.after.committed - self.before.committed
    }

    /// Committed transactions per second of the timed phase.
    pub fn commit_tput(&self) -> f64 {
        self.committed() as f64 / self.timed_s
    }
}

/// Poll until `target` jobs have finished one way or another.
fn wait_finished(engine: &Engine, target: u64) -> MetricsSnapshot {
    loop {
        let m = engine.metrics();
        if m.committed + m.aborted + m.deadline_expired >= target {
            return m;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Run `f` on a new thread and wait for its result.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("benchmark thread panicked"))
}

/// Submit every transaction with backpressure, returning job ids.
fn submit_all(engine: &Engine, txns: &[Vec<EncOp>]) -> Vec<u64> {
    txns.iter()
        .map(|ops| {
            engine
                .submit_blocking(ops.clone())
                .expect("the engine admits work until shutdown")
        })
        .collect()
}

/// Run one round of `spec` on `txns` and check its outputs.
pub fn run_round(
    spec: &Spec,
    seed: u64,
    txns: &[Vec<EncOp>],
    traced: bool,
) -> Result<Round, String> {
    let mut cfg = spec.engine_config(seed);
    if traced {
        cfg.trace = TraceMode::Ring {
            capacity_per_lane: TRACE_LANE_EVENTS,
        };
    }
    let steal0 = cpu_steal();
    let t0 = Instant::now();
    let engine = Engine::start(cfg, spec.cc);
    spec.populate(&engine);
    let setup_s = t0.elapsed().as_secs_f64();
    let steal_setup = cpu_steal();

    let before = engine.metrics();
    let done_before = before.committed + before.aborted + before.deadline_expired;
    let t1 = Instant::now();
    let ids = submit_all(&engine, txns);
    let after = wait_finished(&engine, done_before + txns.len() as u64);
    let timed_s = t1.elapsed().as_secs_f64();
    let jobs: Vec<(u64, Vec<EncOp>)> = ids.into_iter().zip(txns.iter().cloned()).collect();

    // Shutdown (with its audit) and recovery each run on a fresh thread:
    // their cost depends on the per-thread `HashMap` seeds, so a fresh
    // thread per round re-draws them and the median over rounds averages
    // over seeds instead of keeping one seed for the whole process.
    let acked = spec.audit_recover.then(|| engine.crash_probe()).flatten();
    let t2 = Instant::now();
    let out = on_fresh_thread(move || engine.shutdown());
    let shutdown_s = t2.elapsed().as_secs_f64();
    let recovered = match (&out.wal, spec.audit_recover) {
        (Some(image), true) => {
            let t3 = Instant::now();
            let r = on_fresh_thread(|| recover(image, FANOUT));
            Some((r, t3.elapsed().as_secs_f64()))
        }
        _ => None,
    };
    let batch_s = t1.elapsed().as_secs_f64();
    let steal1 = cpu_steal();

    // ---- output checks (untimed) ----
    let failed = (after.aborted - before.aborted)
        + (after.shed - before.shed)
        + (after.deadline_expired - before.deadline_expired);
    if after.committed - before.committed + failed != txns.len() as u64 {
        return Err(format!(
            "{} timed transactions, {} committed, {failed} failed",
            txns.len(),
            after.committed - before.committed
        ));
    }
    check::check_properties(&spec.preload_keys(), &jobs, &out.final_state)
        .map_err(|e| format!("final state: {e}"))?;
    let logged = match &out.wal {
        Some(image) => {
            let r = check::replay_wal(image)?;
            check::same_state("WAL replay vs final state", &r.state, &out.final_state)?;
            r.committed
        }
        None => Default::default(),
    };
    if spec.audit_recover {
        let audit = out.audit.as_ref().ok_or("audit did not run")?;
        if let Err(v) = &audit.report.oo_decentralized {
            return Err(format!("Definition-16 audit rejected the run: {v:?}"));
        }
        if let Err(v) = &audit.report.oo_global {
            return Err(format!("global audit rejected the run: {v:?}"));
        }
        let (rec, _) = recovered.as_ref().ok_or("no WAL image to recover")?;
        if rec.final_state != out.final_state {
            return Err("recovered state differs from the live state".into());
        }
        let (acked, _) = acked.ok_or("no durability probe")?;
        if acked.len() < txns.len() {
            return Err(format!(
                "{} of {} jobs acknowledged",
                acked.len(),
                txns.len()
            ));
        }
        // a read-only job logs nothing; every job whose commit is on
        // the log must have it recovered
        for id in acked {
            let on_log = logged.iter().any(|n| check::names_job(n, id));
            if on_log && !rec.committed.iter().any(|n| check::names_job(n, id)) {
                return Err(format!("acknowledged job {id} lost its commit in recovery"));
            }
        }
        if rec.committed != logged {
            return Err("recovery committed other transactions than the log holds".into());
        }
    }
    let trace_events = match (&out.trace, traced) {
        (Some(log), true) if log.dropped == 0 => log.events.len(),
        (Some(log), true) => return Err(format!("tracer dropped {} events", log.dropped)),
        _ => 0,
    };

    Ok(Round {
        setup_s,
        timed_s,
        shutdown_s,
        recovery_s: recovered.map_or(0.0, |(_, s)| s),
        batch_s,
        attempted: txns.len() as u64,
        failed,
        before,
        after,
        wal: out.wal,
        trace_events,
        steal_share: steal_between(steal0, steal1),
        setup_steal_share: steal_between(steal0, steal_setup),
    })
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat`; `(0, 0)` where it cannot be read.
pub fn cpu_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(parse_cpu_line))
        .unwrap_or((0, 0))
}

/// The share of CPU ticks stolen between two [`cpu_steal`] readings.
fn steal_between(a: (u64, u64), b: (u64, u64)) -> f64 {
    per((b.0 - a.0) as f64, (b.1 - a.1) as f64)
}

/// `(steal, total)` of a `/proc/stat` `cpu` line: user nice system idle
/// iowait irq softirq steal, and guest fields already counted in user.
fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec, NAMES};

    /// A single-worker engine executes serially in submission order, so
    /// its final state must equal the model replayed in that order.
    #[test]
    fn single_worker_runs_equal_the_serial_model() {
        for name in NAMES {
            let mut s = spec(name).unwrap();
            s.txns = 48;
            s.preload = s.preload.min(64);
            let mut cfg = s.engine_config(3);
            cfg.workers = 1;
            cfg.audit = false;
            let engine = Engine::start(cfg, s.cc);
            s.populate(&engine);
            let txns = s.txns(3);
            let jobs: Vec<_> = submit_all(&engine, &txns).into_iter().zip(txns).collect();
            let out = engine.shutdown();
            let model = check::serial(&s.preload_keys(), &jobs);
            check::same_state(name, &model, &out.final_state).unwrap();
        }
    }

    #[test]
    fn a_small_round_passes_its_checks_on_two_seeds() {
        for name in NAMES {
            let mut s = spec(name).unwrap();
            s.txns = 40;
            s.preload = s.preload.min(128);
            for seed in [1, 2] {
                let r = run_round(&s, seed, &s.txns(seed), true)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                assert_eq!(r.failed, 0, "{name}");
                assert_eq!(r.committed(), 40, "{name}");
                assert!(r.trace_events > 0, "{name}");
            }
        }
    }

    #[test]
    fn steal_is_read_from_the_cpu_line() {
        let line = "cpu  789939 0 57783 1474851 406 0 11448 58247 0 0";
        assert_eq!(
            parse_cpu_line(line),
            Some((58247, 789939 + 57783 + 1474851 + 406 + 11448 + 58247))
        );
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
