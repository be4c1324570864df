//! The traced lower-layer drive: the workload's own inputs and
//! configuration, executed single-threaded by direct calls into the
//! public functions of `oodb-btree`, `oodb-storage`, `oodb-lock`,
//! `oodb-model`, `oodb-core` and `oodb-recovery`, with one span per call
//! recorded in memory around each call from this file.

use crate::check::{self, Model};
use crate::stats::{median, per};
use crate::workload::{Spec, FANOUT, OPS_PER_TXN};
use oodb_btree::{CompensatedEncyclopedia, Encyclopedia, EncyclopediaConfig};
use oodb_core::prelude::{
    check_conventional, check_multilevel, check_system_decentralized, check_system_global,
    extend_virtual_objects, SystemSchedules,
};
use oodb_lock::{LockManager, LockOutcome, OwnerId};
use oodb_model::{Recorder, TxnCtx};
use oodb_recovery::engine_log::EngineRecord;
use oodb_recovery::framing::scan;
use oodb_sim::{enc_lock_manager, op_descriptor, EncOp, ENC_RESOURCE};
use oodb_storage::BufferPool;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Preloaded keys and transactions of the record the checkers time:
/// the whole of `audit-recover`, a prefix of the larger workloads.
const CORE_PRELOAD: usize = 64;
/// See [`CORE_PRELOAD`].
const CORE_TXNS: usize = 128;

/// One timed call: its name is `<layer>.<operation>`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory, nested by a stack of open spans.
pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Median duration of the spans called `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        median(&d)
    }

    /// Total duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Self time per layer, in milliseconds: each span's duration minus
    /// the part its child spans cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// `(misses, evictions, allocations)` of a pool so far.
fn pool_counts(pool: &BufferPool) -> (u64, u64, u64) {
    let (_, misses, evictions, _, allocations) = pool.stats().snapshot();
    (misses, evictions, allocations)
}

/// A fresh encyclopedia with the workload's pool and miss IO.
fn fresh_db(spec: &Spec) -> (Recorder, CompensatedEncyclopedia) {
    let rec = Recorder::new();
    let enc = Encyclopedia::create(
        rec.clone(),
        EncyclopediaConfig {
            fanout: FANOUT,
            pool_frames: spec.pool_frames,
            io_latency: spec.io_latency,
            ..EncyclopediaConfig::default()
        },
    );
    (rec, CompensatedEncyclopedia::new(enc))
}

/// Execute one operation, timed as a `btree.*` span, and apply it to
/// the model.
fn exec_op(
    spans: &mut Spans,
    enc: &CompensatedEncyclopedia,
    ctx: &mut TxnCtx,
    op: &EncOp,
    tag: u64,
    model: &mut Model,
) {
    match op {
        EncOp::Search(k) => {
            spans.time("btree.search", || enc.search(ctx, k));
        }
        EncOp::Insert(k) => {
            let t = check::insert_text(k);
            spans.time("btree.insert", || enc.insert(ctx, k, &t));
        }
        EncOp::Change(k) => {
            let t = check::change_text(tag);
            spans.time("btree.change", || enc.change(ctx, k, &t));
        }
        EncOp::Delete(k) => {
            spans.time("btree.delete", || enc.delete(ctx, k));
        }
        EncOp::ReadSeq | EncOp::Range(..) => unreachable!("workloads issue point operations"),
    }
    check::apply(model, op, tag);
}

/// Run `txns` serially as recorded transactions named like the engine's
/// (`J{n}`), each under a `drive.txn` span.
fn exec_txns(
    spans: &mut Spans,
    rec: &Recorder,
    enc: &CompensatedEncyclopedia,
    txns: &[(u64, Vec<EncOp>)],
    model: &mut Model,
) {
    for (id, ops) in txns {
        let t = spans.enter("drive.txn");
        let tag = check::tag_of(*id);
        let mut ctx = rec.begin_txn(format!("J{tag}"));
        for op in ops {
            exec_op(spans, enc, &mut ctx, op, tag, model);
        }
        spans.time("btree.commit", || enc.commit(ctx));
        spans.exit(t);
    }
}

/// The transactions that populate `keys` the way the workload does: one
/// per `Engine::preload` chunk.
fn populate_jobs(spec: &Spec, keys: &[String]) -> Vec<(u64, Vec<EncOp>)> {
    keys.chunks(spec.preload_chunk)
        .enumerate()
        .map(|(i, c)| {
            let ops = c.iter().cloned().map(EncOp::Insert).collect();
            (u64::MAX - 1 - i as u64, ops)
        })
        .collect()
}

/// Everything the lower-layer drive measured.
pub struct Drive {
    pub spans: Spans,
    pub metrics: Vec<crate::Metric>,
}

/// The drive: btree + storage + model on the whole workload, lock on
/// its operations, core checkers on the [`CORE_TXNS`] prefix, and the
/// recovery log layers on `wal`, the engine's image on the durable
/// workloads (they read 0 where there is none).
pub fn drive(spec: &Spec, txns: &[Vec<EncOp>], wal: Option<&[u8]>) -> Result<Drive, String> {
    let mut spans = Spans::default();
    let mut metrics = Vec::new();
    let jobs: Vec<(u64, Vec<EncOp>)> = (0u64..).zip(txns.iter().cloned()).collect();
    let ops = (txns.len() * OPS_PER_TXN) as f64;

    // ---- btree / storage / model on the full inputs ----
    let (rec, enc) = fresh_db(spec);
    let mut model = Model::new();
    let keys = spec.preload_keys();
    let p = spans.enter("drive.populate");
    exec_txns(
        &mut spans,
        &rec,
        &enc,
        &populate_jobs(spec, &keys),
        &mut model,
    );
    spans.exit(p);
    let pool = enc.inner().pool();
    let (m0, e0, pages) = pool_counts(pool);
    let actions0 = rec.with_record(|ts, _| ts.action_count());
    exec_txns(&mut spans, &rec, &enc, &jobs, &mut model);
    let (m1, e1, _) = pool_counts(pool);
    let actions1 = rec.with_record(|ts, _| ts.action_count());
    let mut dump = rec.begin_txn("Dump");
    let mut state: Vec<(String, String)> = enc
        .read_seq(&mut dump)
        .into_iter()
        .map(|(_, k, v)| (k, v))
        .collect();
    state.sort();
    check::same_state("serial drive vs model", &model, &state)?;
    for (span, metric) in [
        ("btree.search", "btree.search_us"),
        ("btree.insert", "btree.insert_us"),
        ("btree.change", "btree.change_us"),
        ("btree.delete", "btree.delete_us"),
    ] {
        metrics.push((metric, spans.median_us(span), "us"));
    }
    metrics.push((
        "storage.pool.misses_per_op",
        per((m1 - m0) as f64, ops),
        "count",
    ));
    metrics.push((
        "storage.pool.evictions_per_op",
        per((e1 - e0) as f64, ops),
        "count",
    ));
    metrics.push((
        "storage.pool.pages_per_frame",
        per(pages as f64, spec.pool_frames as f64),
        "ratio",
    ));
    metrics.push((
        "model.recorder.actions_per_txn",
        per((actions1 - actions0) as f64, txns.len() as f64),
        "count",
    ));

    // ---- lock: uncontended grants, and grants to one large owner ----
    let mut lm: LockManager = enc_lock_manager();
    for (id, ops) in &jobs {
        let owner = OwnerId(*id + 1);
        for op in ops {
            let d = op_descriptor(op);
            let g = spans.time("lock.acquire", || lm.acquire(owner, &[], ENC_RESOURCE, &d));
            if g != LockOutcome::Granted {
                return Err(format!("uncontended lock request was {g:?}"));
            }
        }
        spans.time("lock.release", || lm.release_all(owner));
    }
    let big = OwnerId(u64::MAX);
    for k in &keys {
        let d = op_descriptor(&EncOp::Insert(k.clone()));
        let g = spans.time("lock.acquire_large", || {
            lm.acquire(big, &[], ENC_RESOURCE, &d)
        });
        if g != LockOutcome::Granted {
            return Err(format!("single-owner lock request was {g:?}"));
        }
    }
    spans.time("lock.release", || lm.release_all(big));
    metrics.push(("lock.acquire_us", spans.median_us("lock.acquire"), "us"));
    metrics.push((
        "lock.acquire_us_large_txn",
        spans.median_us("lock.acquire_large"),
        "us",
    ));

    // ---- model snapshot + core checkers on the record of a prefix ----
    let (crec, cenc) = fresh_db(spec);
    let core_keys = &keys[..keys.len().min(CORE_PRELOAD)];
    let mut cmodel = Model::new();
    let c = spans.enter("drive.core_record");
    let prefix = &jobs[..jobs.len().min(CORE_TXNS)];
    exec_txns(
        &mut spans,
        &crec,
        &cenc,
        &populate_jobs(spec, core_keys),
        &mut cmodel,
    );
    exec_txns(&mut spans, &crec, &cenc, prefix, &mut cmodel);
    spans.exit(c);
    let a = spans.enter("core.audit");
    let (mut ts, history) = spans.time("model.recorder.snapshot", || crec.snapshot());
    spans.time("core.extension.extend", || extend_virtual_objects(&mut ts));
    let ss = spans.time("core.schedule.infer", || {
        SystemSchedules::infer(&ts, &history)
    });
    let dec = spans.time("core.serializability.decentralized", || {
        check_system_decentralized(&ts, &ss)
    });
    let glob = spans.time("core.serializability.global", || {
        check_system_global(&ts, &ss)
    });
    // timed only: page-level conventional serializability is expected to
    // reject histories the semantic checks accept (the paper's point)
    let _ = spans.time("core.serializability.conventional", || {
        check_conventional(&ts, &history)
    });
    let _ = spans.time("core.serializability.multilevel", || {
        check_multilevel(&ts, &ss)
    });
    spans.exit(a);
    if dec.is_err() || glob.is_err() {
        return Err(format!(
            "a serial record failed its checks: {dec:?} {glob:?}"
        ));
    }
    metrics.push((
        "model.recorder.snapshot_ms",
        spans.total_ms("model.recorder.snapshot"),
        "ms",
    ));
    metrics.push((
        "core.extension.extend_ms",
        spans.total_ms("core.extension.extend"),
        "ms",
    ));
    metrics.push((
        "core.schedule.infer_ms",
        spans.total_ms("core.schedule.infer"),
        "ms",
    ));
    for (span, metric) in [
        (
            "core.serializability.decentralized",
            "core.serializability.decentralized_ms",
        ),
        (
            "core.serializability.global",
            "core.serializability.global_ms",
        ),
        (
            "core.serializability.conventional",
            "core.serializability.conventional_ms",
        ),
        (
            "core.serializability.multilevel",
            "core.serializability.multilevel_ms",
        ),
    ] {
        metrics.push((metric, spans.total_ms(span), "ms"));
    }

    // ---- recovery: frame scan and record decode of the WAL image ----
    if let Some(image) = wal {
        let r = spans.enter("recovery.read_log");
        let scanned = spans.time("recovery.framing.scan", || scan(image));
        let records = spans.time("recovery.engine_log.decode", || {
            scanned
                .payloads
                .iter()
                .map(|p| EngineRecord::decode(p))
                .collect::<Vec<_>>()
        });
        spans.exit(r);
        if scanned.torn.is_some() || records.is_empty() {
            return Err("the WAL image did not scan cleanly".into());
        }
    }
    metrics.push((
        "recovery.framing.scan_ms",
        spans.total_ms("recovery.framing.scan"),
        "ms",
    ));
    metrics.push((
        "recovery.engine_log.decode_ms",
        spans.total_ms("recovery.engine_log.decode"),
        "ms",
    ));

    let by_layer = spans.self_ms_by_layer();
    for (layer, metric) in [
        ("btree", "self_ms.btree"),
        ("core", "self_ms.core"),
        ("drive", "self_ms.drive"),
        ("lock", "self_ms.lock"),
        ("model", "self_ms.model"),
        ("recovery", "self_ms.recovery"),
    ] {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        metrics.push((metric, ms, "ms"));
    }
    Ok(Drive { spans, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            start_ns,
            end_ns,
        };
        let s = Spans {
            spans: vec![
                span("drive.txn", None, 0, 100),
                span("btree.search", Some(0), 10, 40),
                span("btree.insert", Some(0), 50, 70),
                span("lock.acquire", None, 100, 105),
            ],
            ..Spans::default()
        };
        let by = s.self_ms_by_layer();
        assert_eq!(by["drive"], 50.0 / 1e6);
        assert_eq!(by["btree"], 50.0 / 1e6);
        assert_eq!(by["lock"], 5.0 / 1e6);
        assert_eq!(s.median_us("btree.search"), 0.03);
    }

    #[test]
    fn spans_nest_and_export() {
        let mut s = Spans::default();
        let a = s.enter("core.audit");
        s.time("core.schedule.infer", || ());
        s.exit(a);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn drive_reports_every_layer() {
        use oodb_recovery::framing::frame;
        let mut sp = spec("durable-spill").unwrap();
        sp.txns = 30;
        sp.preload = 300;
        let wal: Vec<u8> = [
            EngineRecord::Begin {
                txn: 1,
                name: "J1".into(),
            },
            EngineRecord::Commit { txn: 1 },
        ]
        .iter()
        .flat_map(|r| frame(&r.encode()))
        .collect();
        for (image, logged) in [(None, false), (Some(&wal[..]), true)] {
            let d = drive(&sp, &sp.txns(5), image).unwrap();
            let get = |n: &str| d.metrics.iter().find(|m| m.0 == n).unwrap().1;
            assert!(get("btree.search_us") > 0.0);
            assert!(get("storage.pool.pages_per_frame") > 1.0, "spills");
            assert!(get("model.recorder.actions_per_txn") > 0.0);
            assert!(get("core.schedule.infer_ms") > 0.0);
            assert_eq!(get("recovery.engine_log.decode_ms") > 0.0, logged);
        }
    }
}
