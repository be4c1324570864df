//! Output checks: an independent `BTreeMap` model of the encyclopedia's
//! operation semantics, and the properties every run's final state must
//! have. Nothing here calls into the engine's own execution code.

use oodb_recovery::engine_log::{EngineOp, EngineRecord};
use oodb_recovery::framing::scan;
use oodb_sim::EncOp;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The encyclopedia as a sorted map from key to item text.
pub type Model = BTreeMap<String, String>;

/// The text an insert of `key` writes.
pub fn insert_text(key: &str) -> String {
    format!("text for {key}")
}

/// The text a change by the transaction tagged `tag` writes.
pub fn change_text(tag: u64) -> String {
    format!("changed by {tag}")
}

/// The tag the engine writes for job `id` (its 1-based number).
pub fn tag_of(job: u64) -> u64 {
    job + 1
}

/// Apply one operation of the transaction tagged `tag`: inserts of a
/// present key, and changes or deletes of an absent key, do nothing.
pub fn apply(model: &mut Model, op: &EncOp, tag: u64) {
    match op {
        EncOp::Insert(k) => {
            model.entry(k.clone()).or_insert_with(|| insert_text(k));
        }
        EncOp::Change(k) => {
            if let Some(v) = model.get_mut(k) {
                *v = change_text(tag);
            }
        }
        EncOp::Delete(k) => {
            model.remove(k);
        }
        EncOp::Search(_) | EncOp::ReadSeq | EncOp::Range(..) => {}
    }
}

/// The state a serial execution of `jobs` (each with its job id) leaves
/// on top of `preload`.
#[cfg(test)]
pub fn serial(preload: &[String], jobs: &[(u64, Vec<EncOp>)]) -> Model {
    let mut m: Model = preload
        .iter()
        .map(|k| (k.clone(), insert_text(k)))
        .collect();
    for (id, ops) in jobs {
        for op in ops {
            apply(&mut m, op, tag_of(*id));
        }
    }
    m
}

/// Check a final state against what any interleaving of `jobs` over
/// `preload` may leave: every present key was preloaded or inserted,
/// every absent key was never there or was deleted by some job, and
/// every text is the insert text or the change text of a job that
/// changed that key.
pub fn check_properties(
    preload: &[String],
    jobs: &[(u64, Vec<EncOp>)],
    state: &[(String, String)],
) -> Result<(), String> {
    let mut inserted: BTreeSet<&str> = preload.iter().map(String::as_str).collect();
    let mut deleted: BTreeSet<&str> = BTreeSet::new();
    let mut changers: HashMap<&str, BTreeSet<u64>> = HashMap::new();
    for (id, ops) in jobs {
        for op in ops {
            match op {
                EncOp::Insert(k) => {
                    inserted.insert(k);
                }
                EncOp::Delete(k) => {
                    deleted.insert(k);
                }
                EncOp::Change(k) => {
                    changers.entry(k).or_default().insert(tag_of(*id));
                }
                _ => {}
            }
        }
    }
    if !state.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("final state is not strictly key-ordered".into());
    }
    let present: BTreeSet<&str> = state.iter().map(|(k, _)| k.as_str()).collect();
    for (k, v) in state {
        if !inserted.contains(k.as_str()) {
            return Err(format!("{k} is present but was never inserted"));
        }
        let changed = v
            .strip_prefix("changed by ")
            .and_then(|t| t.parse::<u64>().ok())
            .is_some_and(|t| changers.get(k.as_str()).is_some_and(|c| c.contains(&t)));
        if *v != insert_text(k) && !changed {
            return Err(format!("{k} holds {v:?}, which no operation on it wrote"));
        }
    }
    for k in &inserted {
        if !present.contains(k) && !deleted.contains(k) {
            return Err(format!("{k} is absent but no transaction deleted it"));
        }
    }
    Ok(())
}

/// Apply one logged mutation strictly: an insert must find the key
/// absent, a change or delete must find it present.
fn apply_logged(model: &mut Model, op: &EngineOp) -> Result<(), String> {
    let ok = match op {
        EngineOp::Insert { key, text } => model.insert(key.clone(), text.clone()).is_none(),
        EngineOp::Change { key, text } => model.insert(key.clone(), text.clone()).is_some(),
        EngineOp::Delete { key } => model.remove(key).is_some(),
    };
    ok.then_some(())
        .ok_or_else(|| format!("logged {op:?} does not apply to the replayed state"))
}

/// What a WAL image holds: the state its replay yields, and the root
/// names of the transactions it commits.
pub struct Replayed {
    pub state: Model,
    pub committed: BTreeSet<String>,
}

/// Decode a whole WAL image and replay its redo and compensation
/// records, in log order, through the model. The image must frame
/// cleanly to its end and every transaction on it must be finished.
pub fn replay_wal(image: &[u8]) -> Result<Replayed, String> {
    let scanned = scan(image);
    if let Some(torn) = scanned.torn {
        return Err(format!("clean WAL image has a torn tail: {torn:?}"));
    }
    let mut model = Model::new();
    let mut open: BTreeMap<u64, String> = BTreeMap::new();
    let mut committed = BTreeSet::new();
    for payload in &scanned.payloads {
        match EngineRecord::decode(payload) {
            EngineRecord::Begin { txn, name } => {
                open.insert(txn, name);
            }
            EngineRecord::Op { txn, redo, .. } => {
                if !open.contains_key(&txn) {
                    return Err(format!("op of txn {txn} outside Begin..end"));
                }
                apply_logged(&mut model, &redo)?;
            }
            EngineRecord::Comp { op, applied, .. } => {
                if applied {
                    apply_logged(&mut model, &op)?;
                }
            }
            EngineRecord::Commit { txn } => {
                let name = open
                    .remove(&txn)
                    .ok_or(format!("txn {txn} commits without a Begin"))?;
                committed.insert(name);
            }
            EngineRecord::AbortDone { txn } => {
                open.remove(&txn)
                    .ok_or(format!("txn {txn} aborts without a Begin"))?;
            }
        }
    }
    if !open.is_empty() {
        return Err(format!("{} transactions never finished", open.len()));
    }
    Ok(Replayed {
        state: model,
        committed,
    })
}

/// Require `state` to equal `model` exactly.
pub fn same_state(what: &str, model: &Model, state: &[(String, String)]) -> Result<(), String> {
    if model.len() == state.len()
        && model
            .iter()
            .zip(state)
            .all(|((mk, mv), (k, v))| mk == k && mv == v)
    {
        return Ok(());
    }
    let first = model
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .zip(state.iter().cloned())
        .find(|(a, b)| a != b);
    Err(format!(
        "{what}: {} model keys vs {} state keys, first difference {first:?}",
        model.len(),
        state.len()
    ))
}

/// Does a recovered root transaction name belong to job `id`? The
/// engine names attempt 0 of job `id` `J{id+1}`, retry `a` `J{id+1}r{a}`,
/// and the preload pseudo-job (`u64::MAX`) `Setup`.
pub fn names_job(name: &str, id: u64) -> bool {
    if id == u64::MAX {
        return name == "Setup";
    }
    let Some(rest) = name.strip_prefix('J') else {
        return false;
    };
    let num = rest.split_once('r').map_or(rest, |(n, _)| n);
    num.parse::<u64>() == Ok(tag_of(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_recovery::framing::frame;

    fn ins(k: &str) -> EncOp {
        EncOp::Insert(k.into())
    }

    #[test]
    fn model_follows_encyclopedia_semantics() {
        let pre = vec!["a".to_string()];
        let jobs = vec![
            (0, vec![ins("a"), ins("b"), EncOp::Change("a".into())]),
            (
                1,
                vec![EncOp::Delete("b".into()), EncOp::Change("b".into())],
            ),
            (
                2,
                vec![EncOp::Delete("zz".into()), EncOp::Search("a".into())],
            ),
        ];
        let m = serial(&pre, &jobs);
        assert_eq!(m.len(), 1);
        assert_eq!(m["a"], "changed by 1");
    }

    #[test]
    fn properties_accept_serial_states_and_reject_forgeries() {
        let pre: Vec<String> = vec!["a".into(), "b".into()];
        let jobs = vec![
            (0, vec![EncOp::Change("a".into()), ins("c")]),
            (1, vec![EncOp::Delete("b".into())]),
        ];
        let good: Vec<(String, String)> = serial(&pre, &jobs).into_iter().collect();
        assert_eq!(check_properties(&pre, &jobs, &good), Ok(()));
        // a value no job wrote
        let mut bad = good.clone();
        bad[0].1 = "changed by 2".into();
        assert!(check_properties(&pre, &jobs, &bad).is_err());
        // a key nobody inserted
        let mut bad = good.clone();
        bad.push(("d".into(), insert_text("d")));
        assert!(check_properties(&pre, &jobs, &bad).is_err());
        // a key lost without a delete
        let bad: Vec<_> = good.iter().filter(|(k, _)| k != "c").cloned().collect();
        assert!(check_properties(&pre, &jobs, &bad).is_err());
    }

    fn image(records: &[EngineRecord]) -> Vec<u8> {
        records.iter().flat_map(|r| frame(&r.encode())).collect()
    }

    #[test]
    fn wal_replay_applies_redo_and_compensation_in_order() {
        let i = |k: &str| EngineOp::Insert {
            key: k.into(),
            text: insert_text(k),
        };
        let d = |k: &str| EngineOp::Delete { key: k.into() };
        let img = image(&[
            EngineRecord::Begin {
                txn: 1,
                name: "J1".into(),
            },
            EngineRecord::Op {
                txn: 1,
                redo: i("a"),
                comp: d("a"),
            },
            EngineRecord::Begin {
                txn: 2,
                name: "J2".into(),
            },
            EngineRecord::Op {
                txn: 2,
                redo: i("b"),
                comp: d("b"),
            },
            EngineRecord::Comp {
                txn: 2,
                op: d("b"),
                applied: true,
            },
            EngineRecord::AbortDone { txn: 2 },
            EngineRecord::Commit { txn: 1 },
        ]);
        let r = replay_wal(&img).unwrap();
        assert_eq!(r.state.keys().collect::<Vec<_>>(), ["a"]);
        assert_eq!(r.committed.into_iter().collect::<Vec<_>>(), ["J1"]);
        // a torn tail or an unfinished transaction is an error
        assert!(replay_wal(&img[..img.len() - 1]).is_err());
        let open = image(&[EngineRecord::Begin {
            txn: 1,
            name: "J1".into(),
        }]);
        assert!(replay_wal(&open).is_err());
        // a redo that cannot apply is an error
        let dup = image(&[
            EngineRecord::Begin {
                txn: 1,
                name: "J1".into(),
            },
            EngineRecord::Op {
                txn: 1,
                redo: i("a"),
                comp: d("a"),
            },
            EngineRecord::Op {
                txn: 1,
                redo: i("a"),
                comp: d("a"),
            },
            EngineRecord::Commit { txn: 1 },
        ]);
        assert!(replay_wal(&dup).is_err());
    }

    #[test]
    fn recovered_names_map_to_jobs() {
        assert!(names_job("J3", 2));
        assert!(names_job("J3r4", 2));
        assert!(!names_job("J3", 3));
        assert!(!names_job("Setup", 0));
        assert!(names_job("Setup", u64::MAX));
        assert!(!names_job("C(J3a0)", 2));
    }
}
