//! The three workloads: their engine configuration and their seeded
//! inputs. Every input is a pure function of the workload and the seed,
//! generated here rather than by the engine's own simulator crate, so
//! the benchmark keeps its inputs if the program's generators change.

use oodb_engine::{CcKind, DurabilityMode, Engine, EngineConfig};
use oodb_sim::EncOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Workers in every engine run: one per core of the reference machine.
pub const WORKERS: usize = 2;
/// B-link tree fanout of every workload (the engine default).
pub const FANOUT: usize = 8;
/// Operations in every transaction.
pub const OPS_PER_TXN: usize = 4;
/// Admission-queue capacity: with blocking submission the loop is closed
/// with at most `WINDOW + WORKERS` transactions outstanding.
pub const WINDOW: usize = 8;

/// Operation weights of a transaction's operations.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub search: u32,
    pub insert: u32,
    pub change: u32,
    pub delete: u32,
}

/// One workload: what it runs on and what it submits.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub cc: CcKind,
    pub shards: usize,
    pub durability: DurabilityMode,
    pub fsync_latency: Duration,
    pub pool_frames: usize,
    pub io_latency: Duration,
    /// Audit the whole record at shutdown and recover the WAL image.
    pub audit_recover: bool,
    /// Keys are `key_name(0..key_space)`.
    pub key_space: usize,
    /// The first `preload` keys exist before the timed phase.
    pub preload: usize,
    /// Keys per `Engine::preload` call; each call is one transaction.
    pub preload_chunk: usize,
    /// Transactions in the timed phase of one round.
    pub txns: usize,
    pub mix: Mix,
    /// Zipf exponent of key choice; `None` is uniform.
    pub zipf: Option<f64>,
}

/// Names accepted by `--workload`, in the order the README lists them.
pub const NAMES: [&str; 3] = ["hot-occ", "durable-spill", "audit-recover"];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let group = DurabilityMode::Group {
        max_batch: 8,
        max_wait: Duration::from_millis(1),
    };
    let base = Spec {
        name: "",
        cc: CcKind::Pessimistic,
        shards: 1,
        durability: DurabilityMode::Off,
        fsync_latency: Duration::ZERO,
        pool_frames: 4096,
        io_latency: Duration::ZERO,
        audit_recover: false,
        key_space: 0,
        preload: 0,
        preload_chunk: usize::MAX,
        txns: 0,
        mix: Mix {
            search: 1,
            insert: 0,
            change: 0,
            delete: 0,
        },
        zipf: None,
    };
    Some(match name {
        "hot-occ" => Spec {
            name: "hot-occ",
            cc: CcKind::Optimistic,
            shards: 4,
            key_space: 512,
            preload: 256,
            txns: 1000,
            mix: Mix {
                search: 25,
                insert: 25,
                change: 35,
                delete: 15,
            },
            zipf: Some(0.99),
            ..base
        },
        "durable-spill" => Spec {
            name: "durable-spill",
            durability: group,
            fsync_latency: Duration::from_millis(1),
            pool_frames: 48,
            io_latency: Duration::from_micros(50),
            key_space: 6144,
            preload: 4096,
            preload_chunk: 32,
            txns: 1000,
            mix: Mix {
                search: 10,
                insert: 30,
                change: 40,
                delete: 20,
            },
            ..base
        },
        "audit-recover" => Spec {
            name: "audit-recover",
            durability: group,
            fsync_latency: Duration::from_millis(1),
            audit_recover: true,
            key_space: 512,
            preload: 256,
            txns: 128,
            mix: Mix {
                search: 20,
                insert: 40,
                change: 30,
                delete: 10,
            },
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    /// The engine configuration of this workload. Retries are effectively
    /// unbounded so a conflict-heavy run never gives a transaction up.
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            workers: WORKERS,
            queue_capacity: WINDOW,
            max_retries: 10_000,
            seed,
            fanout: FANOUT,
            shards: self.shards,
            audit: self.audit_recover,
            durability: self.durability,
            fsync_latency: self.fsync_latency,
            pool_frames: self.pool_frames,
            io_latency: self.io_latency,
            ..EngineConfig::default()
        }
    }

    /// The keys that exist before the timed phase.
    pub fn preload_keys(&self) -> Vec<String> {
        (0..self.preload).map(key_name).collect()
    }

    /// Populate `engine` with the preloaded keys, one `Engine::preload`
    /// transaction per chunk.
    pub fn populate(&self, engine: &Engine) {
        for chunk in self.preload_keys().chunks(self.preload_chunk) {
            engine.preload(chunk);
        }
    }

    /// The timed phase's transactions for `seed`.
    pub fn txns(&self, seed: u64) -> Vec<Vec<EncOp>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let zipf = self.zipf.map(|s| Zipf::new(self.key_space, s));
        let m = self.mix;
        let total = m.search + m.insert + m.change + m.delete;
        (0..self.txns)
            .map(|_| {
                (0..OPS_PER_TXN)
                    .map(|_| {
                        let k = key_name(match &zipf {
                            Some(z) => z.sample(&mut rng),
                            None => rng.gen_range(0..self.key_space),
                        });
                        let mut u = rng.gen_range(0..total);
                        if u < m.search {
                            return EncOp::Search(k);
                        }
                        u -= m.search;
                        if u < m.insert {
                            return EncOp::Insert(k);
                        }
                        u -= m.insert;
                        if u < m.change {
                            EncOp::Change(k)
                        } else {
                            EncOp::Delete(k)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Key `i`, zero-padded so key order is numeric order.
pub fn key_name(i: usize) -> String {
    format!("k{i:06}")
}

/// Zipf over ranks `0..n` by inverse CDF; rank 0 is the most popular.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += (i as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for name in NAMES {
            let s = spec(name).unwrap();
            assert_eq!(s.txns(7), s.txns(7), "{name}");
            assert_ne!(s.txns(7), s.txns(8), "{name}");
            assert_eq!(s.txns(7).len(), s.txns);
            assert!(s.txns(7).iter().all(|t| t.len() == OPS_PER_TXN));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(512, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = [0usize; 2];
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            hits[usize::from(r >= 256)] += 1;
        }
        assert!(hits[0] > 3 * hits[1], "{hits:?}");
    }
}
