//! Concurrent evaluation cache for pass-sequence search.
//!
//! Sequence-based searchers (random search, GA, MCTS) re-evaluate the same
//! `(benchmark, action-sequence)` pairs constantly: elites survive
//! generations unchanged, mutations share long prefixes with their parent,
//! and MCTS extends one prefix at a time. Because every pass is a
//! deterministic function of the module (a standing invariant enforced by
//! the `pass_properties` suite), an evaluation is a pure function of its
//! key — so caching is sound, and the cache-correctness suite verifies
//! byte-identical results against fresh evaluations.
//!
//! Two structures per benchmark share one lock:
//!
//! * an **exact map** from sequence hash to the finished
//!   `(score, metric)` — repeat evaluations cost a hash lookup;
//! * a **prefix trie** whose nodes hold [`EpisodeSnapshot`]s at interval
//!   boundaries — a novel sequence restores the deepest cached prefix (the
//!   `fork()`-style reuse of §III-B6, but across threads and searches) and
//!   only executes its novel suffix. For llvm-v0 a snapshot's state is a
//!   handle to a copy-on-write module: every node of a benchmark shares
//!   its globals, and a node shares with its parent every function the
//!   actions in between left alone.
//!
//! Pool workers contend on the lock, so nothing is allocated, formatted or
//! freed while it is held beyond the entry itself: the benchmark is looked
//! up by `&str`, telemetry is emitted after the guard drops, and an
//! evicted generation is dropped outside it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::env::EpisodeSnapshot;

/// Default bound on cached exact entries (and trie snapshots).
pub const DEFAULT_CAPACITY: usize = 100_000;

/// Depth interval between prefix snapshots.
pub const DEFAULT_SNAPSHOT_INTERVAL: usize = 4;

/// A finished evaluation: the sequence it belongs to (kept to rule out
/// hash collisions) and its results.
#[derive(Debug, Clone)]
pub struct CachedEval {
    /// The exact action sequence this entry was computed for.
    pub actions: Vec<usize>,
    /// Episode reward of the sequence.
    pub score: f64,
    /// Reward metric after the last action.
    pub metric: f64,
}

#[derive(Default)]
struct TrieNode {
    children: HashMap<usize, TrieNode>,
    snapshot: Option<Arc<EpisodeSnapshot>>,
}

/// Everything cached for one benchmark.
#[derive(Default)]
struct PerBenchmark {
    exact: HashMap<u64, CachedEval>,
    trie: TrieNode,
}

#[derive(Default)]
struct Inner {
    benchmarks: HashMap<String, PerBenchmark>,
    evals: usize,
    snapshots: usize,
}

impl Inner {
    /// The benchmark's entry, created on first use — the only time the
    /// URI is copied.
    fn benchmark_mut(&mut self, benchmark: &str) -> &mut PerBenchmark {
        if !self.benchmarks.contains_key(benchmark) {
            self.benchmarks
                .insert(benchmark.to_string(), PerBenchmark::default());
        }
        self.benchmarks
            .get_mut(benchmark)
            .expect("entry was just ensured")
    }
}

/// The shared evaluation cache. All methods take `&self`; one mutex guards
/// both structures (operations are map/trie walks, orders of magnitude
/// cheaper than the pass pipelines they save, so a single lock does not
/// bottleneck the pool).
pub struct EvalCache {
    inner: Mutex<Inner>,
    capacity: usize,
    enabled: bool,
}

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new(DEFAULT_CAPACITY)
    }
}

fn seq_hash(actions: &[usize]) -> u64 {
    // FNV-1a over the little-endian action words; stable across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &a in actions {
        for b in (a as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

impl EvalCache {
    /// Creates a cache bounded to `capacity` exact entries and snapshots.
    pub fn new(capacity: usize) -> EvalCache {
        EvalCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            enabled: true,
        }
    }

    /// A cache that remembers nothing: every lookup misses and every
    /// insert is dropped. Used to measure how much work caching saves
    /// (the `search-pool` benchmark workload) under otherwise identical
    /// plumbing.
    pub fn disabled() -> EvalCache {
        let mut c = EvalCache::new(1);
        c.enabled = false;
        c
    }

    /// Depth interval at which evaluators should deposit prefix snapshots:
    /// [`DEFAULT_SNAPSHOT_INTERVAL`].
    pub fn snapshot_interval(&self) -> usize {
        DEFAULT_SNAPSHOT_INTERVAL
    }

    /// Looks up a finished evaluation. Counts a pool cache hit or miss.
    pub fn lookup(&self, benchmark: &str, actions: &[usize]) -> Option<CachedEval> {
        let tel = cg_telemetry::global();
        let hit = if self.enabled {
            let key = seq_hash(actions);
            let inner = self.inner.lock();
            inner
                .benchmarks
                .get(benchmark)
                .and_then(|b| b.exact.get(&key))
                .filter(|e| e.actions == actions)
                .cloned()
        } else {
            None
        };
        if hit.is_some() {
            tel.pool.cache_hits.inc();
            // Parented under the caller's pool:job span, so a cached
            // outcome is visible (and explains the missing env spans)
            // when a job's trace is reconstructed.
            tel.trace.emit(
                "cache:hit",
                format!("{benchmark} depth {}", actions.len()),
                std::time::Duration::ZERO,
            );
        } else {
            tel.pool.cache_misses.inc();
        }
        hit
    }

    /// Records a finished evaluation. At capacity the whole cache is
    /// dropped (generation-style eviction: cheap, and search workloads
    /// re-warm it within one population).
    pub fn insert(&self, benchmark: &str, actions: &[usize], score: f64, metric: f64) {
        if !self.enabled {
            return;
        }
        let key = seq_hash(actions);
        let entry = CachedEval {
            actions: actions.to_vec(),
            score,
            metric,
        };
        let mut evicted = None;
        {
            let mut inner = self.inner.lock();
            if inner.evals >= self.capacity {
                evicted = Some(std::mem::take(&mut *inner));
            }
            let fresh = inner
                .benchmark_mut(benchmark)
                .exact
                .insert(key, entry)
                .is_none();
            inner.evals += usize::from(fresh);
        }
        if evicted.is_some() {
            cg_telemetry::global().pool.evictions.inc();
        }
    }

    /// The deepest cached snapshot along a *proper* prefix of `actions`
    /// (never the full sequence — that is the exact map's job). The caller
    /// records the pool prefix-hit telemetry once the snapshot actually
    /// restores.
    pub fn longest_prefix(
        &self,
        benchmark: &str,
        actions: &[usize],
    ) -> Option<(usize, Arc<EpisodeSnapshot>)> {
        let inner = self.inner.lock();
        let mut node = &inner.benchmarks.get(benchmark)?.trie;
        let mut found: Option<(usize, Arc<EpisodeSnapshot>)> = None;
        for (depth, a) in actions.iter().enumerate() {
            if depth > 0 {
                if let Some(s) = &node.snapshot {
                    found = Some((depth, Arc::clone(s)));
                }
            }
            match node.children.get(a) {
                Some(next) => node = next,
                None => break,
            }
        }
        found
    }

    /// Deposits a prefix snapshot at the trie path of `snap.actions`.
    /// First writer wins (the pass determinism invariant makes duplicates
    /// byte-equivalent anyway). At capacity the trie is dropped and
    /// re-warmed, mirroring the exact map's eviction policy.
    pub fn store_snapshot(&self, snap: EpisodeSnapshot) {
        if !self.enabled || snap.actions.is_empty() {
            return;
        }
        let snap = Arc::new(snap);
        let mut evicted = Vec::new();
        {
            let mut inner = self.inner.lock();
            if inner.snapshots >= self.capacity {
                evicted.extend(
                    inner
                        .benchmarks
                        .values_mut()
                        .map(|b| std::mem::take(&mut b.trie)),
                );
                inner.snapshots = 0;
            }
            let mut node = &mut inner.benchmark_mut(&snap.benchmark).trie;
            for &a in &snap.actions {
                node = node.children.entry(a).or_default();
            }
            if node.snapshot.is_none() {
                node.snapshot = Some(Arc::clone(&snap));
                inner.snapshots += 1;
            }
        }
        if !evicted.is_empty() {
            cg_telemetry::global().pool.evictions.inc();
        }
    }

    /// Number of exact entries (for tests and stats).
    pub fn len(&self) -> usize {
        self.inner.lock().evals
    }

    /// Whether the exact map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored prefix snapshots (for tests and stats).
    pub fn snapshot_count(&self) -> usize {
        self.inner.lock().snapshots
    }

    /// Drops all cached entries and snapshots.
    pub fn clear(&self) {
        // Taken under the lock, freed after it.
        let _dropped = std::mem::take(&mut *self.inner.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(benchmark: &str, actions: Vec<usize>) -> EpisodeSnapshot {
        EpisodeSnapshot {
            benchmark: benchmark.into(),
            action_space_index: 0,
            actions,
            state: crate::session::SessionSnapshot::from_bytes(vec![1, 2, 3]),
            prev_metric: 10.0,
            init_metric: 12.0,
            baseline_metric: None,
            episode_reward: 2.0,
        }
    }

    #[test]
    fn exact_roundtrip_and_miss() {
        let c = EvalCache::new(16);
        assert!(c.lookup("b", &[1, 2, 3]).is_none());
        c.insert("b", &[1, 2, 3], 5.0, 95.0);
        let hit = c.lookup("b", &[1, 2, 3]).unwrap();
        assert_eq!(hit.score, 5.0);
        assert_eq!(hit.metric, 95.0);
        assert!(c.lookup("b", &[1, 2]).is_none());
        assert!(c.lookup("other", &[1, 2, 3]).is_none());
    }

    #[test]
    fn longest_prefix_returns_deepest_proper_prefix() {
        let c = EvalCache::new(16);
        c.store_snapshot(snap("b", vec![1, 2]));
        c.store_snapshot(snap("b", vec![1, 2, 3, 4]));
        // Full sequence [1,2] is not a proper prefix of itself.
        assert!(c.longest_prefix("b", &[1, 2]).is_none());
        let (d, s) = c.longest_prefix("b", &[1, 2, 9]).unwrap();
        assert_eq!(d, 2);
        assert_eq!(s.actions, vec![1, 2]);
        let (d, s) = c.longest_prefix("b", &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(d, 4);
        assert_eq!(s.actions, vec![1, 2, 3, 4]);
        // Diverging first action: nothing to reuse.
        assert!(c.longest_prefix("b", &[7, 2, 3]).is_none());
    }

    #[test]
    fn capacity_overflow_clears_and_counts_eviction() {
        let c = EvalCache::new(2);
        c.insert("b", &[1], 1.0, 1.0);
        c.insert("b", &[2], 2.0, 2.0);
        c.insert("b", &[3], 3.0, 3.0); // trips the bound, drops 1 and 2
        assert!(c.lookup("b", &[1]).is_none());
        assert!(c.lookup("b", &[3]).is_some());
        assert!(c.len() <= 2);
    }

    #[test]
    fn snapshot_overflow_drops_the_tries_and_keeps_exact_entries() {
        let c = EvalCache::new(2);
        c.insert("b", &[1], 1.0, 1.0);
        c.insert("b", &[1], 1.0, 1.0);
        assert_eq!(c.len(), 1, "re-inserting a key does not count twice");
        c.store_snapshot(snap("b", vec![1]));
        c.store_snapshot(snap("c", vec![1]));
        c.store_snapshot(snap("b", vec![2])); // trips the bound
        assert_eq!(c.snapshot_count(), 1);
        assert!(c.longest_prefix("b", &[1, 9]).is_none());
        assert!(c.longest_prefix("c", &[1, 9]).is_none());
        assert!(c.longest_prefix("b", &[2, 9]).is_some());
        assert!(c.lookup("b", &[1]).is_some());
        assert!(c.lookup("c", &[1]).is_none(), "keyed per benchmark");
    }

    #[test]
    fn hash_collisions_are_verified_by_sequence() {
        // Same hash is astronomically unlikely for these, but the equality
        // check must also reject a same-hash different-sequence entry;
        // simulate by checking lookup compares the stored actions.
        let c = EvalCache::new(16);
        c.insert("b", &[5, 6], 1.0, 1.0);
        assert!(c.lookup("b", &[6, 5]).is_none());
    }
}
