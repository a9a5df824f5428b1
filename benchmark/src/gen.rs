//! Seeded input generators. The programs under test receive only what these
//! functions return: benchmark URIs and action indices.
//!
//! The generator and the program lists are the benchmark's own (not
//! `cg_datasets::CBENCH`, not the vendored `rand`), so a later change to a
//! crate cannot silently change the inputs every result is compared on.

/// Size of the `llvm-v0` action space the scripts index into. Checked
/// against the live environment at set-up.
pub const NUM_ACTIONS: usize = 124;

/// The 23 `cbench-v1` programs.
pub const CBENCH: [&str; 23] = [
    "adpcm-c",
    "adpcm-d",
    "bitcount",
    "blowfish-d",
    "blowfish-e",
    "bzip2d",
    "bzip2e",
    "crc32",
    "dijkstra",
    "ghostscript",
    "gsm",
    "ispell",
    "jpeg-c",
    "jpeg-d",
    "lame",
    "patricia",
    "qsort",
    "rijndael-d",
    "rijndael-e",
    "sha",
    "stringsearch",
    "susan",
    "tiff2bw",
];

/// The eight `cbench-v1` programs with the fewest IR instructions (69–144),
/// so that compiler work per step is small and the serving stack dominates.
pub const CBENCH_SMALLEST: [&str; 8] = [
    "crc32",
    "tiff2bw",
    "stringsearch",
    "patricia",
    "qsort",
    "gsm",
    "bitcount",
    "blowfish-d",
];

/// The six `cbench-v1` programs with the most IR instructions (326–1412).
pub const CBENCH_LARGEST: [&str; 6] =
    ["ghostscript", "susan", "jpeg-d", "lame", "jpeg-c", "bzip2e"];

/// `search-pool` programs: a spread of sizes (108–326 instructions).
pub const POOL_PROGRAMS: [&str; 4] = ["qsort", "sha", "dijkstra", "bzip2e"];

/// `replay-store` programs: the ones whose printed IR is shortest, because
/// the store logs the IR text of every new state.
pub const REPLAY_PROGRAMS: [&str; 4] = ["qsort", "dijkstra", "blowfish-d", "rijndael-e"];

/// Builds a `cbench-v1` URI.
pub fn cbench(name: &str) -> String {
    format!("benchmark://cbench-v1/{name}")
}

/// SplitMix64: small, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-stream `salt`, so that workloads and
    /// sub-streams drawn from one `--seed` are independent.
    pub fn new(seed: u64, salt: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// `len` uniform actions.
    pub fn actions(&mut self, len: usize) -> Vec<usize> {
        (0..len).map(|_| self.below(NUM_ACTIONS)).collect()
    }
}

/// One episode: a benchmark and the actions applied to it, one per step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// Benchmark URI.
    pub benchmark: String,
    /// One action per step.
    pub actions: Vec<usize>,
}

/// `base × scale`, at least 1. `scale` is `--seconds` over the nominal run
/// length, so operation counts are a pure function of the arguments.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// `rl-loop`: `passes` round-robin passes over all 23 programs, 100 uniform
/// random actions each.
pub fn rl_loop(seed: u64, passes: usize) -> Vec<Episode> {
    let mut rng = Rng::new(seed, "rl-loop");
    let mut out = Vec::with_capacity(passes * CBENCH.len());
    for _ in 0..passes {
        for name in CBENCH {
            out.push(Episode {
                benchmark: cbench(name),
                actions: rng.actions(100),
            });
        }
    }
    out
}

/// `obs-sweep`: `episodes` 10-step episodes, each on a different program:
/// the six largest `cbench-v1` programs, then `csmith-v0` and
/// `llvm-stress-v0` ids 0, 1, 2, … in alternation. The seed draws the
/// actions and the order of the episodes, not the programs: with a hundred
/// programs per round the slowest few set `step_p99_us`, and a pool drawn
/// afresh per seed moved it by a third from one seed to the next.
pub fn obs_sweep(seed: u64, episodes: usize) -> Vec<Episode> {
    let mut rng = Rng::new(seed, "obs-sweep");
    let mut out: Vec<Episode> = (0..episodes)
        .map(|i| {
            let benchmark = match i.checked_sub(CBENCH_LARGEST.len()) {
                None => cbench(CBENCH_LARGEST[i]),
                Some(k) if k % 2 == 0 => format!("benchmark://csmith-v0/{}", k / 2),
                Some(k) => format!("benchmark://llvm-stress-v0/{}", k / 2),
            };
            Episode {
                benchmark,
                actions: rng.actions(10),
            }
        })
        .collect();
    // Fisher-Yates.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// `tcp-fleet`: for each of the two clients, `episodes` 50-step episodes on
/// the eight smallest programs. The clients start four programs apart, so
/// they are never on the same program at the same time.
pub fn tcp_fleet(seed: u64, episodes: usize) -> [Vec<Episode>; 2] {
    let client = |c: usize| {
        let mut rng = Rng::new(seed, if c == 0 { "tcp-fleet-0" } else { "tcp-fleet-1" });
        (0..episodes)
            .map(|i| Episode {
                benchmark: cbench(CBENCH_SMALLEST[(i + 4 * c) % CBENCH_SMALLEST.len()]),
                actions: rng.actions(50),
            })
            .collect()
    };
    [client(0), client(1)]
}

/// Sequences per `search-pool` generation.
pub const POOL_POPULATION: usize = 32;
/// Actions per `search-pool` sequence.
pub const POOL_SEQ_LEN: usize = 24;

/// `search-pool`: a GA-shaped stream that does not depend on scores, so it
/// is identical on every commit. Slot `i` of every generation evaluates
/// program `i % 4`. Generation 0 is all fresh sequences; every later
/// generation is 4 exact repeats of previous-generation sequences (elites)
/// and 28 children that keep a 4–20-action prefix of a previous-generation
/// sequence on the same program and draw a fresh suffix.
pub fn search_pool(seed: u64, generations: usize) -> Vec<Vec<Episode>> {
    let mut rng = Rng::new(seed, "search-pool");
    let programs = POOL_PROGRAMS.len();
    let mut stream: Vec<Vec<Episode>> = Vec::with_capacity(generations);
    for g in 0..generations {
        let mut generation = Vec::with_capacity(POOL_POPULATION);
        // The elites are one row of slots (one slot per program); the row
        // rotates with the generation.
        let rows = POOL_POPULATION / programs;
        for slot in 0..POOL_POPULATION {
            let program = slot % programs;
            let benchmark = cbench(POOL_PROGRAMS[program]);
            let actions = match stream.last() {
                None => rng.actions(POOL_SEQ_LEN),
                Some(prev) => {
                    // A previous-generation slot on the same program.
                    let parent = &prev[rng.below(rows) * programs + program].actions;
                    if slot / programs == g % rows {
                        parent.clone()
                    } else {
                        let keep = 4 + rng.below(17);
                        let mut a = parent[..keep].to_vec();
                        a.extend(rng.actions(POOL_SEQ_LEN - keep));
                        a
                    }
                }
            };
            generation.push(Episode { benchmark, actions });
        }
        stream.push(generation);
    }
    stream
}

/// Shares of a `search-pool` stream's sequences (generation 0 excluded)
/// that exactly repeat a previous-generation sequence, that share a prefix
/// of at least four actions with one without repeating it, and that do
/// neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamShares {
    /// Exact repeats.
    pub repeat: f64,
    /// Shared prefix of ≥ 4 actions, not an exact repeat.
    pub prefix: f64,
    /// Neither.
    pub novel: f64,
}

/// Measures [`StreamShares`] from the stream itself.
pub fn stream_shares(stream: &[Vec<Episode>]) -> StreamShares {
    let (mut repeat, mut prefix, mut total) = (0usize, 0usize, 0usize);
    for pair in stream.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        for e in cur {
            total += 1;
            let same_program = prev.iter().filter(|p| p.benchmark == e.benchmark);
            let longest = same_program
                .map(|p| {
                    p.actions
                        .iter()
                        .zip(&e.actions)
                        .take_while(|(a, b)| a == b)
                        .count()
                })
                .max()
                .unwrap_or(0);
            if longest == e.actions.len() {
                repeat += 1;
            } else if longest >= 4 {
                prefix += 1;
            }
        }
    }
    let total = total.max(1) as f64;
    StreamShares {
        repeat: repeat as f64 / total,
        prefix: prefix as f64 / total,
        novel: 1.0 - (repeat + prefix) as f64 / total,
    }
}

/// Steps per `replay-store` episode.
pub const REPLAY_EPISODE_LEN: usize = 25;
/// Steps a diverging `replay-store` episode shares with the logged one.
pub const REPLAY_DIVERGE_AT: usize = 15;
/// Read passes over the logged episodes per round.
pub const REPLAY_READ_PASSES: usize = 3;

/// `replay-store` input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayInput {
    /// The episodes the write phase runs live and logs.
    pub logged: Vec<Episode>,
    /// What each read pass replays: the logged episodes, except that every
    /// fifth one keeps only its first 15 actions and then takes a suffix
    /// the store has never seen (a different one in each pass, because a
    /// miss is written through and would hit the next time).
    pub reads: Vec<Vec<Episode>>,
}

/// `replay-store`: `episodes` 25-step episodes over four programs.
pub fn replay_store(seed: u64, episodes: usize) -> ReplayInput {
    let mut rng = Rng::new(seed, "replay-store");
    let logged: Vec<Episode> = (0..episodes)
        .map(|i| Episode {
            benchmark: cbench(REPLAY_PROGRAMS[i % REPLAY_PROGRAMS.len()]),
            actions: rng.actions(REPLAY_EPISODE_LEN),
        })
        .collect();
    let reads = (0..REPLAY_READ_PASSES)
        .map(|_| {
            logged
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    if i % 5 != 4 {
                        return e.clone();
                    }
                    let mut actions = e.actions[..REPLAY_DIVERGE_AT].to_vec();
                    actions.extend(rng.actions(REPLAY_EPISODE_LEN - REPLAY_DIVERGE_AT));
                    Episode {
                        benchmark: e.benchmark.clone(),
                        actions,
                    }
                })
                .collect()
        })
        .collect();
    ReplayInput { logged, reads }
}

/// A byte rendering of a script, for determinism checks and for recording
/// an input digest with each result.
pub fn script_bytes<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> Vec<u8> {
    let mut out = Vec::new();
    for e in episodes {
        out.extend_from_slice(e.benchmark.as_bytes());
        out.push(b'\n');
        for &a in &e.actions {
            out.extend_from_slice(&(a as u16).to_le_bytes());
        }
        out.push(0xff);
    }
    out
}

/// FNV-1a of [`script_bytes`].
pub fn script_digest<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in script_bytes(episodes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn all_bytes(seed: u64) -> Vec<u8> {
        let mut out = script_bytes(&rl_loop(seed, 2));
        out.extend(script_bytes(&obs_sweep(seed, 40)));
        for c in tcp_fleet(seed, 6) {
            out.extend(script_bytes(&c));
        }
        out.extend(script_bytes(search_pool(seed, 5).iter().flatten()));
        let r = replay_store(seed, 20);
        out.extend(script_bytes(&r.logged));
        out.extend(script_bytes(r.reads.iter().flatten()));
        out
    }

    #[test]
    fn generators_are_byte_deterministic_per_seed() {
        assert_eq!(all_bytes(7), all_bytes(7));
        assert_eq!(all_bytes(0), all_bytes(0));
    }

    #[test]
    fn generators_differ_across_seeds() {
        assert_ne!(script_bytes(&rl_loop(1, 1)), script_bytes(&rl_loop(2, 1)));
        assert_ne!(
            script_bytes(&obs_sweep(1, 20)),
            script_bytes(&obs_sweep(2, 20))
        );
        assert_ne!(
            script_bytes(&tcp_fleet(1, 4)[0]),
            script_bytes(&tcp_fleet(2, 4)[0])
        );
        assert_ne!(
            script_bytes(search_pool(1, 3).iter().flatten()),
            script_bytes(search_pool(2, 3).iter().flatten())
        );
        assert_ne!(
            script_bytes(&replay_store(1, 10).logged),
            script_bytes(&replay_store(2, 10).logged)
        );
    }

    #[test]
    fn actions_stay_inside_the_action_space() {
        let mut rng = Rng::new(3, "t");
        let a = rng.actions(10_000);
        assert!(a.iter().all(|&x| x < NUM_ACTIONS));
        // Every action is drawn at least once in 10k draws (p(miss) < 1e-33).
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), NUM_ACTIONS);
    }

    #[test]
    fn obs_sweep_never_repeats_a_program() {
        let eps = obs_sweep(11, 300);
        let distinct: BTreeSet<_> = eps.iter().map(|e| &e.benchmark).collect();
        assert_eq!(distinct.len(), eps.len());
        assert!(eps.iter().all(|e| e.actions.len() == 10));
        // Every seed sweeps the same programs, in another order.
        let other = obs_sweep(12, 300);
        assert_eq!(distinct, other.iter().map(|e| &e.benchmark).collect());
        assert_ne!(
            eps.iter().map(|e| &e.benchmark).collect::<Vec<_>>(),
            other.iter().map(|e| &e.benchmark).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tcp_fleet_clients_are_on_different_programs() {
        let [a, b] = tcp_fleet(5, 16);
        assert!(a.iter().zip(&b).all(|(x, y)| x.benchmark != y.benchmark));
    }

    #[test]
    fn search_pool_stream_has_the_stated_shares() {
        let stream = search_pool(9, 40);
        assert!(stream.iter().all(|g| g.len() == POOL_POPULATION));
        assert!(stream
            .iter()
            .flatten()
            .all(|e| e.actions.len() == POOL_SEQ_LEN));
        let s = stream_shares(&stream);
        // 4 elites and 28 prefix children of 32, every generation after 0.
        // A child whose fresh suffix happens to redraw its parent's action
        // right after the kept prefix only lengthens the shared prefix.
        assert!((s.repeat - 4.0 / 32.0).abs() < 1e-9, "{s:?}");
        assert!((s.prefix - 28.0 / 32.0).abs() < 1e-9, "{s:?}");
        assert!(s.novel.abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn replay_reads_diverge_on_every_fifth_episode_only() {
        let r = replay_store(4, 50);
        assert_eq!(r.reads.len(), REPLAY_READ_PASSES);
        for pass in &r.reads {
            for (i, (read, logged)) in pass.iter().zip(&r.logged).enumerate() {
                assert_eq!(read.benchmark, logged.benchmark);
                assert_eq!(
                    read.actions[..REPLAY_DIVERGE_AT],
                    logged.actions[..REPLAY_DIVERGE_AT]
                );
                assert_eq!(read.actions == logged.actions, i % 5 != 4, "episode {i}");
            }
        }
        // Each pass diverges differently, so written-through misses of one
        // pass are not hits of the next.
        assert_ne!(r.reads[0][4], r.reads[1][4]);
    }
}
