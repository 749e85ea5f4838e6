//! Deterministic key-space workload generation for the sharded service.
//!
//! A workload is a stream of keyed commands. Keys are drawn from one of
//! three distributions — uniform, Zipf-skewed, or hot-shard — and each key
//! is mapped to a group by a fixed hash, so the same `(spec, seed, total)`
//! triple always produces the same per-group command backlogs. Commands
//! themselves are dense ids packed into [`Value`] (client ids `1..=total`;
//! `Value` declares the rest of the id space), which keeps the router's
//! bookkeeping flat arrays.
//!
//! The generator is self-contained (SplitMix64 for bits, inverse-CDF for
//! Zipf) so the `agreement` crate takes no new dependency and the stream is
//! identical on every platform the simulation runs on.

use crate::types::Value;

/// How the workload's keys are distributed over the key space.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Every key equally likely: the balanced-shards baseline.
    Uniform {
        /// Number of distinct keys.
        keys: u64,
    },
    /// Zipf-skewed keys (popularity rank `i` drawn with weight
    /// `1/(i+1)^s`): a few hot keys dominate, as in real KV traces.
    Zipf {
        /// Number of distinct keys.
        keys: u64,
        /// Skew exponent (`0.0` degenerates to uniform; `~0.99` is the
        /// classic YCSB skew).
        s: f64,
    },
    /// A fixed fraction of commands hit one designated key (and therefore
    /// one group); the rest are uniform. The adversarial load-imbalance
    /// case for a partitioned service.
    HotShard {
        /// Number of distinct keys.
        keys: u64,
        /// The pinned hot key.
        hot_key: u64,
        /// Per-mille of commands sent to `hot_key` (0..=1000).
        hot_permille: u32,
    },
    /// A fixed fraction of commands spread evenly over a designated *set*
    /// of hot keys; the rest are uniform. With the hot keys chosen to
    /// collide onto one group, this is the load pattern no *static*
    /// placement (hash or range) survives but per-key migration splits:
    /// each hot key can be isolated onto its own group.
    HotSet {
        /// Number of distinct keys.
        keys: u64,
        /// The pinned hot keys (hit uniformly; must be non-empty).
        hot_keys: Vec<u64>,
        /// Per-mille of commands sent to the hot set (0..=1000).
        hot_permille: u32,
    },
}

impl WorkloadSpec {
    /// A small uniform spec suitable for tests.
    pub fn uniform() -> WorkloadSpec {
        WorkloadSpec::Uniform { keys: 4096 }
    }

    /// Fails fast on specs that cannot draw keys (entry-point check, so
    /// the panic names the mistake instead of surfacing as an
    /// index-out-of-bounds mid-stream).
    fn validate(&self) {
        if let WorkloadSpec::HotSet { hot_keys, .. } = self {
            assert!(!hot_keys.is_empty(), "HotSet needs at least one hot key");
        }
    }

    /// The number of distinct keys the spec draws from (its key space;
    /// every drawn key is below this).
    pub fn key_space(&self) -> u64 {
        match *self {
            WorkloadSpec::Uniform { keys }
            | WorkloadSpec::Zipf { keys, .. }
            | WorkloadSpec::HotShard { keys, .. }
            | WorkloadSpec::HotSet { keys, .. } => keys.max(1),
        }
    }
}

/// One SplitMix64 step: the workload generator's deterministic bit source
/// (and the fuzzer's, over its own state).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` with 53 bits of precision.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The fixed key → group map: a hash partition of the key space.
///
/// Hashing (rather than range-splitting) keeps adjacent keys on different
/// groups, so even strongly clustered key streams spread out unless they
/// repeat a *single* key — which is exactly what
/// [`WorkloadSpec::HotShard`] models.
pub fn group_of_key(key: u64, groups: usize) -> usize {
    debug_assert!(groups > 0);
    let mut s = key ^ 0xD6E8_FEB8_6659_FD93;
    (splitmix64(&mut s) % groups as u64) as usize
}

/// The Zipf inverse-CDF table for `spec`, if it needs one. `cdf[i]` is
/// the cumulative probability of ranks `0..=i`.
fn zipf_cdf(spec: &WorkloadSpec) -> Vec<f64> {
    match spec {
        WorkloadSpec::Zipf { keys, s } => {
            let k = (*keys).max(1) as usize;
            let mut weights: Vec<f64> = (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(*s)).collect();
            let sum: f64 = weights.iter().sum();
            let mut acc = 0.0;
            for w in &mut weights {
                acc += *w / sum;
                *w = acc;
            }
            weights
        }
        _ => Vec::new(),
    }
}

/// Draws the next key of `spec`'s stream, advancing `state`. The single
/// source of keys for both [`partition`] and [`sample_keys`], so the two
/// always agree draw-for-draw.
fn next_key(spec: &WorkloadSpec, cdf: &[f64], state: &mut u64) -> u64 {
    match spec {
        WorkloadSpec::Uniform { keys } => splitmix64(state) % (*keys).max(1),
        WorkloadSpec::Zipf { keys, .. } => {
            let u = unit(state);
            let rank = cdf.partition_point(|&c| c < u);
            (rank as u64).min(keys.saturating_sub(1))
        }
        WorkloadSpec::HotShard {
            keys,
            hot_key,
            hot_permille,
        } => {
            if splitmix64(state) % 1000 < *hot_permille as u64 {
                *hot_key
            } else {
                splitmix64(state) % (*keys).max(1)
            }
        }
        WorkloadSpec::HotSet {
            keys,
            hot_keys,
            hot_permille,
        } => {
            if splitmix64(state) % 1000 < *hot_permille as u64 {
                hot_keys[(splitmix64(state) % hot_keys.len().max(1) as u64) as usize]
            } else {
                splitmix64(state) % (*keys).max(1)
            }
        }
    }
}

/// The raw key stream `partition` routes: `total` keys drawn from `spec`,
/// seeded by `seed`. Exposed so the generators' statistical contracts
/// (seed determinism, Zipf head mass, hot-shard hit ratio) are testable
/// directly; `partition(spec, seed, total, g)` assigns command id `i+1`
/// the group `group_of_key(sample_keys(spec, seed, total)[i], g)`.
pub fn sample_keys(spec: &WorkloadSpec, seed: u64, total: usize) -> Vec<u64> {
    spec.validate();
    let mut state = seed ^ 0x5EED_CAFE_F00D_D00D;
    let cdf = zipf_cdf(spec);
    (0..total)
        .map(|_| next_key(spec, &cdf, &mut state))
        .collect()
}

/// A workload partitioned over `groups` command backlogs.
#[derive(Clone, Debug)]
pub struct PartitionedWorkload {
    /// Per-group command backlogs, each in global submission order.
    pub backlogs: Vec<Vec<Value>>,
    /// Group of command id `i` (index 0 unused: ids are 1-based).
    pub group_of: Vec<u32>,
    /// Key of command id `i` (index 0 unused). The router needs this for
    /// dynamic routing: migrations re-route commands by *key* at run
    /// time, after the backlogs were cut.
    pub keys: Vec<u64>,
}

impl PartitionedWorkload {
    /// Total commands across all groups.
    pub fn total(&self) -> usize {
        self.group_of.len().saturating_sub(1)
    }
}

/// Draws `total` keys from `spec` (seeded by `seed`), assigns each command
/// a dense 1-based id, and routes it to its group by the static key hash.
pub fn partition(
    spec: &WorkloadSpec,
    seed: u64,
    total: usize,
    groups: usize,
) -> PartitionedWorkload {
    partition_by(spec, seed, total, groups, |key| group_of_key(key, groups))
}

/// [`partition`], but routed by `table` (the rebalancing deployments'
/// version-0 range table) instead of the static key hash.
pub fn partition_with_table(
    spec: &WorkloadSpec,
    seed: u64,
    total: usize,
    table: &super::rebalance::RoutingTable,
    groups: usize,
) -> PartitionedWorkload {
    partition_by(spec, seed, total, groups, |key| table.group_of(key))
}

/// The shared partitioner: one key stream, one pluggable key → group map.
fn partition_by(
    spec: &WorkloadSpec,
    seed: u64,
    total: usize,
    groups: usize,
    route: impl Fn(u64) -> usize,
) -> PartitionedWorkload {
    assert!(groups > 0, "need at least one group");
    spec.validate();
    let mut state = seed ^ 0x5EED_CAFE_F00D_D00D;
    let cdf = zipf_cdf(spec);
    let mut backlogs: Vec<Vec<Value>> = vec![Vec::new(); groups];
    let mut group_of: Vec<u32> = Vec::with_capacity(total + 1);
    let mut keys: Vec<u64> = Vec::with_capacity(total + 1);
    group_of.push(u32::MAX); // id 0 is reserved
    keys.push(u64::MAX);
    for id in 1..=total as u64 {
        let key = next_key(spec, &cdf, &mut state);
        let g = route(key);
        assert!(g < groups, "router mapped key {key} to missing group {g}");
        backlogs[g].push(Value(id));
        group_of.push(g as u32);
        keys.push(key);
    }
    PartitionedWorkload {
        backlogs,
        group_of,
        keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_deterministic() {
        let spec = WorkloadSpec::Zipf {
            keys: 1024,
            s: 0.99,
        };
        let a = partition(&spec, 7, 500, 8);
        let b = partition(&spec, 7, 500, 8);
        assert_eq!(a.backlogs, b.backlogs);
        assert_eq!(a.group_of, b.group_of);
        let c = partition(&spec, 8, 500, 8);
        assert_ne!(a.backlogs, c.backlogs, "seed must matter");
    }

    #[test]
    fn every_command_lands_in_exactly_one_group() {
        let pw = partition(&WorkloadSpec::uniform(), 3, 1000, 5);
        assert_eq!(pw.total(), 1000);
        let spread: usize = pw.backlogs.iter().map(Vec::len).sum();
        assert_eq!(spread, 1000);
        for (g, backlog) in pw.backlogs.iter().enumerate() {
            for v in backlog {
                assert_eq!(pw.group_of[v.0 as usize] as usize, g);
            }
        }
    }

    #[test]
    fn uniform_spread_is_roughly_even() {
        let pw = partition(&WorkloadSpec::uniform(), 1, 10_000, 4);
        for backlog in &pw.backlogs {
            assert!(
                (2_000..3_000).contains(&backlog.len()),
                "skewed uniform spread: {}",
                backlog.len()
            );
        }
    }

    #[test]
    fn hot_shard_concentrates_on_one_group() {
        let spec = WorkloadSpec::HotShard {
            keys: 4096,
            hot_key: 42,
            hot_permille: 800,
        };
        let pw = partition(&spec, 9, 10_000, 8);
        let hot = group_of_key(42, 8);
        assert!(
            pw.backlogs[hot].len() > 8_000,
            "hot group got only {} of 10k",
            pw.backlogs[hot].len()
        );
    }

    #[test]
    fn hot_set_spreads_over_its_keys_and_pins_their_groups() {
        let hot_keys = vec![11, 42, 97];
        let spec = WorkloadSpec::HotSet {
            keys: 4096,
            hot_keys: hot_keys.clone(),
            hot_permille: 900,
        };
        let keys = sample_keys(&spec, 3, 30_000);
        let hits = |k: u64| keys.iter().filter(|&&x| x == k).count();
        for &k in &hot_keys {
            let h = hits(k);
            assert!(
                (7_000..13_000).contains(&h),
                "hot key {k} drew {h} of 30k (want ~9k)"
            );
        }
        let hot_total: usize = hot_keys.iter().map(|&k| hits(k)).sum();
        assert!(hot_total > 26_000, "hot set mass only {hot_total}");
    }

    #[test]
    fn zipf_is_more_skewed_than_uniform() {
        let max_of = |spec: &WorkloadSpec| {
            partition(spec, 5, 10_000, 8)
                .backlogs
                .iter()
                .map(Vec::len)
                .max()
                .unwrap()
        };
        let uni = max_of(&WorkloadSpec::Uniform { keys: 4096 });
        let zipf = max_of(&WorkloadSpec::Zipf { keys: 4096, s: 1.2 });
        assert!(
            zipf > uni,
            "zipf max group {zipf} should exceed uniform max group {uni}"
        );
    }

    #[test]
    fn key_hash_covers_all_groups() {
        let mut seen = [false; 16];
        for key in 0..1000 {
            seen[group_of_key(key, 16)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
