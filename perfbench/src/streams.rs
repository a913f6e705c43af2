//! The benchmark's input streams, generated from the seed alone.
//!
//! Each workload gets its contexts from here and nowhere else: the
//! server only ever sees the SDL text these functions produce. A
//! context is paired with raw random draws (`picks`) that later choose
//! which segment each drill enters, once the advice is known; keeping
//! the draws raw keeps every stream a pure function of the seed.
//!
//! Contexts are emitted with their conjuncts in attribute-name order and
//! set literals sorted, which is the canonical form, so two contexts are
//! the same cache key exactly when their strings are equal.

use crate::rng::{Rng, Zipf};
use std::collections::HashSet;

/// Rows in the generated VOC dataset.
pub const VOC_ROWS: usize = 20_000;
/// Advice-cache capacity the server is configured with on `churn-http`.
pub const CHURN_CAPACITY: usize = 80;
/// Distinct sessions `churn-http` draws from. Each session advises on
/// two contexts (its root and one drill target), so the pool holds
/// about three times as many contexts as the cache.
const CHURN_POOL: usize = 128;
/// Zipf skew of `churn-http` session popularity.
const CHURN_THETA: f64 = 1.0;

/// The seven attributes of a cold context: every VOC column except the
/// two high-cardinality noise columns (`trip`, `master`).
const WIDE_ATTRS: [&str; 7] = [
    "built",
    "cape_arrival",
    "departure_date",
    "departure_harbour",
    "tonnage",
    "type_of_boat",
    "yard",
];

/// One analyst session: a context plus the raw draws that pick its
/// drill targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// SDL context text, in canonical form.
    pub context: String,
    /// One raw draw per drill; see [`pick`].
    pub picks: Vec<u64>,
}

/// Resolve a raw draw to `(rank, seg)` given the segment count of each
/// ranked answer (`None` when there is nothing to drill into).
pub fn pick(raw: u64, segments_per_rank: &[usize]) -> Option<(usize, usize)> {
    let drillable: Vec<usize> = (0..segments_per_rank.len())
        .filter(|&r| segments_per_rank[r] > 0)
        .collect();
    if drillable.is_empty() {
        return None;
    }
    let rank = drillable[(raw % drillable.len() as u64) as usize];
    let seg = ((raw >> 32) % segments_per_rank[rank] as u64) as usize;
    Some((rank, seg))
}

/// The drill target for the draw `raw`: the segment `pick` chooses or,
/// if `unused` rejects it, the first one after it (rank by rank,
/// wrapping round) that `unused` accepts.
pub fn pick_unused(
    raw: u64,
    segments_per_rank: &[usize],
    mut unused: impl FnMut(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    let first = pick(raw, segments_per_rank)?;
    let all: Vec<(usize, usize)> = segments_per_rank
        .iter()
        .enumerate()
        .flat_map(|(r, &n)| (0..n).map(move |g| (r, g)))
        .collect();
    let at = all.iter().position(|&t| t == first)?;
    all[at..]
        .iter()
        .chain(&all[..at])
        .copied()
        .find(|&(r, g)| unused(r, g))
}

/// The churn pool: [`CHURN_POOL`] sessions with one drill each. Every
/// context has the same shape, `(departure_harbour: , tonnage: [lo,
/// lo + 300], type_of_boat: )` with a distinct seeded `lo`, so misses
/// cost alike and the tail figures do not hinge on which few contexts a
/// seed made expensive.
pub fn churn_pool(seed: u64) -> Vec<Script> {
    let mut rng = Rng::new(seed, 2);
    let mut los: Vec<i64> = (100..=800).collect();
    (0..CHURN_POOL)
        .map(|_| {
            let lo = los.swap_remove(rng.below(los.len() as u64) as usize);
            Script {
                context: format!(
                    "(departure_harbour: , tonnage: [{lo}, {}], type_of_boat: )",
                    lo + 300
                ),
                picks: vec![rng.next_u64()],
            }
        })
        .collect()
}

/// One client lane's churn session order: Zipf-skewed indices into
/// [`churn_pool`]. Popularity ranks are shuffled (identically for every
/// lane) so the most popular context is not always the first generated;
/// each lane draws from its own stream.
pub struct ChurnStream {
    rng: Rng,
    zipf: Zipf,
    order: Vec<usize>,
}

impl ChurnStream {
    pub fn new(seed: u64, lane: u64) -> ChurnStream {
        let mut shuffle = Rng::new(seed, 3);
        let mut order: Vec<usize> = (0..CHURN_POOL).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle.below(i as u64 + 1) as usize);
        }
        ChurnStream {
            rng: Rng::new(seed, 16 + lane),
            zipf: Zipf::new(CHURN_POOL, CHURN_THETA),
            order,
        }
    }
}

impl Iterator for ChurnStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some(self.order[self.zipf.sample(&mut self.rng)])
    }
}

/// Never-repeating wide contexts for `cold-advise`: all seven
/// attributes, with a seeded day-precision `departure_date` window, so
/// each context selects a different mid-density row set.
pub struct ColdStream {
    rng: Rng,
    seen: HashSet<String>,
}

impl ColdStream {
    pub fn new(seed: u64) -> ColdStream {
        ColdStream {
            rng: Rng::new(seed, 4),
            seen: HashSet::new(),
        }
    }

    fn date(&mut self, year: i64) -> String {
        format!(
            "{year}-{:02}-{:02}",
            self.rng.range(1, 12),
            self.rng.range(1, 28)
        )
    }
}

impl Iterator for ColdStream {
    type Item = Script;

    fn next(&mut self) -> Option<Script> {
        loop {
            let lo = self.rng.range(1620, 1720);
            let hi = lo + self.rng.range(60, 140);
            let (lo, hi) = (self.date(lo), self.date(hi));
            let preds: Vec<String> = WIDE_ATTRS
                .iter()
                .map(|a| match *a {
                    "departure_date" => format!("{a}: [{lo}, {hi}]"),
                    _ => format!("{a}: "),
                })
                .collect();
            let context = format!("({})", preds.join(", "));
            if self.seen.insert(context.clone()) {
                let picks = vec![self.rng.next_u64()];
                return Some(Script { context, picks });
            }
        }
    }
}

/// A stable fingerprint of a workload's inputs (FNV-1a over the
/// generated context texts and draws), for the provenance line.
pub fn fingerprint(scripts: &[Script]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for s in scripts {
        for b in s
            .context
            .bytes()
            .chain(s.picks.iter().flat_map(|p| p.to_le_bytes()))
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}
