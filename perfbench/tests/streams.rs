//! The input streams: seed-determinism, never-repeating cold keys, and
//! a churn pool larger than the cache it churns.

use charles_perfbench::bench::normalised_keys;
use charles_perfbench::oracle::{resolve, Oracle};
use charles_perfbench::streams::{
    churn_pool, pick, pick_unused, ChurnStream, ColdStream, Script, CHURN_CAPACITY,
};
use charles_store::{Backend, ShardedTable};
use std::collections::HashSet;
use std::sync::Arc;

fn oracle() -> Oracle {
    let table = charles_datagen::voc_table(2_000, 9);
    let backend: Arc<dyn Backend> = Arc::new(ShardedTable::from_table(&table, 2));
    Oracle::new(backend)
}

fn cold(seed: u64, n: usize) -> Vec<Script> {
    ColdStream::new(seed).take(n).collect()
}

#[test]
fn every_stream_is_a_function_of_its_seed() {
    assert_eq!(churn_pool(7), churn_pool(7));
    assert_eq!(cold(7, 200), cold(7, 200));
    let churn = |seed, lane| ChurnStream::new(seed, lane).take(500).collect::<Vec<_>>();
    assert_eq!(churn(7, 0), churn(7, 0));

    assert_ne!(churn_pool(7), churn_pool(8));
    assert_ne!(cold(7, 20), cold(8, 20));
    assert_ne!(churn(7, 0), churn(8, 0));
    assert_ne!(churn(7, 0), churn(7, 1), "lanes draw independently");
}

#[test]
fn cold_keys_stay_distinct_after_normalisation() {
    let o = oracle();
    let scripts = cold(11, 600);
    let keys = normalised_keys(&o, &scripts).unwrap();
    assert_eq!(keys.len(), scripts.len());
}

#[test]
fn cold_contexts_select_different_rows() {
    let o = oracle();
    let sizes: HashSet<usize> = cold(12, 40)
        .iter()
        .map(|s| {
            o.advise(&o.parse(&s.context).unwrap())
                .unwrap()
                .advice
                .context_size
        })
        .collect();
    assert!(
        sizes.len() > 30,
        "row sets vary: {} distinct sizes",
        sizes.len()
    );
}

#[test]
fn churn_pool_exceeds_the_configured_cache() {
    let o = oracle();
    let pool = churn_pool(13);
    let roots = normalised_keys(&o, &pool).unwrap();
    assert_eq!(
        roots.len(),
        pool.len(),
        "pool sessions start on distinct contexts"
    );
    let (_, ctxs) = resolve(&o, &pool).unwrap();
    assert!(
        ctxs.len() >= 3 * CHURN_CAPACITY,
        "{} contexts for a cache of {CHURN_CAPACITY}",
        ctxs.len()
    );
}

#[test]
fn a_used_drill_target_gives_way_to_the_next_unused_one() {
    let counts = [2, 0, 3];
    let raw = 0x0000_0001_0000_0001; // rank index 1 of [0, 2], segment 1
    assert_eq!(pick(raw, &counts), Some((2, 1)));
    assert_eq!(pick_unused(raw, &counts, |_, _| true), Some((2, 1)));
    let used = [(2, 1), (2, 2)];
    assert_eq!(
        pick_unused(raw, &counts, |r, g| !used.contains(&(r, g))),
        Some((0, 0)),
        "wraps round past the last rank"
    );
    assert_eq!(pick_unused(raw, &counts, |_, _| false), None);
    assert_eq!(pick_unused(raw, &[0, 0], |_, _| true), None);
}
