//! The GeoStore façade — a serving-style scenario: one store owns the
//! point set plus a batch-dynamic index and answers *mixed* traffic
//! (inserts, deletes, k-NN, range, and whole-dataset analytics like hull /
//! EMST / Delaunay) through one typed Request/Response surface. Shows the
//! epoch planner coalescing writes, the memo cache absorbing repeated
//! analytics between writes, and typed errors on degenerate input.
//!
//! ```sh
//! cargo run --release --example geostore
//! ```

use pargeo::datagen::uniform_cube;
use pargeo::prelude::*;
use std::time::Instant;

fn main() {
    let n = std::env::var("PARGEO_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000usize);
    let pts = uniform_cube::<2>(n, 21);
    println!("== GeoStore: mixed serving over {n} points ==\n");

    // The default store serves from the paper's BDL-tree.
    let mut store: GeoStore<2> = GeoStore::builder().build();
    let t = Instant::now();
    store.insert(&pts);
    let load = t.elapsed();

    // A mixed batch through the epoch planner: the two deletes
    // coalesce into one index batch, the reads fan out data-parallel.
    let queries: Vec<Point2> = pts.iter().step_by(101).copied().collect();
    let t = Instant::now();
    let responses = store.execute(&[
        Request::Delete(pts[..n / 10].to_vec()),
        Request::Delete(pts[n / 10..n / 5].to_vec()),
        Request::Knn {
            queries: queries.clone(),
            k: 8,
        },
        Request::Hull,
        Request::Seb,
        Request::ClosestPair,
    ]);
    let mixed = t.elapsed();
    assert!(responses.iter().all(|r| r.is_ok()));

    // Analytics between writes are cache hits.
    let t = Instant::now();
    let h1 = store.hull().unwrap();
    let h2 = store.hull().unwrap();
    let cached = t.elapsed();
    assert_eq!(h1, h2);

    let stats = store.stats();
    println!(
        "{:<8} load {:>8.1?}  mixed batch {:>8.1?}  2x cached hull {:>8.1?}  \
         live {}  epochs {}  cache {}/{} hit/miss",
        store.backend().label(),
        load,
        mixed,
        cached,
        store.len(),
        stats.write_epoch,
        stats.cache.hits,
        stats.cache.misses,
    );

    // Sharded execution: the same index behind a morton-prefix router.
    // Writes apply in parallel across shards, reads fan out only to the
    // shards whose region can contribute — and the answers (here: the
    // k-NN rows of the same queries) are bit-identical to the unsharded
    // store's at every shard count.
    println!("\n== Sharded spatial core ==\n");
    let mut unsharded: GeoStore<2> = GeoStore::builder().build();
    unsharded.insert(&pts);
    let want = unsharded.knn(&queries, 8).unwrap();
    for shards in [1usize, 4, 16] {
        let mut store: GeoStore<2> = GeoStore::builder().shards(shards).build();
        let t = Instant::now();
        store.insert(&pts);
        let load = t.elapsed();
        let t = Instant::now();
        let got = store.knn(&queries, 8).unwrap();
        let knn = t.elapsed();
        assert_eq!(got, want, "sharded answers diverged");
        println!(
            "shards {:>2}  load {:>8.1?}  knn batch {:>8.1?}  (answers identical)",
            store.shard_count(),
            load,
            knn,
        );
    }

    // Degenerate input is a typed error, never a panic.
    let mut empty: GeoStore<2> = GeoStore::builder().build();
    println!("\nhull of empty store  -> {}", empty.hull().unwrap_err());
    println!(
        "knn with k too large -> {}",
        empty.knn(&pts[..1], 3).unwrap_err()
    );
    let line: Vec<Point2> = (0..10).map(|i| Point2::new([i as f64, i as f64])).collect();
    empty.insert(&line);
    println!("hull of collinear set-> {}", empty.hull().unwrap_err());
}
