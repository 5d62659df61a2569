//! Figure 14 / Appendix D reproduction: k-NN throughput vs k on trees
//! built through a sequence of 5% batch insertions (not one bulk build).
//! B2's skew shows up as the gap to B1/BDL.
//!
//! Also a check: the three trees hold the same points under the same ids
//! after the same inserts, so it exits 1 unless their k-NN rows are
//! identical for every k.

use pargeo::datagen::{seed_spreader, uniform_cube, SeedSpreaderParams};
use pargeo::prelude::*;
use pargeo_bench::{env_n, header, max_threads, time};

/// Prints one table; returns whether B1, B2 and the BDL-tree agreed on
/// every row.
fn bench<const D: usize>(label: &str, pts: &[Point<D>], p: usize) -> bool {
    let batch = (pts.len() / 20).max(1); // 5% batches
    let (b1, b2, bdl) = pargeo::parlay::with_threads(p, || {
        let mut b1 = B1Tree::<D>::new(SplitRule::ObjectMedian);
        let mut b2 = B2Tree::<D>::new(SplitRule::ObjectMedian);
        let mut bdl = BdlTree::<D>::new();
        for chunk in pts.chunks(batch) {
            b1.insert(chunk);
            b2.insert(chunk);
            bdl.insert(chunk);
        }
        (b1, b2, bdl)
    });
    println!("\n## {label} (incremental build, 5% batches)\n");
    let ks: Vec<usize> = (2..=11).collect();
    let mut cols = vec!["impl".to_string()];
    cols.extend(ks.iter().map(|k| format!("k={k}")));
    header(&cols.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let n = pts.len() as f64;
    pargeo::parlay::with_threads(p, || {
        let mut row1 = vec!["B1-object".to_string()];
        let mut row2 = vec!["B2-object".to_string()];
        let mut row3 = vec!["BDL-object".to_string()];
        let mut same_rows = true;
        for &k in &ks {
            let (r1, s) = time(|| b1.knn_batch(pts, k));
            row1.push(format!("{:.2e}", n / s));
            let (r2, s) = time(|| b2.knn_batch(pts, k));
            row2.push(format!("{:.2e}", n / s));
            let (r3, s) = time(|| bdl.knn_batch(pts, k));
            row3.push(format!("{:.2e}", n / s));
            same_rows &= r1 == r2 && r2 == r3;
        }
        println!("| {} |", row1.join(" | "));
        println!("| {} |", row2.join(" | "));
        println!("| {} |", row3.join(" | "));
        same_rows
    })
}

fn main() {
    let n = env_n(100_000);
    let p = max_threads();
    println!("# Figure 14 — k-NN throughput (queries/s) vs k on {p} threads");
    let v2 = seed_spreader::<2>(n, 1, SeedSpreaderParams::default());
    let same_v2 = bench("2D-V (seed spreader)", &v2, p);
    let u7 = uniform_cube::<7>(n, 2);
    let same_u7 = bench("7D-U", &u7, p);
    if !(same_v2 && same_u7) {
        eprintln!("B1, B2 and the BDL-tree returned different k-NN rows");
        std::process::exit(1);
    }
}
