//! §6.3 "Comparison with Zd-tree" reproduction: construction, 10% batch
//! insert, 10% batch delete, and full k-NN on 3D uniform data, BDL-tree vs
//! the Morton-based Zd-tree.
//!
//! Also a check: both trees hold the same points under the same ids after
//! the same updates, so it exits 1 unless their k-NN rows are identical.

use pargeo::datagen::uniform_cube;
use pargeo::prelude::*;
use pargeo_bench::{env_n, header, max_threads, time};

fn main() {
    let n = env_n(200_000);
    let p = max_threads();
    println!("# Zd-tree comparison — 3D-U-{n}, {p} threads, times in seconds\n");
    let pts = uniform_cube::<3>(n, 1);
    let batch = n / 10;
    header(&[
        "structure",
        "construct",
        "insert 10%",
        "delete 10%",
        "k-NN (k=5)",
    ]);
    let same_rows = pargeo::parlay::with_threads(p, || {
        // BDL.
        let (mut bdl, c) = time(|| BdlTree::from_points(&pts));
        let (_, i) = time(|| bdl.insert(&pts[..batch]));
        let (_, d) = time(|| bdl.delete(&pts[..batch]));
        let (bdl_rows, k) = time(|| bdl.knn_batch(&pts, 5));
        println!("| BDL-tree | {c:.3} | {i:.3} | {d:.3} | {k:.3} |");
        // Zd.
        let (mut zd, zc) = time(|| ZdTree::from_points(&pts));
        let (_, zi) = time(|| zd.insert(&pts[..batch]));
        let (_, zd_t) = time(|| zd.delete(&pts[..batch]));
        let (zd_rows, zk) = time(|| zd.knn_batch(&pts, 5));
        println!("| Zd-tree | {zc:.3} | {zi:.3} | {zd_t:.3} | {zk:.3} |");
        println!(
            "| BDL / Zd | {:.2}x | {:.2}x | {:.2}x | {:.2}x |",
            c / zc,
            i / zi,
            d / zd_t,
            k / zk
        );
        bdl_rows == zd_rows
    });
    println!(
        "\nPaper: BDL was 3.3x / 23.1x / 45.8x slower for construct / insert / \
         delete and comparable for k-NN on 36 cores at n = 10M."
    );
    if !same_rows {
        eprintln!("the BDL-tree and the Zd-tree returned different k-NN rows");
        std::process::exit(1);
    }
}
