//! Figure 12 / Appendix B reproduction: the overhead of the reservation
//! technique. Compares the sequential quickhull ("no-reservation") with
//! both instantiations of the reservation driver (randomized incremental
//! and quickhull), all on ONE thread, counting (a) visible points touched,
//! (b) visible facets touched, and (c) wall-clock time, on 3D-IS and 3D-IC
//! (uniform-in-cube). Exits non-zero when a driver's counts exceed the
//! bound below.

use pargeo::datagen;
use pargeo::hull::hull3d::{
    hull3d_quickhull_parallel_with_stats, hull3d_randinc_with_stats, hull3d_seq_with_stats, Hull3d,
    HullStats,
};
use pargeo::prelude::Point3;
use pargeo_bench::{env_n, header, ms, time};

/// Appendix B's "modest constant factor", pinned: attempts per sequential
/// insertion, and facets touched (reserved ring included) per sequential
/// facet, at one thread.
const MAX_POINT_RATIO: f64 = 2.0;
const MAX_FACET_RATIO: f64 = 4.0;

fn main() {
    let n = env_n(200_000);
    println!("# Figure 12 — reservation overhead (single thread), n = {n}\n");
    let datasets = vec![
        ("3D-IS", datagen::in_sphere::<3>(n, 1)),
        ("3D-IC", datagen::uniform_cube::<3>(n, 2)),
    ];
    type Counted = fn(&[Point3]) -> (Hull3d, HullStats);
    let reserving: [(&str, Counted); 2] = [
        ("reservation (RandInc)", hull3d_randinc_with_stats),
        (
            "reservation (QuickHull)",
            hull3d_quickhull_parallel_with_stats,
        ),
    ];
    header(&[
        "dataset",
        "method",
        "(a) points touched",
        "(b) facets touched",
        "(c) time (ms)",
        "rounds",
    ]);
    let mut over = Vec::new();
    for (name, pts) in &datasets {
        pargeo::parlay::with_threads(1, || {
            let ((_, s_seq), t_seq) = time(|| hull3d_seq_with_stats(pts));
            println!(
                "| {name} | no-reservation | {} | {} | {} | {} |",
                s_seq.points_touched,
                s_seq.facets_touched,
                ms(t_seq),
                s_seq.rounds
            );
            for (method, driver) in reserving {
                let ((_, s_par), t_par) = time(|| driver(pts));
                let points = s_par.points_touched as f64 / s_seq.points_touched.max(1) as f64;
                let facets = s_par.facets_touched as f64 / s_seq.facets_touched.max(1) as f64;
                println!(
                    "| {name} | {method} | {} ({points:.2}x) | {} ({facets:.2}x) | {} ({:.2}x) | {} |",
                    s_par.points_touched,
                    s_par.facets_touched,
                    ms(t_par),
                    t_par / t_seq,
                    s_par.rounds
                );
                if points > MAX_POINT_RATIO || facets > MAX_FACET_RATIO {
                    over.push(format!(
                        "{name} {method}: {points:.2}x points, {facets:.2}x facets"
                    ));
                }
            }
        });
    }
    println!(
        "\nAppendix B claim: the reservation work overhead is a modest constant \
         factor; most reservations succeed, so points/facets touched stay close \
         to the sequential counts (bound here: {MAX_POINT_RATIO}x points, \
         {MAX_FACET_RATIO}x facets, ring included)."
    );
    if !over.is_empty() {
        eprintln!("reservation overhead above the bound: {over:?}");
        std::process::exit(1);
    }
}
