//! Runs every `examples/` walkthrough end-to-end on a small input.
//!
//! `cargo test` builds example targets before running integration tests,
//! so the binaries are guaranteed to exist next to this test's own binary
//! (`target/<profile>/examples/`). Each example honors `PARGEO_N`, which
//! keeps the smoke runs to a few seconds.

use std::path::PathBuf;
use std::process::Command;

const EXAMPLES: &[&str] = &[
    "quickstart",
    "convex_hull_3d",
    "spatial_graphs",
    "dynamic_points",
    "geostore",
];

const SMOKE_N: &str = "5000";

fn examples_dir() -> PathBuf {
    // This test binary lives in target/<profile>/deps/; the examples are
    // one level up in target/<profile>/examples/.
    let mut dir = std::env::current_exe().expect("current_exe");
    dir.pop(); // the test binary itself
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.join("examples")
}

fn run_example(name: &str) {
    let bin = examples_dir().join(name);
    assert!(
        bin.exists(),
        "example binary missing: {} (cargo builds examples before running \
         integration tests, so this indicates a manifest wiring problem)",
        bin.display()
    );
    let out = Command::new(&bin)
        .env("PARGEO_N", SMOKE_N)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
    assert!(
        out.status.success(),
        "example '{name}' exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !out.stdout.is_empty(),
        "example '{name}' printed nothing — walkthroughs should narrate"
    );
}

#[test]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
fn convex_hull_3d_runs() {
    run_example("convex_hull_3d");
}

#[test]
fn spatial_graphs_runs() {
    run_example("spatial_graphs");
}

#[test]
fn dynamic_points_runs() {
    run_example("dynamic_points");
}

#[test]
fn geostore_runs() {
    run_example("geostore");
}

#[test]
fn smoke_covers_every_example() {
    // Keep EXAMPLES and the per-example tests in sync with the manifest.
    let listed: std::collections::BTreeSet<_> = EXAMPLES.iter().copied().collect();
    assert_eq!(listed.len(), 5);
}
