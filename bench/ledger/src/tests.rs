//! Self-tests of the benchmark: `cargo test --manifest-path
//! bench/ledger/Cargo.toml`. They run every workload at `--smoke` sizes.

use crate::common::{at_one_thread, Cfg, Threads};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rec::Rec;
use crate::{anchor, first_forbidden, parse_args, Workload, DEFAULT_SEED, SMOKE_DIV};

fn smoke(seed: u64) -> Cfg {
    Cfg {
        seed,
        div: SMOKE_DIV,
        threads: Threads::One,
    }
}

fn all() -> impl Iterator<Item = Workload> {
    Workload::ALL.into_iter()
}

#[test]
fn streams_and_answers_are_a_function_of_the_seed() {
    for w in all() {
        let run = |seed| at_one_thread(|| w.rep(&smoke(seed), &mut Rec::new(false)).0);
        let (a, b, c) = (run(7), run(7), run(8));
        assert_eq!(a.stream_digest, b.stream_digest, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_ne!(a.stream_digest, c.stream_digest, "{}", w.name());
    }
}

#[test]
fn smoke_pass_verifies_against_the_oracle_and_the_anchors() {
    let started = std::time::Instant::now();
    for w in all() {
        let cfg = smoke(DEFAULT_SEED);
        let twin = w.verify(&cfg);
        assert_eq!(twin.failed, 0, "{}: {:?}", w.name(), twin.notes);
        assert!(twin.attempted > 0);
        let (out, _) = at_one_thread(|| w.rep(&cfg, &mut Rec::new(false)));
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
        assert_eq!(
            anchor(w.name(), SMOKE_DIV),
            Some((out.stream_digest, out.digest)),
            "{}: rerun `ledger --print-anchors` only after a deliberate change",
            w.name()
        );
        // Another seed passes the twin too.
        assert_eq!(w.verify(&smoke(7)).failed, 0, "{}", w.name());
    }
    assert!(started.elapsed().as_secs() < 20);
}

#[test]
fn class_sums_add_up_to_t1_and_spans_cover_the_repetition() {
    // A quarter of the recorded sizes: at `--smoke` sizes a repetition is
    // tens of milliseconds and allocator calls between spans would count.
    let cfg = Cfg {
        div: 4,
        ..smoke(DEFAULT_SEED)
    };
    // Other tests run on the other threads meanwhile, and a descheduling
    // between two calls lands in the gap this test measures: interference
    // only ever adds time, so each workload gets three attempts.
    for w in all() {
        let attempt = || {
            let mut rec = Rec::new(true);
            let (_, times) = at_one_thread(|| w.rep(&cfg, &mut rec));
            let (calls, t1) = (times.calls_sum_ns() as f64, times.t1_ns as f64);
            ((calls - t1).abs() / t1, rec.coverage(0))
        };
        let attempts: Vec<(f64, f64)> = (0..3).map(|_| attempt()).collect();
        assert!(
            attempts
                .iter()
                .any(|&(gap, coverage)| gap <= 0.02 && coverage >= 0.98),
            "{}: (gap between calls and t1, span coverage) = {attempts:?}",
            w.name()
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let end = start + text[start..].find(']').expect("list end");
        text[start..end].to_string()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let body = section(key);
        assert_eq!(body.matches("\"name\"").count(), table.len(), "{key}");
        for (name, unit) in table {
            assert!(
                body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{key}: {name} [{unit}] missing from BENCHMARK.json"
            );
        }
    }
    let workloads = section("workloads");
    for name in Workload::ALL.map(Workload::name) {
        assert_eq!(Workload::of(name).map(Workload::name), Some(name));
        assert!(
            workloads.contains(&format!("\"name\": \"{name}\"")),
            "{name}"
        );
    }
}

#[test]
fn arguments_and_environment_are_checked() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv(
        "--workload store-serve --seed 9 --seconds 3 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.workload.name(), a.seed, a.seconds, a.trace, a.smoke),
        ("store-serve", 9, 3.0, true, false)
    );
    assert!(parse_args(&argv("--workload nope")).is_err());
    assert!(parse_args(&argv("--seed 1")).is_err());
    assert!(parse_args(&argv("--workload index-batch --trace 2")).is_err());
    assert!(parse_args(&argv("--workload index-batch --seconds 0")).is_err());
    assert_eq!(first_forbidden(|v| v == "PARGEO_LEAF"), Some("PARGEO_LEAF"));
    assert_eq!(first_forbidden(|_| false), None);
}
