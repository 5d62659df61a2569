//! `ledger` — the repository's one benchmark. One process runs one of six
//! frozen workloads, checks every answer, and prints its metrics by name
//! and unit as one JSON object on the last line of standard output.
//!
//! ```text
//! ledger --workload <name> [--seed 42] [--seconds 10] [--trace 0|1] [--smoke]
//! ledger --print-anchors
//! ```
//!
//! Protocol, metric glossary and workload rationale: `bench/README.md`.

mod common;
mod gen;
mod heap;
mod index;
mod kernels;
mod metrics;
mod out;
mod rec;
mod store;
mod traced;

use common::{at_one_thread, peak_rss_mb, Cfg, Metrics, Outcome, Threads};
use rec::{Rec, RepTimes};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;
use std::time::{Duration, Instant};

/// Knobs of the library's old bench harness and build parameters. A run
/// with any of them set would not measure the recorded configuration.
const FORBIDDEN_ENV: [&str; 5] = [
    "PARGEO_GRAIN",
    "PARGEO_LEAF",
    "PARGEO_N",
    "PARGEO_THREADS",
    "PARGEO_SCALE",
];

/// The first forbidden variable that `is_set` reports.
fn first_forbidden(is_set: impl Fn(&str) -> bool) -> Option<&'static str> {
    FORBIDDEN_ENV.into_iter().find(|v| is_set(v))
}

/// Repetitions are started until `--seconds` have passed, but never fewer
/// than this (and `--smoke` runs exactly one).
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;
pub const DEFAULT_SEED: u64 = 42;
pub const SMOKE_DIV: usize = 20;
pub const TWIN_DIV: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Kernels,
    Index,
    Store(store::Kind),
}

impl Workload {
    /// The six workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 6] = [
        Workload::Kernels,
        Workload::Index,
        Workload::Store(store::Kind::Serve),
        Workload::Store(store::Kind::Churn),
        Workload::Store(store::Kind::Analytics),
        Workload::Store(store::Kind::Pinned),
    ];

    pub fn of(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "geom-kernels",
            Workload::Index => "index-batch",
            Workload::Store(k) => k.name(),
        }
    }

    pub fn sizes_json(self, cfg: &Cfg) -> String {
        match self {
            Workload::Kernels => kernels::sizes_json(cfg),
            Workload::Index => index::sizes_json(cfg),
            Workload::Store(k) => store::Shape::of(k, cfg).json(),
        }
    }

    /// One repetition on the workload's own configuration.
    pub fn rep(self, cfg: &Cfg, rec: &mut Rec) -> (Outcome, RepTimes) {
        let r = self.rep_with_facts(cfg, rec);
        (r.out, r.times)
    }

    /// [`rep`](Self::rep), keeping what the traced run's per-layer metrics
    /// read off the structures the repetition built.
    pub fn rep_with_facts(self, cfg: &Cfg, rec: &mut Rec) -> RepFacts {
        match self {
            Workload::Kernels => {
                let (out, times) = kernels::rep(cfg, rec);
                RepFacts {
                    out,
                    times,
                    ..RepFacts::default()
                }
            }
            Workload::Index => {
                let (out, times, facts) = index::rep(cfg, rec);
                RepFacts {
                    out,
                    times,
                    index: Some(facts),
                    ..RepFacts::default()
                }
            }
            Workload::Store(k) => {
                let r = store::rep(k, cfg, &store::Variant::base(k), rec);
                RepFacts {
                    out: r.out,
                    times: r.times,
                    store: Some(r.extras),
                    ..RepFacts::default()
                }
            }
        }
    }

    /// The oracle twin at a tenth of `cfg`'s sizes, on the ambient pool.
    pub fn verify(self, cfg: &Cfg) -> Outcome {
        let twin = cfg
            .with_div(cfg.div * TWIN_DIV)
            .with_threads(Threads::Ambient);
        match self {
            Workload::Kernels => kernels::verify(&twin),
            Workload::Index => index::verify(&twin),
            Workload::Store(k) => store::verify(k, &twin),
        }
    }
}

#[derive(Default)]
pub struct RepFacts {
    pub out: Outcome,
    pub times: RepTimes,
    pub store: Option<store::Extras>,
    pub index: Option<index::Facts>,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: ledger --workload <{}> [--seed <u64>] [--seconds <n>] [--trace 0|1] [--smoke]\n       ledger --print-anchors",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (DEFAULT_SEED, 10.0, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::of(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// The anchor recorded for `(workload, div)`: `(stream digest, answer
/// digest)` at the default seed.
fn anchor(workload: &str, div: usize) -> Option<(u64, u64)> {
    include_str!("../../anchors/digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && f[1].parse() == Ok(div)).then(|| {
                (
                    u64::from_str_radix(f[2], 16).unwrap_or(0),
                    u64::from_str_radix(f[3], 16).unwrap_or(0),
                )
            })
        })
}

/// At the default seed the digests must equal the recorded anchors.
pub fn check_anchor(args: &Args, cfg: &Cfg, out: &mut Outcome) {
    if args.seed != DEFAULT_SEED {
        return;
    }
    match anchor(args.workload.name(), cfg.div) {
        Some((stream, answers)) if (stream, answers) == (out.stream_digest, out.digest) => {}
        Some((stream, answers)) => out.fail(format!(
            "digests {:016x}/{:016x} differ from the anchors {stream:016x}/{answers:016x}",
            out.stream_digest, out.digest
        )),
        None => out.fail(format!("no anchor recorded for div {}", cfg.div)),
    }
}

/// The untraced run: repetitions at T1 for `--seconds`, then the twin.
/// The first repetition is the one whose heap is counted.
fn run_untraced(args: &Args, cfg: &Cfg) -> (Outcome, Metrics, Vec<RepTimes>) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    let (reps, peak_heap_mb) = at_one_thread(|| {
        let mut rec = Rec::new(false);
        let (first, peak) = heap::peak_mb_during(|| args.workload.rep(cfg, &mut rec));
        let mut reps = vec![first];
        while reps.len() < min_reps
            || (!args.smoke && started.elapsed() < budget && reps.len() < MAX_REPS)
        {
            reps.push(args.workload.rep(cfg, &mut rec));
        }
        (reps, peak)
    });
    let mut total = args.workload.verify(cfg);
    for (i, (out, _)) in reps.iter().enumerate() {
        total.absorb(out);
        if (out.digest, out.stream_digest) != (reps[0].0.digest, reps[0].0.stream_digest) {
            total.fail(format!(
                "repetition {i} answered differently from repetition 0"
            ));
        }
    }
    total.digest = reps[0].0.digest;
    total.stream_digest = reps[0].0.stream_digest;
    check_anchor(args, cfg, &mut total);

    let times: Vec<RepTimes> = reps.into_iter().map(|(_, t)| t).collect();
    let best = rec::fastest_calls(&times);
    let mut m = Metrics::new();
    m.insert("setup_s", (best.setup_ns as f64 * 1e-9, "s"));
    m.insert("t1_s", (best.t1_ns as f64 * 1e-9, "s"));
    m.insert("peak_heap_mb", (peak_heap_mb, "MB"));
    // For the result file only: what the kernel saw, allocator policy included.
    m.insert("vm_hwm_mb", (peak_rss_mb(), "MB"));
    (total, m, times)
}

fn print_anchors() {
    println!(
        "# <workload> <size divisor> <stream digest> <answer digest>, at seed {DEFAULT_SEED}."
    );
    println!("# Regenerate with `ledger --print-anchors` after a deliberate change of sizes.");
    for workload in Workload::ALL {
        let name = workload.name();
        for div in [1, SMOKE_DIV] {
            let cfg = Cfg {
                seed: DEFAULT_SEED,
                div,
                threads: Threads::One,
            };
            let (out, _) = at_one_thread(|| workload.rep(&cfg, &mut Rec::new(false)));
            println!(
                "{name} {div} {:016x} {:016x}",
                out.stream_digest, out.digest
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(var) = first_forbidden(|v| std::env::var_os(v).is_some()) {
        eprintln!("ledger: refusing to run with {var} set: the recorded sizes and pools would not be measured");
        return ExitCode::from(2);
    }
    if argv == ["--print-anchors"] {
        print_anchors();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = Cfg {
        seed: args.seed,
        div: if args.smoke { SMOKE_DIV } else { 1 },
        threads: Threads::One,
    };
    let (outcome, metrics, file) = if args.trace {
        let (outcome, metrics, rec) = traced::run(&args, &cfg);
        let file = out::trace_file(&args, &cfg, &outcome, &metrics, &rec);
        (
            outcome,
            metrics,
            (format!("trace-{}.json", args.workload.name()), file),
        )
    } else {
        let (outcome, metrics, times) = run_untraced(&args, &cfg);
        let file = out::result_file(&args, &cfg, &outcome, &metrics, &times);
        (
            outcome,
            metrics,
            (format!("result-{}.json", args.workload.name()), file),
        )
    };
    for note in &outcome.notes {
        eprintln!("ledger: FAILED {note}");
    }
    out::write_out_file(&file.0, &file.1);
    let expected: &[(&str, &str)] = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!("{}", out::result_line(&outcome, &metrics, expected));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
