//! Output: the one-line result the caller parses, and the result / trace
//! files under `bench/out/` that carry the header and everything else.

use crate::common::{nproc, Cfg, Metrics, Outcome};
use crate::rec::{five_numbers, Rec, RepTimes, CLASSES};
use crate::Args;

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            '\n' => q.push_str("\\n"),
            c if (c as u32) < 0x20 => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

fn metrics_json<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let fields: Vec<String> = items
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being the `expected` set.
pub fn result_line(outcome: &Outcome, metrics: &Metrics, expected: &[(&str, &str)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(expected.iter().map(|&(name, unit)| (
            name,
            metrics.get(name).map_or(0.0, |m| m.0),
            unit
        )))
    )
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every result file starts with.
fn header(args: &Args, cfg: &Cfg, reps: usize, threads_used: &[usize]) -> String {
    format!(
        "\"header\": {{\"workload\": {}, \"nproc\": {}, \"git_commit\": {}, \"rustc\": {}, \"seed\": {}, \"reps\": {}, \"seconds\": {}, \"size_divisor\": {}, \"sizes\": {}, \"threads_used\": {:?}, \"traced\": {}}}",
        quote(args.workload.name()),
        nproc(),
        quote(&git_commit()),
        quote(&rustc_version()),
        cfg.seed,
        reps,
        num(args.seconds),
        cfg.div,
        args.workload.sizes_json(cfg),
        threads_used,
        args.trace
    )
}

fn outcome_json(outcome: &Outcome) -> String {
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"stream_digest\": \"{:016x}\", \"answer_digest\": \"{:016x}\"",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.stream_digest,
        outcome.digest
    )
}

fn all_metrics_json(metrics: &Metrics) -> String {
    metrics_json(
        metrics
            .iter()
            .map(|(&name, &(value, unit))| (name, value, unit)),
    )
}

/// `result-<workload>.json`: header, the end-to-end metrics, and for every
/// time series over repetitions its min, quartiles and median, so the
/// spread behind each reported minimum is visible.
pub fn result_file(
    args: &Args,
    cfg: &Cfg,
    outcome: &Outcome,
    metrics: &Metrics,
    times: &[RepTimes],
) -> String {
    let series = |name: &str, values: Vec<f64>| {
        let [min, q1, median, q3, max] = five_numbers(&values);
        format!(
            "{}: {{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"values\": [{}]}}",
            quote(name),
            num(min),
            num(q1),
            num(median),
            num(q3),
            num(max),
            values.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", ")
        )
    };
    let mut rows = vec![
        series(
            "setup_s",
            times.iter().map(|t| t.setup_ns as f64 * 1e-9).collect(),
        ),
        series(
            "t1_s",
            times.iter().map(|t| t.t1_ns as f64 * 1e-9).collect(),
        ),
    ];
    for class in CLASSES {
        if times
            .iter()
            .all(|t| t.calls.iter().all(|c| c.class != class))
        {
            continue;
        }
        rows.push(series(
            &format!("{}_s", class.label()),
            times.iter().map(|t| t.class_s(class)).collect(),
        ));
        rows.push(series(
            &format!("{}_p50_ms", class.label()),
            times.iter().map(|t| t.lat_ms(class, 0.5)).collect(),
        ));
    }
    format!(
        "{{{}, {}, \"metrics\": {}, \"repetitions\": {{{}}}}}\n",
        header(args, cfg, times.len(), &[1]),
        outcome_json(outcome),
        all_metrics_json(metrics),
        rows.join(", ")
    )
}

/// `trace-<workload>.json`: header, per-layer metrics and every span.
pub fn trace_file(
    args: &Args,
    cfg: &Cfg,
    outcome: &Outcome,
    metrics: &Metrics,
    rec: &Rec,
) -> String {
    let spans: Vec<String> = rec
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"workload\": {}, \"rep\": {}, \"window\": {}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                if s.parent == u32::MAX { "null".into() } else { s.parent.to_string() },
                quote(args.workload.name()),
                s.rep,
                s.window
            )
        })
        .collect();
    format!(
        "{{{}, {}, \"metrics\": {}, \"spans\": [\n{}\n]}}\n",
        header(args, cfg, 1, &[1, nproc()]),
        outcome_json(outcome),
        all_metrics_json(metrics),
        spans.join(",\n")
    )
}

/// Writes a file under `bench/out/`. The files are a by-product: a failure
/// to write them is reported and does not fail the run.
pub fn write_out_file(name: &str, content: &str) {
    let dir = std::path::Path::new("bench/out");
    let result = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), content));
    if let Err(e) = result {
        eprintln!("ledger: could not write bench/out/{name}: {e}");
    }
}
