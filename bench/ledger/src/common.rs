//! What every workload shares: the run configuration, the outcome of one
//! repetition, the metric map, and the process-memory probes.

use std::collections::BTreeMap;

/// Which pools a repetition runs on. The gated numbers are `One`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Every pool at one thread (`parlay::with_threads(1, ..)`,
    /// `GeoStoreBuilder::threads(1)`): the paper's T1.
    One,
    /// Whatever pool the caller installed (or the global one); stores are
    /// built without `.threads(..)` so they run on it too.
    Ambient,
}

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// Every size of the workload is divided by this: 1 for the recorded
    /// sizes, 10 for the oracle twin, 20 for `--smoke`.
    pub div: usize,
    pub threads: Threads,
}

impl Cfg {
    /// A recorded size at this configuration's scale.
    pub fn size(&self, full: usize) -> usize {
        (full / self.div).max(1)
    }

    pub fn with_div(self, div: usize) -> Cfg {
        Cfg { div, ..self }
    }

    pub fn with_threads(self, threads: Threads) -> Cfg {
        Cfg { threads, ..self }
    }
}

/// Result of replaying a workload's stream once.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Order-sensitive digest of the discrete content of every answer.
    pub digest: u64,
    /// Digest of the generated inputs (data, queries, boxes, batch shapes).
    pub stream_digest: u64,
    /// Operations issued (library calls / requests inside `execute`).
    pub attempted: u64,
    /// Operations that returned `Err` or a wrong answer.
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds another replay's counts and failure notes to this total.
    pub fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.iter().cloned());
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Wall-clock seconds of one invocation of `f`.
pub fn secs_of(f: impl FnOnce()) -> f64 {
    let started = std::time::Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs `f` with every pool it inherits at one thread.
pub fn at_one_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    pargeo::parlay::with_threads(1, f)
}
