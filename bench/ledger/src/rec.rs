//! The recorder: every call the benchmark makes into a layer goes through
//! [`Rec::call`], which times it from outside, adds it to its class sum and
//! latency sample, and — on a traced run — keeps a span in memory.
//!
//! The untraced path takes the same two `Instant` reads per call; tracing
//! only adds a `Vec` push, which is why the reported tracing overhead is
//! expected to stay at the noise floor.

use std::time::Instant;

/// Request class of a timed call. A workload's `t1_s` is the sum over
/// classes; which classes a workload uses is fixed by its definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Build, insert, delete.
    Write,
    /// k-NN, range.
    Read,
    /// Hull, SEB, closest pair, EMST, graphs — through the store.
    Derived,
    /// One mixed window through the pipelined executor.
    Window,
    /// Direct convex-hull kernel call.
    Hull,
    /// Direct smallest-enclosing-ball kernel call.
    Seb,
    /// Direct closest-pair kernel call.
    ClosestPair,
}

pub const CLASSES: [Class; 7] = [
    Class::Write,
    Class::Read,
    Class::Derived,
    Class::Window,
    Class::Hull,
    Class::Seb,
    Class::ClosestPair,
];

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Write => "write",
            Class::Read => "read",
            Class::Derived => "derived",
            Class::Window => "window",
            Class::Hull => "hull",
            Class::Seb => "seb",
            Class::ClosestPair => "closestpair",
        }
    }
}

/// One recorded interval. `parent` is an index into the span list
/// (`u32::MAX` for a root); `rep` and `window` tie the spans of one
/// repetition / one window together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub rep: u32,
    pub window: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// One timed call of a repetition's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    pub class: Class,
    pub name: &'static str,
    pub ns: u64,
}

/// Timings of one repetition.
#[derive(Debug, Clone, Default)]
pub struct RepTimes {
    /// Generation + prefill/build, wherever in the repetition it ran.
    pub setup_ns: u64,
    /// Wall time of the timed section minus the set-up that ran inside it.
    pub t1_ns: u64,
    /// Every timed call, in stream order.
    pub calls: Vec<Call>,
    /// Duration of every set-up call (generation, request building,
    /// prefill), in stream order.
    pub setup_calls_ns: Vec<u64>,
    /// Points produced by generator calls during set-up, and their time.
    pub gen_pts: u64,
    pub gen_ns: u64,
}

impl RepTimes {
    fn of_class(&self, c: Class) -> impl Iterator<Item = u64> + '_ {
        self.calls
            .iter()
            .filter(move |call| call.class == c)
            .map(|call| call.ns)
    }

    /// Total time in calls of one class, in seconds.
    pub fn class_s(&self, c: Class) -> f64 {
        self.of_class(c).sum::<u64>() as f64 * 1e-9
    }

    /// Total time in the calls with this name, in seconds.
    pub fn named_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .calls
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.ns)
            .sum();
        ns as f64 * 1e-9
    }

    pub fn calls_sum_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.ns).sum()
    }

    /// Quantile of one class's call latencies in ms; 0 when the class has
    /// no calls.
    pub fn lat_ms(&self, c: Class, q: f64) -> f64 {
        let mut v: Vec<u64> = self.of_class(c).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        quantile_sorted(&v, q) * 1e-6
    }
}

/// The noise-free estimate of a stream's times from several repetitions:
/// every call does the same work in every repetition and interference only
/// ever adds time, so each call counts with the fastest of its executions.
/// `t1_ns` of the result is the sum of those, `setup_ns` the sum of the
/// fastest set-up calls. On a box whose speed drifts over seconds this
/// repeats far better than the fastest whole repetition, which needs one
/// quiet slice as long as the stream; it is never larger.
pub fn fastest_calls(reps: &[RepTimes]) -> RepTimes {
    let Some(first) = reps.first() else {
        return RepTimes::default();
    };
    let mut best = first.clone();
    for rep in &reps[1..] {
        assert_eq!(
            rep.calls.len(),
            best.calls.len(),
            "repetitions issue the same calls"
        );
        for (b, c) in best.calls.iter_mut().zip(&rep.calls) {
            debug_assert_eq!((b.class, b.name), (c.class, c.name));
            b.ns = b.ns.min(c.ns);
        }
        for (b, c) in best.setup_calls_ns.iter_mut().zip(&rep.setup_calls_ns) {
            *b = (*b).min(*c);
        }
        best.gen_ns = best.gen_ns.min(rep.gen_ns);
    }
    best.setup_ns = best.setup_calls_ns.iter().sum();
    best.t1_ns = best.calls_sum_ns();
    best
}

/// Nearest-rank quantile of a sorted sample.
pub fn quantile_sorted(v: &[u64], q: f64) -> f64 {
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Min, quartiles and median of a float sample (linear interpolation
/// between order statistics, as `statistics.quantiles(.., n=4,
/// method="inclusive")` gives them).
pub fn five_numbers(values: &[f64]) -> [f64; 5] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [v[0], at(0.25), at(0.5), at(0.75), v[v.len() - 1]]
}

pub struct Rec {
    origin: Instant,
    tracing: bool,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    rep: u32,
    window: u32,
    cur: RepTimes,
    rep_span: u32,
    rep_start: Instant,
    timed_start: Option<Instant>,
    setup_in_timed_ns: u64,
}

impl Rec {
    pub fn new(tracing: bool) -> Self {
        Rec {
            origin: Instant::now(),
            tracing,
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
            window: 0,
            cur: RepTimes::default(),
            rep_span: NO_PARENT,
            rep_start: Instant::now(),
            timed_start: None,
            setup_in_timed_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a structural span (repetition, window); returns its handle.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.tracing {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            rep: self.rep,
            window: self.window,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id));
        self.spans[id as usize].end_ns = self.now_ns();
    }

    fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        if self.tracing {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                rep: self.rep,
                window: self.window,
            });
        }
        (r, end - start)
    }

    /// A timed call into a layer: one latency sample of `class`.
    pub fn call<R>(&mut self, class: Class, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.leaf(name, f);
        self.cur.calls.push(Call { class, name, ns });
        r
    }

    /// Set-up work (generation, prefill, request building). Before
    /// [`start_timed`](Self::start_timed) the whole section counts as
    /// set-up by wall time and this only records the span; inside the timed
    /// section the call is moved from `t1` to set-up.
    pub fn setup<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.leaf(name, f);
        self.cur.setup_calls_ns.push(ns);
        if self.timed_start.is_some() {
            self.cur.setup_ns += ns;
            self.setup_in_timed_ns += ns;
        }
        r
    }

    /// Set-up work that is a `datagen` call producing `pts` points.
    pub fn generate<R>(&mut self, pts: usize, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.leaf("datagen.generate", f);
        self.cur.setup_calls_ns.push(ns);
        if self.timed_start.is_some() {
            self.cur.setup_ns += ns;
            self.setup_in_timed_ns += ns;
        }
        self.cur.gen_ns += ns;
        self.cur.gen_pts += pts as u64;
        r
    }

    /// The benchmark's own answer checking inside a timed section: kept
    /// out of both `t1` and set-up.
    pub fn check<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.leaf("bench.check", f);
        if self.timed_start.is_some() {
            self.setup_in_timed_ns += ns;
        }
        r
    }

    pub fn set_window(&mut self, w: u32) {
        self.window = w;
    }

    /// Starts a repetition; everything until `start_timed` is set-up.
    pub fn begin_rep(&mut self) {
        self.rep_span = self.enter("rep");
        self.rep_start = Instant::now();
    }

    /// Starts the timed section of the current repetition.
    pub fn start_timed(&mut self) {
        self.cur.setup_ns += self.rep_start.elapsed().as_nanos() as u64;
        self.timed_start = Some(Instant::now());
        self.setup_in_timed_ns = 0;
    }

    /// Ends the timed section and the repetition; returns its timings.
    pub fn finish_rep(&mut self) -> RepTimes {
        let start = self.timed_start.take().expect("start_timed was called");
        let wall = start.elapsed().as_nanos() as u64;
        self.cur.t1_ns = wall.saturating_sub(self.setup_in_timed_ns);
        self.exit(self.rep_span);
        self.rep += 1;
        self.window = 0;
        std::mem::take(&mut self.cur)
    }

    /// Share of the repetition span's wall time covered by leaf spans.
    pub fn coverage(&self, rep: u32) -> f64 {
        let root = self
            .spans
            .iter()
            .find(|s| s.rep == rep && s.parent == NO_PARENT && s.name == "rep");
        let Some(root) = root else { return 0.0 };
        let is_parent: std::collections::HashSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.parent != NO_PARENT)
            .map(|s| s.parent)
            .collect();
        let leaves: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.rep == rep && !is_parent.contains(&(*i as u32)) && s.name != "rep")
            .map(|(_, s)| s.end_ns - s.start_ns)
            .sum();
        leaves as f64 / (root.end_ns - root.start_ns).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_inclusive() {
        let q = five_numbers(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(quantile_sorted(&[10, 20, 30, 40], 0.5), 20.0);
        assert_eq!(quantile_sorted(&[10, 20, 30, 40], 0.95), 40.0);
    }

    #[test]
    fn setup_inside_the_timed_section_is_not_t1() {
        let mut rec = Rec::new(true);
        rec.begin_rep();
        rec.start_timed();
        rec.setup("s", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        rec.call(Class::Hull, "c", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let t = rec.finish_rep();
        assert!(t.setup_ns >= 20_000_000);
        assert!(t.t1_ns >= 20_000_000 && t.t1_ns < 35_000_000, "{}", t.t1_ns);
        assert!(rec.coverage(0) > 0.9);
        assert_eq!(t.named_s("c"), t.class_s(Class::Hull));
    }

    #[test]
    fn fastest_calls_takes_each_call_from_its_best_repetition() {
        let rep = |hull: [u64; 2], setup: u64| RepTimes {
            calls: hull
                .map(|ns| Call {
                    class: Class::Hull,
                    name: "h",
                    ns,
                })
                .to_vec(),
            setup_calls_ns: vec![setup],
            ..RepTimes::default()
        };
        let best = fastest_calls(&[rep([10, 50], 7), rep([30, 20], 5)]);
        assert_eq!(
            best.calls.iter().map(|c| c.ns).collect::<Vec<_>>(),
            [10, 20]
        );
        assert_eq!((best.t1_ns, best.setup_ns), (30, 5));
    }
}
