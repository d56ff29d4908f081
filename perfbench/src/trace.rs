//! In-memory spans and counts of the traced run, recorded by the benchmark
//! around its calls into each layer and written out when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end)` in ns since the trace epoch.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
}

/// Spans plus counts recorded at the same boundaries.
pub struct Trace {
    epoch: Instant,
    /// The request every new span and count belongs to.
    req: u64,
    spans: Vec<Span>,
    counts: Vec<(&'static str, u64, f64)>,
}

impl Trace {
    pub fn new() -> Self {
        Trace { epoch: Instant::now(), req: 0, spans: Vec::new(), counts: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Attributes the following spans and counts to request `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, req: self.req });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// [`Trace::time`] when tracing; otherwise just runs `f`.
    pub fn maybe<T>(
        tr: &mut Option<&mut Trace>,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        match tr {
            Some(t) => t.time(name, parent, f),
            None => f(),
        }
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, self.req, value));
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Per parent span, the summed durations (µs) of its children named
    /// `names[i]`, in `names` order; only parents with a child named
    /// `names[0]` count.
    pub fn sibling_sums_us(&self, names: &[&str]) -> Vec<Vec<f64>> {
        let mut by_parent: HashMap<usize, (bool, Vec<f64>)> = HashMap::new();
        for s in &self.spans {
            if let (Some(p), Some(i)) = (s.parent, names.iter().position(|n| *n == s.name)) {
                let group = by_parent.entry(p).or_insert_with(|| (false, vec![0.0; names.len()]));
                group.0 |= i == 0;
                group.1[i] += (s.end - s.start) as f64 / 1e3;
            }
        }
        by_parent.into_values().filter(|g| g.0).map(|g| g.1).collect()
    }

    /// Every value recorded for count `name`.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.counts.iter().filter(|c| c.0 == name).map(|c| c.2).collect()
    }

    /// Per request, the sum of count `name` (requests that recorded none
    /// are skipped).
    pub fn per_req_sums(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for &(n, req, v) in &self.counts {
            if n != name {
                continue;
            }
            match sums.last_mut() {
                Some((r, s)) if *r == req => *s += v,
                _ => sums.push((req, v)),
            }
        }
        sums.into_iter().map(|(_, s)| s).collect()
    }

    /// Sum over the run of count `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.values(name).iter().fold(0.0, |a, b| a + b)
    }

    /// The spans as CSV: `id,name,start_ns,end_ns,parent,req`.
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("id,name,start_ns,end_ns,parent,req\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(out, "{i},{},{},{},{parent},{}", s.name, s.start, s.end, s.req);
        }
        out
    }
}
