//! In-memory span recorder for the traced run.
//!
//! Each span is one call into a layer's public function: name, start, end,
//! parent, plus the process's `VmRSS`/`VmHWM` sampled right after the call
//! returns. Spans stay in memory and are rendered once, at the end of the
//! run, so recording costs two `Instant` reads and one procfs read per call.

use sqlog_obs::{mem, Json};
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
    rss_before: u64,
    rss_after: u64,
    hwm_after: u64,
}

/// The span list of one process.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Times `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn begin(&mut self, name: &str) -> usize {
        let rss_before = mem::current_rss_bytes().unwrap_or(0);
        let span = Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0,
            rss_before,
            rss_after: 0,
            hwm_after: 0,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` and samples memory after it.
    fn end(&mut self, id: usize) {
        let end_us = self.now_us();
        let s = &mut self.spans[id];
        s.end_us = end_us;
        s.rss_after = mem::current_rss_bytes().unwrap_or(0);
        s.hwm_after = mem::peak_rss_bytes().unwrap_or(0);
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.remove(pos);
        }
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .sum()
    }

    /// Milliseconds covered by the top-level spans (no parent) — the layer
    /// time that the process wall time is reconciled against.
    pub fn top_level_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .sum()
    }

    /// Resident-set growth across the spans named `name`, in MiB.
    pub fn rss_delta_mb(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.rss_after as f64 - s.rss_before as f64) / MIB)
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as a JSON array; `process` tags which harness process
    /// recorded them (span ids are process-local).
    pub fn to_json(&self, process: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("process", Json::Str(process.to_string())),
                        ("id", Json::U64(id as u64)),
                        ("name", Json::Str(s.name.clone())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("start_us", Json::U64(s.start_us)),
                        ("end_us", Json::U64(s.end_us)),
                        ("rss_mb", Json::F64(s.rss_after as f64 / MIB)),
                        ("hwm_mb", Json::F64(s.hwm_after as f64 / MIB)),
                    ])
                })
                .collect(),
        )
    }
}

const MIB: f64 = 1024.0 * 1024.0;
