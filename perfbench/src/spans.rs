//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out at exit in Chrome trace-event format.

use std::fmt::Write as _;
use std::time::Instant;

/// `scheduler.poll` spans beyond this many are still measured but left out
/// of the exported file (a traced run makes hundreds of thousands of polls);
/// every other span is exported.
const POLL_EXPORT_CAP: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span store; every span's time is relative to `epoch`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished call; returns the span's index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a parent span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its direct children
    /// cover (children of one parent never overlap — one thread records).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_us_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`ph:"X"`) slice per span with
    /// its request id and parent span index; `meta` lands in `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":\"{v}\"");
        }
        let _ = write!(
            out,
            "{}\"spans_recorded\":\"{}\"}},\"traceEvents\":[",
            if meta.is_empty() { "" } else { "," },
            self.spans.len()
        );
        out.push_str(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"generator\"}}",
        );
        let mut polls = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "scheduler.poll" {
                polls += 1;
                if polls > POLL_EXPORT_CAP {
                    continue;
                }
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"request_id\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.request
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_export_parses() {
        let mut t = Tracer::new();
        let parent = t.open("replay.group", None, 1);
        t.time("core.exec", Some(parent), 1, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.close(parent);
        let self_ns = t.self_ns();
        let spans = t.spans();
        assert_eq!(self_ns[1], spans[1].dur_ns());
        assert_eq!(self_ns[0], spans[0].dur_ns() - spans[1].dur_ns());
        let json = t.chrome_json(&[("seed", "7".into())]);
        spider_telemetry::validate_json(&json).unwrap();
        assert!(json.contains("\"parent\":0"));
    }
}
