//! In-memory spans for the traced run: name, start, end, the span that
//! caused it, and the query it belongs to. Recorded from the benchmark's
//! side of each call into a layer and written to `trace.json` at exit.
//! Counts are taken at the same boundaries, as deltas of the
//! `columnar::metrics` registry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use s2rdf_columnar::metrics;

use crate::json;

/// Counters and gauges of the `columnar::metrics` registry.
fn registry() -> BTreeMap<String, u64> {
    metrics::snapshot()
        .entries
        .into_iter()
        .filter_map(|e| match e.value {
            metrics::SnapshotValue::Counter(v) | metrics::SnapshotValue::Gauge(v) => {
                Some((e.name, v))
            }
            metrics::SnapshotValue::Histogram { .. } => None,
        })
        .collect()
}

/// The registry while it records, for an enabled tracer; `stop` ends the
/// recording.
pub struct Counting(Option<BTreeMap<String, u64>>);

impl Counting {
    pub fn stop(self) -> Counted {
        let Some(before) = self.0 else {
            return Counted::default();
        };
        let after = registry();
        metrics::set_enabled(false);
        Counted { before, after }
    }
}

/// What the registry counted between `Tracer::count` and `Counting::stop`;
/// nothing, for a tracer that is disabled.
#[derive(Default)]
pub struct Counted {
    before: BTreeMap<String, u64>,
    after: BTreeMap<String, u64>,
}

impl Counted {
    /// The increase of `columnar.<name>`.
    pub fn get(&self, name: &str) -> f64 {
        let name = format!("columnar.{name}");
        let read = |m: &BTreeMap<String, u64>| m.get(&name).copied().unwrap_or(0);
        read(&self.after).saturating_sub(read(&self.before)) as f64
    }
}

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<usize>,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing: what the untraced run passes to the
    /// loops it shares with the traced run.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: Option<usize>,
    ) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open(name, parent, query);
        let result = f();
        self.close(id);
        result
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Starts counting what the registry sees. A disabled tracer leaves the
    /// registry off, so the untraced run pays nothing for it.
    pub fn count(&self) -> Counting {
        Counting(self.enabled.then(|| {
            metrics::set_enabled(true);
            registry()
        }))
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    pub fn total_micros(&self, name: &str) -> f64 {
        self.micros(name).iter().sum()
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_micros(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::micros)
            .sum();
        (self.spans[id].micros() - children).max(0.0)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"unit\": \"us\", \"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start\": {}, \"end\": {}, \"self\": {}, \"parent\": {}, \"query\": {}}}{}",
                json::string(span.name),
                json::number(span.start_ns as f64 / 1e3),
                json::number(span.end_ns as f64 / 1e3),
                json::number(self.self_micros(id)),
                opt(span.parent),
                opt(span.query),
                if id + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_json_parses() {
        let mut t = Tracer::new();
        let root = t.open("query", None, Some(7));
        t.time("parse", Some(root), Some(7), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("eval", Some(root), Some(7), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let children = t.total_micros("parse") + t.total_micros("eval");
        assert!(children >= 4000.0);
        assert!((t.self_micros(root) - (t.micros("query")[0] - children)).abs() < 1e-6);
        let doc = json::parse(&t.to_json()).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[1].get("parent").and_then(json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(spans[0].get("parent"), Some(&json::Json::Null));
    }
}
