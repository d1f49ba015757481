//! In-memory span recorder for the traced runs, written out as a chrome
//! trace when the run ends.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each crate's public functions; nothing inside the program is
//! instrumented.

use gpucmp_trace::Json;
use std::time::Instant;

/// Spans kept per run; later spans still count toward the layer totals
/// but are not written out, which bounds the trace file.
pub const MAX_SPANS: usize = 50_000;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or operation name.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (campaign row, kernel build, client operation) the
    /// span belongs to.
    pub request: u64,
    /// Track: client thread or pass.
    pub tid: u32,
}

/// Collects spans against one epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// A recorder whose time zero is `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds from the epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index, or `None` once
    /// [`MAX_SPANS`] are kept.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        tid: u32,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            tid,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span whose end is not known yet (a parent of spans
    /// recorded before it ends); close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        request: u64,
        tid: u32,
    ) -> Option<usize> {
        self.record(name, start, start, parent, request, tid)
    }

    /// Set the end of an opened span.
    pub fn close(&mut self, idx: Option<usize>, end: Instant) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Move every span of `other` (same epoch) into this recorder,
    /// keeping parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        for mut s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        self.dropped += other.dropped;
    }

    /// Recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event document: one complete (`ph: X`) event per
    /// span, with its index, parent index and request id in `args`.
    pub fn chrome_trace(&self, process: &str) -> Json {
        let mut events = vec![Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u32)),
            ("args", Json::obj([("name", Json::from(process))])),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::from(s.name)),
                ("ph", Json::from("X")),
                ("pid", Json::from(1u32)),
                ("tid", Json::from(s.tid)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::from(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("request", Json::from(s.request)),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
            ("droppedSpans", Json::from(self.dropped)),
        ])
    }
}

/// Write `doc` to `out/<file>` beside the benchmark's manifest.
pub fn write_trace(file: &str, doc: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, doc.to_text())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn chrome_trace_keeps_parents_and_requests() {
        let t0 = Instant::now();
        let mut s = Spans::new(t0);
        let root = s.open("pass", t0, None, 0, 0);
        let child = s.record("sim.launch", t0, t0 + Duration::from_micros(5), root, 7, 0);
        s.close(root, t0 + Duration::from_micros(9));
        let mut other = Spans::new(t0);
        let r2 = other.record("op", t0, t0 + Duration::from_micros(2), None, 1, 1);
        other.record("read", t0, t0 + Duration::from_micros(1), r2, 1, 1);
        s.absorb(other);
        assert_eq!(s.spans()[3].parent, Some(2));
        let doc = gpucmp_trace::parse(&s.chrome_trace("test").to_text()).unwrap();
        let ev = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 5);
        let launch = &ev[1 + child.unwrap()];
        assert_eq!(launch.get("name").unwrap().as_str(), Some("sim.launch"));
        assert_eq!(launch.get("dur").unwrap().as_f64(), Some(5.0));
        let args = launch.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_i64(), Some(0));
        assert_eq!(args.get("request").unwrap().as_i64(), Some(7));
        assert_eq!(ev[1].get("dur").unwrap().as_f64(), Some(9.0));
    }
}
