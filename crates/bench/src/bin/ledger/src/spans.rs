//! The ledger's own spans: one record per call the benchmark makes into
//! a layer, kept in memory and written out as a Chrome trace when the
//! run ends. Spans inside the crates are a later change; these sit at
//! the boundary, in the benchmark's files.

use nopfs_obs::Json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Identifies a span within a run: the lane that recorded it and its
/// index in that lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId {
    lane: u32,
    index: u32,
}

#[derive(Debug, Clone)]
pub struct Span {
    /// Static for the per-batch spans, so that recording one allocates
    /// nothing.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

/// One thread's spans. Each thread of the benchmark records into its
/// own lane (no lock on the consumer's path); lanes are merged into the
/// run's [`Trace`] after the threads have joined.
#[derive(Debug)]
pub struct Lane {
    lane: u32,
    origin: Instant,
    spans: Vec<Span>,
}

impl Lane {
    /// Opens a span; close it with [`Lane::end`].
    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
        });
        SpanId {
            lane: self.lane,
            index: (self.spans.len() - 1) as u32,
        }
    }

    pub fn end(&mut self, id: SpanId) {
        debug_assert_eq!(
            id.lane, self.lane,
            "a span closes on the lane that opened it"
        );
        self.spans[id.index as usize].end_ns = self.now_ns();
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        start: Instant,
    ) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// All spans of one run.
#[derive(Debug)]
pub struct Trace {
    run_id: u64,
    origin: Instant,
    lanes: BTreeMap<u32, Vec<Span>>,
}

impl Trace {
    pub fn new(run_id: u64) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            lanes: BTreeMap::new(),
        }
    }

    /// Takes lane `lane` out of the trace for one thread to record
    /// into (span indices continue where the lane left off); hand it
    /// back with [`Trace::merge`].
    pub fn lane(&mut self, lane: u32) -> Lane {
        Lane {
            lane,
            origin: self.origin,
            spans: self.lanes.remove(&lane).unwrap_or_default(),
        }
    }

    pub fn merge(&mut self, lane: Lane) {
        let prev = self.lanes.insert(lane.lane, lane.spans);
        assert!(prev.is_none(), "lane {} was out twice at once", lane.lane);
    }

    pub fn len(&self) -> usize {
        self.lanes.values().map(Vec::len).sum()
    }

    /// Self time per span name, seconds, largest first: a span's
    /// duration minus the part of it its child spans cover (children
    /// of one parent on one lane do not overlap, so their durations
    /// simply add).
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for span in self.lanes.values().flatten() {
            if let Some(p) = span.parent {
                *child_ns.entry(p).or_default() += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for (&lane, spans) in &self.lanes {
            for (index, span) in spans.iter().enumerate() {
                let id = SpanId {
                    lane,
                    index: index as u32,
                };
                let own = (span.end_ns - span.start_ns)
                    .saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
                *by_name.entry(span_family(&span.name)).or_default() += own;
            }
        }
        let mut out: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(n, ns)| (n.to_string(), ns as f64 / 1e9))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("durations are finite"));
        out
    }

    /// The run as a Chrome `trace_event` document (open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). Every event
    /// carries the run id, its own id and its parent's.
    pub fn chrome_json(&self, process_name: &str) -> Json {
        let id_of = |id: SpanId| Json::from(format!("{}.{}", id.lane, id.index));
        let mut events = vec![Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(0u64)),
            (
                "args",
                Json::obj([("name", Json::from(process_name.to_string()))]),
            ),
        ])];
        for (&lane, spans) in &self.lanes {
            for (index, span) in spans.iter().enumerate() {
                let id = SpanId {
                    lane,
                    index: index as u32,
                };
                events.push(Json::obj([
                    ("name", Json::from(span.name.to_string())),
                    ("cat", Json::from("ledger")),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(u64::from(lane))),
                    (
                        "args",
                        Json::obj([
                            ("run", Json::from(self.run_id)),
                            ("id", id_of(id)),
                            ("parent", span.parent.map_or(Json::Null, id_of)),
                        ]),
                    ),
                ]));
            }
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}

/// `epoch[3]` and `epoch[4]` are one family, `epoch`.
fn span_family(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let span = |name: &'static str, start_ns, end_ns, parent| Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        };
        let id = |lane, index| SpanId { lane, index };
        let mut trace = Trace::new(1);
        let mut main = trace.lane(0);
        main.spans.push(span("run", 0, 10_000, None));
        let mut rank = trace.lane(1);
        rank.spans
            .push(span("epoch[0]", 1_000, 9_000, Some(id(0, 0))));
        rank.spans
            .push(span("core.next_batch", 1_000, 4_000, Some(id(1, 0))));
        rank.spans
            .push(span("core.next_batch", 5_000, 7_000, Some(id(1, 0))));
        trace.merge(main);
        trace.merge(rank);
        assert_eq!(trace.len(), 4);
        // Largest first; `epoch[0]` is reported under its family.
        assert_eq!(
            trace.self_times(),
            vec![
                ("core.next_batch".to_string(), 5e-6),
                ("epoch".to_string(), 3e-6),
                ("run".to_string(), 2e-6),
            ]
        );
    }

    #[test]
    fn a_lane_taken_again_continues_its_indices() {
        let mut trace = Trace::new(1);
        let mut lane = trace.lane(3);
        let first = lane.begin("a", None);
        lane.end(first);
        trace.merge(lane);
        let mut lane = trace.lane(3);
        let second = lane.begin("b", Some(first));
        lane.end(second);
        trace.merge(lane);
        assert_eq!((first.index, second.index), (0, 1));
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn the_chrome_document_parses_back_with_parent_links() {
        let mut trace = Trace::new(9);
        let mut lane = trace.lane(0);
        let root = lane.begin("run", None);
        let child = lane.begin("fixture.materialize", Some(root));
        lane.end(child);
        lane.end(root);
        trace.merge(lane);
        let doc = Json::parse(&trace.chrome_json("ledger").render()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3, "metadata + two spans");
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_str(), Some("0.0"));
        assert_eq!(args.get("id").unwrap().as_str(), Some("0.1"));
        assert_eq!(args.get("run").unwrap().as_num(), Some(9.0));
    }
}
