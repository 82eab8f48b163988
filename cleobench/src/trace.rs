//! Outside-in tracing: spans recorded around public calls, and decorators
//! installed at the program's trait-object seams.
//!
//! The benchmark never reaches inside the program.  It records a span around
//! every public call it makes, and where a public seam accepts a trait object
//! it installs a decorator that forwards every method and records the call:
//! a [`TracingProvider`] around the cluster router (handed to
//! `SharedOptimizer::new`) and a [`TracingCostModel`] around each model the
//! router serves.  That is how route and cost spans are seen even inside the
//! serving pool's worker threads.  Spans stay in memory until the run ends.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use cleo_engine::physical::{JobMeta, PhysicalNode};
use cleo_engine::types::ClusterId;
use cleo_optimizer::{CostModel, CostModelProvider, ServedModel, SweepSpec};

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    to_ns(Instant::now())
}

/// An [`Instant`] as nanoseconds since the trace epoch (0 if earlier).
pub fn to_ns(t: Instant) -> u64 {
    t.saturating_duration_since(*epoch()).as_nanos() as u64
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Identifier of the calling thread within this process (dense, from 0).
pub fn thread_no() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NO.with(|n| *n)
}

/// Request id of spans that belong to no single request.
pub const NO_REQUEST: u64 = u64::MAX;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed: a public call or a derived interval.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// Index of the parent span in the run's span list, once linked.
    pub parent: Option<usize>,
    /// Request (job) the span serves, or [`NO_REQUEST`].
    pub request: u64,
    /// Thread that recorded it.
    pub thread: u32,
    /// Work items in the call (candidate rows for cost calls).
    pub rows: u32,
    /// Whether the interval was computed from figures the program reports
    /// rather than timed around a call.
    pub derived: bool,
}

impl Span {
    /// A timed span with no parent yet.
    pub fn timed(name: &'static str, start: u64, end: u64, request: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent: None,
            request,
            thread: thread_no(),
            rows: 0,
            derived: false,
        }
    }

    /// Duration in ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One NDJSON line.
    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        let request = if self.request == NO_REQUEST {
            "null".to_string()
        } else {
            self.request.to_string()
        };
        format!(
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{request},\
             \"thread\":{},\"rows\":{},\"derived\":{}}}",
            self.name, self.start, self.end, self.thread, self.rows, self.derived
        )
    }
}

/// Nanoseconds of `[start, end)` covered by at least one of `children`
/// (clipped to the interval, overlaps counted once).
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// In-memory span sink.  Threads append to one of a few stripes picked by
/// thread number, so pool workers rarely contend.
pub struct Recorder {
    stripes: Vec<Mutex<Vec<Span>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            stripes: (0..16).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

impl Recorder {
    /// Append one span.
    pub fn record(&self, span: Span) {
        let stripe = &self.stripes[span.thread as usize % self.stripes.len()];
        stripe.lock().expect("span stripe poisoned").push(span);
    }

    /// Take every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .stripes
            .iter()
            .flat_map(|s| std::mem::take(&mut *s.lock().expect("span stripe poisoned")))
            .collect();
        all.sort_by_key(|s| (s.start, s.end));
        all
    }
}

/// Time `f` as a span named `name` for `request`.
pub fn timed<R>(rec: &Recorder, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    let out = f();
    rec.record(Span::timed(name, start, now_ns(), request));
    out
}

/// Span names the decorators record.
pub mod names {
    /// `CostModelProvider::route_stamp`.
    pub const ROUTE_STAMP: &str = "route_stamp";
    /// `CostModelProvider::snapshot_for` (and the job-agnostic snapshots).
    pub const SNAPSHOT: &str = "snapshot_for";
    /// `CostModelProvider::note_cached_route`.
    pub const CACHED_ROUTE: &str = "note_cached_route";
    /// `CostModelProvider::note_serving_outcomes`.
    pub const OUTCOMES: &str = "note_serving_outcomes";
    /// A `CostModel` call for one job.
    pub const COST: &str = "cost";
    /// A coalesced `exclusive_cost_sweeps` call, seen from one more job it
    /// served (the call itself is recorded once as [`COST`]).
    pub const COST_SHARE: &str = "cost_share";
}

/// Whether a span name is one of the provider's routing calls.
pub fn is_route(name: &str) -> bool {
    matches!(
        name,
        names::ROUTE_STAMP | names::SNAPSHOT | names::CACHED_ROUTE
    )
}

/// A served model and the decorator wrapped around it.
type Wrapped = (Arc<dyn CostModel>, Arc<dyn CostModel>);

/// Decorator around a [`CostModelProvider`]: forwards every method
/// unchanged, records a span per routing call, and wraps each model it hands
/// out in a [`TracingCostModel`].
pub struct TracingProvider {
    inner: Arc<dyn CostModelProvider>,
    rec: Arc<Recorder>,
    /// `(inner, wrapper)` pairs: one wrapper per served model allocation, so
    /// two jobs served by the same snapshot still share one model identity
    /// (the serving path coalesces final costing by that identity).
    wrappers: Mutex<Vec<Wrapped>>,
}

impl TracingProvider {
    /// Decorate `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn CostModelProvider>, rec: Arc<Recorder>) -> Self {
        TracingProvider {
            inner,
            rec,
            wrappers: Mutex::new(Vec::new()),
        }
    }

    fn wrap(&self, model: Arc<dyn CostModel>) -> Arc<dyn CostModel> {
        let mut wrappers = self.wrappers.lock().expect("wrapper table poisoned");
        let key = Arc::as_ptr(&model) as *const ();
        if let Some((_, w)) = wrappers
            .iter()
            .find(|(m, _)| Arc::as_ptr(m) as *const () == key)
        {
            return Arc::clone(w);
        }
        let wrapper: Arc<dyn CostModel> = Arc::new(TracingCostModel::new(
            Arc::clone(&model),
            Arc::clone(&self.rec),
        ));
        wrappers.push((model, Arc::clone(&wrapper)));
        wrapper
    }

    fn wrap_served(&self, served: ServedModel) -> ServedModel {
        ServedModel {
            model: self.wrap(served.model),
            ..served
        }
    }
}

impl CostModelProvider for TracingProvider {
    fn current(&self) -> Arc<dyn CostModel> {
        let model = timed(&self.rec, names::SNAPSHOT, NO_REQUEST, || {
            self.inner.current()
        });
        self.wrap(model)
    }

    fn current_version(&self) -> u64 {
        self.inner.current_version()
    }

    fn snapshot(&self) -> (Arc<dyn CostModel>, u64) {
        let (model, version) = timed(&self.rec, names::SNAPSHOT, NO_REQUEST, || {
            self.inner.snapshot()
        });
        (self.wrap(model), version)
    }

    fn snapshot_for(&self, meta: &JobMeta) -> ServedModel {
        let served = timed(&self.rec, names::SNAPSHOT, meta.id.0, || {
            self.inner.snapshot_for(meta)
        });
        self.wrap_served(served)
    }

    fn route_stamp(&self, meta: &JobMeta) -> u64 {
        timed(&self.rec, names::ROUTE_STAMP, meta.id.0, || {
            self.inner.route_stamp(meta)
        })
    }

    fn note_cached_route(&self, meta: &JobMeta, served: &ServedModel) {
        timed(&self.rec, names::CACHED_ROUTE, meta.id.0, || {
            self.inner.note_cached_route(meta, served)
        })
    }

    fn wants_serving_outcomes(&self) -> bool {
        self.inner.wants_serving_outcomes()
    }

    fn note_serving_outcomes(&self, batch_seq: u64, outcomes: &[(ClusterId, bool)]) {
        timed(&self.rec, names::OUTCOMES, NO_REQUEST, || {
            self.inner.note_serving_outcomes(batch_seq, outcomes)
        })
    }
}

/// Decorator around a served [`CostModel`]: forwards every method unchanged
/// and records one span per call, tagged with the job it costs.
pub struct TracingCostModel {
    inner: Arc<dyn CostModel>,
    rec: Arc<Recorder>,
}

impl TracingCostModel {
    /// Decorate `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn CostModel>, rec: Arc<Recorder>) -> Self {
        TracingCostModel { inner, rec }
    }

    fn cost_span(&self, start: u64, request: u64, rows: usize) {
        let mut span = Span::timed(names::COST, start, now_ns(), request);
        span.rows = rows as u32;
        self.rec.record(span);
    }
}

impl CostModel for TracingCostModel {
    fn exclusive_cost(&self, node: &PhysicalNode, partitions: usize, meta: &JobMeta) -> f64 {
        let start = now_ns();
        let cost = self.inner.exclusive_cost(node, partitions, meta);
        self.cost_span(start, meta.id.0, 1);
        cost
    }

    fn exclusive_cost_batch(
        &self,
        node: &PhysicalNode,
        partitions: &[usize],
        meta: &JobMeta,
    ) -> Vec<f64> {
        let start = now_ns();
        let costs = self.inner.exclusive_cost_batch(node, partitions, meta);
        self.cost_span(start, meta.id.0, partitions.len());
        costs
    }

    fn exclusive_cost_sweeps(&self, sweeps: &[SweepSpec]) -> Vec<Vec<f64>> {
        let start = now_ns();
        let costs = self.inner.exclusive_cost_sweeps(sweeps);
        let end = now_ns();
        let rows: usize = sweeps.iter().map(|s| s.partitions.len()).sum();
        let mut jobs: Vec<u64> = sweeps.iter().map(|s| s.meta.id.0).collect();
        jobs.dedup();
        let first = jobs.first().copied().unwrap_or(NO_REQUEST);
        let mut span = Span::timed(names::COST, start, end, first);
        span.rows = rows as u32;
        self.rec.record(span);
        for &job in jobs.iter().skip(1) {
            self.rec
                .record(Span::timed(names::COST_SHARE, start, end, job));
        }
        costs
    }

    fn partition_coefficients(&self, node: &PhysicalNode, meta: &JobMeta) -> Option<(f64, f64)> {
        let start = now_ns();
        let out = self.inner.partition_coefficients(node, meta);
        self.cost_span(start, meta.id.0, 2);
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
