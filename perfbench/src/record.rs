//! The traced run's instruments: a recording [`Backend`] wrapper that logs
//! every device call, and an in-memory span store.
//!
//! Spans are kept in memory while the benchmark runs and written out as
//! JSON lines when it ends. A span's self time is its duration minus the
//! part of it that its children cover (children may overlap when a pool
//! runs members concurrently, so the covered part is a union).

use qcut_circuit::circuit::Circuit;
use qcut_device::backend::{
    Backend, BackendError, BatchRun, BatchStats, ExecutionResult, JobResult, JobSpec,
};
use qcut_device::pool::BackendPool;
use qcut_device::timing::TimingModel;
use qcut_sim::counts::Counts;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One histogram a device call delivered.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// `Circuit::structural_hash` of the executed circuit.
    pub hash: u64,
    /// Shots executed.
    pub shots: u64,
    /// The measured histogram.
    pub counts: Counts,
}

/// One call into a backend: its host interval and what it did.
#[derive(Debug, Clone)]
pub struct DeviceCall {
    /// Host clock when the call entered the backend.
    pub start: Instant,
    /// Host clock when the call returned.
    pub end: Instant,
    /// Jobs submitted.
    pub jobs: u64,
    /// Shots requested across the submitted jobs.
    pub shots: u64,
    /// The backend's simulation accounting for the call.
    pub stats: BatchStats,
    /// Successful jobs' histograms.
    pub delivered: Vec<Delivered>,
}

/// Device calls recorded since the last [`DeviceLog::take`]. Shared by
/// every recording wrapper of one workload (all members of a pool).
#[derive(Debug, Default)]
pub struct DeviceLog {
    calls: Mutex<Vec<DeviceCall>>,
}

impl DeviceLog {
    /// Drains the recorded calls in the order they returned.
    pub fn take(&self) -> Vec<DeviceCall> {
        std::mem::take(&mut *self.calls.lock().expect("device log poisoned"))
    }

    fn push(&self, call: DeviceCall) {
        self.calls.lock().expect("device log poisoned").push(call);
    }
}

/// A backend that forwards every trait method to `inner`, exactly as
/// `impl Backend for &B` does, and logs the three execution entry points.
#[derive(Debug)]
pub struct Recording<B> {
    inner: B,
    log: Arc<DeviceLog>,
}

impl<B: Backend> Recording<B> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: B, log: Arc<DeviceLog>) -> Self {
        Recording { inner, log }
    }

    fn record(
        &self,
        start: Instant,
        jobs: &[JobSpec<'_>],
        results: &[JobResult],
        stats: BatchStats,
    ) {
        let end = Instant::now();
        let delivered = jobs
            .iter()
            .zip(results)
            .filter_map(|(job, result)| {
                result.as_ref().ok().map(|r| Delivered {
                    hash: job.circuit.structural_hash(),
                    shots: job.shots,
                    counts: r.counts.clone(),
                })
            })
            .collect();
        self.log.push(DeviceCall {
            start,
            end,
            jobs: jobs.len() as u64,
            shots: jobs.iter().map(|j| j.shots).sum(),
            stats,
            delivered,
        });
    }
}

impl<B: Backend> Backend for Recording<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn timing(&self) -> &TimingModel {
        self.inner.timing()
    }
    fn run(&self, circuit: &Circuit, shots: u64) -> Result<ExecutionResult, BackendError> {
        let start = Instant::now();
        let result = self.inner.run(circuit, shots);
        let jobs = [JobSpec::new(circuit, shots)];
        let results = [result];
        self.record(
            start,
            &jobs,
            &results,
            BatchStats::unshared(&jobs, &results),
        );
        let [result] = results;
        result
    }
    fn run_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<JobResult> {
        let start = Instant::now();
        let results = self.inner.run_batch(jobs);
        self.record(start, jobs, &results, BatchStats::unshared(jobs, &results));
        results
    }
    fn run_batch_stats(&self, jobs: &[JobSpec<'_>]) -> BatchRun {
        let start = Instant::now();
        let run = self.inner.run_batch_stats(jobs);
        self.record(start, jobs, &run.results, run.stats);
        run
    }
    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }
    fn is_fault_prone(&self) -> bool {
        self.inner.is_fault_prone()
    }
    fn deterministic_seeding(&self) -> bool {
        self.inner.deterministic_seeding()
    }
    fn noise_score(&self) -> f64 {
        self.inner.noise_score()
    }
    fn as_pool(&self) -> Option<&BackendPool> {
        self.inner.as_pool()
    }
    fn check(&self, circuit: &Circuit, shots: u64) -> Result<(), BackendError> {
        self.inner.check(circuit, shots)
    }
}

/// One timed interval of one request.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the parent span in the store, `None` for a root.
    pub parent: Option<usize>,
    /// Layer or stage name.
    pub name: &'static str,
    /// Start, nanoseconds since the store's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the store's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store. Span ids are indices into it.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            request,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that ends at the matching [`Trace::close`].
    pub fn open(&mut self, request: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = Instant::now();
        self.push(request, parent, name, now, now)
    }

    /// Ends a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Self time of span `id` in nanoseconds. Spans of one request are
    /// stored together, so only the spans after `id` of the same request
    /// can be its children.
    pub fn self_ns_of(&self, id: usize) -> u64 {
        let request = self.spans[id].request;
        let kids = self.spans[id + 1..]
            .iter()
            .take_while(|s| s.request == request)
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        uncovered_ns(&self.spans[id], kids)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The part of `span` that none of the `kids` intervals covers.
fn uncovered_ns(span: &Span, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let (a, b) = (a.max(reach), b.min(span.end_ns));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.duration_ns() - covered
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}
