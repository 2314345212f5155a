//! The session layer: one always-on analysis service core multiplexing
//! many concurrent measurement streams.
//!
//! [`OnlineSession`] is the shared, thread-safe object the ingestion
//! pipeline's shard workers feed. It owns the [`StoreBuilder`] (live store
//! and interning) and the [`IncrementalAnalyzer`] (live reports) behind one
//! mutex; ingestion appends events and accumulates the pending
//! [`StoreDelta`], and [`OnlineSession::flush`] turns the pending delta
//! into refreshed reports (the incremental engine evaluates all dirty
//! instances of a version in one call on the shared worker pool).

use crate::builder::{StoreBuilder, StoreDelta};
use crate::error::FlushError;
use crate::event::{IngestError, RunKey, TraceEvent};
use crate::incremental::{IncrementalAnalyzer, IncrementalStats};
use asl_core::check::CheckedSpec;
use cosy::{AnalysisReport, Backend, ProblemThreshold};
use obs::{MetricsRegistry, MetricsSnapshot, MetricsSource};
use perfdata::Store;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Session configuration.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Severity threshold above which a property is a performance problem.
    pub threshold: ProblemThreshold,
    /// Flush automatically once this many events are pending (0 disables
    /// auto-flush; the pipeline and `flush()` remain the triggers).
    pub auto_flush_events: usize,
    /// Evaluation backend for the incremental engine. Defaults to the
    /// compiled IR; the interpreter remains available as a reference
    /// oracle for validation and baselining.
    pub backend: Backend,
    /// The property suite to evaluate. `None` means the standard suite;
    /// a custom pre-checked suite is shared (and lowered to the compiled
    /// IR once) across the session's whole life, recovery included.
    pub spec: Option<Arc<CheckedSpec>>,
}

/// Aggregate observability counters of a session.
///
/// `events_applied`/`events_rejected`/`runs_finished` are **lifetime**
/// counters: a recovered session restores them from the snapshot and
/// continues counting through the replayed WAL tail, so a restart reports
/// its true history instead of zeros. `flushes` and the incremental
/// counters describe work done by *this* process (recovery's replay flush
/// included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Events applied to the store.
    pub events_applied: u64,
    /// Events rejected with an [`IngestError`].
    pub events_rejected: u64,
    /// Events restored at startup by the recovery path (snapshot events
    /// plus replayed WAL-tail events); 0 for a session born empty.
    pub events_replayed: u64,
    /// Analysis flushes performed.
    pub flushes: u64,
    /// Runs declared finished by their producer.
    pub runs_finished: u64,
    /// Incremental-engine counters.
    pub incremental: IncrementalStats,
}

impl MetricsSource for SessionStats {
    fn collect_into(&self, out: &mut MetricsSnapshot) {
        let SessionStats {
            events_applied,
            events_rejected,
            events_replayed,
            flushes,
            runs_finished,
            incremental,
        } = self;
        out.push_counter("kojak_online_events_applied_total", *events_applied);
        out.push_counter("kojak_online_events_rejected_total", *events_rejected);
        out.push_counter("kojak_online_events_replayed_total", *events_replayed);
        out.push_counter("kojak_online_flushes_total", *flushes);
        out.push_counter("kojak_online_runs_finished_total", *runs_finished);
        incremental.collect_into(out);
    }
}

struct SessionInner {
    builder: StoreBuilder,
    analyzer: IncrementalAnalyzer,
    pending: StoreDelta,
    pending_events: usize,
    rejected: u64,
    replayed: u64,
}

/// A live, thread-safe online analysis session.
pub struct OnlineSession {
    inner: Mutex<SessionInner>,
    config: SessionConfig,
    /// Per-session metric set (shared with the durable wrapper, the WAL
    /// writer and the pipeline; merged across shards by the engine layer).
    registry: Arc<MetricsRegistry>,
    /// Pre-created stage handles — the hot path never takes the registry
    /// lock.
    apply_ns: Arc<obs::Histogram>,
    flush_ns: Arc<obs::Histogram>,
}

impl OnlineSession {
    fn analyzer_for(
        config: &SessionConfig,
        registry: &Arc<MetricsRegistry>,
    ) -> IncrementalAnalyzer {
        let analyzer = match &config.spec {
            Some(spec) => IncrementalAnalyzer::with_spec(Arc::clone(spec), config.threshold),
            None => IncrementalAnalyzer::new(config.threshold),
        };
        analyzer
            .with_backend(config.backend)
            .with_registry(Arc::clone(registry))
    }

    fn assemble(
        config: SessionConfig,
        inner: SessionInner,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let apply_ns = registry.histogram("kojak_online_apply_ns");
        let flush_ns = registry.histogram("kojak_online_flush_ns");
        OnlineSession {
            inner: Mutex::new(inner),
            config,
            registry,
            apply_ns,
            flush_ns,
        }
    }

    /// Create a session with the configured suite (the standard one unless
    /// [`SessionConfig::spec`] overrides it).
    pub fn new(config: SessionConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let analyzer = Self::analyzer_for(&config, &registry);
        Self::assemble(
            config,
            SessionInner {
                builder: StoreBuilder::new(),
                analyzer,
                pending: StoreDelta::new(),
                pending_events: 0,
                rejected: 0,
                replayed: 0,
            },
            registry,
        )
    }

    /// Rebuild a session from recovered state: the snapshotted builder,
    /// the finished-run set, and the restored lifetime counters. The
    /// pending delta is seeded with a full re-evaluation of every known
    /// run, so the first flush recomputes every live report from the
    /// recovered store (deterministically identical to the reports the
    /// crashed session would have shown after its own next flush).
    pub(crate) fn from_recovered(
        config: SessionConfig,
        builder: StoreBuilder,
        finished: Vec<perfdata::TestRunId>,
        rejected: u64,
    ) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let mut analyzer = Self::analyzer_for(&config, &registry);
        analyzer.restore_finished(finished.iter().copied());
        let mut pending = StoreDelta::new();
        for (_, run, version) in builder.runs() {
            pending.full_runs.insert(run);
            pending.touched_versions.insert(version);
        }
        pending.finished_runs.extend(finished);
        Self::assemble(
            config,
            SessionInner {
                builder,
                analyzer,
                pending,
                pending_events: 0,
                rejected,
                replayed: 0,
            },
            registry,
        )
    }

    /// Record how many events the recovery path restored (for
    /// [`SessionStats::events_replayed`]).
    pub(crate) fn note_replayed(&self, n: u64) {
        self.lock().replayed += n;
    }

    /// Run `f` over the session's persistent state — builder, finished
    /// runs, rejected counter — under the session lock (the snapshot
    /// writer's consistent read).
    pub(crate) fn snapshot_state<R>(
        &self,
        f: impl FnOnce(&StoreBuilder, &[perfdata::TestRunId], u64) -> R,
    ) -> R {
        let inner = self.lock();
        let finished: Vec<perfdata::TestRunId> = inner.analyzer.finished_runs().collect();
        f(&inner.builder, &finished, inner.rejected)
    }

    /// Producer keys of every run the session knows about (unordered).
    /// The sharded engine rebuilds its run→shard affinity map from this
    /// after recovery.
    pub fn run_keys(&self) -> Vec<RunKey> {
        self.lock().builder.runs().map(|(k, _, _)| k).collect()
    }

    /// Producer keys of the runs declared finished (and flushed).
    pub fn finished_run_keys(&self) -> Vec<RunKey> {
        let inner = self.lock();
        inner
            .analyzer
            .finished_runs()
            .filter_map(|id| inner.builder.run_key_of(id))
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ingest one event. Structural/timing effects are applied to the live
    /// store immediately; analysis is deferred to the next flush.
    pub fn ingest(&self, event: &TraceEvent) -> Result<(), IngestError> {
        self.ingest_batch(std::slice::from_ref(event)).map(|_| ())
    }

    /// Ingest a batch of events (the pipeline's unit of work). Events are
    /// isolated: a rejected event is counted and skipped, the rest of the
    /// batch still applies. Returns the number of applied events, or the
    /// *first* rejection (after the whole batch was attempted).
    pub fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, IngestError> {
        let mut inner = self.lock();
        let SessionInner {
            builder, pending, ..
        } = &mut *inner;
        let (applied, failure) = {
            let _stage = self.apply_ns.start_timer();
            builder.apply_batch(events, pending)
        };
        inner.rejected += (events.len() - applied) as u64;
        inner.pending_events += applied;
        let auto = self.config.auto_flush_events;
        if auto > 0 && inner.pending_events >= auto {
            // On failure the delta is re-queued (see `flush_inner`), so the
            // error genuinely resurfaces on the next explicit flush.
            let _ = self.flush_inner(&mut inner);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    fn flush_inner(&self, inner: &mut SessionInner) -> Result<Vec<RunKey>, FlushError> {
        let delta = std::mem::take(&mut inner.pending);
        inner.pending_events = 0;
        if delta.is_empty() {
            return Ok(Vec::new());
        }
        let _stage = self.flush_ns.start_timer();
        let SessionInner {
            builder,
            analyzer,
            pending,
            ..
        } = inner;
        match analyzer.flush(builder.store(), &delta) {
            Ok(updated) => Ok(updated
                .into_iter()
                .filter_map(|run| builder.run_key_of(run))
                .collect()),
            Err(e) => {
                // Nothing was invalidated-and-forgotten: re-queue the delta
                // so the next flush retries the same work.
                pending.merge(delta);
                Err(e)
            }
        }
    }

    /// Analyze everything pending. Returns the producer keys of the runs
    /// whose live report changed. On failure the invalidated delta is
    /// re-queued, so the same [`FlushError`] resurfaces (and the same work
    /// retries) on the next flush.
    pub fn flush(&self) -> Result<Vec<RunKey>, FlushError> {
        self.flush_inner(&mut self.lock())
    }

    /// True once the run's producer declared it finished and that event
    /// has been flushed.
    pub fn is_finished(&self, run: RunKey) -> bool {
        let inner = self.lock();
        inner
            .builder
            .run_id(run)
            .is_some_and(|id| inner.analyzer.is_finished(id))
    }

    /// The live report of a run (as of the last flush).
    pub fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        let inner = self.lock();
        let id = inner.builder.run_id(run)?;
        inner.analyzer.report(id).cloned()
    }

    /// All live reports keyed by producer run key.
    pub fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        let inner = self.lock();
        inner
            .analyzer
            .reports()
            .filter_map(|(id, r)| inner.builder.run_key_of(id).map(|k| (k, r.clone())))
            .collect()
    }

    /// A snapshot of the live store (clone; the live store keeps moving).
    pub fn store_snapshot(&self) -> Store {
        self.lock().builder.store().clone()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SessionStats {
        let inner = self.lock();
        SessionStats {
            events_applied: inner.builder.events_applied(),
            events_rejected: inner.rejected,
            events_replayed: inner.replayed,
            flushes: inner.analyzer.stats().flushes,
            runs_finished: inner.analyzer.finished_count() as u64,
            incremental: inner.analyzer.stats(),
        }
    }

    /// The session's metric registry: the stage histograms this session
    /// records into, shared with its durable wrapper, WAL writer and any
    /// pipeline feeding it. Hold handles from it rather than re-looking
    /// names up per event.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// One composable snapshot of everything this session knows about
    /// itself: the [`SessionStats`] counters plus the registry's stage
    /// histograms. Process-global metrics (the compiled-eval cache) are
    /// deliberately *not* included — a sharded engine merges many of
    /// these snapshots, and globals must be added exactly once at the top
    /// (see `eval_cache_metrics` in the crate root).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut out = self.stats().metrics();
        self.registry.collect_into(&mut out);
        out
    }

    /// The configured problem threshold.
    pub fn threshold(&self) -> ProblemThreshold {
        self.config.threshold
    }
}

impl Default for OnlineSession {
    fn default() -> Self {
        OnlineSession::new(SessionConfig::default())
    }
}
