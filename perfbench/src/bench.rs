//! What every workload shares: the run configuration, the operation
//! ledger, the metric list, the engine under test and the ingest schedule
//! the layer replay follows.

use crate::stats::Summary;
use cosy::AnalysisReport;
use engine::{AnalysisEngine, Engine, EngineBuilder, EngineError, LintGate};
use online::{FsyncPolicy, RunKey, TraceEvent};
use std::collections::HashMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shards of the durable engine under test.
pub const SHARDS: usize = 2;

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Durable state and span output go here.
    pub work_dir: PathBuf,
}

impl Config {
    /// A fresh (emptied) directory for durable state.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Operations attempted and failed. An operation is an ingest, send,
/// flush, reopen or correctness comparison; a failure is an error, a
/// refusal or a mismatch.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// Count one fallible operation; `None` when it failed.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one comparison.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(format!("mismatch: {what}"));
        }
        ok
    }

    /// Log a failure another process counted.
    pub fn note(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Add another process's operation counts.
    pub fn absorb(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count `n` operations that all succeeded (a stream of sends whose
    /// only failure mode is an error already counted by `op`).
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// A named, unit-carrying measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value, sample count and quartiles.
    pub summary: Summary,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric summarised from samples.
    pub fn samples(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        self.put(name, unit, Summary::of(values));
    }

    /// Add a single measured value.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.put(name, unit, Summary::single(value));
    }

    /// Add a metric with a ready summary.
    pub fn put(&mut self, name: &'static str, unit: &'static str, summary: Summary) {
        self.0.push(Metric {
            name,
            unit,
            summary,
        });
    }
}

/// Build the durable two-shard engine of every workload in `dir`.
///
/// The log is not synced per append (`FsyncPolicy::Never`): the state
/// lives on whatever device holds the working directory, and per-append
/// device syncs there made wire-upload's throughput vary by a fifth between
/// runs. Appends still reach the page cache before they are applied, so
/// the state survives a process kill; the layer replay times the syncs
/// the default policy would add (`wal.sync_ms`).
pub fn open_engine(dir: &Path, gate: LintGate) -> Result<Engine, EngineError> {
    EngineBuilder::new()
        .durable(dir)
        .shards(SHARDS)
        .fsync(FsyncPolicy::Never)
        .lint(gate)
        .build()
}

/// The shard each run is routed to.
pub fn routes(engine: &Engine, runs: impl Iterator<Item = RunKey>) -> HashMap<RunKey, usize> {
    let Engine::ShardedDurable(sharded) = engine else {
        return runs.map(|r| (r, 0)).collect();
    };
    runs.filter_map(|r| sharded.shard_of_run(r).map(|s| (r, s)))
        .collect()
}

/// One call the engine receives, in order: what the layer replay repeats.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// `ingest_batch` of these events.
    Ingest(&'a [TraceEvent]),
    /// `flush`.
    Flush,
}

/// Ingest `events` in pipeline-sized batches, then flush.
pub fn batched_steps(events: &[TraceEvent]) -> Vec<Step<'_>> {
    let mut steps: Vec<Step<'_>> = events.chunks(crate::gen::BATCH).map(Step::Ingest).collect();
    steps.push(Step::Flush);
    steps
}

/// A durable engine's state after it was dropped without a final
/// checkpoint: what a recovery reopens.
#[derive(Clone)]
pub struct DroppedState {
    /// The session directory.
    pub dir: PathBuf,
    /// Its reports, read before the drop.
    pub reports: HashMap<RunKey, AnalysisReport>,
    /// Bytes on disk after the drop.
    pub bytes: u64,
}

/// Reopen dropped state; returns the reopen time in seconds. The engine's
/// reports must equal the ones read before the drop.
pub fn recover(
    state: &DroppedState,
    tracer: &mut crate::trace::Tracer,
    ledger: &mut Ledger,
) -> Option<f64> {
    let t = Instant::now();
    let span = tracer.open("engine.recover", None);
    let reopened = open_engine(&state.dir, LintGate::Warn);
    let reports = reopened.as_ref().ok().map(|e| e.reports());
    tracer.close(span);
    let elapsed = t.elapsed().as_secs_f64();
    ledger.op("reopen", reopened)?;
    let same = reports
        .is_some_and(|r| crate::canon::canonical(&r) == crate::canon::canonical(&state.reports));
    ledger
        .check("recovered reports == reports before the drop", same)
        .then_some(elapsed)
}

/// Drop `engine` without a checkpoint and describe what it left behind.
pub fn drop_engine(engine: Engine, dir: PathBuf) -> DroppedState {
    let reports = engine.reports();
    drop(engine);
    DroppedState {
        bytes: crate::host::dir_bytes(&dir),
        dir,
        reports,
    }
}
