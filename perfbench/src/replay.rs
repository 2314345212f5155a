//! The layer replay: the engine's calls of one traced pass repeated
//! layer by layer through the layers' public functions, so each layer's
//! time can be spanned from outside the program.
//!
//! * Ingest: every event goes through the wire codec (`encode_wire` +
//!   `decode_wire`), is routed to the shard the engine chose
//!   (`ShardedSession::shard_of_run`), appended to that shard's
//!   `WalWriter` (synced every 256 events, the default fsync policy) and
//!   applied by its `StoreBuilder`.
//! * Flush: each shard's `IncrementalAnalyzer::flush` over its pending
//!   delta; every 32nd flush encodes a snapshot and restarts the log (the
//!   default checkpoint cadence).
//! * Recovery: each shard's `read_snapshot` and `read_wal`, the log tail
//!   applied, and one flush of every recovered run.
//! * Batch pass: `cosy::Analyzer::analyze` taken apart into
//!   `PreparedBackend::from_compiled`, `instances_scoped`,
//!   `evaluate_instances` and `assemble_report`.
//!
//! Each part must reproduce the reports of what it replays.

use crate::bench::{Ledger, Step, SHARDS};
use crate::trace::Tracer;
use cosy::backend::PreparedBackend;
use cosy::{AnalysisReport, Analyzer, ContextScope, HeldEntry, ProblemThreshold};
use engine::sharded::shard_dir;
use online::durable::{DurableConfig, SNAPSHOT_FILE, WAL_FILE};
use online::snapshot::{encode_snapshot, read_snapshot};
use online::wal::{read_wal, WalWriter};
use online::{FsyncPolicy, IncrementalAnalyzer, RunKey, StoreBuilder, StoreDelta, TraceEvent};
use perfdata::{Store, TestRunId, VersionId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// What the layer replay did.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Events replayed.
    pub events: u64,
    /// Bytes appended to the logs.
    pub wal_bytes: u64,
    /// Size of each shard's last snapshot image, summed.
    pub snapshot_bytes: u64,
    /// Snapshots encoded.
    pub snapshots: u64,
    /// Calls of each layer (for the cross-check with the program's own
    /// histogram counts).
    pub wal_appends: u64,
    /// Non-empty flushes.
    pub flushes: u64,
    /// Property instances the incremental analyzers evaluated.
    pub instances_evaluated: u64,
    /// Runs they evaluated in full.
    pub full_reevaluations: u64,
    /// Their reports.
    pub reports: HashMap<RunKey, AnalysisReport>,
}

struct Shard {
    wal: WalWriter,
    builder: StoreBuilder,
    analyzer: IncrementalAnalyzer,
    delta: StoreDelta,
    unsynced: u64,
    flushes: u32,
    epoch: u64,
    rejected: u64,
    snapshot_bytes: u64,
}

fn collect_reports(
    builder: &StoreBuilder,
    analyzer: &IncrementalAnalyzer,
    into: &mut HashMap<RunKey, AnalysisReport>,
) {
    for (run, report) in analyzer.reports() {
        if let Some(key) = builder.run_key_of(run) {
            into.insert(key, report.clone());
        }
    }
}

/// Repeat `steps` layer by layer in `dir` (fresh shard directories).
pub fn layer_replay(
    steps: &[Step<'_>],
    routes: &HashMap<RunKey, usize>,
    dir: &Path,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<ReplayOut> {
    let sync_every = match FsyncPolicy::default() {
        FsyncPolicy::EveryN(n) => u64::from(n.max(1)),
        FsyncPolicy::Always => 1,
        FsyncPolicy::Never => u64::MAX,
    };
    let snapshot_every = DurableConfig::default().snapshot_every_flushes;
    let mut shards = Vec::with_capacity(SHARDS);
    for i in 0..SHARDS {
        let sdir = shard_dir(dir, i);
        ledger.op("replay mkdir", std::fs::create_dir_all(&sdir))?;
        let wal = WalWriter::open(&sdir.join(WAL_FILE), 0, 0, FsyncPolicy::Never);
        shards.push(Shard {
            wal: ledger.op("replay wal open", wal)?,
            builder: StoreBuilder::new(),
            analyzer: IncrementalAnalyzer::new(ProblemThreshold::default()),
            delta: StoreDelta::new(),
            unsynced: 0,
            flushes: 0,
            epoch: 0,
            rejected: 0,
            snapshot_bytes: 0,
        });
    }

    let mut out = ReplayOut::default();
    let mut buf = Vec::new();
    for step in steps {
        match *step {
            Step::Ingest(events) => {
                let decoded: Result<Vec<TraceEvent>, _> = tr.span("net.codec", None, || {
                    events
                        .iter()
                        .map(|e| {
                            buf.clear();
                            e.encode_wire(&mut buf);
                            TraceEvent::decode_wire(&buf)
                        })
                        .collect()
                });
                let decoded = ledger.op("replay decode", decoded)?;
                out.events += decoded.len() as u64;
                let mut groups: Vec<Vec<TraceEvent>> = vec![Vec::new(); SHARDS];
                for event in decoded {
                    let shard = routes.get(&event.run_key()).copied().unwrap_or(0);
                    groups[shard].push(event);
                }
                for (shard, group) in shards.iter_mut().zip(&groups) {
                    if group.is_empty() {
                        continue;
                    }
                    let before = shard.wal.len();
                    let appended =
                        tr.span("wal.append_batch", None, || shard.wal.append_batch(group));
                    ledger.op("replay wal append", appended)?;
                    out.wal_appends += 1;
                    out.wal_bytes += shard.wal.len() - before;
                    shard.unsynced += group.len() as u64;
                    if shard.unsynced >= sync_every {
                        let synced = tr.span("wal.sync", None, || shard.wal.sync());
                        ledger.op("replay wal sync", synced)?;
                        shard.unsynced = 0;
                    }
                    let (applied, _) = tr.span("builder.apply_batch", None, || {
                        shard.builder.apply_batch(group, &mut shard.delta)
                    });
                    shard.rejected += (group.len() - applied) as u64;
                }
            }
            Step::Flush => {
                for shard in &mut shards {
                    if !shard.delta.is_empty() {
                        let delta = std::mem::take(&mut shard.delta);
                        let flushed = tr.span("online.flush", None, || {
                            shard.analyzer.flush(shard.builder.store(), &delta)
                        });
                        ledger.op("replay flush", flushed)?;
                        out.flushes += 1;
                    }
                    shard.flushes += 1;
                    if shard.flushes >= snapshot_every {
                        let finished: Vec<TestRunId> = shard.analyzer.finished_runs().collect();
                        let next = shard.epoch + 1;
                        let image = tr.span("snapshot.encode", None, || {
                            encode_snapshot(&shard.builder, &finished, shard.rejected, next)
                        });
                        shard.snapshot_bytes = image.len() as u64;
                        out.snapshots += 1;
                        let reset = tr.span("wal.reset", None, || shard.wal.reset(next));
                        ledger.op("replay wal reset", reset)?;
                        shard.epoch = next;
                        shard.flushes = 0;
                        shard.unsynced = 0;
                    }
                }
            }
        }
    }
    for shard in &shards {
        let stats = shard.analyzer.stats();
        out.instances_evaluated += stats.instances_evaluated;
        out.full_reevaluations += stats.full_reevaluations;
        out.snapshot_bytes += shard.snapshot_bytes;
        collect_reports(&shard.builder, &shard.analyzer, &mut out.reports);
    }
    Some(out)
}

/// What the recovery replay did.
#[derive(Debug, Default)]
pub struct RecoveryOut {
    /// Log-tail events applied.
    pub wal_events: u64,
    /// The recovered reports.
    pub reports: HashMap<RunKey, AnalysisReport>,
}

/// Recover the dropped sharded session in `dir` layer by layer.
pub fn recovery_replay(dir: &Path, tr: &mut Tracer, ledger: &mut Ledger) -> Option<RecoveryOut> {
    let mut out = RecoveryOut::default();
    for i in 0..SHARDS {
        let sdir = shard_dir(dir, i);
        let snapshot = tr.span("recovery.read_snapshot", None, || {
            read_snapshot(&sdir.join(SNAPSHOT_FILE))
        });
        let snapshot = ledger.op("replay read snapshot", snapshot)?;
        let wal = tr.span("recovery.read_wal", None, || read_wal(&sdir.join(WAL_FILE)));
        let wal = ledger.op("replay read wal", wal)?;
        ledger.check("log read to its end", wal.corruption.is_none());

        // Seed the delta the way recovery does: every snapshotted run is
        // re-evaluated in full, finished runs stay finished.
        let mut delta = StoreDelta::new();
        let (mut builder, stale) = match snapshot {
            Some(data) => {
                for (_, run, version) in data.builder.runs() {
                    delta.full_runs.insert(run);
                    delta.touched_versions.insert(version);
                }
                delta.finished_runs.extend(data.finished);
                (data.builder, wal.epoch < data.wal_epoch)
            }
            None => (StoreBuilder::new(), false),
        };
        if !stale {
            out.wal_events += wal.events.len() as u64;
            tr.span("recovery.apply", None, || {
                builder.apply_batch(&wal.events, &mut delta)
            });
        }
        let mut analyzer = IncrementalAnalyzer::new(ProblemThreshold::default());
        if !delta.is_empty() {
            let flushed = tr.span("recovery.flush", None, || {
                analyzer.flush(builder.store(), &delta)
            });
            ledger.op("replay recovery flush", flushed)?;
        }
        collect_reports(&builder, &analyzer, &mut out.reports);
    }
    Some(out)
}

/// What the decomposed batch pass did.
#[derive(Debug, Default)]
pub struct CosyOut {
    /// Property instances enumerated.
    pub instances: u64,
    /// Instances that held.
    pub held: u64,
    /// Every run's report.
    pub reports: HashMap<RunKey, AnalysisReport>,
}

/// A batch pass over `store`, one `cosy` layer call at a time.
pub fn cosy_pass(store: &Store, tr: &mut Tracer, ledger: &mut Ledger) -> Option<CosyOut> {
    let spec = Arc::new(cosy::standard_suite());
    let compiled = Arc::new(asl_eval::compile(&spec));
    let threshold = ProblemThreshold::default();
    let mut out = CosyOut::default();
    for (v, version) in store.versions.iter().enumerate() {
        let analyzer = Analyzer::with_compiled(
            store,
            VersionId(v as u32),
            Arc::clone(&spec),
            Arc::clone(&compiled),
        );
        let analyzer = ledger.op("bind analyzer", analyzer)?;
        for &run in &version.runs {
            let key = online::replay::replay_run_key(run);
            let prepared = tr.span("cosy.prepare", Some(key.0), || {
                PreparedBackend::from_compiled(Arc::clone(&compiled), store)
            });
            let prepared = ledger.op("prepare backend", prepared)?;
            let instances = tr.span("cosy.scope", Some(key.0), || {
                analyzer.instances_scoped(run, &ContextScope::All)
            });
            let outcomes = tr.span("cosy.eval", Some(key.0), || {
                analyzer.evaluate_instances(&prepared, &instances)
            });
            let outcomes = ledger.op("evaluate instances", outcomes)?;
            let skipped = outcomes.iter().filter(|o| o.is_none()).count();
            let held: Vec<HeldEntry> = outcomes.into_iter().flatten().collect();
            out.instances += instances.len() as u64;
            out.held += held.len() as u64;
            let report = tr.span("cosy.assemble", Some(key.0), || {
                analyzer.assemble_report(run, held, threshold, skipped)
            });
            out.reports.insert(key, report);
        }
    }
    Some(out)
}
