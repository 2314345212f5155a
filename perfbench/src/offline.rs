//! offline-wide: the paper's batch workflow. Every run of a complete,
//! wide store is analysed with `cosy::Analyzer::analyze` on the compiled
//! backend. The store is also held by a durable two-shard engine (built
//! once, before the measurement loop) so that a restart of the wide
//! store can be timed.

use crate::bench::{self, Config, DroppedState, Ledger, Step};
use crate::canon::{canonical, digest};
use crate::gen;
use crate::trace::Tracer;
use crate::workload::{Capture, Pass, Traced, Workload, SETUPS};
use cosy::{AnalysisReport, Analyzer, Backend, ProblemThreshold};
use engine::{AnalysisEngine, LintGate};
use online::replay::{replay_run_key, replay_store};
use online::{RunKey, TraceEvent};
use perfdata::{Store, VersionId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The offline-wide workload.
pub struct OfflineWide {
    store: Store,
    events: Vec<TraceEvent>,
    oracle: Option<u64>,
    state: DroppedState,
    traced: Option<Traced>,
}

impl OfflineWide {
    /// Generate the store for `cfg.seed` and stream it once into a durable
    /// engine (traced when `tr` is). `oracle` is the digest of the
    /// interpreter's reports, which every compiled pass and the durable
    /// copy must equal (`None` skips the checks).
    pub fn new(
        cfg: &Config,
        oracle: Option<u64>,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) -> Result<OfflineWide, String> {
        let store = gen::offline_wide(cfg.seed);
        let events = replay_store(&store);
        let dir = cfg.fresh_dir("offline-state");
        let built = tr.span("setup", None, || bench::open_engine(&dir, LintGate::Warn));
        let engine = ledger
            .op("open", built)
            .ok_or("cannot open the durable engine")?;
        let span = tr.open("pass", None);
        for step in bench::batched_steps(&events) {
            let done = match step {
                Step::Ingest(batch) => tr
                    .span("engine.ingest_batch", None, || engine.ingest_batch(batch))
                    .map(drop),
                Step::Flush => tr.span("engine.flush", None, || engine.flush()).map(drop),
            };
            ledger
                .op("durable ingest", done)
                .ok_or("cannot stream the store")?;
        }
        tr.close(span);
        let capture = tr.enabled().then(|| Capture {
            routes: bench::routes(
                &engine,
                (0..store.runs.len() as u32).map(|r| RunKey(r.into())),
            ),
            stats: engine.stats(),
            obs: engine.metrics(),
            net: None,
        });
        let state = bench::drop_engine(engine, dir);
        if let Some(oracle) = oracle {
            ledger.check(
                "durable engine reports == interpreter pass",
                digest(&canonical(&state.reports)) == oracle,
            );
        }
        Ok(OfflineWide {
            traced: capture.map(|capture| Traced {
                capture,
                state: state.clone(),
            }),
            store,
            events,
            oracle,
            state,
        })
    }
}

/// The suite pipeline the batch workflow runs before its first report:
/// front end, lint gate, lowering, and one analyzer per version.
fn set_up(store: &Store) -> Result<Vec<Analyzer<'_>>, String> {
    let spec = Arc::new(cosy::standard_suite());
    let source = cosy::standard_suite_source();
    let findings = lint::lint(&spec, &source);
    LintGate::Warn
        .evaluate(&findings, &source)
        .map_err(|e| format!("{e:?}"))?;
    let compiled = Arc::new(asl_eval::compile(&spec));
    (0..store.versions.len() as u32)
        .map(|v| {
            Analyzer::with_compiled(
                store,
                VersionId(v),
                Arc::clone(&spec),
                Arc::clone(&compiled),
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

impl Workload for OfflineWide {
    fn pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Option<Pass> {
        let pass_span = tr.open("pass", None);
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut analyzers = Vec::new();
        for _ in 0..SETUPS {
            let t = Instant::now();
            let built = tr.span("setup", None, || set_up(&self.store));
            setup_s.push(t.elapsed().as_secs_f64());
            analyzers = ledger.op("set up analyzers", built)?;
        }

        let t0 = Instant::now();
        let mut latencies_ms = Vec::with_capacity(self.store.runs.len());
        let mut reports: HashMap<RunKey, AnalysisReport> = HashMap::new();
        for (analyzer, version) in analyzers.iter().zip(&self.store.versions) {
            for &run in &version.runs {
                let key = replay_run_key(run);
                let start = Instant::now();
                let report = tr.span("cosy.analyze", Some(key.0), || {
                    analyzer.analyze(run, Backend::Compiled, ProblemThreshold::default())
                });
                latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                reports.insert(key, ledger.op("analyze", report)?);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        tr.close(pass_span);
        drop(analyzers);

        if let Some(oracle) = self.oracle {
            ledger.check(
                "compiled reports == interpreter reports",
                digest(&canonical(&reports)) == oracle,
            );
        }
        let recovery_s = bench::recover(&self.state, tr, ledger)?;
        Some(Pass {
            setup_s,
            wall_s,
            events: self.events.len(),
            latencies_ms,
            recovery_s,
            disk_bytes: self.state.bytes,
        })
    }

    fn steps(&self) -> Vec<Step<'_>> {
        bench::batched_steps(&self.events)
    }

    fn store(&self) -> &Store {
        &self.store
    }

    fn traced(&self) -> Option<&Traced> {
        self.traced.as_ref()
    }
}
