//! wire-upload: one `TraceProducer` connection streams refinement-heavy
//! runs over loopback to an `EngineServer` (`flush_every_events: 0`) in
//! front of the durable two-shard engine.

use crate::bench::{self, Config, Ledger, Step};
use crate::canon::{canonical, digest};
use crate::gen::{self, BATCH};
use crate::trace::Tracer;
use crate::workload::{retire, timed_setups, Capture, Pass, Traced, Workload};
use cosy::AnalysisReport;
use engine::{AnalysisEngine, Engine, EngineError, LintGate, RecoverableState};
use net::{EngineServer, ProducerConfig, ServerConfig, TraceProducer};
use online::{RunKey, SessionStats, TraceEvent};
use perfdata::Store;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The engine as the server sees it in a traced pass: every call the
/// server makes is timed here, in the benchmark, and turned into spans
/// after the pass.
struct Timed {
    inner: Arc<Engine>,
    calls: Mutex<Vec<(&'static str, Instant, Instant)>>,
}

impl Timed {
    fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.calls
            .lock()
            .expect("no panic while the call log is held")
            .push((name, start, end));
        out
    }
}

impl AnalysisEngine for Timed {
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
        self.time("engine.ingest_batch", || self.inner.ingest_batch(events))
    }

    fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        self.time("engine.flush", || self.inner.flush())
    }

    fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        self.inner.report(run)
    }

    fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        self.inner.reports()
    }

    fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    fn metrics(&self) -> obs::MetricsSnapshot {
        self.inner.metrics()
    }

    fn recoverable_state(&self) -> RecoverableState {
        self.inner.recoverable_state()
    }

    fn checkpoint(&self) -> Result<(), EngineError> {
        self.inner.checkpoint()
    }
}

/// Engine, optional call timer, and the server in front of them.
type Served = (Arc<Engine>, Option<Arc<Timed>>, EngineServer);

fn serve(dir: &std::path::Path, timed: bool) -> Result<Served, String> {
    let engine = Arc::new(bench::open_engine(dir, LintGate::Warn).map_err(|e| e.to_string())?);
    let timer = timed.then(|| {
        Arc::new(Timed {
            inner: Arc::clone(&engine),
            calls: Mutex::new(Vec::new()),
        })
    });
    let front: Arc<dyn AnalysisEngine> = match &timer {
        Some(t) => Arc::clone(t) as Arc<dyn AnalysisEngine>,
        None => Arc::clone(&engine) as Arc<dyn AnalysisEngine>,
    };
    let config = ServerConfig {
        flush_every_events: 0,
        ..ServerConfig::default()
    };
    let server = EngineServer::bind("127.0.0.1:0", front, config).map_err(|e| e.to_string())?;
    Ok((engine, timer, server))
}

/// The wire-upload workload.
pub struct WireUpload {
    cfg: Config,
    input: gen::Wire,
    oracle: Option<u64>,
    runs: Vec<RunKey>,
    passes: usize,
    traced: Option<Traced>,
}

impl WireUpload {
    /// Generate the upload for `cfg.seed`. `oracle` is the digest of the
    /// batch pass the final reports must equal (`None` skips the check).
    pub fn new(cfg: Config, oracle: Option<u64>) -> WireUpload {
        let input = gen::wire_upload(cfg.seed);
        let runs = input
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RunFinished { run } => Some(*run),
                _ => None,
            })
            .collect();
        WireUpload {
            cfg,
            input,
            oracle,
            runs,
            passes: 0,
            traced: None,
        }
    }
}

impl Workload for WireUpload {
    fn pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Option<Pass> {
        self.passes += 1;
        let timed = tr.enabled();
        let pass_span = tr.open("pass", None);
        let ((engine, timer, server), dir, setup_s) = timed_setups(
            &self.cfg,
            &format!("wire{}", self.passes),
            tr,
            ledger,
            |dir, tr| tr.span("setup", None, || serve(dir, timed)),
        )?;
        let producer = TraceProducer::connect(
            server.local_addr().to_string(),
            ProducerConfig {
                producer_id: 1,
                batch_events: BATCH,
                ..ProducerConfig::default()
            },
        );
        let mut producer = ledger.op("connect", producer)?;

        let t0 = Instant::now();
        let mut finished_at = Vec::with_capacity(self.runs.len());
        for chunk in self.input.events.chunks(BATCH) {
            let span = tr.open("net.send", None);
            for event in chunk {
                if let TraceEvent::RunFinished { run } = event {
                    finished_at.push((*run, Instant::now()));
                }
                if let Err(e) = producer.send(event) {
                    ledger.op::<(), _>("send", Err(e));
                    return None;
                }
            }
            tr.close(span);
            ledger.succeeded(chunk.len() as u64);
        }
        let closed = tr.span("net.close", None, || producer.close());
        let net_stats = ledger.op("close", closed)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let mut latencies_ms = Vec::with_capacity(finished_at.len());
        for (run, sent) in finished_at {
            let readable = engine.report(run).is_some();
            latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            ledger.check("report readable once the upload closed", readable);
        }

        let events = self.input.events.len() as u64;
        ledger.check("every event acknowledged", net_stats.events_acked == events);
        let served = server.stats();
        ledger.check(
            "no protocol error or refused batch",
            served.protocol_errors == 0 && served.ingest_failures == 0,
        );
        ledger.check("no event rejected", engine.stats().events_rejected == 0);
        server.shutdown();
        if let Some(timer) = timer {
            let calls = timer.calls.lock().expect("server threads joined");
            for &(name, start, end) in calls.iter() {
                tr.record(name, start, end, None);
            }
        }
        tr.close(pass_span);

        let capture = timed.then(|| Capture {
            routes: bench::routes(&engine, self.runs.iter().copied()),
            stats: engine.stats(),
            obs: engine.metrics(),
            net: Some(net_stats),
        });
        let engine = Arc::try_unwrap(engine).ok();
        let engine = ledger.op(
            "server released the engine",
            engine.ok_or("engine still shared after shutdown"),
        )?;
        let state = bench::drop_engine(engine, dir);
        if let Some(oracle) = self.oracle {
            ledger.check(
                "wire reports == batch pass",
                digest(&canonical(&state.reports)) == oracle,
            );
        }
        let recovery_s = bench::recover(&state, tr, ledger);
        let pass = recovery_s.map(|recovery_s| Pass {
            setup_s,
            wall_s,
            events: self.input.events.len(),
            latencies_ms,
            recovery_s,
            disk_bytes: state.bytes,
        });
        retire(&mut self.traced, state, capture);
        pass
    }

    fn steps(&self) -> Vec<Step<'_>> {
        // One ingest per producer frame; the goodbye flush, then the
        // server's shutdown flush.
        let mut steps = bench::batched_steps(&self.input.events);
        steps.push(Step::Flush);
        steps
    }

    fn store(&self) -> &Store {
        &self.input.store
    }

    fn traced(&self) -> Option<&Traced> {
        self.traced.as_ref()
    }
}
