//! live-stream: the deployment shape. One client thread submits 256-event
//! batches of eight interleaved runs to the durable two-shard engine in a
//! closed loop, flushing after every batch that finishes a run, and reads
//! each finished run's report.

use crate::bench::{self, Config, Ledger, Step};
use crate::canon::{canonical, digest};
use crate::gen;
use crate::trace::Tracer;
use crate::workload::{retire, timed_setups, Capture, Pass, Traced, Workload};
use engine::{AnalysisEngine, LintGate};
use perfdata::Store;
use std::time::Instant;

/// The live-stream workload.
pub struct LiveStream {
    cfg: Config,
    input: gen::Live,
    oracle: Option<u64>,
    passes: usize,
    traced: Option<Traced>,
}

impl LiveStream {
    /// Generate the stream for `cfg.seed`. `oracle` is the digest of the
    /// batch pass the final reports must equal (`None` skips the check).
    pub fn new(cfg: Config, oracle: Option<u64>) -> LiveStream {
        LiveStream {
            input: gen::live_stream(cfg.seed),
            cfg,
            oracle,
            passes: 0,
            traced: None,
        }
    }
}

impl Workload for LiveStream {
    fn pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Option<Pass> {
        self.passes += 1;
        let pass_span = tr.open("pass", None);
        let (engine, dir, setup_s) = timed_setups(
            &self.cfg,
            &format!("live{}", self.passes),
            tr,
            ledger,
            |dir, tr| {
                tr.span("engine.build", None, || {
                    bench::open_engine(dir, LintGate::Warn)
                })
            },
        )?;

        let t0 = Instant::now();
        let mut latencies_ms = Vec::with_capacity(self.input.store.runs.len());
        for batch in &self.input.batches {
            let start = Instant::now();
            let ingested = tr.span("engine.ingest_batch", None, || {
                engine.ingest_batch(&batch.events)
            });
            ledger.op("ingest", ingested)?;
            if batch.finishes.is_empty() {
                continue;
            }
            let flushed = tr.span("engine.flush", None, || engine.flush());
            ledger.op("flush", flushed)?;
            for &run in &batch.finishes {
                let readable = tr.span("engine.report", Some(run.0), || {
                    engine.report(run).is_some()
                });
                latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                ledger.check("report readable after its flush", readable);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        tr.close(pass_span);

        let capture = tr.enabled().then(|| {
            let runs = self
                .input
                .batches
                .iter()
                .flat_map(|b| b.finishes.iter().copied());
            Capture {
                routes: bench::routes(&engine, runs),
                stats: engine.stats(),
                obs: engine.metrics(),
                net: None,
            }
        });
        let state = bench::drop_engine(engine, dir);
        if let Some(oracle) = self.oracle {
            ledger.check(
                "live reports == batch pass",
                digest(&canonical(&state.reports)) == oracle,
            );
        }
        let recovery_s = bench::recover(&state, tr, ledger);
        let pass = recovery_s.map(|recovery_s| Pass {
            setup_s,
            wall_s,
            events: self.input.events,
            latencies_ms,
            recovery_s,
            disk_bytes: state.bytes,
        });
        retire(&mut self.traced, state, capture);
        pass
    }

    fn steps(&self) -> Vec<Step<'_>> {
        let mut steps = Vec::new();
        for batch in &self.input.batches {
            steps.push(Step::Ingest(&batch.events));
            if !batch.finishes.is_empty() {
                steps.push(Step::Flush);
            }
        }
        steps
    }

    fn store(&self) -> &Store {
        &self.input.store
    }

    fn traced(&self) -> Option<&Traced> {
        self.traced.as_ref()
    }
}
