//! The workload interface and the pieces every pass shares.

use crate::bench::{Config, DroppedState, Ledger, Step};
use crate::trace::Tracer;
use online::{RunKey, SessionStats};
use perfdata::Store;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fresh set-ups timed per pass (`setup_s` is the median over them all).
pub const SETUPS: usize = 3;

/// What one pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Fresh set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time from the first submitted event until every report is
    /// final, seconds.
    pub wall_s: f64,
    /// Events of the pass.
    pub events: usize,
    /// Per-run report latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Reopen-until-equal time, seconds.
    pub recovery_s: f64,
    /// Bytes of durable state after the pass.
    pub disk_bytes: u64,
}

/// The engine-side facts of a traced pass that the layer replay checks
/// itself against.
pub struct Capture {
    /// Run -> shard, as the engine routed them.
    pub routes: HashMap<RunKey, usize>,
    /// The engine's counters after the pass.
    pub stats: SessionStats,
    /// The engine's own metric snapshot after the pass.
    pub obs: obs::MetricsSnapshot,
    /// Producer counters (wire-upload only).
    pub net: Option<net::NetStats>,
}

/// A traced pass's capture and the durable state it left behind.
pub struct Traced {
    /// Engine-side facts.
    pub capture: Capture,
    /// The dropped durable state (the recovery replay's input).
    pub state: DroppedState,
}

/// Keep a traced pass's state for the layer replay, replacing the one
/// kept before; remove an untraced pass's state.
pub fn retire(slot: &mut Option<Traced>, state: DroppedState, capture: Option<Capture>) {
    match capture {
        Some(capture) => {
            if let Some(old) = slot.replace(Traced { capture, state }) {
                let _ = std::fs::remove_dir_all(&old.state.dir);
            }
        }
        None => {
            let _ = std::fs::remove_dir_all(&state.dir);
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Run one pass; `None` when an operation failed (already counted).
    fn pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Option<Pass>;
    /// The calls the engine received in a pass, in order.
    fn steps(&self) -> Vec<Step<'_>>;
    /// The generated store (the final state of every stream).
    fn store(&self) -> &Store;
    /// The last traced pass, if any.
    fn traced(&self) -> Option<&Traced>;
}

/// Build the workload's engine `SETUPS` times, each in a fresh
/// directory, timing each build; keep the last one.
pub fn timed_setups<T, E: Display>(
    cfg: &Config,
    tag: &str,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    mut build: impl FnMut(&Path, &mut Tracer) -> Result<T, E>,
) -> Option<(T, PathBuf, Vec<f64>)> {
    let mut samples = Vec::with_capacity(SETUPS);
    for i in 1..=SETUPS {
        let dir = cfg.fresh_dir(&format!("{tag}-{i}"));
        let t = Instant::now();
        let built = build(&dir, tr);
        samples.push(t.elapsed().as_secs_f64());
        let built = ledger.op("open", built)?;
        if i == SETUPS {
            return Some((built, dir, samples));
        }
        drop(built);
        let _ = std::fs::remove_dir_all(&dir);
    }
    None
}
