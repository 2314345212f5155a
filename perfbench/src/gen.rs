//! Seeded workload generation with `apprentice_sim`.
//!
//! Program *structure* comes from fixed `ProgramGenerator` seeds, so every
//! benchmark seed evaluates the same instance universe and costs the same
//! work; the benchmark seed drives the simulator's per-PE noise (the
//! measured values), and through it which properties hold and how severe
//! they are. The program under test only ever receives the generated
//! events (live-stream, wire-upload) or the generated store
//! (offline-wide).

use apprentice_sim::{simulate_program, MachineModel, ProgramGenerator, ProgramModel};
use online::replay::events_for_run;
use online::{RunKey, TraceEvent};
use perfdata::{Store, TestRunId};

/// Events per ingest batch (the pipeline's default unit of work).
pub const BATCH: usize = 256;

/// Shape of a simulated store: `versions` generated programs with
/// `functions` functions each, every one run at every PE count.
struct Shape {
    versions: u64,
    functions: usize,
    pe_counts: &'static [u32],
    structure_base: u64,
}

const LIVE: Shape = Shape {
    versions: 16,
    functions: 6,
    pe_counts: &[1, 2, 4, 8, 16, 32, 64],
    structure_base: 1_000,
};

const WIRE: Shape = Shape {
    versions: 8,
    functions: 6,
    pe_counts: &[1, 2, 4, 8, 16, 32, 64],
    structure_base: 2_000,
};

const OFFLINE: Shape = Shape {
    versions: 3,
    functions: 40,
    pe_counts: &[1, 2, 4, 8, 16, 32, 64, 128],
    structure_base: 3_000,
};

/// Runs of live-stream in flight at once.
pub const LIVE_IN_FLIGHT: usize = 8;
/// Drifting refinement passes per wire-upload run.
pub const WIRE_REFINEMENTS: usize = 8;

/// SplitMix64, for deriving per-version simulation seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn program(shape: &Shape, version: u64, seed: u64) -> ProgramModel {
    let mut model = ProgramGenerator {
        seed: shape.structure_base + version,
        functions: shape.functions,
        max_depth: 3,
        max_fanout: 3,
        base_work: 0.02,
        comm_probability: 0.6,
    }
    .generate();
    model.seed = mix(seed ^ mix(shape.structure_base + version));
    model
}

/// Simulate a store; runs are laid out version-major, PE counts ascending.
fn simulate(shape: &Shape, seed: u64) -> Store {
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    for v in 0..shape.versions {
        simulate_program(
            &mut store,
            &program(shape, v, seed),
            &machine,
            shape.pe_counts,
        );
    }
    store
}

/// One ingest batch of live-stream, with the runs whose `RunFinished` it
/// carries.
#[derive(Debug, Clone)]
pub struct LiveBatch {
    /// The events, in stream order.
    pub events: Vec<TraceEvent>,
    /// Runs finished by this batch (their reports are due after it).
    pub finishes: Vec<RunKey>,
}

/// The live-stream workload.
pub struct Live {
    /// The simulated store the stream was cut from (the oracle's input).
    pub store: Store,
    /// The batches, in submission order.
    pub batches: Vec<LiveBatch>,
    /// Total events.
    pub events: usize,
}

/// Interleave per-run streams round-robin with `in_flight` runs open at
/// once: when a run's stream ends, the next run in `order` takes its slot.
pub fn interleave(streams: Vec<Vec<TraceEvent>>, in_flight: usize) -> Vec<TraceEvent> {
    let mut pending = streams.into_iter().map(Vec::into_iter);
    let mut open: Vec<std::vec::IntoIter<TraceEvent>> =
        pending.by_ref().take(in_flight.max(1)).collect();
    let mut out = Vec::new();
    while !open.is_empty() {
        let mut i = 0;
        while i < open.len() {
            match open[i].next() {
                Some(e) => {
                    out.push(e);
                    i += 1;
                }
                None => match pending.next() {
                    Some(next) => open[i] = next,
                    None => {
                        open.remove(i);
                    }
                },
            }
        }
    }
    out
}

/// live-stream: 16 versions x 7 PE counts. Runs are ordered PE-major
/// (every version's smallest configuration first), so eight concurrent
/// runs belong to eight different program versions.
pub fn live_stream(seed: u64) -> Live {
    let store = simulate(&LIVE, seed);
    let pes = LIVE.pe_counts.len() as u32;
    let versions = LIVE.versions as u32;
    let order = (0..pes).flat_map(|p| (0..versions).map(move |v| TestRunId(v * pes + p)));
    let streams: Vec<Vec<TraceEvent>> = order.map(|r| events_for_run(&store, r)).collect();
    let stream = interleave(streams, LIVE_IN_FLIGHT);
    let events = stream.len();
    let batches = stream
        .chunks(BATCH)
        .map(|chunk| LiveBatch {
            finishes: chunk
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::RunFinished { run } => Some(*run),
                    _ => None,
                })
                .collect(),
            events: chunk.to_vec(),
        })
        .collect();
    Live {
        store,
        batches,
        events,
    }
}

fn scale_measurement(event: &TraceEvent, scale: f64) -> TraceEvent {
    let mut e = event.clone();
    match &mut e {
        TraceEvent::RegionExited {
            excl, incl, ovhd, ..
        } => {
            *excl *= scale;
            *incl *= scale;
            *ovhd *= scale;
        }
        TraceEvent::TypedSample { time, .. } => *time *= scale,
        TraceEvent::CallSiteStat { stats, .. } => {
            stats.mean_time *= scale;
            stats.max_time *= scale;
        }
        _ => {}
    }
    e
}

/// The wire-upload workload.
pub struct Wire {
    /// The simulated store (the oracle's input).
    pub store: Store,
    /// The upload, in send order.
    pub events: Vec<TraceEvent>,
}

/// wire-upload: 8 versions x 7 PE counts, run after run. Each run sends its
/// structure and first measurements, then re-sends its measurement events
/// in `WIRE_REFINEMENTS` passes drifting toward the final values, then the
/// authoritative pass and `RunFinished` (so the final state equals the
/// simulated store).
pub fn wire_upload(seed: u64) -> Wire {
    let store = simulate(&WIRE, seed);
    let mut events = Vec::new();
    for r in 0..store.runs.len() as u32 {
        let run_events = events_for_run(&store, TestRunId(r));
        let measurements: Vec<&TraceEvent> = run_events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::RegionExited { .. }
                        | TraceEvent::TypedSample { .. }
                        | TraceEvent::CallSiteStat { .. }
                )
            })
            .collect();
        let (finished, body) = run_events.split_last().expect("a run has events");
        events.extend(body.iter().cloned());
        for pass in 0..WIRE_REFINEMENTS {
            let scale = 0.9 + 0.1 * (pass as f64 / WIRE_REFINEMENTS as f64);
            events.extend(measurements.iter().map(|m| scale_measurement(m, scale)));
        }
        events.extend(measurements.into_iter().cloned());
        events.push(finished.clone());
    }
    Wire { store, events }
}

/// offline-wide: 3 versions with 40 functions x 8 PE counts (1-128).
pub fn offline_wide(seed: u64) -> Store {
    simulate(&OFFLINE, seed)
}

/// The stable wire image of an event stream (the byte-identity check of
/// generated inputs).
#[cfg(test)]
pub fn wire_image<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<u8> {
    let mut buf = Vec::new();
    for e in events {
        e.encode_wire(&mut buf);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let a = live_stream(7);
        let b = live_stream(7);
        let flat = |l: &Live| wire_image(l.batches.iter().flat_map(|b| b.events.iter()));
        assert_eq!(flat(&a), flat(&b));
        assert_eq!(
            wire_image(&wire_upload(7).events),
            wire_image(&wire_upload(7).events)
        );
        let image = |s: &Store| wire_image(&online::replay::replay_store(s));
        assert_eq!(image(&offline_wide(7)), image(&offline_wide(7)));
    }

    #[test]
    fn seeds_change_values_not_structure() {
        let a = live_stream(1);
        let b = live_stream(2);
        assert_eq!(a.events, b.events);
        assert_eq!(a.store.regions.len(), b.store.regions.len());
        let flat = |l: &Live| wire_image(l.batches.iter().flat_map(|b| b.events.iter()));
        assert_ne!(flat(&a), flat(&b));
    }

    #[test]
    fn interleave_keeps_per_run_order_and_bounds_in_flight() {
        let stream = |run: u64, n: usize| -> Vec<TraceEvent> {
            (0..n)
                .map(|_| TraceEvent::RunFinished { run: RunKey(run) })
                .collect()
        };
        let out = interleave(vec![stream(0, 3), stream(1, 1), stream(2, 2)], 2);
        let keys: Vec<u64> = out.iter().map(|e| e.run_key().0).collect();
        assert_eq!(keys, vec![0, 1, 0, 2, 0, 2]);
    }

    #[test]
    fn live_batches_finish_every_run_once() {
        let live = live_stream(3);
        let finished: usize = live.batches.iter().map(|b| b.finishes.len()).sum();
        assert_eq!(finished, live.store.runs.len());
        assert!(live.batches.iter().all(|b| b.events.len() <= BATCH));
    }
}
