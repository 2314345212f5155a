//! Pooled ≡ single-threaded: `Analyzer::analyze`, which spreads the
//! instances of a run over the worker pool with one memo per worker,
//! yields reports bit-identical to evaluating the same instances one by
//! one on one thread with one memo — and to the same analysis issued from
//! inside a pool worker, where the shim runs it inline.

use apprentice_sim::{simulate_program, MachineModel, ProgramGenerator};
use cosy::backend::{PreparedBackend, WorkerMemo};
use cosy::{AnalysisReport, Analyzer, Backend, HeldEntry, ProblemThreshold};
use perfdata::{Store, TestRunId};
use proptest::prelude::*;
use rayon::prelude::*;

/// One run analysed on the calling thread alone: every instance in order,
/// one memo for all of them.
fn single_threaded(analyzer: &Analyzer<'_>, store: &Store, run: TestRunId) -> AnalysisReport {
    let prepared = PreparedBackend::from_compiled(analyzer.compiled_spec(), store).unwrap();
    let mut memo = WorkerMemo::default();
    let mut held = Vec::new();
    let mut skipped = 0;
    for (prop, args, ctx) in analyzer.instances(run).iter() {
        match prepared.eval(prop, args, &mut memo).unwrap() {
            Some(o) if o.holds && o.severity > 0.0 => held.push(HeldEntry {
                property: prop.to_string(),
                context: ctx.clone(),
                severity: o.severity,
                confidence: o.confidence,
            }),
            _ => skipped += 1,
        }
    }
    analyzer.assemble_report(run, held, ProblemThreshold::default(), skipped)
}

fn check(store: &Store) {
    let threshold = ProblemThreshold::default();
    for (r, run) in store.runs.iter().enumerate() {
        let run_id = TestRunId(r as u32);
        let analyzer = Analyzer::new(store, run.version).unwrap();
        let pooled = analyzer
            .analyze(run_id, Backend::Compiled, threshold)
            .unwrap();
        assert_eq!(pooled, single_threaded(&analyzer, store, run_id), "run {r}");
        // Two items: one may land on a pool worker, whose nested
        // evaluation runs inline.
        let nested: Vec<AnalysisReport> = [0, 1]
            .par_iter()
            .map(|_| {
                analyzer
                    .analyze(run_id, Backend::Compiled, threshold)
                    .unwrap()
            })
            .collect();
        assert!(nested.iter().all(|n| *n == pooled), "run {r} nested");
    }
}

#[test]
fn particle_mc_pooled_matches_single_threaded() {
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &apprentice_sim::archetypes::particle_mc(23),
        &MachineModel::t3e_900(),
        &[1, 4, 16],
    );
    check(&store);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_stores_pooled_matches_single_threaded(
        seed in 0u64..10_000,
        functions in 1usize..6,
        pe in prop_oneof![Just(4u32), Just(16), Just(64)],
    ) {
        let model = ProgramGenerator {
            seed,
            functions,
            max_depth: 3,
            max_fanout: 3,
            base_work: 0.01,
            comm_probability: 0.6,
        }
        .generate();
        let mut store = Store::new();
        simulate_program(&mut store, &model, &MachineModel::t3e_900(), &[1, pe]);
        check(&store);
    }
}
