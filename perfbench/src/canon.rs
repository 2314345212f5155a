//! The id-free report projection and the batch oracle.
//!
//! Shard-local stores allocate their own arena ids, so reports are
//! compared through a projection that keeps everything a user reads —
//! program, PE counts, total cost, skipped count and every ranked entry
//! with its exact severity bits — and drops the ids (the projection the
//! repository's E11 experiment compares shard counts with).

use cosy::{AnalysisReport, Analyzer, Backend, ProblemThreshold};
use online::replay::replay_run_key;
use online::RunKey;
use perfdata::{Store, VersionId};
use std::collections::HashMap;

/// The projection of a set of reports: one line per run, sorted.
pub fn canonical(reports: &HashMap<RunKey, AnalysisReport>) -> Vec<String> {
    let mut out: Vec<String> = reports
        .iter()
        .map(|(key, r)| {
            let entries: Vec<String> = r
                .entries
                .iter()
                .map(|e| {
                    format!(
                        "{}:{}@{}={:x}",
                        e.rank,
                        e.property,
                        e.context.label,
                        e.severity.to_bits()
                    )
                })
                .collect();
            format!(
                "{key} {} pe{} ref{} cost{:x} skip{} [{}]",
                r.program,
                r.no_pe,
                r.reference_pe,
                r.total_cost.to_bits(),
                r.skipped,
                entries.join(";")
            )
        })
        .collect();
    out.sort();
    out
}

/// FNV-1a digest of a projection: what a worker process compares its
/// reports against without holding the reference reports itself.
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A batch pass over `store` with `cosy::Analyzer`: every run's report,
/// keyed the way the replayed event streams key them.
pub fn batch_reports(
    store: &Store,
    backend: Backend,
) -> Result<HashMap<RunKey, AnalysisReport>, String> {
    let spec = std::sync::Arc::new(cosy::standard_suite());
    let mut out = HashMap::new();
    for (v, version) in store.versions.iter().enumerate() {
        let analyzer = Analyzer::with_spec(store, VersionId(v as u32), spec.clone())
            .map_err(|e| e.to_string())?;
        for &run in &version.runs {
            let report = analyzer
                .analyze(run, backend, ProblemThreshold::default())
                .map_err(|e| e.to_string())?;
            out.insert(replay_run_key(run), report);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosy::{ContextDesc, RankedEntry};

    fn report(program: &str, severities: &[f64]) -> AnalysisReport {
        AnalysisReport {
            program: program.to_string(),
            no_pe: 8,
            reference_pe: 1,
            basis_duration: 2.0,
            total_cost: 0.25,
            threshold: ProblemThreshold::default(),
            entries: severities
                .iter()
                .enumerate()
                .map(|(i, &severity)| RankedEntry {
                    rank: i + 1,
                    property: "SyncCost".to_string(),
                    context: ContextDesc {
                        label: format!("loop{i}"),
                        region: Some(i as u32),
                        call: None,
                        run: 0,
                    },
                    severity,
                    confidence: 1.0,
                    is_problem: true,
                })
                .collect(),
            skipped: 3,
        }
    }

    #[test]
    fn projection_ignores_ids_and_map_order_but_not_values() {
        let mut a = HashMap::new();
        a.insert(RunKey(1), report("app", &[0.5, 0.25]));
        a.insert(RunKey(2), report("app", &[0.125]));
        let mut b = HashMap::new();
        b.insert(RunKey(2), report("app", &[0.125]));
        let mut moved = report("app", &[0.5, 0.25]);
        moved.entries[0].context.region = Some(99);
        b.insert(RunKey(1), moved);
        assert_eq!(canonical(&a), canonical(&b));

        let mut c = b.clone();
        c.get_mut(&RunKey(2)).unwrap().entries[0].severity = 0.125f64.next_up();
        assert_ne!(canonical(&a), canonical(&c));
        let mut d = b.clone();
        d.insert(RunKey(3), report("app", &[]));
        assert_ne!(canonical(&a), canonical(&d));
    }

    #[test]
    fn digest_tells_projections_apart() {
        let lines = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(digest(&lines(&["a", "b"])), digest(&lines(&["a", "b"])));
        assert_ne!(digest(&lines(&["a", "b"])), digest(&lines(&["ab"])));
        assert_ne!(digest(&lines(&["a", "b"])), digest(&lines(&["b", "a"])));
    }

    #[test]
    fn projection_is_one_sorted_line_per_run() {
        let mut a = HashMap::new();
        a.insert(RunKey(2), report("b", &[0.5]));
        a.insert(RunKey(1), report("a", &[0.5]));
        let lines = canonical(&a);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("runkey1 a pe8 ref1"));
        assert!(lines[0] < lines[1]);
    }
}
