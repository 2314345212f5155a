//! Context enumeration, parallel property evaluation, ranking and
//! bottleneck detection.

use crate::backend::{Backend, PreparedBackend, WorkerMemo};
use crate::error::{AnalysisError, SpecError};
use crate::suite::{standard_suite, ContextSelector, PropertyInfo, SUITE};
use asl_core::check::CheckedSpec;
use asl_eval::{compile as compile_ir, CompiledSpec, Value};
use perfdata::{CallId, RegionId, Store, TestRunId, VersionId};
use rayon::prelude::*;
use serde::Serialize;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Severity threshold above which a property is a *performance problem*
/// (§4: "A performance property is a performance problem, iff its severity
/// is greater than a user- or tool-defined threshold").
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProblemThreshold(pub f64);

impl Default for ProblemThreshold {
    fn default() -> Self {
        // 5% of the ranking basis duration.
        ProblemThreshold(0.05)
    }
}

/// The context a property instance was evaluated in.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContextDesc {
    /// Region context, if region-based.
    pub region: Option<u32>,
    /// Call-site context, if call-based.
    pub call: Option<u32>,
    /// The analyzed test run.
    pub run: u32,
    /// Human-readable label (region name or call description).
    pub label: String,
}

/// One ranked analysis result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RankedEntry {
    /// Rank (1-based, by decreasing severity).
    pub rank: usize,
    /// Property name.
    pub property: String,
    /// Evaluation context.
    pub context: ContextDesc,
    /// Severity (fraction of the basis duration).
    pub severity: f64,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// True if severity exceeds the problem threshold.
    pub is_problem: bool,
}

/// A complete COSY analysis of one test run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisReport {
    /// Program name.
    pub program: String,
    /// Analyzed run's processor count.
    pub no_pe: u32,
    /// Reference run's processor count (smallest configuration).
    pub reference_pe: u32,
    /// Duration of the ranking basis region in the analyzed run (summed
    /// over processes, seconds).
    pub basis_duration: f64,
    /// Total cost of the run: lost cycles vs the reference run, relative to
    /// the basis duration (the severity of `SublinearSpeedup` on the basis
    /// region — "the main property is the total cost of the test run").
    pub total_cost: f64,
    /// The problem threshold used.
    pub threshold: ProblemThreshold,
    /// Entries holding with severity > 0, ranked by decreasing severity.
    pub entries: Vec<RankedEntry>,
    /// Contexts skipped as not applicable.
    pub skipped: usize,
}

impl AnalysisReport {
    /// The program's unique bottleneck: its most severe property (§4).
    /// `None` when nothing held.
    pub fn bottleneck(&self) -> Option<&RankedEntry> {
        self.entries.first()
    }

    /// Entries above the problem threshold.
    pub fn problems(&self) -> impl Iterator<Item = &RankedEntry> {
        self.entries.iter().filter(|e| e.is_problem)
    }

    /// §4: "If this bottleneck is not a performance problem, the program
    /// does not need any further tuning."
    pub fn needs_tuning(&self) -> bool {
        self.bottleneck().is_some_and(|b| b.is_problem)
    }
}

/// One property instance that held, before ranking. The shared currency of
/// the batch analyzer and the incremental online engine (`cosy-online`):
/// both produce `HeldEntry` values through the same evaluation path and
/// feed them to [`Analyzer::assemble_report`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeldEntry {
    /// Property name.
    pub property: String,
    /// Evaluation context.
    pub context: ContextDesc,
    /// Severity (fraction of the basis duration).
    pub severity: f64,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Which contexts of a run to enumerate: everything (batch analysis) or
/// only a dirty subset (incremental re-analysis after a store delta).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ContextScope {
    /// All regions and call sites of the version.
    #[default]
    All,
    /// Only the listed regions and call sites.
    Dirty {
        /// Region contexts to (re-)evaluate.
        regions: HashSet<RegionId>,
        /// Call-site contexts to (re-)evaluate.
        calls: HashSet<CallId>,
    },
}

impl ContextScope {
    /// Does the scope include region `r`?
    pub fn has_region(&self, r: RegionId) -> bool {
        match self {
            ContextScope::All => true,
            ContextScope::Dirty { regions, .. } => regions.contains(&r),
        }
    }

    /// Does the scope include call site `c`?
    pub fn has_call(&self, c: CallId) -> bool {
        match self {
            ContextScope::All => true,
            ContextScope::Dirty { calls, .. } => calls.contains(&c),
        }
    }

    /// True when the scope selects nothing.
    pub fn is_empty(&self) -> bool {
        match self {
            ContextScope::All => false,
            ContextScope::Dirty { regions, calls } => regions.is_empty() && calls.is_empty(),
        }
    }
}

/// The enumerated property instances of one or more runs. Each context's
/// argument vector (subject, run, ranking basis) and description is stored
/// once; an instance is a (property, context) pair, in enumeration order.
#[derive(Debug, Clone, Default)]
pub struct Instances {
    contexts: Vec<([Value; 3], ContextDesc)>,
    items: Vec<(&'static str, u32)>,
}

impl Instances {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there is no instance.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The instances in order: property name, argument vector and context.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[Value], &ContextDesc)> + '_ {
        self.items.iter().map(|&(prop, c)| {
            let (args, desc) = &self.contexts[c as usize];
            (prop, &args[..], desc)
        })
    }

    /// Move `other`'s instances behind this list's.
    pub fn append(&mut self, other: Instances) {
        let base = self.contexts.len() as u32;
        self.contexts.extend(other.contexts);
        self.items
            .extend(other.items.into_iter().map(|(prop, c)| (prop, base + c)));
    }
}

/// The COSY analyzer bound to one program version in a store.
pub struct Analyzer<'s> {
    store: &'s Store,
    version: VersionId,
    spec: Arc<CheckedSpec>,
    /// The suite lowered to the slot-indexed IR; compiled lazily on the
    /// first `Backend::Compiled` analysis and shared from then on.
    compiled: OnceLock<Arc<CompiledSpec>>,
    basis: RegionId,
}

impl<'s> Analyzer<'s> {
    /// Create an analyzer with the standard suite; the ranking basis is the
    /// main region of the version.
    pub fn new(store: &'s Store, version: VersionId) -> Result<Self, SpecError> {
        Self::with_spec(store, version, Arc::new(standard_suite()))
    }

    /// Create an analyzer with a pre-parsed shared suite. The online engine
    /// re-binds analyzers on every flush; sharing the [`CheckedSpec`] via
    /// `Arc` keeps that re-binding free of ASL re-parsing.
    pub fn with_spec(
        store: &'s Store,
        version: VersionId,
        spec: Arc<CheckedSpec>,
    ) -> Result<Self, SpecError> {
        let basis = store.main_region(version).ok_or(SpecError::NoMainRegion)?;
        Ok(Analyzer {
            store,
            version,
            spec,
            compiled: OnceLock::new(),
            basis,
        })
    }

    /// Create an analyzer sharing both a pre-checked suite and its
    /// pre-lowered IR. The online engine compiles the suite once per
    /// session and re-binds analyzers on every flush through this
    /// constructor, so no per-flush lowering happens.
    pub fn with_compiled(
        store: &'s Store,
        version: VersionId,
        spec: Arc<CheckedSpec>,
        compiled: Arc<CompiledSpec>,
    ) -> Result<Self, SpecError> {
        let analyzer = Self::with_spec(store, version, spec)?;
        let _ = analyzer.compiled.set(compiled);
        Ok(analyzer)
    }

    /// Use a custom checked suite (must be based on the COSY data model).
    pub fn with_suite(mut self, spec: CheckedSpec) -> Self {
        self.spec = Arc::new(spec);
        self.compiled = OnceLock::new();
        self
    }

    /// Override the ranking basis region.
    pub fn with_basis(mut self, basis: RegionId) -> Self {
        self.basis = basis;
        self
    }

    /// The checked suite in use.
    pub fn spec(&self) -> &CheckedSpec {
        &self.spec
    }

    /// The checked suite as a shareable handle.
    pub fn shared_spec(&self) -> Arc<CheckedSpec> {
        Arc::clone(&self.spec)
    }

    /// The suite lowered to the compiled IR (lowering happens once, on
    /// first use, and is shared afterwards).
    pub fn compiled_spec(&self) -> Arc<CompiledSpec> {
        Arc::clone(
            self.compiled
                .get_or_init(|| Arc::new(compile_ir(&self.spec))),
        )
    }

    /// The ranking basis region.
    pub fn basis(&self) -> RegionId {
        self.basis
    }

    /// Regions of the analyzed version (all functions).
    pub fn regions(&self) -> Vec<RegionId> {
        self.store.versions[self.version.index()]
            .functions
            .iter()
            .flat_map(|f| self.store.functions[f.index()].regions.iter().copied())
            .collect()
    }

    /// Call sites according to a context selector.
    pub fn calls(&self, selector: ContextSelector) -> Vec<CallId> {
        let version = &self.store.versions[self.version.index()];
        version
            .functions
            .iter()
            .filter(|f| {
                selector == ContextSelector::AllCalls
                    || self.store.functions[f.index()].name == "barrier"
            })
            .flat_map(|f| self.store.functions[f.index()].calls.iter().copied())
            .collect()
    }

    /// Enumerate all (property, argument-vector, context) instances for one
    /// run. Properties not present in the suite spec are skipped.
    pub fn instances(&self, run: TestRunId) -> Instances {
        self.instances_scoped(run, &ContextScope::All)
    }

    /// The suite entries the spec declares, in reporting order.
    fn suite(&self) -> impl Iterator<Item = &'static PropertyInfo> + '_ {
        SUITE
            .iter()
            .filter(|info| self.spec.property(info.name).is_some())
    }

    /// The in-scope contexts a selector picks for `run`: each context's
    /// argument vector and description.
    fn contexts(
        &self,
        selector: ContextSelector,
        run: TestRunId,
        scope: &ContextScope,
    ) -> Vec<([Value; 3], ContextDesc)> {
        let basis = Value::region(self.basis);
        match selector {
            ContextSelector::AllRegions => self
                .regions()
                .into_iter()
                .filter(|&r| scope.has_region(r))
                .map(|r| {
                    let desc = ContextDesc {
                        region: Some(r.0),
                        call: None,
                        run: run.0,
                        label: self.store.regions[r.index()].name.clone(),
                    };
                    ([Value::region(r), Value::run(run), basis.clone()], desc)
                })
                .collect(),
            ContextSelector::BarrierCalls | ContextSelector::AllCalls => self
                .calls(selector)
                .into_iter()
                .filter(|&c| scope.has_call(c))
                .map(|c| {
                    let call = &self.store.calls[c.index()];
                    let callee = &self.store.functions[call.callee.index()].name;
                    let site = &self.store.regions[call.calling_reg.index()].name;
                    let desc = ContextDesc {
                        region: None,
                        call: Some(c.0),
                        run: run.0,
                        label: format!("call {callee} at {site}"),
                    };
                    ([Value::call(c), Value::run(run), basis.clone()], desc)
                })
                .collect(),
        }
    }

    /// Enumerate the property instances of one run restricted to a context
    /// scope. `ContextScope::All` yields the full batch cross-product; a
    /// dirty scope yields only the instances whose region/call context is
    /// listed — the unit of work of incremental re-analysis. Each
    /// selector's contexts are enumerated once per call and shared by every
    /// property over them.
    pub fn instances_scoped(&self, run: TestRunId, scope: &ContextScope) -> Instances {
        let mut by_selector: [Option<(u32, u32)>; 3] = [None; 3];
        let mut out = Instances::default();
        for info in self.suite() {
            let (start, end) = *by_selector[info.contexts as usize].get_or_insert_with(|| {
                let start = out.contexts.len() as u32;
                out.contexts
                    .extend(self.contexts(info.contexts, run, scope));
                (start, out.contexts.len() as u32)
            });
            out.items.extend((start..end).map(|c| (info.name, c)));
        }
        out
    }

    /// Total number of property instances a full pass over any one run of
    /// the version would enumerate (without building them) — a property of
    /// the version's structure, identical for every run. Lets the
    /// incremental engine keep batch-identical `skipped` statistics at
    /// negligible cost.
    pub fn instance_universe(&self) -> usize {
        let regions = self.regions().len();
        let barrier_calls = self.calls(ContextSelector::BarrierCalls).len();
        let calls = self.calls(ContextSelector::AllCalls).len();
        self.suite()
            .map(|info| match info.contexts {
                ContextSelector::AllRegions => regions,
                ContextSelector::BarrierCalls => barrier_calls,
                ContextSelector::AllCalls => calls,
            })
            .sum()
    }

    /// Evaluate a set of enumerated instances on a prepared backend, in
    /// parallel on the worker pool. The result is aligned with
    /// `instances`: `Some(entry)` for an instance that held with positive
    /// severity, `None` for one that did not hold or was not applicable.
    /// Workers take blocks of instances dynamically and each keeps its own
    /// [`WorkerMemo`], so expensive properties spread over all workers and
    /// no memo is shared. Both the batch [`Self::analyze`] and the
    /// incremental engine go through this single code path.
    pub fn evaluate_instances(
        &self,
        prepared: &PreparedBackend<'_>,
        instances: &Instances,
    ) -> Result<Vec<Option<HeldEntry>>, AnalysisError> {
        let results: Vec<Result<Option<HeldEntry>, AnalysisError>> = instances
            .items
            .par_iter()
            .map_init(WorkerMemo::default, |memo, &(prop, c)| {
                let (args, ctx) = &instances.contexts[c as usize];
                match prepared.eval(prop, args, memo)? {
                    Some(o) if o.holds && o.severity > 0.0 => Ok(Some(HeldEntry {
                        property: prop.to_string(),
                        context: ctx.clone(),
                        severity: o.severity,
                        confidence: o.confidence,
                    })),
                    _ => Ok(None),
                }
            })
            .collect();
        results.into_iter().collect()
    }

    /// Rank held entries into a complete report. The ordering is total and
    /// deterministic — severity descending, then property name, label and
    /// context ids — so a report assembled incrementally from merged
    /// entries is identical to one assembled from a full batch pass
    /// (rank-stability of the online engine).
    pub fn assemble_report(
        &self,
        run: TestRunId,
        mut held: Vec<HeldEntry>,
        threshold: ProblemThreshold,
        skipped: usize,
    ) -> AnalysisReport {
        held.sort_by(|a, b| {
            b.severity
                .total_cmp(&a.severity)
                .then_with(|| a.property.cmp(&b.property))
                .then_with(|| a.context.label.cmp(&b.context.label))
                .then_with(|| a.context.region.cmp(&b.context.region))
                .then_with(|| a.context.call.cmp(&b.context.call))
        });

        let entries: Vec<RankedEntry> = held
            .into_iter()
            .enumerate()
            .map(|(i, e)| RankedEntry {
                rank: i + 1,
                property: e.property,
                context: e.context,
                severity: e.severity,
                confidence: e.confidence,
                is_problem: e.severity > threshold.0,
            })
            .collect();

        let basis_duration = self.store.duration(self.basis, run).unwrap_or(0.0);
        let total_cost = entries
            .iter()
            .find(|e| e.property == "SublinearSpeedup" && e.context.region == Some(self.basis.0))
            .map(|e| e.severity)
            .unwrap_or(0.0);
        let reference_pe = self
            .store
            .min_pe_run(self.version)
            .map(|r| self.store.runs[r.index()].no_pe)
            .unwrap_or(0);

        AnalysisReport {
            program: self.store.program_of(self.version).name.clone(),
            no_pe: self.store.runs[run.index()].no_pe,
            reference_pe,
            basis_duration,
            total_cost,
            threshold,
            entries,
            skipped,
        }
    }

    /// Run the full analysis of one test run.
    pub fn analyze(
        &self,
        run: TestRunId,
        backend: Backend,
        threshold: ProblemThreshold,
    ) -> Result<AnalysisReport, AnalysisError> {
        let prepared = match backend {
            // Reuse the analyzer's cached lowering instead of re-compiling
            // per analysis call.
            Backend::Compiled => PreparedBackend::from_compiled(self.compiled_spec(), self.store)?,
            other => PreparedBackend::prepare(other, &self.spec, self.store)?,
        };
        let instances = self.instances(run);
        let outcomes = self.evaluate_instances(&prepared, &instances)?;
        let mut skipped = 0usize;
        let mut held = Vec::new();
        for outcome in outcomes {
            match outcome {
                Some(entry) => held.push(entry),
                None => skipped += 1,
            }
        }
        Ok(self.assemble_report(run, held, threshold, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apprentice_sim::{archetypes, simulate_program, MachineModel};

    fn analyzed(backend: Backend) -> AnalysisReport {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 4, 16]);
        let run = store.versions[version.index()].runs[2];
        let analyzer = Analyzer::new(&store, version).unwrap();
        analyzer
            .analyze(run, backend, ProblemThreshold::default())
            .unwrap()
    }

    #[test]
    fn compiled_report_is_identical_to_interpreter() {
        // Exact equality, not tolerance: both engines execute the same
        // arithmetic in the same order.
        let a = analyzed(Backend::Interpreter);
        let b = analyzed(Backend::Compiled);
        assert_eq!(a, b);
    }

    #[test]
    fn particle_mc_analysis_finds_problems() {
        let report = analyzed(Backend::Compiled);
        assert!(!report.entries.is_empty());
        assert!(report.needs_tuning());
        assert!(report.total_cost > 0.0, "16-PE run must show total cost");
        // Sync cost must rank among the problems for this archetype.
        assert!(
            report
                .problems()
                .any(|e| e.property == "SyncCost" || e.property == "LoadImbalance"),
            "expected synchronization-related problems, got: {:?}",
            report
                .entries
                .iter()
                .take(5)
                .map(|e| (&e.property, e.severity))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranking_is_sorted_and_ranked() {
        let report = analyzed(Backend::Interpreter);
        for w in report.entries.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
        for (i, e) in report.entries.iter().enumerate() {
            assert_eq!(e.rank, i + 1);
        }
    }

    #[test]
    fn bottleneck_is_most_severe() {
        let report = analyzed(Backend::Interpreter);
        let b = report.bottleneck().unwrap();
        assert!(report.entries.iter().all(|e| e.severity <= b.severity));
    }

    #[test]
    fn backends_agree_on_the_ranking() {
        let a = analyzed(Backend::Interpreter);
        for other in [Backend::Compiled, Backend::Sql, Backend::SqlBatched] {
            let b = analyzed(other);
            assert_eq!(a.entries.len(), b.entries.len(), "{other:?}");
            for (x, y) in a.entries.iter().zip(&b.entries) {
                assert_eq!(x.property, y.property, "{other:?}");
                assert_eq!(x.context.label, y.context.label, "{other:?}");
                assert!(
                    (x.severity - y.severity).abs() <= 1e-9 * x.severity.abs().max(1.0),
                    "{other:?} {}: {} vs {}",
                    x.property,
                    x.severity,
                    y.severity
                );
            }
        }
    }

    #[test]
    fn one_pe_run_has_no_total_cost() {
        let mut store = Store::new();
        let model = archetypes::stencil3d(2);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 8]);
        let run1 = store.versions[version.index()].runs[0];
        let analyzer = Analyzer::new(&store, version).unwrap();
        let report = analyzer
            .analyze(run1, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        // The reference run compared with itself has zero lost cycles.
        assert_eq!(report.total_cost, 0.0);
        assert!(report
            .entries
            .iter()
            .all(|e| e.property != "SublinearSpeedup"));
    }

    #[test]
    fn load_imbalance_only_on_barrier_calls() {
        let report = analyzed(Backend::Interpreter);
        for e in &report.entries {
            if e.property == "LoadImbalance" {
                assert!(e.context.label.contains("barrier"), "{}", e.context.label);
            }
        }
    }

    #[test]
    fn custom_basis_changes_severities() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        // Basis = the step subprogram instead of main: severities are
        // relative to a smaller duration, so they grow.
        let step_root = store
            .regions
            .iter()
            .position(|r| r.name == "step")
            .map(|i| perfdata::RegionId(i as u32))
            .unwrap();
        let default_report = Analyzer::new(&store, version)
            .unwrap()
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        let rebased_report = Analyzer::new(&store, version)
            .unwrap()
            .with_basis(step_root)
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        let sync = |r: &AnalysisReport| {
            r.entries
                .iter()
                .find(|e| e.property == "SyncCost")
                .map(|e| e.severity)
                .unwrap_or(0.0)
        };
        assert!(sync(&rebased_report) > sync(&default_report));
    }

    #[test]
    fn custom_suite_restricts_properties() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        // A suite with only SyncCost declared: other SUITE entries are
        // skipped because the spec does not declare them.
        let src = format!(
            "{}\nProperty SyncCost(Region r, TestRun t, Region Basis) {{\n\
             LET float B = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t \
             AND tt.Type == Barrier) IN CONDITION: B > 0; CONFIDENCE: 1; \
             SEVERITY: B / Duration(Basis,t); }}",
            asl_eval::COSY_DATA_MODEL
        );
        let spec = asl_core::parse_and_check(&src).unwrap();
        let report = Analyzer::new(&store, version)
            .unwrap()
            .with_suite(spec)
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        assert!(!report.entries.is_empty());
        assert!(report.entries.iter().all(|e| e.property == "SyncCost"));
    }

    #[test]
    fn runtime_eval_error_renders_source_span() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        // A severity expression that always divides by zero at runtime:
        // the error must render a caret snippet pointing at the division
        // in the spec source, not just a bare message.
        let src = format!(
            "{}\nProperty SyncCost(Region r, TestRun t, Region Basis) {{\n\
             \x20   CONDITION: Duration(Basis, t) >= 0;\n\
             \x20   CONFIDENCE: 1;\n\
             \x20   SEVERITY: 1.0 / (Duration(r, t) - Duration(r, t));\n\
             }}",
            asl_eval::COSY_DATA_MODEL
        );
        let spec = asl_core::parse_and_check(&src).unwrap();
        for backend in [Backend::Interpreter, Backend::Compiled] {
            let err = Analyzer::new(&store, version)
                .unwrap()
                .with_suite(spec.clone())
                .analyze(run, backend, ProblemThreshold::default())
                .unwrap_err();
            let rendered = err.render(&src);
            assert!(rendered.contains("division by zero"), "{rendered}");
            assert!(rendered.contains("-->"), "{rendered}");
            assert!(rendered.contains('^'), "{rendered}");
            // The caret points into the SEVERITY line of the property at
            // the end of the source, far past the data model.
            let line = err
                .span()
                .map(|s| asl_core::SourceMap::new(&src).locate(s.start).line);
            assert!(line.unwrap_or(0) > 10, "span line: {line:?}");
        }
    }

    #[test]
    fn threshold_controls_problem_flag() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        let analyzer = Analyzer::new(&store, version).unwrap();
        let strict = analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold(0.0))
            .unwrap();
        let lax = analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold(f64::MAX))
            .unwrap();
        assert!(strict.problems().count() > 0);
        assert_eq!(lax.problems().count(), 0);
        assert!(!lax.needs_tuning());
    }
}
