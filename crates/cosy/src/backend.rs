//! Evaluation backends: client-side interpretation vs in-database SQL.
//!
//! §5 of the paper compares two work distributions between the analysis
//! tool and the database server: fetching the data components and
//! evaluating property expressions in the tool, versus translating the
//! conditions entirely into SQL queries. Both are first-class here and must
//! produce identical analyses (enforced by integration tests).

use crate::error::{AnalysisError, SpecError};
use asl_core::check::CheckedSpec;
use asl_eval::{
    compile as compile_ir, CompiledEvaluator, CompiledSpec, CosyData, EvalMemo, Interpreter,
    PropertyOutcome, Value,
};
use asl_sql::{
    compile_batch, compile_property, eval_batch, eval_compiled, generate_schema, loader, SchemaInfo,
};
use perfdata::Store;
use reldb::Database;
use std::collections::HashMap;
use std::sync::Arc;

/// Which evaluation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The slot-indexed compiled IR over the object store — the production
    /// client-side engine (properties are lowered once, then every
    /// instance executes with O(1) name resolution and indexed metric
    /// loads).
    #[default]
    Compiled,
    /// Direct AST interpretation over the object store. Kept as the
    /// reference oracle the compiled engine is validated against.
    Interpreter,
    /// Compilation of every property instance into SQL, executed by the
    /// embedded relational engine.
    Sql,
    /// One SQL query per (property, run) covering all contexts at once —
    /// the fully set-oriented translation (§5/§6 of the paper).
    SqlBatched,
}

/// Cache key for batched evaluation: (property, run id, basis id).
type BatchKey = (String, u32, u32);

/// One worker's mutable evaluation state for a [`PreparedBackend`]: the
/// compiled evaluator's [`EvalMemo`] and the whole-context-set results the
/// batched SQL backend has fetched. [`crate::Analyzer::evaluate_instances`]
/// creates one per participating thread and call; it is never shared, so
/// no lock guards it.
#[derive(Default)]
pub struct WorkerMemo {
    eval: EvalMemo,
    batches: HashMap<BatchKey, HashMap<u32, PropertyOutcome>>,
}

/// A prepared evaluator for one backend. `None` outcomes mean the property
/// is not applicable in that context (e.g. no timing recorded).
pub enum PreparedBackend<'a> {
    /// Compiled-IR state: the lowered spec bound to the store.
    Compiled(CompiledEvaluator<CosyData<'a>>),
    /// Interpreter state.
    Interpreter(Interpreter<'a, CosyData<'a>>),
    /// SQL state: generated schema plus the loaded database.
    Sql {
        /// The checked suite.
        spec: &'a CheckedSpec,
        /// Generated schema info (needed to compile properties).
        schema: SchemaInfo,
        /// The populated database.
        db: Database,
    },
    /// Batched SQL state: like [`PreparedBackend::Sql`]; each worker
    /// keeps the whole-context-set results it fetched, keyed by
    /// (property, run, basis), in its [`WorkerMemo`].
    SqlBatched {
        /// The checked suite.
        spec: &'a CheckedSpec,
        /// Generated schema info.
        schema: SchemaInfo,
        /// The populated database.
        db: Database,
    },
}

impl<'a> PreparedBackend<'a> {
    /// Prepare a backend for a suite and a store.
    pub fn prepare(
        backend: Backend,
        spec: &'a CheckedSpec,
        store: &'a Store,
    ) -> Result<Self, SpecError> {
        let sql = |source| SpecError::Sql { backend, source };
        match backend {
            Backend::Compiled => Self::from_compiled(Arc::new(compile_ir(spec)), store),
            Backend::Interpreter => {
                let data = CosyData::new(store);
                let interp = Interpreter::new(spec, data)
                    .map_err(|source| SpecError::Bind { backend, source })?;
                Ok(PreparedBackend::Interpreter(interp))
            }
            Backend::Sql | Backend::SqlBatched => {
                let schema = generate_schema(&spec.model).map_err(sql)?;
                let mut db = Database::new();
                schema.create_all(&mut db).map_err(sql)?;
                let data = CosyData::new(store);
                loader::load_store(&mut db, &schema, &spec.model, &data).map_err(sql)?;
                if backend == Backend::Sql {
                    Ok(PreparedBackend::Sql { spec, schema, db })
                } else {
                    Ok(PreparedBackend::SqlBatched { spec, schema, db })
                }
            }
        }
    }

    /// Bind an already-compiled spec to a store. This is the cheap
    /// re-preparation path the online engine uses on every flush: the
    /// expensive lowering happened once, binding only evaluates the spec's
    /// global constants — once per binding, however many workers then
    /// share it. The memos of `Run ==` metric loads and helper calls
    /// (`Summary(r,t)`, `Duration(Basis,t)` in every severity arm) live in
    /// each worker's [`WorkerMemo`], not in the binding.
    pub fn from_compiled(
        compiled: Arc<CompiledSpec>,
        store: &'a Store,
    ) -> Result<PreparedBackend<'a>, SpecError> {
        let eval = CompiledEvaluator::new(compiled, CosyData::new(store)).map_err(|source| {
            SpecError::Bind {
                backend: Backend::Compiled,
                source,
            }
        })?;
        Ok(PreparedBackend::Compiled(eval))
    }

    /// Evaluate one property instance with one worker's `memo`. Returns
    /// `Ok(None)` when the property is not applicable in the context.
    pub fn eval(
        &self,
        prop: &str,
        args: &[Value],
        memo: &mut WorkerMemo,
    ) -> Result<Option<PropertyOutcome>, AnalysisError> {
        let property = |source| AnalysisError::Property {
            property: prop.to_string(),
            source,
        };
        let sql = |source| AnalysisError::Sql {
            property: prop.to_string(),
            source,
        };
        match self {
            PreparedBackend::Compiled(eval) => {
                match eval.eval_property_memo(prop, args, &mut memo.eval) {
                    Ok(o) => Ok(Some(o)),
                    Err(e) if e.is_not_applicable() => Ok(None),
                    Err(e) => Err(property(e)),
                }
            }
            PreparedBackend::Interpreter(interp) => match interp.eval_property(prop, args) {
                Ok(o) => Ok(Some(o)),
                Err(e) if e.is_not_applicable() => Ok(None),
                Err(e) => Err(property(e)),
            },
            PreparedBackend::Sql { spec, schema, db } => {
                let cp = compile_property(spec, schema, prop, args).map_err(sql)?;
                let o = eval_compiled(db, &cp).map_err(sql)?;
                Ok(Some(o))
            }
            PreparedBackend::SqlBatched { spec, schema, db } => {
                // Expect the COSY signature (subject, run, basis).
                let subject = match args.first() {
                    Some(Value::Obj(o)) => o.clone(),
                    other => {
                        return Err(AnalysisError::BadInstance {
                            property: prop.to_string(),
                            detail: format!("non-object subject {other:?}"),
                        })
                    }
                };
                let (run, basis) = match (args.get(1), args.get(2)) {
                    (Some(Value::Obj(r)), Some(Value::Obj(b))) => (r.index, b.index),
                    other => {
                        return Err(AnalysisError::BadInstance {
                            property: prop.to_string(),
                            detail: format!("unexpected context {other:?}"),
                        })
                    }
                };
                let key: BatchKey = (prop.to_string(), run, basis);
                if !memo.batches.contains_key(&key) {
                    let fixed = [(1usize, args[1].clone()), (2usize, args[2].clone())];
                    let bc = compile_batch(spec, schema, prop, 0, &fixed, None).map_err(sql)?;
                    let outcomes = eval_batch(db, &bc).map_err(sql)?;
                    memo.batches
                        .insert(key.clone(), outcomes.into_iter().collect());
                }
                let by_id = &memo.batches[&key];
                Ok(Some(by_id.get(&subject.index).cloned().unwrap_or(
                    // Absent from the batch result: the conditions filtered
                    // it server-side — the property does not hold here.
                    PropertyOutcome {
                        property: prop.to_string(),
                        holds: false,
                        fired: Vec::new(),
                        confidence: 0.0,
                        severity: 0.0,
                    },
                )))
            }
        }
    }
}
