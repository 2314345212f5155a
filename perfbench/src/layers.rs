//! Per-layer metrics of a traced run, named after the repository's
//! modules. Each comes from spans the benchmark records around a call
//! into that layer's public functions, or from a count the layer exposes.
//! Metrics of a layer a workload never calls read 0.

use crate::bench::{self, Config, Ledger, Metrics};
use crate::canon::canonical;
use crate::json;
use crate::replay;
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;
use crate::workload::Workload;
use engine::LintGate;
use std::collections::HashMap;
use std::hint::black_box;

/// Repetitions of each set-up layer call.
const SETUP_REPS: usize = 15;

/// Counter pairs of the compiled evaluator's caches, as
/// `(hits, misses)` names in `online::eval_cache_metrics()`.
pub const CACHES: [(&str, &str, &str); 3] = [
    (
        "eval.filter_memo_hit_ratio",
        "kojak_eval_filter_memo_hits_total",
        "kojak_eval_filter_memo_misses_total",
    ),
    (
        "eval.fn_memo_hit_ratio",
        "kojak_eval_fn_memo_hits_total",
        "kojak_eval_fn_memo_misses_total",
    ),
    (
        "eval.ir_cache_hit_ratio",
        "kojak_eval_cache_hits_total",
        "kojak_eval_cache_misses_total",
    ),
];

/// What the measurement loop saw.
pub struct LoopFacts {
    /// Pass wall times with tracing off.
    pub plain_wall_s: Vec<f64>,
    /// Pass wall times with tracing on.
    pub traced_wall_s: Vec<f64>,
    /// Cache counters before the loop.
    pub caches_before: obs::MetricsSnapshot,
    /// Cache counters after the loop.
    pub caches_after: obs::MetricsSnapshot,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-parent sums of the durations of spans named `name` (one value per
/// pass for calls made inside a pass span).
fn per_parent_sums_ns(tr: &Tracer, name: &str) -> Vec<f64> {
    let mut sums: HashMap<Option<usize>, f64> = HashMap::new();
    for s in tr.spans().iter().filter(|s| s.name == name) {
        *sums.entry(s.parent).or_default() += s.duration_ns() as f64;
    }
    sums.into_values().collect()
}

fn or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `values` divided by `unit`, summarised by their median (all zero when
/// the layer was never called).
fn median_in(values: &[f64], unit: f64) -> Summary {
    let scaled: Vec<f64> = values.iter().map(|v| v / unit).collect();
    match scaled.is_empty() {
        true => Summary {
            samples: 0,
            ..Summary::single(0.0)
        },
        false => Summary::of(&scaled),
    }
}

/// Like [`median_in`], reporting the nearest-rank percentile `q`.
fn percentile_in(values: &[f64], q: f64, unit: f64) -> Summary {
    Summary {
        value: or_zero(percentile(values, q).0 / unit),
        ..median_in(values, unit)
    }
}

/// Time the set-up layers, run the layer replay of the last traced pass,
/// and turn every span into the per-layer metrics.
pub fn per_layer(
    w: &dyn Workload,
    cfg: &Config,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    facts: &LoopFacts,
    out: &mut Metrics,
    detail: &mut json::Object,
) {
    // Set-up layers: parse and check, lint gate, lowering, engine open.
    let spec = cosy::standard_suite();
    let source = cosy::standard_suite_source();
    for _ in 0..SETUP_REPS {
        black_box(tr.span("core.front_end", None, cosy::standard_suite));
        black_box(tr.span("lint.gate", None, || lint::lint(&spec, &source)));
        black_box(tr.span("eval.lower", None, || asl_eval::compile(&spec)));
        let dir = cfg.fresh_dir("open");
        let opened = tr.span("engine.open", None, || {
            bench::open_engine(&dir, LintGate::Off)
        });
        drop(ledger.op("open with the gate off", opened));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let Some(traced) = w.traced() else {
        ledger.check("a traced pass completed", false);
        return;
    };
    let engine_reports = canonical(&traced.state.reports);
    let steps = w.steps();
    let dir = cfg.fresh_dir("replay");
    let Some(rep) = replay::layer_replay(&steps, &traced.capture.routes, &dir, tr, ledger) else {
        return;
    };
    let _ = std::fs::remove_dir_all(&dir);
    ledger.check(
        "layer replay reports == engine reports",
        canonical(&rep.reports) == engine_reports,
    );
    ledger.check(
        "layer replay evaluated what the engine evaluated",
        rep.instances_evaluated == traced.capture.stats.incremental.instances_evaluated,
    );
    let Some(rec) = replay::recovery_replay(&traced.state.dir, tr, ledger) else {
        return;
    };
    ledger.check(
        "recovery replay reports == reports before the drop",
        canonical(&rec.reports) == engine_reports,
    );
    let Some(batch) = replay::cosy_pass(w.store(), tr, ledger) else {
        return;
    };
    ledger.check(
        "decomposed batch pass == engine reports",
        canonical(&batch.reports) == engine_reports,
    );

    let totals = tr.totals();
    // A layer's time is its self time: its spans minus their children.
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64);
    let ms = |name: &str| self_ns(name) / 1e6;
    let median_ms = |name: &str| median_in(&tr.durations_ns(name), 1e6);
    let events = rep.events as f64;
    let instances = batch.instances as f64;

    out.put("core.front_end_ms", "ms", median_ms("core.front_end"));
    out.put("lint.gate_ms", "ms", median_ms("lint.gate"));
    out.put("eval.lower_ms", "ms", median_ms("eval.lower"));
    let mut caches = json::Object::new();
    for (metric, hits, misses) in CACHES {
        let delta = |name: &str| {
            facts.caches_after.counter(name) as f64 - facts.caches_before.counter(name) as f64
        };
        let (h, m) = (delta(hits), delta(misses));
        out.value(metric, "ratio", ratio(h, h + m));
        caches.raw(metric, format!("{{\"hits\":{h},\"lookups\":{}}}", h + m));
    }
    detail.raw("cache_bases", caches.finish());

    out.put("engine.open_ms", "ms", median_ms("engine.open"));
    let ingest = tr.durations_ns("engine.ingest_batch");
    let flushes = tr.durations_ns("engine.flush");
    out.put(
        "engine.ingest_batch_us",
        "us",
        percentile_in(&ingest, 0.5, 1e3),
    );
    out.put(
        "engine.flush_ms_p50",
        "ms",
        percentile_in(&flushes, 0.5, 1e6),
    );
    out.put(
        "engine.flush_ms_p90",
        "ms",
        percentile_in(&flushes, 0.9, 1e6),
    );
    let flush_totals = per_parent_sums_ns(tr, "engine.flush");
    out.put("engine.flush_s_total", "s", median_in(&flush_totals, 1e9));

    out.value(
        "net.codec_ns_per_event",
        "ns/event",
        ratio(self_ns("net.codec"), events),
    );
    let blocked = per_parent_sums_ns(tr, "net.send");
    out.put("net.send_blocked_ms", "ms", median_in(&blocked, 1e6));
    let net = traced.capture.net.unwrap_or_default();
    out.value(
        "net.resent_ratio",
        "ratio",
        ratio(net.events_resent as f64, net.events_sent as f64),
    );
    out.value("net.acked_events", "count", net.events_acked as f64);

    out.value(
        "wal.append_ns_per_event",
        "ns/event",
        ratio(self_ns("wal.append_batch"), events),
    );
    out.value("wal.sync_ms", "ms", ms("wal.sync"));
    out.value(
        "wal.bytes_per_event",
        "B/event",
        ratio(rep.wal_bytes as f64, events),
    );
    out.value("snapshot.bytes", "B", rep.snapshot_bytes as f64);
    out.value("snapshot.encode_ms", "ms", ms("snapshot.encode"));
    out.value(
        "builder.apply_ns_per_event",
        "ns/event",
        ratio(self_ns("builder.apply_batch"), events),
    );

    out.value("online.flush_ms", "ms", ms("online.flush"));
    out.value(
        "online.instances_evaluated",
        "count",
        rep.instances_evaluated as f64,
    );
    out.value(
        "online.full_reevaluations",
        "count",
        rep.full_reevaluations as f64,
    );
    out.value(
        "online.reeval_ratio",
        "ratio",
        ratio(rep.instances_evaluated as f64, instances),
    );

    out.value("cosy.prepare_ms", "ms", ms("cosy.prepare"));
    out.value("cosy.scope_ms", "ms", ms("cosy.scope"));
    out.value(
        "cosy.eval_ns_per_instance",
        "ns/instance",
        ratio(self_ns("cosy.eval"), instances),
    );
    out.value("cosy.assemble_ms", "ms", ms("cosy.assemble"));
    out.value(
        "cosy.held_ratio",
        "ratio",
        ratio(batch.held as f64, instances),
    );

    out.value(
        "recovery.snapshot_read_ms",
        "ms",
        ms("recovery.read_snapshot"),
    );
    out.value("recovery.wal_read_ms", "ms", ms("recovery.read_wal"));
    out.value(
        "recovery.replay_ns_per_event",
        "ns/event",
        ratio(self_ns("recovery.apply"), rec.wal_events as f64),
    );
    out.value("recovery.flush_ms", "ms", ms("recovery.flush"));

    // The program's own histograms, read only through count and sum: a
    // cross-check on the outside spans above.
    let hist = |name: &str| {
        traced
            .capture
            .obs
            .histogram(name)
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let applied = traced.capture.stats.events_applied as f64;
    let (flush_n, flush_sum) = hist("kojak_online_flush_ns");
    let (apply_n, apply_sum) = hist("kojak_online_apply_ns");
    let (append_n, append_sum) = hist("kojak_wal_append_ns");
    out.value("obs.flush_ms", "ms", flush_sum as f64 / 1e6);
    out.value(
        "obs.apply_ns_per_event",
        "ns/event",
        ratio(apply_sum as f64, applied),
    );
    out.value(
        "obs.wal_append_ns_per_event",
        "ns/event",
        ratio(append_sum as f64, applied),
    );
    detail.raw(
        "obs_counts",
        format!(
            "{{\"flush\":[{flush_n},{}],\"apply\":[{apply_n},{}],\"wal_append\":[{append_n},{}]}}",
            rep.flushes, rep.wal_appends, rep.wal_appends
        ),
    );

    out.value(
        "trace.overhead_ratio",
        "ratio",
        or_zero(median(&facts.traced_wall_s) / median(&facts.plain_wall_s) - 1.0),
    );
    detail.raw(
        "replay",
        format!(
            "{{\"events\":{},\"snapshots\":{},\"batch_instances\":{},\"recovered_wal_events\":{}}}",
            rep.events, rep.snapshots, batch.instances, rec.wal_events
        ),
    );
}
