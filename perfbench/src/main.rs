//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <live-stream|wire-upload|offline-wide>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload from the seed with `apprentice_sim`, runs
//! passes until `--seconds` have elapsed, checks every output against an
//! independent reference, and prints each metric by name and unit, a
//! record line (host fingerprint, seed, sample counts and quartiles), and
//! last the result line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the passes run in several fresh worker processes one
//! after another and the metrics are the end-to-end ones; with
//! `--trace 1` passes alternate between tracing off and on in this
//! process, the last traced pass is replayed layer by layer, and the
//! metrics are the per-layer ones. Any failed operation or mismatch makes
//! the exit code 1. See `NOTES.md`.

mod bench;
mod canon;
mod gen;
mod host;
mod json;
mod layers;
mod live;
mod offline;
mod replay;
mod stats;
mod trace;
mod wire;
mod worker;
mod workload;

use bench::{Config, Ledger, Metrics};
use cosy::Backend;
use stats::{windowed_percentiles, Summary};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <live-stream|wire-upload|offline-wide> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Worker processes of a run without tracing.
const WORKERS: u32 = 6;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run as a worker process measuring for this many ms.
    worker_ms: Option<u64>,
    /// Internal: the reference digest a worker checks its reports against.
    oracle: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut worker_ms, mut oracle) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                })
            }
            "--worker" => worker_ms = Some(number()?),
            "--oracle" => oracle = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["live-stream", "wire-upload", "offline-wide"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        worker_ms,
        oracle,
    })
}

/// Digest of the reference reports: a batch pass over the generated store
/// (the interpreter's, for offline-wide, whose passes are compiled).
fn oracle_digest(workload: &str, seed: u64) -> Result<u64, String> {
    let (store, backend) = match workload {
        "live-stream" => (gen::live_stream(seed).store, Backend::Compiled),
        "wire-upload" => (gen::wire_upload(seed).store, Backend::Compiled),
        _ => (gen::offline_wide(seed), Backend::Interpreter),
    };
    let reports = canon::batch_reports(&store, backend)?;
    Ok(canon::digest(&canon::canonical(&reports)))
}

fn make_workload(
    args: &Args,
    cfg: &Config,
    oracle: Option<u64>,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "live-stream" => Box::new(live::LiveStream::new(cfg.clone(), oracle)),
        "wire-upload" => Box::new(wire::WireUpload::new(cfg.clone(), oracle)),
        _ => Box::new(offline::OfflineWide::new(cfg, oracle, tr, ledger)?),
    })
}

fn config(args: &Args) -> Result<Config, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work_dir =
        root.join(".bench_run")
            .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    Ok(Config {
        seed: args.seed,
        work_dir,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match config(&args) {
        Ok(cfg) => {
            let code = match args.worker_ms {
                Some(ms) => work(&args, &cfg, Duration::from_millis(ms)),
                None => run(&args, &cfg),
            };
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            code
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Worker side: untraced passes for `budget`, reported line by line.
fn work(args: &Args, cfg: &Config, budget: Duration) -> i32 {
    let mut ledger = Ledger::default();
    let mut off = Tracer::new(false);
    let mut peak_rss_kib = 0;
    match make_workload(args, cfg, args.oracle, &mut off, &mut ledger) {
        Err(e) => {
            ledger.op::<(), _>("generate workload", Err(e));
        }
        Ok(mut w) => {
            let deadline = Instant::now() + budget;
            loop {
                let before = host::cpu_ticks();
                let Some(pass) = w.pass(&mut off, &mut ledger) else {
                    break;
                };
                let steal = host::steal_share(before, host::cpu_ticks());
                println!("{}", worker::pass_line(&pass, steal));
                if peak_rss_kib == 0 {
                    // The peak of one pass in a fresh process: independent
                    // of how many passes the run makes (see NOTES.md).
                    peak_rss_kib = host::peak_rss_kib().unwrap_or(0);
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
    }
    for failure in &ledger.failures {
        println!("failure {failure}");
    }
    let done = worker::Done {
        attempted: ledger.attempted,
        failed: ledger.failed,
        peak_rss_kib,
    };
    println!("{}", worker::done_line(&done));
    i32::from(ledger.failed > 0)
}

/// Run `WORKERS` worker processes one after another, sharing `seconds`
/// between them; returns their passes with the CPU share stolen during
/// each, and their peak RSS samples (MiB).
fn run_workers(args: &Args, oracle: u64, ledger: &mut Ledger) -> (Vec<(f64, Pass)>, Vec<f64>) {
    let mut passes = Vec::new();
    let mut rss_mb = Vec::new();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            ledger.op::<(), _>("locate the benchmark binary", Err(e));
            return (passes, rss_mb);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    for k in 0..WORKERS {
        let share = budget.saturating_sub(started.elapsed()) / (WORKERS - k);
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .args(["--worker", &share.as_millis().to_string()])
            .args(["--oracle", &oracle.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Some(output) = ledger.op("run worker", output) else {
            continue;
        };
        let mut done = None;
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            match worker::parse(line) {
                Some(worker::Line::Pass(steal, p)) => passes.push((steal, p)),
                Some(worker::Line::Failure(f)) => ledger.note(f),
                Some(worker::Line::Done(d)) => done = Some(d),
                None => {}
            }
        }
        match done {
            Some(d) => {
                ledger.absorb(d.attempted, d.failed);
                if d.peak_rss_kib > 0 {
                    rss_mb.push(d.peak_rss_kib as f64 / 1024.0);
                }
            }
            None => {
                ledger.op::<(), _>("worker", Err(format!("exited with {}", output.status)));
            }
        }
    }
    (passes, rss_mb)
}

fn end_to_end(passes: &[Pass], rss_mb: &[f64], out: &mut Metrics, detail: &mut json::Object) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    out.samples("setup_s", "s", &setups);
    out.samples(
        "events_per_s",
        "1/s",
        &per_pass(&|p| p.events as f64 / p.wall_s),
    );
    let latencies: Vec<Vec<f64>> = passes.iter().map(|p| p.latencies_ms.clone()).collect();
    let lat = windowed_percentiles(&latencies, &[0.5, 0.9]);
    for (name, summary) in ["report_latency_p50_ms", "report_latency_p90_ms"]
        .into_iter()
        .zip(&lat.values)
    {
        out.put(
            name,
            "ms",
            Summary {
                samples: lat.samples,
                ..*summary
            },
        );
    }
    detail.raw(
        "latency",
        format!(
            "{{\"samples\":{},\"windows\":{},\"min_beyond_p90\":{},\"quartiles_over\":\"windows\"}}",
            lat.samples, lat.windows, lat.min_beyond
        ),
    );
    let walls = per_pass(&|p| p.wall_s);
    let walls_json: Vec<String> = walls.iter().map(|w| json::number(*w)).collect();
    detail.raw("pass_wall_s", format!("[{}]", walls_json.join(",")));
    out.samples("result_s", "s", &walls);
    out.samples("recovery_s", "s", &per_pass(&|p| p.recovery_s));
    out.samples("peak_rss_mb", "MiB", rss_mb);
    out.samples(
        "disk_bytes_per_event",
        "B/event",
        &per_pass(&|p| p.disk_bytes as f64 / p.events as f64),
    );
}

fn run(args: &Args, cfg: &Config) -> i32 {
    let mut ledger = Ledger::default();
    let started = Instant::now();
    let mut detail = json::Object::new();
    detail
        .str("workload", &args.workload)
        .raw("seed", args.seed.to_string())
        .num("seconds", args.seconds as f64)
        .num("trace", if args.trace { 1.0 } else { 0.0 });
    let mut host = json::Object::new();
    host.num("nproc", host::nproc() as f64)
        .str("rustc", &host::rustc_version())
        .str("durable_fs", &host::fs_type(&cfg.work_dir));
    detail.raw("host", host.finish());

    let mut metrics = Metrics::default();
    let oracle = oracle_digest(&args.workload, args.seed);
    detail.num("oracle_s", started.elapsed().as_secs_f64());
    let measured_any = match ledger.op("reference pass", oracle) {
        None => false,
        Some(oracle) if args.trace => {
            traced_run(args, cfg, oracle, &mut ledger, &mut metrics, &mut detail)
        }
        Some(oracle) => {
            let (measured, rss_mb) = run_workers(args, oracle, &mut ledger);
            // The host is a virtual machine whose hypervisor steals CPU in
            // bursts (10 % stolen slowed offline-wide passes by a quarter):
            // the metrics come from the half of the passes it disturbed
            // least.
            let steal: Vec<f64> = measured.iter().map(|(s, _)| *s).collect();
            let kept = stats::least_disturbed(&steal);
            let passes: Vec<Pass> = kept.iter().map(|&i| measured[i].1.clone()).collect();
            let steal_json: Vec<String> = steal.iter().map(|v| json::number(*v)).collect();
            detail
                .num("workers", f64::from(WORKERS))
                .num("passes", measured.len() as f64)
                .num("passes_kept", passes.len() as f64)
                .raw("pass_steal_share", format!("[{}]", steal_json.join(",")));
            end_to_end(&passes, &rss_mb, &mut metrics, &mut detail);
            // Failed operations are also the result line's own `failed` count.
            let ok = 1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64;
            metrics.value("op_success_ratio", "ratio", ok);
            !passes.is_empty()
        }
    };
    let measured = metrics.0.iter().all(|m| m.summary.value.is_finite());
    let correct = ledger.failed == 0 && measured && measured_any;
    detail.num("wall_s", started.elapsed().as_secs_f64());
    print_outcome(&metrics, &ledger, &detail, correct);
    i32::from(!correct)
}

/// Traced run, in this process: passes alternate between tracing off and
/// on, then the layer replay. Returns whether any pass completed.
fn traced_run(
    args: &Args,
    cfg: &Config,
    oracle: u64,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
    detail: &mut json::Object,
) -> bool {
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut w = match make_workload(args, cfg, Some(oracle), &mut on, ledger) {
        Ok(w) => w,
        Err(e) => {
            ledger.op::<(), _>("generate workload", Err(e));
            return false;
        }
    };
    let caches_before = online::eval_cache_metrics();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut rss_after_pass = Vec::new();
    while let Some(p) = w.pass(&mut off, ledger) {
        plain.push(p.wall_s);
        rss_after_pass.push(host::rss_kib().unwrap_or(0) as f64 / 1024.0);
        let Some(p) = w.pass(&mut on, ledger) else {
            break;
        };
        traced.push(p.wall_s);
        if Instant::now() >= deadline {
            break;
        }
    }
    // RSS after each untraced pass grows with the pass count (glibc
    // arenas), which is why `peak_rss_mb` comes from fresh processes.
    let rss_json: Vec<String> = rss_after_pass.iter().map(|v| json::number(*v)).collect();
    detail
        .raw("rss_after_pass_mb", format!("[{}]", rss_json.join(",")))
        .num("passes", plain.len() as f64)
        .num("traced_passes", traced.len() as f64);
    let facts = layers::LoopFacts {
        plain_wall_s: plain,
        traced_wall_s: traced,
        caches_before,
        caches_after: online::eval_cache_metrics(),
    };
    layers::per_layer(&*w, cfg, &mut on, ledger, &facts, metrics, detail);
    let spans = cfg
        .work_dir
        .with_file_name(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    detail.str("spans", &spans.display().to_string());
    ledger.op("write spans", on.write_jsonl(&spans));
    !facts.traced_wall_s.is_empty()
}

fn print_outcome(metrics: &Metrics, ledger: &Ledger, detail: &json::Object, correct: bool) {
    let mut record_metrics = json::Object::new();
    let mut result_metrics = json::Object::new();
    for m in &metrics.0 {
        let s = m.summary;
        println!(
            "  {:<30} {:>18} {:<12} n={} q1={} q3={}",
            m.name,
            json::number(s.value),
            m.unit,
            s.samples,
            json::number(s.q1),
            json::number(s.q3)
        );
        let mut one = json::Object::new();
        one.num("value", s.value).str("unit", m.unit);
        result_metrics.raw(m.name, one.finish());
        one.num("samples", s.samples as f64)
            .num("q1", s.q1)
            .num("q3", s.q3);
        record_metrics.raw(m.name, one.finish());
    }
    for failure in &ledger.failures {
        println!("  FAILED {failure}");
        eprintln!("perfbench: FAILED {failure}");
    }
    let failures: Vec<String> = ledger.failures.iter().map(|f| json::string(f)).collect();
    let mut record = json::Object::new();
    record
        .raw("run", detail.finish())
        .raw("metrics", record_metrics.finish())
        .raw("failures", format!("[{}]", failures.join(", ")));
    println!("{{\"record\": {}}}", record.finish());
    let mut result = json::Object::new();
    result
        .raw("correct", correct.to_string())
        .raw("attempted", ledger.attempted.to_string())
        .raw("failed", ledger.failed.to_string())
        .raw("metrics", result_metrics.finish());
    println!("{}", result.finish());
}
