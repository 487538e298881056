//! End-to-end service benchmark for the integrated dataspace.
//!
//! ```text
//! perfbench --workload <table1_reads|ingest_push|reads_under_writes>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the run measures what clients of the live server see
//! and prints the end-to-end metrics. With `--trace 1` it runs the workload
//! twice for half the time each, untraced and traced, and prints the
//! per-layer split. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a line starting `record `
//! before it carries the run's context. A failed correctness gate exits 1.
//! See `perfbench/README.md`.

mod fixture;
mod layers;
mod measure;
mod trace;
mod workloads;

use std::path::PathBuf;

use measure::{dist, median, median_of, num, peak_rss_mb, ratio, string, Metrics};
use trace::Tracer;
use workloads::{Outcome, Workload, WRITE_RATE_HZ};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut out = PathBuf::from("perfbench/results");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = value == "1",
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args.out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("result directory is writable");
    let (outcome, metrics, mut errors) = if args.trace {
        traced_run(&args, &work)
    } else {
        let outcome = workloads::run(args.workload, args.seed, args.seconds, &work, None);
        let metrics = end_to_end(&outcome);
        let errors = outcome.errors.clone();
        (outcome, metrics, errors)
    };
    std::fs::remove_dir_all(&work).ok();
    if outcome.attempted == 0 {
        errors.push("no operation was attempted".into());
    }

    for (name, value, unit) in &metrics.0 {
        println!("{:<40} {:>14.3} {unit}", name, value);
    }
    for e in errors.iter().take(20) {
        eprintln!("perfbench: correctness gate failed: {e}");
    }
    println!("record {}", record(&args, &outcome));
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics, all from an untraced run: medians over the run's
/// windows (reader rounds, or ingest cycles), so one disturbed window cannot
/// move a run's figure.
fn end_to_end(o: &Outcome) -> Metrics {
    let w = &o.clean_windows();
    let mut m = Metrics::default();
    m.add("setup_s", median(&o.setup_s), "s");
    m.add(
        "ops_per_s",
        median_of(w, |w| ratio(w.ops as f64, w.secs)),
        "1/s",
    );
    m.add("short_p50_us", median_of(w, |w| w.short.p50), "us");
    m.add("short_p95_us", median_of(w, |w| w.short.p95), "us");
    m.add("long_p50_us", median_of(w, |w| w.long.p50), "us");
    m.add("long_p95_us", median_of(w, |w| w.long.p95), "us");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

/// Untraced then traced, half the time each; the per-layer split comes from
/// the traced half, and `trace.overhead_ratio` compares the two halves.
/// Attempts and failures of both halves are reported.
fn traced_run(args: &Args, work: &std::path::Path) -> (Outcome, Metrics, Vec<String>) {
    let half = args.seconds / 2.0;
    let untraced = workloads::run(args.workload, args.seed, half, work, None);
    let tracer = Tracer::new();
    let mut traced = workloads::run(args.workload, args.seed, half, work, Some(&tracer));
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    let mut metrics = layers::probes(&traced, args.seed, work, &tracer);
    metrics.add(
        "trace.overhead_ratio",
        ratio(
            median_of(&traced.clean_windows(), |w| w.short.p50),
            median_of(&untraced.clean_windows(), |w| w.short.p50),
        ),
        "ratio",
    );
    let spans = args.out.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tracer.write(&spans) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            spans.display()
        );
    }
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.len(),
        spans.display()
    );
    let mut errors = untraced.errors;
    errors.extend(traced.errors.iter().cloned());
    (traced, metrics, errors)
}

/// The run's context: what a reader needs to reproduce or compare it.
fn record(args: &Args, o: &Outcome) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let writer = dist(&o.writer_us);
    let clean = o.clean_windows();
    let fewest = |f: fn(&workloads::Window) -> usize| clean.iter().map(f).min().unwrap_or(0);
    let flush = if args.workload.has_wal() {
        "wal_fsync=false (default: appends reach the OS page cache; checkpoints fsync)"
    } else {
        "no commit log"
    };
    let fields = [
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("scale_factor", fixture::SCALE_FACTOR.to_string()),
        ("cores", cores.to_string()),
        ("wal_flush_policy", string(flush)),
        ("windows", o.windows.len().to_string()),
        (
            "short_samples_per_window_min",
            fewest(|w| w.short.n).to_string(),
        ),
        (
            "long_samples_per_window_min",
            fewest(|w| w.long.n).to_string(),
        ),
        ("windows_clean", clean.len().to_string()),
        (
            "steal_share_max",
            num(o.windows.iter().map(|w| w.steal).fold(0.0, f64::max)),
        ),
        ("short_p99_us", num(median_of(&clean, |w| w.short.p99))),
        ("long_p99_us", num(median_of(&clean, |w| w.long.p99))),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        (
            "failed_op_ratio",
            num(ratio(o.failed as f64, o.attempted as f64)),
        ),
        ("reads", o.reads.to_string()),
        (
            "cold_read_share",
            num(ratio(o.cold_reads as f64, o.reads as f64)),
        ),
        (
            "cold_read_time_share",
            num(ratio(o.cold_us.iter().sum(), o.read_us_total)),
        ),
        ("cold_read_p50_us", num(median(&o.cold_us))),
        ("fresh_reads", o.fresh_reads.to_string()),
        ("commits", o.commits.to_string()),
        (
            "writer_rate_hz",
            num(if o.writer_us.is_empty() {
                0.0
            } else {
                WRITE_RATE_HZ
            }),
        ),
        ("writer_insert_p50_us", num(writer.p50)),
        ("writer_insert_p99_us", num(writer.p99)),
        ("writer_samples", writer.n.to_string()),
        ("writer_max_lateness_us", num(o.max_late_us)),
        ("cycles", o.cycles.to_string()),
        ("checkpoints", o.checkpoints.to_string()),
        ("pushes", o.pushes.to_string()),
        ("recovery_s", num(median(&o.recovery_s))),
        (
            "stored_bytes_per_user_byte",
            num(ratio(o.log_bytes as f64, o.user_bytes as f64)),
        ),
        ("setup_samples", o.setup_s.len().to_string()),
        ("recovery_samples", o.recovery_s.len().to_string()),
        ("errors", o.errors.len().to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
