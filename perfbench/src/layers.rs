//! The traced run's per-layer split. Counter deltas come from the run
//! itself; timings come from calling each layer's public functions in
//! process on the run's own bindings and batches, each call inside a span.
//! A layer the workload never exercised reports 0.

use std::path::Path;
use std::time::Instant;

use dataspace_core::dataspace::Dataspace;
use iql::{Params, Value};
use relational::{CommitLog, LogRecord};
use wire::{ReqOp, Request, RespOp, Response};

use crate::fixture::{build_dataspace, protein_row, Bindings, Rng, SetupTimes, QUERIES};
use crate::measure::{median, median_of, ratio, Metrics};
use crate::trace::Tracer;
use crate::workloads::{Outcome, COUNT, FEED};

/// Reads sampled from the run's script for the in-process probes.
const READ_SAMPLE: usize = 400;
/// Commit-then-read rounds for the cold-read and extent-rebuild probes.
const COLD_ROUNDS: usize = 3;

pub fn probes(out: &Outcome, seed: u64, work: &Path, tracer: &Tracer) -> Metrics {
    let reads = out.bindings.is_some();
    let writes = !out.batches.is_empty();
    let commits = out.delta.insert_requests as f64;
    let windows = out.clean_windows();
    let short_p50 = median_of(&windows, |w| w.short.p50);
    let long_p50 = median_of(&windows, |w| w.long.p50);
    let mut m = Metrics::default();

    let (mut ds, _) = build_dataspace(Some(tracer));
    let sample: Vec<(usize, usize)> = out.script.iter().copied().take(READ_SAMPLE).collect();
    let (exec_point, exec_join) = match &out.bindings {
        Some(binds) => execute_probe(&ds, binds, &sample, tracer),
        None => (0.0, 0.0),
    };
    let (cold_point, cold_join) = match &out.bindings {
        Some(binds) if writes => cold_probe(&mut ds, binds, seed, tracer),
        _ => (0.0, 0.0),
    };
    let extent_rebuild = if writes {
        extent_rebuild_probe(&mut ds, seed, tracer)
    } else {
        0.0
    };
    let codec = match &out.bindings {
        Some(binds) => read_codec_probe(&ds, binds, &sample, tracer),
        None => insert_codec_probe(&out.batches, tracer),
    };
    drop(ds);

    let replay = |subs: bool, wal: Option<&Path>| {
        if writes {
            replay_probe(&out.batches, subs, wal, tracer)
        } else {
            0.0
        }
    };
    // The run's own configuration (its log, and its subscriptions if it held
    // any), the same without subscriptions, and the bare storage commit.
    let subs = out.pushes > 0;
    let insert_us = replay(subs, Some(&work.join("probe-insert.wal")));
    let insert_nosubs_us = if subs {
        replay(false, Some(&work.join("probe-nosubs.wal")))
    } else {
        insert_us
    };
    let commit_us = replay(false, None);
    let wal = if writes {
        wal_probe(&out.batches, &work.join("probe-raw.wal"), tracer)
    } else {
        WalProbe::default()
    };

    let req = out.requests as f64;
    m.add("wire.req_bytes", ratio(out.traffic.0 as f64, req), "B");
    m.add("wire.resp_bytes", ratio(out.traffic.1 as f64, req), "B");
    m.add("wire.codec_us", codec, "us");
    let floor = if reads { exec_point } else { insert_us };
    m.add("wire.overhead_us", short_p50 - floor, "us");

    let d = &out.delta;
    m.add(
        "server.execute_requests",
        d.execute_requests as f64,
        "count",
    );
    m.add("server.insert_requests", d.insert_requests as f64, "count");
    m.add(
        "server.chunks_per_request",
        ratio(d.chunks_sent as f64, d.execute_requests as f64),
        "ratio",
    );
    m.add("server.failures", d.failures as f64, "count");
    let push_wait = if out.pushes > 0 {
        long_p50 - short_p50
    } else {
        0.0
    };
    m.add("server.push_wait_us", push_wait, "us");

    m.add("core.execute_point_us", exec_point, "us");
    m.add("core.execute_join_us", exec_join, "us");
    m.add("core.cold_read_point_us", cold_point, "us");
    m.add("core.cold_read_join_us", cold_join, "us");
    m.add("core.insert_us", insert_us, "us");
    m.add("core.fanout_us", insert_us - insert_nosubs_us, "us");
    m.add(
        "core.delta_ratio",
        ratio(
            d.delta_evals as f64,
            (d.delta_evals + d.fallback_reexecs) as f64,
        ),
        "ratio",
    );

    m.add(
        "iql.plan_hit_ratio",
        ratio(d.plan_hits as f64, (d.plan_hits + d.plan_misses) as f64),
        "ratio",
    );
    m.add(
        "iql.replans_per_commit",
        ratio(d.plan_misses as f64, commits),
        "ratio",
    );
    m.add(
        "iql.index_hit_ratio",
        ratio(d.index_hits as f64, (d.index_hits + d.index_misses) as f64),
        "ratio",
    );
    m.add(
        "iql.index_builds_per_commit",
        ratio(d.index_builds as f64, commits),
        "ratio",
    );
    m.add(
        "iql.index_refreshes_per_commit",
        ratio(d.index_refreshes as f64, commits),
        "ratio",
    );
    m.add(
        "iql.columnar_share",
        ratio(
            d.columnar_execs as f64,
            (d.columnar_execs + d.row_fallbacks) as f64,
        ),
        "ratio",
    );
    m.add(
        "iql.rows_per_read",
        ratio(out.rows_read as f64, out.reads as f64),
        "rows",
    );

    m.add("automed.extent_rebuild_us", extent_rebuild, "us");
    let memo = &out.memo_samples;
    m.add(
        "automed.extent_memo_len",
        ratio(memo.iter().sum(), memo.len() as f64),
        "entries",
    );

    m.add("relational.commit_us", commit_us, "us");
    m.add("relational.wal_append_us", wal.append_us, "us");
    m.add("relational.wal_bytes_per_row", wal.bytes_per_row, "B");
    m.add("relational.compact_ms", wal.compact_ms, "ms");
    m.add("relational.compact_bytes", wal.compact_bytes, "B");
    m.add(
        "relational.replay_rows_per_s",
        wal.replay_rows_per_s,
        "rows/s",
    );
    m.add(
        "relational.stored_bytes_per_user_byte",
        ratio(out.log_bytes as f64, out.user_bytes as f64),
        "ratio",
    );
    m.add("relational.recovery_s", median(&out.recovery_s), "s");

    let phases = &out.setup_phases;
    let phase = |f: fn(&SetupTimes) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    m.add("setup.generate_s", phase(|p| p.generate_s), "s");
    m.add("setup.federate_s", phase(|p| p.federate_s), "s");
    m.add("setup.integrate_s", phase(|p| p.integrate_s), "s");
    m
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Warm in-process `PreparedQuery::execute` per class: median µs.
fn execute_probe(
    ds: &Dataspace,
    binds: &Bindings,
    sample: &[(usize, usize)],
    tracer: &Tracer,
) -> (f64, f64) {
    let prepared: Vec<_> = QUERIES
        .iter()
        .map(|q| ds.prepare(q.text).expect("query prepares in process"))
        .collect();
    for (q, p) in prepared.iter().enumerate() {
        p.execute(binds.params(q, 0)).expect("warm-up answers");
    }
    let (mut point, mut join) = (Vec::new(), Vec::new());
    tracer.span("probe.core.execute", 0, 0, |parent| {
        for (i, &(q, b)) in sample.iter().enumerate() {
            let start = Instant::now();
            tracer.span("core.execute", parent, i as u64 + 1, |_| {
                std::hint::black_box(
                    prepared[q]
                        .execute(binds.params(q, b))
                        .expect("probe read answers"),
                )
            });
            let us = micros(start);
            if QUERIES[q].point {
                point.push(us);
            } else {
                join.push(us);
            }
        }
    });
    (median(&point), median(&join))
}

/// A `pedro.protein` commit that no read binding matches.
fn unrelated_commit(ds: &mut Dataspace, rng: &mut Rng, n: &mut i64) {
    *n += 1;
    let row = protein_row(rng, 3_000_000 + *n, format!("PROBE{n:06}"));
    ds.insert("pedro", "protein", row)
        .expect("probe row commits");
}

/// Each query executed immediately after one unrelated commit: mean µs per
/// class over `COLD_ROUNDS` rounds of Q1–Q7.
fn cold_probe(ds: &mut Dataspace, binds: &Bindings, seed: u64, tracer: &Tracer) -> (f64, f64) {
    let mut rng = Rng::new(seed ^ 0xC01D);
    let mut n = 0;
    let (mut point, mut join) = (Vec::new(), Vec::new());
    tracer.span("probe.core.cold_read", 0, 0, |parent| {
        for _ in 0..COLD_ROUNDS {
            for (q, query) in QUERIES.iter().enumerate() {
                unrelated_commit(ds, &mut rng, &mut n);
                let prepared = ds.prepare(query.text).expect("query prepares in process");
                let start = Instant::now();
                tracer.span("core.execute", parent, q as u64 + 1, |_| {
                    std::hint::black_box(
                        prepared
                            .execute(binds.params(q, 0))
                            .expect("cold read answers"),
                    )
                });
                let us = micros(start);
                if query.point {
                    point.push(us);
                } else {
                    join.push(us);
                }
            }
        }
    });
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    (mean(&point), mean(&join))
}

/// A bare global-extent read after an unrelated commit, minus the same read
/// warm: what rebuilding one extent costs (median µs).
fn extent_rebuild_probe(ds: &mut Dataspace, seed: u64, tracer: &Tracer) -> f64 {
    const EXTENT: &str = "<<UPeptideHit, sequence>>";
    let mut rng = Rng::new(seed ^ 0xE7E7);
    let mut n = 1000;
    let read = |ds: &Dataspace, name: &'static str, parent: u64| {
        let start = Instant::now();
        tracer.span(name, parent, 0, |_| {
            std::hint::black_box(ds.query(EXTENT).expect("extent answers"))
        });
        micros(start)
    };
    tracer.span("probe.automed.extent_rebuild", 0, 0, |parent| {
        read(ds, "automed.extent.warm", parent);
        let warm: Vec<f64> = (0..15)
            .map(|_| read(ds, "automed.extent.warm", parent))
            .collect();
        let cold: Vec<f64> = (0..COLD_ROUNDS * 2)
            .map(|_| {
                unrelated_commit(ds, &mut rng, &mut n);
                read(ds, "automed.extent.cold", parent)
            })
            .collect();
        (median(&cold) - median(&warm)).max(0.0)
    })
}

/// Request/response encode + decode replayed on the run's own reads: mean µs
/// per request.
fn read_codec_probe(
    ds: &Dataspace,
    binds: &Bindings,
    sample: &[(usize, usize)],
    tracer: &Tracer,
) -> f64 {
    let prepared: Vec<_> = QUERIES
        .iter()
        .map(|q| ds.prepare(q.text).expect("query prepares in process"))
        .collect();
    let messages: Vec<(Request, Response)> = sample
        .iter()
        .map(|&(q, b)| {
            let params: Params = binds.params(q, b).clone();
            let rows = prepared[q]
                .execute(&params)
                .expect("probe read answers")
                .into_items();
            (
                Request::Execute {
                    handle: q as u64 + 1,
                    params,
                    chunk_rows: 0,
                },
                Response::Chunk { rows, done: true },
            )
        })
        .collect();
    codec_probe(&messages, ReqOp::Execute, RespOp::Chunk, tracer)
}

fn insert_codec_probe(batches: &[Vec<Vec<Value>>], tracer: &Tracer) -> f64 {
    let messages: Vec<(Request, Response)> = batches
        .iter()
        .take(READ_SAMPLE)
        .map(|rows| {
            (
                Request::Insert {
                    source: "pedro".into(),
                    table: "protein".into(),
                    rows: rows.clone(),
                },
                Response::Inserted {
                    rows: rows.len() as u64,
                },
            )
        })
        .collect();
    codec_probe(&messages, ReqOp::Insert, RespOp::Inserted, tracer)
}

fn codec_probe(
    messages: &[(Request, Response)],
    req_op: ReqOp,
    resp_op: RespOp,
    tracer: &Tracer,
) -> f64 {
    let mut total = 0.0;
    tracer.span("probe.wire.codec", 0, 0, |parent| {
        for (i, (request, response)) in messages.iter().enumerate() {
            let start = Instant::now();
            tracer.span("wire.codec", parent, i as u64 + 1, |_| {
                let body = request.encode_body();
                Request::decode(req_op as u8, &body).expect("request round-trips");
                let body = response.encode_body();
                Response::decode(resp_op as u8, &body).expect("response round-trips");
            });
            total += micros(start);
        }
    });
    ratio(total, messages.len() as f64)
}

/// `Dataspace::insert_many` over the run's batches on a fresh dataspace,
/// with or without the commit log and the two standing subscriptions:
/// median µs per batch.
fn replay_probe(
    batches: &[Vec<Vec<Value>>],
    subs: bool,
    wal: Option<&Path>,
    tracer: &Tracer,
) -> f64 {
    let (mut ds, _) = build_dataspace(None);
    if let Some(path) = wal {
        std::fs::remove_file(path).ok();
        ds.open(path).expect("probe log attaches");
    }
    let subscriptions: Vec<_> = if subs {
        [FEED, COUNT]
            .iter()
            .map(|text| {
                let q = ds.prepare(text).expect("subscription query prepares");
                ds.subscribe(&q, &Params::new()).expect("probe subscribes")
            })
            .collect()
    } else {
        Vec::new()
    };
    let name = match (subs, wal.is_some()) {
        (true, _) => "probe.core.insert_subs",
        (false, true) => "probe.core.insert_wal",
        (false, false) => "probe.relational.commit",
    };
    let mut times = Vec::with_capacity(batches.len());
    tracer.span(name, 0, 0, |parent| {
        for (i, batch) in batches.iter().enumerate() {
            let start = Instant::now();
            tracer.span("core.insert_many", parent, i as u64 + 1, |_| {
                ds.insert_many("pedro", "protein", batch.clone())
                    .expect("replayed batch commits")
            });
            times.push(micros(start));
            for sub in &subscriptions {
                sub.drain_updates();
            }
        }
    });
    if let Some(path) = wal {
        drop(ds);
        std::fs::remove_file(path).ok();
    }
    median(&times)
}

#[derive(Default)]
struct WalProbe {
    append_us: f64,
    bytes_per_row: f64,
    compact_ms: f64,
    compact_bytes: f64,
    replay_rows_per_s: f64,
}

/// `CommitLog::append` of the run's batches on a scratch log, then
/// `compact`, then `Dataspace::open` replaying the compacted log.
fn wal_probe(batches: &[Vec<Vec<Value>>], path: &Path, tracer: &Tracer) -> WalProbe {
    std::fs::remove_file(path).ok();
    let mut log = CommitLog::open(path, false).expect("scratch log opens").log;
    let header = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut times = Vec::with_capacity(batches.len());
    tracer.span("probe.relational.wal_append", 0, 0, |parent| {
        for (i, rows) in batches.iter().enumerate() {
            let record = LogRecord {
                snapshot: i as u64 + 1,
                source: "pedro".into(),
                table: "protein".into(),
                rows: rows.clone(),
            };
            let start = Instant::now();
            tracer.span("relational.wal.append", parent, i as u64 + 1, |_| {
                log.append(&record).expect("scratch append")
            });
            times.push(micros(start));
        }
    });
    let rows: usize = batches.iter().map(Vec::len).sum();
    let size = || std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) as f64;
    let bytes_per_row = ratio(size() - header as f64, rows as f64);
    let start = Instant::now();
    tracer.span("relational.wal.compact", 0, 0, |_| {
        log.compact().expect("scratch log compacts")
    });
    let compact_ms = start.elapsed().as_secs_f64() * 1e3;
    let compact_bytes = size();
    drop(log);
    let (mut ds, _) = build_dataspace(None);
    let start = Instant::now();
    tracer.span("core.open", 0, 0, |_| {
        ds.open(path).expect("scratch log replays")
    });
    let replay_s = start.elapsed().as_secs_f64();
    drop(ds);
    std::fs::remove_file(path).ok();
    WalProbe {
        append_us: median(&times),
        bytes_per_row,
        compact_ms,
        compact_bytes,
        replay_rows_per_s: ratio(rows as f64, replay_s),
    }
}
