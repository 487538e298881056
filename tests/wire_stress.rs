//! Concurrent clients vs an in-process differential oracle.
//!
//! N client threads hammer one server with a mix of prepares, executes
//! (point and streamed), subscribes and inserts. An identically seeded
//! in-process dataspace mirrors every insert (applied under one lock so both
//! sides see the same commit order); when the dust settles, every query
//! answered over the wire must equal in-process execution — rows **and
//! order** — and every standing subscription must have received exactly one
//! push per delta.

#[path = "wire_support/mod.rs"]
mod wire_support;

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use iql::{Params, Value};
use server::ServerConfig;
use wire::{encode_frame, Client, FrameReader, PushUpdate, Request, Response};

use wire_support::{eventually, integrated, serve_with, ALPHA_SEED, BETA_SEED, INCREMENTAL_SHAPE};

const POINT_SHAPE: &str = "[{s, k} | {s, k, x} <- <<UAcc, label>>; x = ?label]";
const SCAN_SHAPE: &str = "[{s, k, x} | {s, k, x} <- <<UAcc, label>>]";

#[test]
fn concurrent_clients_match_in_process_execution() {
    const THREADS: i64 = 4;
    const ROUNDS: i64 = 6;

    let (handle, addr, _ds) = serve_with(ServerConfig {
        exec_permits: 2, // contended on purpose
        ..ServerConfig::default()
    });
    // The oracle: an identically seeded dataspace, mirrored insert-for-insert.
    let oracle = Arc::new(RwLock::new(integrated(ALPHA_SEED, BETA_SEED)));
    // One lock serialises each wire insert with its oracle mirror, so both
    // dataspaces commit the same rows in the same order.
    let insert_order = Arc::new(Mutex::new(()));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let oracle = Arc::clone(&oracle);
            let insert_order = Arc::clone(&insert_order);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (point, _) = client.prepare(POINT_SHAPE).unwrap();
                let (scan, _) = client.prepare(SCAN_SHAPE).unwrap();
                for round in 0..ROUNDS {
                    // Disjoint id ranges per thread keep the primary key happy.
                    let id = 1000 + t * 100 + round;
                    let label = format!("T{t}R{round}");
                    {
                        let _serialised = insert_order.lock().unwrap();
                        client
                            .insert("alpha", "t", vec![vec![id.into(), label.as_str().into()]])
                            .unwrap();
                        oracle
                            .write()
                            .unwrap()
                            .insert("alpha", "t", vec![id.into(), label.as_str().into()])
                            .unwrap();
                    }
                    // Point lookup for the row just inserted: committed before
                    // the insert reply, so it must be visible.
                    let hits = client
                        .execute(point, &Params::new().with("label", label.as_str()))
                        .unwrap();
                    assert_eq!(hits.len(), 1, "thread {t} round {round}");
                    // Streamed scan with a small chunk to exercise ack-paced
                    // chunking under concurrency.
                    let (rows, chunks) = client.execute_chunked(scan, &Params::new(), 3).unwrap();
                    assert!(chunks >= 2);
                    assert!(rows.len() >= ALPHA_SEED.len() + BETA_SEED.len());
                }
                client.close().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }

    // Differential check: the full scan and every point lookup agree with the
    // oracle exactly (both sides committed the same rows in the same order).
    let mut client = Client::connect(addr).unwrap();
    let wire_rows = client.query(SCAN_SHAPE).unwrap();
    let oracle_rows = oracle.read().unwrap().query(SCAN_SHAPE).unwrap();
    assert_eq!(wire_rows, oracle_rows.into_items());
    assert_eq!(
        wire_rows.len(),
        ALPHA_SEED.len() + BETA_SEED.len() + (THREADS * ROUNDS) as usize
    );

    let (point, _) = client.prepare(POINT_SHAPE).unwrap();
    for t in 0..THREADS {
        for round in 0..ROUNDS {
            let label = format!("T{t}R{round}");
            let params = Params::new().with("label", label.as_str());
            let via_wire = client.execute(point, &params).unwrap();
            let via_oracle = oracle
                .read()
                .unwrap()
                .prepare(POINT_SHAPE)
                .unwrap()
                .execute(&params)
                .unwrap();
            assert_eq!(via_wire, via_oracle.into_items(), "label {label}");
        }
    }

    assert_eq!(handle.stats().session_panics(), 0);
    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn standing_subscription_pushes_arrive_exactly_once_per_delta() {
    const INSERTS: usize = 8;

    let (handle, addr, ds) = serve_with(ServerConfig::default());

    // Subscriber client: standing query on the O(delta)-maintained shape.
    let mut subscriber = Client::connect(addr).unwrap();
    let (h, _) = subscriber.prepare(INCREMENTAL_SHAPE).unwrap();
    let (sub_id, initial) = subscriber.subscribe(h, &Params::new()).unwrap();
    let Value::Bag(initial) = initial else {
        panic!("bag-shaped standing result")
    };
    assert_eq!(initial.len(), ALPHA_SEED.len());
    eventually("subscription registered", || {
        ds.read().unwrap().stats().subscriptions == 1
    });

    // Writer client: one single-row batch per delta.
    let mut writer = Client::connect(addr).unwrap();
    for i in 0..INSERTS {
        let id = 500 + i as i64;
        writer
            .insert(
                "alpha",
                "t",
                vec![vec![id.into(), format!("PUSH{i}").as_str().into()]],
            )
            .unwrap();
    }

    // Exactly one Delta push per insert, each carrying exactly its one row,
    // in commit order.
    let mut pushed = Vec::new();
    while pushed.len() < INSERTS {
        match subscriber.recv_push(Duration::from_secs(5)).unwrap() {
            Some((got_sub, PushUpdate::Delta(rows))) => {
                assert_eq!(got_sub, sub_id);
                assert_eq!(rows.len(), 1, "one row per single-row delta");
                pushed.extend(rows);
            }
            Some((_, PushUpdate::Refreshed(_))) => {
                panic!("identity-extent shape must take the O(delta) path")
            }
            None => panic!("missing push: got {} of {INSERTS}", pushed.len()),
        }
    }
    assert_eq!(
        pushed,
        (0..INSERTS)
            .map(|i| Value::str(format!("PUSH{i}")))
            .collect::<Vec<_>>()
    );
    // ... and not a single push more.
    assert!(
        subscriber
            .recv_push(Duration::from_millis(300))
            .unwrap()
            .is_none(),
        "exactly once means no extras"
    );

    // Folding initial + deltas reproduces re-execution.
    let mut folded: Vec<Value> = initial.into_items();
    folded.extend(pushed);
    let reexecuted = writer.query(INCREMENTAL_SHAPE).unwrap();
    assert_eq!(folded, reexecuted);

    assert!(handle.stats().pushes_sent() >= INSERTS as u64);

    // Unsubscribe stops the flow: a further insert pushes nothing.
    subscriber.unsubscribe(sub_id).unwrap();
    eventually("subscription dropped", || {
        ds.read().unwrap().stats().subscriptions == 0
    });
    writer
        .insert("alpha", "t", vec![vec![900.into(), "AFTER".into()]])
        .unwrap();
    assert!(subscriber
        .recv_push(Duration::from_millis(300))
        .unwrap()
        .is_none());

    subscriber.close().unwrap();
    writer.close().unwrap();
    handle.shutdown();
}

#[test]
fn mixed_subscribers_and_writers_stay_consistent() {
    const WRITERS: i64 = 3;
    const ROUNDS: i64 = 5;

    let (handle, addr, _ds) = serve_with(ServerConfig::default());

    let mut subscriber = Client::connect(addr).unwrap();
    let (h, _) = subscriber.prepare(INCREMENTAL_SHAPE).unwrap();
    let (sub_id, initial) = subscriber.subscribe(h, &Params::new()).unwrap();
    let initial_len = match &initial {
        Value::Bag(b) => b.len(),
        other => panic!("expected bag, got {other:?}"),
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    let id = 2000 + t * 100 + round;
                    client
                        .insert(
                            "alpha",
                            "t",
                            vec![vec![id.into(), format!("W{t}R{round}").as_str().into()]],
                        )
                        .unwrap();
                }
                client.close().unwrap();
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }

    // Every committed delta arrives exactly once: the pushed rows (in some
    // commit order) plus the initial result must equal re-execution.
    let expected = (WRITERS * ROUNDS) as usize;
    let mut pushed = Vec::new();
    while pushed.len() < expected {
        match subscriber.recv_push(Duration::from_secs(5)).unwrap() {
            Some((got_sub, PushUpdate::Delta(rows))) => {
                assert_eq!(got_sub, sub_id);
                pushed.extend(rows);
            }
            Some((_, PushUpdate::Refreshed(_))) => panic!("unexpected fallback refresh"),
            None => panic!("missing pushes: got {} of {expected}", pushed.len()),
        }
    }
    assert!(subscriber
        .recv_push(Duration::from_millis(300))
        .unwrap()
        .is_none());
    assert_eq!(pushed.len(), expected);

    let final_rows = subscriber.query(INCREMENTAL_SHAPE).unwrap();
    assert_eq!(final_rows.len(), initial_len + expected);
    // Same rows, and the pushes replay the commit order exactly: the stream
    // tail equals the final result's tail.
    assert_eq!(final_rows[initial_len..], pushed[..]);

    assert_eq!(handle.stats().session_panics(), 0);
    subscriber.close().unwrap();
    handle.shutdown();
}

#[test]
fn pushes_reach_another_connection_without_waiting_for_a_poll() {
    const INSERTS: usize = 21;

    let (handle, addr, _ds) = serve_with(ServerConfig::default());
    let mut subscriber = Client::connect(addr).unwrap();
    let (h, _) = subscriber.prepare(INCREMENTAL_SHAPE).unwrap();
    let (sub_id, _) = subscriber.subscribe(h, &Params::new()).unwrap();

    // Insert on one connection, time until the push lands on the other.
    let mut writer = Client::connect(addr).unwrap();
    let mut lags = Vec::with_capacity(INSERTS);
    for i in 0..INSERTS {
        let id = 700 + i as i64;
        let sent = Instant::now();
        writer
            .insert(
                "alpha",
                "t",
                vec![vec![id.into(), format!("LAG{i}").as_str().into()]],
            )
            .unwrap();
        let push = subscriber.recv_push(Duration::from_secs(5)).unwrap();
        lags.push(sent.elapsed());
        assert_eq!(
            push,
            Some((
                sub_id,
                PushUpdate::Delta(vec![Value::str(format!("LAG{i}"))])
            ))
        );
    }
    lags.sort();
    let median = lags[INSERTS / 2];
    assert!(
        median < Duration::from_millis(5),
        "median insert-to-push lag {median:?} (all: {lags:?})"
    );

    subscriber.close().unwrap();
    writer.close().unwrap();
    handle.shutdown();
}

/// A client speaking raw frames, so the test sees pushes and responses in
/// the exact order the server wrote them.
struct RawConn {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        RawConn {
            stream,
            reader: FrameReader::new(),
            next_id: 1,
        }
    }

    fn send(&mut self, request: &Request) -> u64 {
        use std::io::Write;
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_frame(id, request.opcode() as u8, &request.encode_body());
        self.stream.write_all(&frame).unwrap();
        id
    }

    /// The next frame as `(request id, response)`, or `None` after `quiet`
    /// passes without one.
    fn next(&mut self, quiet: Duration) -> Option<(u64, Response)> {
        let deadline = Instant::now() + quiet;
        while Instant::now() < deadline {
            if let Some(frame) = self.reader.poll(&mut self.stream).unwrap() {
                let response = Response::decode(frame.opcode, &frame.body).unwrap();
                return Some((frame.request_id, response));
            }
        }
        None
    }
}

/// Label of the `i`-th row the concurrent writer commits.
fn ordered_label(i: usize) -> Value {
    Value::str(format!("ORD{i}"))
}

/// Tracks one subscriber connection's view: which subscriptions are open or
/// closed, and how far each open one has been pushed. Panics on any push
/// that breaks the ordering contract.
struct PushAudit {
    /// The subscription currently open, and the index of the next row it
    /// must be pushed.
    open: Option<(u64, usize)>,
    closed: BTreeSet<u64>,
}

impl PushAudit {
    /// Account for one frame; returns the response if it was not a push.
    fn frame(&mut self, id: u64, response: Response) -> Option<(u64, Response)> {
        let Response::Push { sub_id, update } = response else {
            return Some((id, response));
        };
        assert!(
            !self.closed.contains(&sub_id),
            "push for subscription {sub_id} after its Unsubscribed response"
        );
        let Some((open, next)) = &mut self.open else {
            panic!("push for subscription {sub_id} before its Subscribed response");
        };
        assert_eq!(
            *open, sub_id,
            "push for {sub_id} before its Subscribed response"
        );
        let PushUpdate::Delta(rows) = update else {
            panic!("identity-extent shape must take the O(delta) path");
        };
        // One single-row batch per push, each exactly once, in commit order.
        assert_eq!(rows, vec![ordered_label(*next)], "subscription {sub_id}");
        *next += 1;
        None
    }

    /// Read frames until the response to `request`, auditing every push.
    fn await_response(&mut self, conn: &mut RawConn, request: u64) -> Response {
        loop {
            let (id, frame) = conn
                .next(Duration::from_secs(5))
                .expect("response within 5 s");
            if let Some((id, response)) = self.frame(id, frame) {
                assert_eq!(id, request, "unexpected response {response:?}");
                return response;
            }
        }
    }
}

#[test]
fn pushes_keep_commit_order_across_subscribe_unsubscribe_cycles() {
    const CYCLES: usize = 25;

    let (handle, addr, _ds) = serve_with(ServerConfig::default());

    // A writer committing one single-row batch after another until told to
    // stop; `committed` counts acknowledged batches.
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicUsize::new(0));
    let writer = {
        let (stop, committed) = (Arc::clone(&stop), Arc::clone(&committed));
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                client
                    .insert(
                        "alpha",
                        "t",
                        vec![vec![(50_000 + i as i64).into(), ordered_label(i)]],
                    )
                    .unwrap();
                i += 1;
                committed.store(i, Ordering::SeqCst);
            }
            client.close().unwrap();
        })
    };

    let mut conn = RawConn::connect(addr);
    let mut audit = PushAudit {
        open: None,
        closed: BTreeSet::new(),
    };
    let prepare = conn.send(&Request::Prepare {
        text: INCREMENTAL_SHAPE.into(),
    });
    let Response::Prepared { handle: shape, .. } = audit.await_response(&mut conn, prepare) else {
        panic!("prepare failed");
    };

    // Open a subscription; its initial result must hold the seed and then
    // the writer's rows 0..n in order, so the first push must be row n.
    let subscribe = |conn: &mut RawConn, audit: &mut PushAudit| {
        let request = conn.send(&Request::Subscribe {
            handle: shape,
            params: Params::new(),
        });
        let Response::Subscribed { sub_id, initial } = audit.await_response(conn, request) else {
            panic!("subscribe failed");
        };
        let Value::Bag(initial) = initial else {
            panic!("bag-shaped standing result")
        };
        let rows = initial.into_items();
        let written = rows.len() - ALPHA_SEED.len();
        assert_eq!(
            rows[ALPHA_SEED.len()..],
            (0..written).map(ordered_label).collect::<Vec<_>>()[..]
        );
        audit.open = Some((sub_id, written));
        sub_id
    };
    let unsubscribe = |conn: &mut RawConn, audit: &mut PushAudit, sub_id: u64| {
        let request = conn.send(&Request::Unsubscribe { sub_id });
        assert_eq!(audit.await_response(conn, request), Response::Unsubscribed);
        audit.open = None;
        audit.closed.insert(sub_id);
    };

    for _ in 0..CYCLES {
        let sub_id = subscribe(&mut conn, &mut audit);
        // Let a few commits land, auditing pushes as they come.
        let until = Instant::now() + Duration::from_millis(5);
        while Instant::now() < until {
            if let Some((id, frame)) = conn.next(Duration::from_millis(1)) {
                assert!(audit.frame(id, frame).is_none(), "unsolicited response");
            }
        }
        unsubscribe(&mut conn, &mut audit, sub_id);
    }

    // A last subscription must see every batch up to the writer's final one.
    let sub_id = subscribe(&mut conn, &mut audit);
    stop.store(true, Ordering::SeqCst);
    writer.join().expect("writer thread");
    let total = committed.load(Ordering::SeqCst);
    assert!(
        total > CYCLES,
        "the writer ran concurrently ({total} batches)"
    );
    while audit.open.expect("open").1 < total {
        let (id, frame) = conn
            .next(Duration::from_secs(5))
            .expect("every committed batch is pushed");
        assert!(audit.frame(id, frame).is_none(), "unsolicited response");
    }
    unsubscribe(&mut conn, &mut audit, sub_id);
    // Nothing further arrives for any subscription.
    assert!(conn.next(Duration::from_millis(100)).is_none());

    assert_eq!(handle.stats().session_panics(), 0);
    handle.shutdown();
}
