//! What every workload starts from: a freshly built integrated dataspace, a
//! server in front of it, the Table 1 query catalogue, and seeded bindings.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use dataspace_core::dataspace::{Dataspace, DataspaceConfig};
use iql::{Bag, Params, Value};
use proteomics::intersection_integration::all_iterations;
use proteomics::queries::{self, Q1_IQL, Q2_IQL, Q3_IQL, Q4_IQL, Q5_IQL, Q6_IQL, Q7_IQL};
use proteomics::sources::{generate_gpmdb, generate_pedro, generate_pepseeker, CaseStudyScale};

use crate::trace::{traced, Tracer};

/// `CaseStudyScale::scaled(SCALE_FACTOR)`: every extent fits the extent
/// memo's default budget (64 MiB / 1024 entries), so warm reads are the
/// in-cache case.
pub const SCALE_FACTOR: usize = 4;

pub fn scale() -> CaseStudyScale {
    CaseStudyScale::scaled(SCALE_FACTOR)
}

/// Wall time of the three set-up phases, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub federate_s: f64,
    pub integrate_s: f64,
}

/// Generate the three sources, federate them and apply the five
/// intersection iterations (redundant objects kept, as in the repo's benches).
pub fn build_dataspace(tracer: Option<&Tracer>) -> (Dataspace, SetupTimes) {
    let scale = scale();
    traced(tracer, "setup.build", 0, 0, |parent| {
        let start = Instant::now();
        let sources = traced(tracer, "setup.generate", parent, 0, |_| {
            [
                generate_pedro(&scale),
                generate_gpmdb(&scale),
                generate_pepseeker(&scale),
            ]
        });
        let generated = Instant::now();
        let mut ds = Dataspace::with_config(DataspaceConfig {
            drop_redundant: false,
            ..Default::default()
        });
        traced(tracer, "setup.federate", parent, 0, |_| {
            for db in sources {
                ds.add_source(db).expect("case-study source registers");
            }
            ds.federate().expect("sources federate");
        });
        let federated = Instant::now();
        traced(tracer, "setup.integrate", parent, 0, |_| {
            for (_query, spec) in all_iterations().expect("iteration specs build") {
                ds.integrate(spec).expect("iteration integrates");
            }
        });
        let times = SetupTimes {
            generate_s: (generated - start).as_secs_f64(),
            federate_s: (federated - generated).as_secs_f64(),
            integrate_s: federated.elapsed().as_secs_f64(),
        };
        (ds, times)
    })
}

/// A dataspace served over loopback TCP, shared with the benchmark process
/// so answers can be checked in process against the same state.
pub struct Service {
    pub ds: Arc<RwLock<Dataspace>>,
    handle: server::ServerHandle,
}

impl Service {
    pub fn start(ds: Dataspace) -> Service {
        let ds = Arc::new(RwLock::new(ds));
        let handle = server::serve(
            Arc::clone(&ds),
            ("127.0.0.1", 0),
            server::ServerConfig::default(),
        )
        .expect("loopback server binds");
        Service { ds, handle }
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    pub fn server_counters(&self) -> Vec<(String, u64)> {
        self.handle.stats().snapshot()
    }

    /// Shut the server down (joining every session thread) and hand back the
    /// dataspace for in-process checks.
    pub fn stop(self) -> Arc<RwLock<Dataspace>> {
        self.handle.shutdown();
        self.ds
    }
}

/// Build a dataspace, attach the commit log at `wal` if given, and serve it.
/// Returns the service and the wall time of the whole set-up.
pub fn start_service(wal: Option<&Path>, tracer: Option<&Tracer>) -> (Service, SetupTimes, f64) {
    let start = Instant::now();
    let (mut ds, times) = build_dataspace(tracer);
    if let Some(path) = wal {
        std::fs::remove_file(path).ok();
        ds.open(path).expect("fresh commit log attaches");
    }
    let service = Service::start(ds);
    (service, times, start.elapsed().as_secs_f64())
}

/// One Table 1 priority query and its share of the read mix.
pub struct Query {
    pub name: &'static str,
    pub text: &'static str,
    /// Point lookups (Q1, Q3, Q6) against joins (Q2, Q4, Q5, Q7).
    pub point: bool,
    /// Relative frequency in the read mix: 60% points and 40% joins, split
    /// evenly within each class. Only the 60/40 split is specified; no
    /// traffic trace ranks the queries, so none is weighted above another.
    pub weight: u32,
}

pub const QUERIES: [Query; 7] = [
    Query {
        name: "Q1",
        text: Q1_IQL,
        point: true,
        weight: 20,
    },
    Query {
        name: "Q2",
        text: Q2_IQL,
        point: false,
        weight: 10,
    },
    Query {
        name: "Q3",
        text: Q3_IQL,
        point: true,
        weight: 20,
    },
    Query {
        name: "Q4",
        text: Q4_IQL,
        point: false,
        weight: 10,
    },
    Query {
        name: "Q5",
        text: Q5_IQL,
        point: false,
        weight: 10,
    },
    Query {
        name: "Q6",
        text: Q6_IQL,
        point: true,
        weight: 20,
    },
    Query {
        name: "Q7",
        text: Q7_IQL,
        point: false,
        weight: 10,
    },
];

/// Distinct bindings per query, drawn from the data's own accession, peptide
/// and hit pools in a seeded order: the script's skew makes the first
/// entries hot, so each seed heats a different set of keys.
pub const BINDINGS_PER_QUERY: usize = 256;

/// The organism of every row the benchmark writes. It is in no source, so
/// only the fresh read (Q3 bound to it) sees the writes.
pub const FRESH_ORGANISM: &str = "Perfbench organism";
/// Q3's position in [`QUERIES`].
const Q3: usize = 2;
/// One Q3 draw in this many is the fresh read.
const FRESH_EVERY: usize = 8;

pub struct Bindings {
    pub per_query: Vec<Vec<Params>>,
}

impl Bindings {
    pub fn params(&self, query: usize, binding: usize) -> &Params {
        &self.per_query[query][binding]
    }

    /// The fresh read: Q3 bound to [`FRESH_ORGANISM`], the last Q3 binding.
    /// Its answer is exactly the rows written so far.
    pub fn fresh(&self) -> (usize, usize) {
        (Q3, self.per_query[Q3].len() - 1)
    }
}

pub fn bindings(ds: &Dataspace, seed: u64) -> Bindings {
    let mut rng = Rng::new(seed ^ 0xB1D5);
    let mut pool = |text: &str| {
        let mut values = ds
            .query(text)
            .expect("pool query answers")
            .distinct()
            .canonical();
        rng.shuffle(&mut values);
        values.truncate(BINDINGS_PER_QUERY);
        values
    };
    let accessions = pool("[x | {s, k, x} <- <<UProtein, accession_num>>]");
    let organisms = pool("[o | {s, k, o} <- <<UProtein, organism>>]");
    let sequences = pool("[seq | {s, k, seq} <- <<UPeptideHit, sequence>>]");
    let peptide_proteins = pool(
        "[{seq, p} | {s1, k1, seq} <- <<UPeptideHit, sequence>>; \
         {{s1b, k1b}, {s2, k2}} <- <<uPeptideHitToProteinHit_mm>>; s1b = s1; k1b = k1; \
         {s3, k3, p} <- <<UProteinHit, protein>>; s3 = s2; k3 = k2]",
    );
    let hits = pool("[{s2, k2} | {{s1, k1}, {s2, k2}} <- <<uPeptideHitToProteinHit_mm>>]");
    let text = |v: &Value| match v {
        Value::Str(s) => s.to_string(),
        other => panic!("pool value {other} is not a string"),
    };
    let pair = |v: &Value| match v {
        Value::Tuple(items) if items.len() == 2 => (items[0].clone(), items[1].clone()),
        other => panic!("pool value {other} is not a pair"),
    };
    let groups = (0..accessions.len())
        .map(|i| {
            let group: Vec<String> = (0..3)
                .map(|j| text(&accessions[(i + j * 7) % accessions.len()]))
                .collect();
            queries::q2(&group.iter().map(String::as_str).collect::<Vec<_>>())
        })
        .collect();
    let per_query = vec![
        accessions.iter().map(|a| queries::q1(&text(a))).collect(),
        groups,
        organisms
            .iter()
            .map(|o| queries::q3(&text(o)))
            .chain([queries::q3(FRESH_ORGANISM)])
            .collect(),
        sequences.iter().map(|s| queries::q4(&text(s))).collect(),
        peptide_proteins
            .iter()
            .map(|v| {
                let (seq, protein) = pair(v);
                Params::new().with("sequence", seq).with("protein", protein)
            })
            .collect(),
        hits.iter()
            .map(|v| {
                let (source, hit) = pair(v);
                Params::new().with("source", source).with("hit", hit)
            })
            .collect(),
        vec![queries::q7()],
    ];
    Bindings { per_query }
}

/// A closed-loop client's request sequence: `(query, binding)` pairs drawn
/// by the mix weights, bindings skewed towards the front of each pool
/// (index = n·u³, so half the draws hit the first eighth). The skew is an
/// assumption, not a measured access pattern: analysis clients revisit a
/// small set of proteins and peptides, and a cubic keeps that hot set small
/// while the tail still reaches every binding. One Q3 draw in
/// `FRESH_EVERY` is the fresh read instead.
pub fn script(bindings: &Bindings, seed: u64, len: usize) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed);
    let total: u32 = QUERIES.iter().map(|q| q.weight).sum();
    (0..len)
        .map(|_| {
            let mut pick = rng.below(total as usize) as u32;
            let query = QUERIES
                .iter()
                .position(|q| {
                    if pick < q.weight {
                        return true;
                    }
                    pick -= q.weight;
                    false
                })
                .expect("weights cover the draw");
            if query == Q3 && rng.below(FRESH_EVERY) == 0 {
                return bindings.fresh();
            }
            let n = bindings.per_query[query].len() - usize::from(query == Q3);
            let binding = ((rng.unit().powi(3) * n as f64) as usize).min(n - 1);
            (query, binding)
        })
        .collect()
}

/// Order-insensitive digest of a result: row count plus the wrapping sum of
/// per-row hashes. Wire rows and in-process bags are compared through it.
pub type Fingerprint = (usize, u64);

pub fn fingerprint(rows: &[Value]) -> Fingerprint {
    let sum = rows.iter().fold(0u64, |acc, row| {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    });
    (rows.len(), sum)
}

pub fn bag_fingerprint(bag: &Bag) -> Fingerprint {
    fingerprint(bag.items())
}

/// splitmix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A `pedro.protein` row that only the fresh read matches: its accession
/// and organism lie outside every pool, so every other read keeps its answer.
/// The description's length is seeded, so seeds vary the bytes written.
pub fn protein_row(rng: &mut Rng, id: i64, accession: String) -> Vec<Value> {
    let extra: String = (0..rng.below(25))
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect();
    vec![
        id.into(),
        accession.into(),
        format!("perfbench insert {extra}").into(),
        FRESH_ORGANISM.into(),
        Value::Float((1000.0 + rng.unit() * 9000.0).round()),
        "GENEPB".into(),
    ]
}

/// Bytes of user data in a row: 8 per number, the UTF-8 length per string.
pub fn user_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            Value::Null => 0,
            Value::Bool(_) => 1,
            _ => 8,
        })
        .sum()
}
