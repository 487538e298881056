//! In-memory spans for the traced run. The benchmark records a span around
//! each call it makes into a layer's public functions; spans inside the
//! program itself are out of scope. Spans are written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's id so
    /// calls it makes can name it as their parent; `request` ties the spans
    /// of one request together (0 for work outside any request).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: (start - self.epoch).as_nanos(),
            end_ns: (end - self.epoch).as_nanos(),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
        out
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list lock is not poisoned")
            .len()
    }

    /// Write every span as one JSON object per line, in start order.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span list lock is not poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// [`Tracer::span`] when tracing, a plain call otherwise.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    request: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, request, f),
        None => f(0),
    }
}
