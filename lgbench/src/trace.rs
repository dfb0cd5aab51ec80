//! In-memory spans around the calls the harness makes into each layer.
//!
//! A traced run wraps every call into the engine, the session or the client
//! in a span `{name, start_ns, end_ns, parent, op_id}`; spans of one
//! operation share its `op_id` and nest under its `op.*` span. They stay in
//! memory until the measured phase is over, then feed the per-layer medians
//! and are written to `trace-<workload>.json`. Untraced runs use
//! [`NoTrace`], which compiles to the bare call.

use std::time::Instant;

/// Span names. `Op*` are the operation spans; the rest are calls into one
/// layer (the part of the name before the dot is the layer's module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Sp {
    OpRead,
    OpWrite,
    BeginRead,
    BeginWrite,
    EndRead,
    GetVertex,
    PutVertex,
    CreateVertex,
    PutEdge,
    DeleteEdge,
    ListScan,
    GetEdge,
    Degree,
    Commit,
    ClientCall,
}

impl Sp {
    pub fn name(self) -> &'static str {
        match self {
            Sp::OpRead => "op.read",
            Sp::OpWrite => "op.write",
            Sp::BeginRead => "core.txn.begin_read",
            Sp::BeginWrite => "core.txn.begin_write",
            Sp::EndRead => "core.txn.end_read",
            Sp::GetVertex => "core.txn.get_vertex",
            Sp::PutVertex => "core.txn.put_vertex",
            Sp::CreateVertex => "core.txn.create_vertex",
            Sp::PutEdge => "core.txn.put_edge",
            Sp::DeleteEdge => "core.txn.delete_edge",
            Sp::ListScan => "core.tel.list_scan",
            Sp::GetEdge => "core.tel.get_edge",
            Sp::Degree => "core.tel.degree",
            Sp::Commit => "core.commit.commit",
            Sp::ClientCall => "server.client.call",
        }
    }

    pub fn is_op(self) -> bool {
        matches!(self, Sp::OpRead | Sp::OpWrite)
    }
}

/// Index of "no parent".
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Sp,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work the call reported (edges visited by a scan), 0 otherwise.
    pub work: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the adapter calls around each call into a layer.
pub trait Tracer {
    /// Opens a span nested under the innermost open one.
    fn open(&mut self, name: Sp) -> u32;
    /// Closes the span `open` returned, recording the work it reported
    /// (edges visited by a scan; 0 otherwise).
    fn close(&mut self, token: u32, work: u32);

    /// A span around one call that opens no further spans.
    #[inline(always)]
    fn leaf<R>(&mut self, name: Sp, f: impl FnOnce() -> R) -> R {
        let token = self.open(name);
        let r = f();
        self.close(token, 0);
        r
    }
}

/// Tracing off: the bare call.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn open(&mut self, _name: Sp) -> u32 {
        NO_PARENT
    }

    #[inline(always)]
    fn close(&mut self, _token: u32, _work: u32) {}
}

/// One thread's span buffer.
pub struct Spans {
    origin: Instant,
    buf: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Spans {
    /// `origin` is shared by all threads of a run so their spans line up.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            buf: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op_id: 0,
            dropped: 0,
        }
    }

    /// Sets the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.buf
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Tracer for Spans {
    #[inline]
    fn open(&mut self, name: Sp) -> u32 {
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let ix = self.buf.len() as u32;
        let start_ns = self.now_ns();
        self.buf.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op_id: self.op_id,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.open.push(ix);
        ix
    }

    #[inline]
    fn close(&mut self, token: u32, work: u32) {
        if token == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.buf[token as usize];
        span.end_ns = end_ns;
        span.work = work;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(token), "spans close innermost first");
    }
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: Sp) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Self time (ns) of every op span: its duration minus what its direct
/// children cover — the retry loop, payload tagging and the tracer itself.
pub fn op_self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name.is_op())
        .map(|(s, &c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Writes at most `limit` spans per thread as one JSON document.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    threads: &[&[Span]],
    limit: usize,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"unit\": \"ns since run origin\", \"threads\": ["
    )?;
    for (t, spans) in threads.iter().enumerate() {
        writeln!(
            w,
            "{{\"thread\": {t}, \"recorded\": {}, \"written\": {}, \"spans\": [",
            spans.len(),
            spans.len().min(limit)
        )?;
        // A parent always precedes its children, so cutting at `limit`
        // never leaves a written span pointing at an unwritten parent.
        for (i, s) in spans.iter().take(limit).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                w,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}, \"work\": {}}}",
                s.name.name(),
                s.start_ns,
                s.end_ns,
                s.op_id,
                s.work
            )?;
        }
        let sep = if t + 1 == threads.len() { "" } else { "," };
        writeln!(w, "\n]}}{sep}")?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Spans::new(Instant::now(), 16);
        t.set_op(42);
        let op = t.open(Sp::OpRead);
        t.leaf(Sp::BeginRead, || ());
        let scan = t.open(Sp::ListScan);
        t.close(scan, 7);
        t.close(op, 0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert!(s.iter().all(|s| s.op_id == 42));
        assert_eq!(s[2].work, 7);
        assert!(s[0].end_ns >= s[2].end_ns && s[0].start_ns <= s[1].start_ns);

        let spans = [
            Span {
                name: Sp::OpWrite,
                parent: NO_PARENT,
                op_id: 1,
                start_ns: 0,
                end_ns: 100,
                work: 0,
            },
            Span {
                name: Sp::BeginWrite,
                parent: 0,
                op_id: 1,
                start_ns: 5,
                end_ns: 25,
                work: 0,
            },
            Span {
                name: Sp::Commit,
                parent: 0,
                op_id: 1,
                start_ns: 30,
                end_ns: 90,
                work: 0,
            },
        ];
        assert_eq!(op_self_times(&spans), vec![20]);
        assert_eq!(durations(&spans, Sp::Commit), vec![60]);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut t = Spans::new(Instant::now(), 1);
        t.leaf(Sp::Commit, || ());
        t.leaf(Sp::Commit, || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
