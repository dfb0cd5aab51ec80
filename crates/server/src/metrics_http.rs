//! Prometheus-style metrics exposition over HTTP.
//!
//! `--metrics-listen ADDR` (or [`MetricsExporter::start`] when embedding)
//! binds a tiny HTTP/1.0 listener that answers every `GET` with the
//! engine's full telemetry registry rendered in the Prometheus text
//! format: counters and gauges as single samples, latency histograms as
//! summaries with precomputed `quantile="0.5|0.95|0.99"` series plus
//! `_sum`, `_count` and `_max`. Histograms whose name ends in `_seconds`
//! record nanoseconds internally and are converted to seconds here, so
//! scraped values line up with Prometheus naming conventions.
//!
//! The exporter is deliberately not a real HTTP server: one accept loop,
//! one short-lived thread per scrape, `Connection: close`. Scrapes hit
//! [`Engine::metrics`] which takes a weak snapshot (see
//! `livegraph_core::telemetry`) — they never block the commit path.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use livegraph_core::{HistogramSnapshot, MetricsSnapshot};

use crate::engine::Engine;

/// Quantiles published for every histogram, as `(label, q)` pairs.
const QUANTILES: [(&str, f64); 3] = [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];

/// Renders one metrics snapshot in the Prometheus text exposition format.
///
/// Pure function of the snapshot — the HTTP layer, `livegraph-top`, and
/// the loopback tests all share it.
pub fn render_exposition(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for (name, value) in &snap.counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for h in &snap.histograms {
        render_histogram(&mut out, h);
    }
    out
}

/// Appends one histogram as a Prometheus summary.
fn render_histogram(out: &mut String, h: &HistogramSnapshot) {
    let name = &h.name;
    // `_seconds` histograms observe nanoseconds; everything else (record
    // counts, byte sizes) is already in its advertised unit.
    let scale = if name.ends_with("_seconds") { 1e-9 } else { 1.0 };
    out.push_str(&format!("# TYPE {name} summary\n"));
    for (label, q) in QUANTILES {
        let v = h.percentile(q) as f64 * scale;
        out.push_str(&format!("{name}{{quantile=\"{label}\"}} {}\n", fmt(v)));
    }
    out.push_str(&format!("{name}_sum {}\n", fmt(h.sum as f64 * scale)));
    out.push_str(&format!("{name}_count {}\n", h.count));
    out.push_str(&format!("{name}_max {}\n", fmt(h.max as f64 * scale)));
}

/// Formats a sample value: integral values print without a fraction so
/// count-like histograms stay integer-looking, latencies keep precision.
fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.9}")
    }
}

/// A running metrics endpoint; shuts down when dropped.
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Binds `addr` and serves the engine's telemetry until shutdown.
    pub fn start<A: ToSocketAddrs>(engine: Arc<Engine>, addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("lg-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    // ORDERING: Relaxed — shutdown flag, checked per accept.
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    let engine = engine.clone();
                    // One thread per scrape: scrapes are rare (seconds
                    // apart) and the response is a single write.
                    let _ = std::thread::Builder::new()
                        .name("lg-metrics-conn".into())
                        .spawn(move || {
                            let _ = serve_scrape(conn, &engine);
                        });
                }
            })?;
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the listener thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        // ORDERING: Relaxed — see the accept loop.
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Answers one HTTP exchange: any well-formed `GET` gets the exposition,
/// anything else a 405. The request is drained only up to its header
/// terminator; scrapers do not send bodies.
fn serve_scrape(mut conn: TcpStream, engine: &Engine) -> io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut req = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() < 8192 {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
    }
    let (status, body) = if req.starts_with(b"GET ") {
        (
            "200 OK",
            render_exposition(&engine.metrics()),
        )
    } else {
        ("405 Method Not Allowed", String::from("GET only\n"))
    };
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(header.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use livegraph_core::{LiveGraph, LiveGraphOptions};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.push_counter("livegraph_commits_total", 7);
        snap.push_gauge("livegraph_replication_lag_epochs", -1);
        let h = livegraph_core::telemetry::histogram("livegraph_commit_seconds");
        h.observe(1_000); // 1µs
        h.observe(2_000_000); // 2ms
        snap.histograms.push(h.snapshot());
        snap
    }

    #[test]
    fn exposition_contains_all_series() {
        let text = render_exposition(&sample_snapshot());
        assert!(text.contains("# TYPE livegraph_commits_total counter"));
        assert!(text.contains("livegraph_commits_total 7"));
        assert!(text.contains("livegraph_replication_lag_epochs -1"));
        assert!(text.contains("# TYPE livegraph_commit_seconds summary"));
        assert!(text.contains("livegraph_commit_seconds_count 2"));
        assert!(text.contains("livegraph_commit_seconds{quantile=\"0.99\"}"));
    }

    #[test]
    fn seconds_histograms_convert_from_nanos() {
        let text = render_exposition(&sample_snapshot());
        // sum = 2_001_000ns = 0.002001s; log-scale buckets keep ~3% error
        // on the quantiles but the sum is exact.
        let sum_line = text
            .lines()
            .find(|l| l.starts_with("livegraph_commit_seconds_sum "))
            .expect("sum line");
        let v: f64 = sum_line.split(' ').nth(1).unwrap().parse().unwrap();
        assert!((v - 0.002001).abs() < 1e-9, "sum {v}");
    }

    /// `livegraph_wal_batch_records_total` is a record count, not seconds,
    /// and the WAL flush leader observes it for every batch: eight serial
    /// commits are eight one-record batches, none sampled away.
    #[test]
    fn non_seconds_histograms_stay_raw() {
        let dir = tempfile::tempdir().unwrap();
        let graph = LiveGraph::open(
            LiveGraphOptions::durable(dir.path())
                .with_capacity(1 << 22)
                .with_max_vertices(1 << 10)
                .with_sync_mode(livegraph_core::SyncMode::NoSync),
        )
        .unwrap();
        for i in 0..8u8 {
            let mut txn = graph.begin_write().unwrap();
            txn.create_vertex(&[i]).unwrap();
            txn.commit().unwrap();
        }
        let text = render_exposition(&graph.metrics());
        assert!(text.contains("livegraph_wal_batch_records_total_count 8"), "{text}");
        assert!(text.contains("livegraph_wal_batch_records_total_sum 8"), "{text}");
    }

    #[test]
    fn every_line_is_comment_or_sample() {
        // Minimal format lint: each non-comment line is `name[{labels}] value`
        // where value parses as f64.
        let text = render_exposition(&sample_snapshot());
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            value.parse::<f64>().expect("numeric sample");
        }
    }

    #[test]
    fn http_endpoint_serves_exposition() {
        let engine = Arc::new(Engine::Plain(
            LiveGraph::open(LiveGraphOptions::in_memory()).unwrap(),
        ));
        let exporter = MetricsExporter::start(engine, "127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(exporter.local_addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{reply}");
        assert!(reply.contains("livegraph_commits_total"), "{reply}");
        exporter.shutdown();
    }

    #[test]
    fn non_get_is_rejected() {
        let engine = Arc::new(Engine::Plain(
            LiveGraph::open(LiveGraphOptions::in_memory()).unwrap(),
        ));
        let exporter = MetricsExporter::start(engine, "127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(exporter.local_addr()).unwrap();
        conn.write_all(b"POST / HTTP/1.0\r\n\r\n").unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 405"), "{reply}");
        exporter.shutdown();
    }
}
