//! Live telemetry: a lock-light metrics registry and span timers for the
//! engine's hot paths.
//!
//! The registry holds three metric kinds, all updated with single relaxed
//! atomic operations so the hot paths never take a lock:
//!
//! * **Counters** — monotone event totals (`livegraph_commits_total`, …).
//! * **Gauges** — instantaneous signed values set by whoever owns the
//!   signal (replication lag, apply position, …).
//! * **Histograms** — fixed-bucket log-scale latency/size distributions
//!   with p50/p95/p99/max readout. Buckets are sub-octave (4 per power of
//!   two), so percentile error is bounded at ~19% of the value, which is
//!   plenty for tail-latency dashboards.
//!
//! Everything is built on the [`crate::sync`] facade, so the registry's
//! increment paths run under the loom model checker unchanged (see
//! `crates/core/tests/model_telemetry.rs`).
//!
//! Recording is gated on a process-wide `enabled` switch: span timers
//! return `None` when telemetry is off, so the "stripped" configuration
//! performs no clock reads at all. The `telemetry_overhead` bench pins the
//! enabled-vs-stripped throughput delta within 3% on the default mix.
//!
//! A configurable slow-op log (off by default) records any operation whose
//! total span exceeds the threshold, together with its per-stage
//! breakdown, into a bounded ring buffer and onto stderr.

use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};

/// Number of histogram buckets. Values 0–15 get one bucket each; above
/// that, 4 sub-buckets per octave cover up to 2^40 (≈ 18 minutes in
/// nanoseconds) before clamping into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 160;

/// Sub-buckets per octave above the exact range.
const SUB_BUCKETS: u64 = 4;

/// First octave that uses sub-bucketing (values below `2^FIRST_OCTAVE`
/// are bucketed exactly, one bucket per value).
const FIRST_OCTAVE: u64 = 4;

/// Maps a raw value (nanoseconds for latency histograms, a plain count
/// for size histograms) to its bucket index.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 1 << FIRST_OCTAVE {
        return value as usize;
    }
    let octave = 63 - u64::from(value.leading_zeros());
    let sub = (value >> (octave - 2)) & (SUB_BUCKETS - 1);
    let ix = (1 << FIRST_OCTAVE) + (octave - FIRST_OCTAVE) * SUB_BUCKETS + sub;
    (ix as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `ix` (the smallest value it can hold).
#[inline]
pub fn bucket_lower_bound(ix: usize) -> u64 {
    let ix = ix as u64;
    if ix < 1 << FIRST_OCTAVE {
        return ix;
    }
    let octave = FIRST_OCTAVE + (ix - (1 << FIRST_OCTAVE)) / SUB_BUCKETS;
    let sub = (ix - (1 << FIRST_OCTAVE)) % SUB_BUCKETS;
    (1u64 << octave) + sub * (1u64 << (octave - 2))
}

/// Representative value reported for bucket `ix`: the midpoint between its
/// lower bound and the next bucket's (so percentile readouts neither
/// systematically under- nor over-estimate).
#[inline]
pub fn bucket_value(ix: usize) -> u64 {
    let lo = bucket_lower_bound(ix);
    if ix + 1 >= HISTOGRAM_BUCKETS {
        return lo;
    }
    let hi = bucket_lower_bound(ix + 1);
    lo + (hi - lo) / 2
}

/// A monotone event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

/// Registers a counter under `name` (must match `livegraph_[a-z0-9_]+`;
/// enforced by `tools/repolint`'s metric-name rule).
pub fn counter(name: &'static str) -> Counter {
    Counter {
        name,
        value: AtomicU64::new(0),
    }
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — monotone monitoring counter; readers only
        // ever see a (possibly stale) total, nothing is published through
        // it.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `Counter::add`.
        self.value.load(Ordering::Relaxed)
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// An instantaneous signed value.
pub struct Gauge {
    name: &'static str,
    // Stored as the i64 bit pattern in a u64 (the facade's AtomicI64 would
    // do equally; u64 keeps the registry uniform).
    value: AtomicU64,
}

/// Registers a gauge under `name` (same naming rule as [`counter`]).
pub fn gauge(name: &'static str) -> Gauge {
    Gauge {
        name,
        value: AtomicU64::new(0),
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        // ORDERING: Relaxed — last-writer-wins monitoring value, no
        // publication.
        self.value.store(v as u64, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // ORDERING: Relaxed — see `Gauge::set`.
        self.value.load(Ordering::Relaxed) as i64
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A fixed-bucket log-scale histogram (see module docs for the bucket
/// layout). `observe` is three relaxed atomic RMWs; no locks, no
/// allocation.
pub struct Histogram {
    name: &'static str,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Registers a histogram under `name`. The name must match
/// `livegraph_[a-z0-9_]+` **and** end in a unit suffix — `_seconds` for
/// latency histograms (recorded in nanoseconds, exposed in seconds),
/// `_bytes` for sizes, `_total` for plain counts — enforced by
/// `tools/repolint`'s metric-name rule.
pub fn histogram(name: &'static str) -> Histogram {
    Histogram {
        name,
        buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        max: AtomicU64::new(0),
    }
}

impl Histogram {
    /// Records one raw observation (nanoseconds for `_seconds` histograms).
    #[inline]
    pub fn observe(&self, value: u64) {
        // ORDERING: Relaxed — monitoring distribution; a reader may see a
        // bucket bumped before count/sum (or vice versa), which the weak
        // snapshot contract of `MetricsSnapshot` permits.
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — as above.
        self.count.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — as above.
        self.sum.fetch_add(value, Ordering::Relaxed);
        // ORDERING: Relaxed — as above.
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records the elapsed time of a span started with
    /// [`Telemetry::timer`], returning it for slow-op breakdowns. A `None`
    /// start (telemetry disabled) is a no-op.
    #[inline]
    pub fn observe_timer(&self, start: Option<Instant>) -> Option<Duration> {
        let elapsed = start?.elapsed();
        self.observe(elapsed.as_nanos() as u64);
        Some(elapsed)
    }

    /// The registered metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Weak snapshot of this histogram (see [`MetricsSnapshot`]).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            // ORDERING: Relaxed — weak monitoring snapshot.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            name: self.name.to_string(),
            // ORDERING: Relaxed — weak monitoring snapshot.
            count: self.count.load(Ordering::Relaxed),
            // ORDERING: Relaxed — weak monitoring snapshot.
            sum: self.sum.load(Ordering::Relaxed),
            // ORDERING: Relaxed — weak monitoring snapshot.
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram: per-bucket counts (trailing
/// zero buckets trimmed) plus count/sum/max, with percentile readout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Metric name (`livegraph_..._seconds` / `_bytes` / `_total`).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed raw values.
    pub sum: u64,
    /// Largest observed raw value.
    pub max: u64,
    /// Per-bucket observation counts; index into [`bucket_value`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The raw value at quantile `q` (0.0–1.0): the representative value
    /// of the bucket containing the `ceil(q * count)`-th observation.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (ix, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(ix);
            }
        }
        bucket_value(self.buckets.len().saturating_sub(1))
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean raw value (0.0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One slow-operation record: what ran, how long, and where the time went.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// Operation kind (`"commit"`, `"scan"`, `"request"`, …).
    pub kind: &'static str,
    /// Total elapsed time.
    pub total: Duration,
    /// Per-stage breakdown, in execution order.
    pub breakdown: Vec<(&'static str, Duration)>,
}

/// Bounded capacity of the in-memory slow-op ring.
const SLOW_LOG_CAPACITY: usize = 128;

/// How many scans each worker skips between latency samples. Scan latency
/// is sampled (1 in 64) because the sealed fast path is nanosecond-scale
/// and two clock reads per scan would dominate it.
const SCAN_SAMPLE_INTERVAL: u64 = 64;

/// Commit span tracing is sampled (1 in 16 per worker): an in-memory
/// commit is microsecond-scale and the full trace takes ~10 clock reads,
/// which would cost double-digit percent throughput if taken on every
/// commit. The commit *counter* stays exact; only the span histograms see
/// the sample. Arming the slow-op log forces tracing on every commit —
/// a sampled trace would miss most threshold crossings.
const COMMIT_SAMPLE_INTERVAL: u64 = 16;

/// Pads the per-worker scan sampling slots to their own cache lines, so
/// sampling never ping-pongs a line between scanning workers.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// The metrics registry: one instance per engine ([`crate::LiveGraph`] or
/// [`crate::sharded::ShardedGraph`] — every shard of a sharded engine
/// shares the same registry, so the exported totals are already flattened
/// across shards, mirroring the `Stats` contract).
///
/// All fields are cheap-to-update atomics; the struct is shared as an
/// `Arc` between the engine, the service layer, and admin endpoints.
pub struct Telemetry {
    enabled: AtomicBool,
    /// Slow-op threshold in nanoseconds; 0 disables the slow-op log.
    slow_threshold: AtomicU64,
    slow_log: Mutex<Vec<SlowOp>>,
    /// Per-worker scan sampling state (see [`SCAN_SAMPLE_INTERVAL`]).
    scan_samplers: Vec<PaddedCounter>,
    /// Per-worker commit-trace sampling state ([`COMMIT_SAMPLE_INTERVAL`]).
    commit_samplers: Vec<PaddedCounter>,
    /// Per-worker commit tally cells; summed with [`Telemetry::commits`]
    /// into `livegraph_commits_total` at snapshot time, so concurrent
    /// committers never contend on one counter cache line.
    commit_counts: Vec<PaddedCounter>,

    /// Committed write transactions.
    pub commits: Counter,
    /// Operations that exceeded the slow-op threshold.
    pub slow_ops: Counter,
    /// Reactor turns where a connection's outbound queue was full and the
    /// server had to stall writes behind backpressure.
    pub reactor_backpressure_stalls: Counter,

    /// Replication: highest epoch the primary has shipped to any replica.
    pub replication_ship_epoch: Gauge,
    /// Replication: highest epoch a replica has durably applied (as acked).
    pub replication_apply_epoch: Gauge,
    /// Replication: primary-to-replica epoch lag.
    pub replication_lag_epochs: Gauge,

    /// Whole commit call, entry to session-consistency return.
    pub commit_seconds: Histogram,
    /// Time a committing transaction spent acquiring vertex locks.
    pub commit_lock_seconds: Histogram,
    /// Epoch assignment + WAL frame staging under the commit clock
    /// (entering the persist phase until an epoch and flush ticket are
    /// assigned, clock-lock wait included).
    pub commit_wal_enqueue_seconds: Histogram,
    /// Waiting for the WAL flush (group fsync) covering the commit.
    pub commit_fsync_wait_seconds: Histogram,
    /// Apply phase (publishing versions and converting private stamps).
    pub commit_apply_seconds: Histogram,
    /// Waiting for `GRE` to cover the commit (session consistency).
    pub commit_gre_wait_seconds: Histogram,
    /// Records per WAL flush batch (one write + one sync), observed by
    /// the flush leader for every batch.
    pub wal_batch_records_total: Histogram,
    /// Sealed (zero-check) scan latency, sampled 1-in-64.
    pub scan_sealed_seconds: Histogram,
    /// Checked (per-entry visibility) scan latency, sampled 1-in-64.
    pub scan_checked_seconds: Histogram,
    /// One compaction slice of a worker's work list, or one explicit
    /// `compact()` pass over every dirty vertex.
    pub compaction_pass_seconds: Histogram,
    /// One reactor event-loop turn (wake to next wait).
    pub reactor_turn_seconds: Histogram,
    /// Server-side request service time (decode to response enqueue).
    pub request_seconds: Histogram,
}

impl Telemetry {
    /// Creates a registry with scan-sampling slots for `workers` workers.
    /// Recording starts disabled; engines enable it on open.
    pub fn new(workers: usize) -> Arc<Self> {
        Arc::new(Self {
            enabled: AtomicBool::new(false),
            slow_threshold: AtomicU64::new(0),
            slow_log: Mutex::new(Vec::new()),
            scan_samplers: (0..workers).map(|_| PaddedCounter(AtomicU64::new(0))).collect(),
            commit_samplers: (0..workers).map(|_| PaddedCounter(AtomicU64::new(0))).collect(),
            commit_counts: (0..workers).map(|_| PaddedCounter(AtomicU64::new(0))).collect(),
            commits: counter("livegraph_commits_total"),
            slow_ops: counter("livegraph_slow_ops_total"),
            reactor_backpressure_stalls: counter("livegraph_reactor_backpressure_stalls_total"),
            replication_ship_epoch: gauge("livegraph_replication_ship_epoch"),
            replication_apply_epoch: gauge("livegraph_replication_apply_epoch"),
            replication_lag_epochs: gauge("livegraph_replication_lag_epochs"),
            commit_seconds: histogram("livegraph_commit_seconds"),
            commit_lock_seconds: histogram("livegraph_commit_lock_seconds"),
            commit_wal_enqueue_seconds: histogram("livegraph_commit_wal_enqueue_seconds"),
            commit_fsync_wait_seconds: histogram("livegraph_commit_fsync_wait_seconds"),
            commit_apply_seconds: histogram("livegraph_commit_apply_seconds"),
            commit_gre_wait_seconds: histogram("livegraph_commit_gre_wait_seconds"),
            wal_batch_records_total: histogram("livegraph_wal_batch_records_total"),
            scan_sealed_seconds: histogram("livegraph_scan_sealed_seconds"),
            scan_checked_seconds: histogram("livegraph_scan_checked_seconds"),
            compaction_pass_seconds: histogram("livegraph_compaction_pass_seconds"),
            reactor_turn_seconds: histogram("livegraph_reactor_turn_seconds"),
            request_seconds: histogram("livegraph_request_seconds"),
        })
    }

    /// A registry that never records (no scan slots, recording disabled).
    /// Used as the default for directly constructed coordinators (model
    /// tests, unit tests) that are not opened through an engine.
    pub fn disabled() -> Arc<Self> {
        Self::new(0)
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        // ORDERING: Relaxed — monitoring on/off switch; a racing toggle
        // merely gains or loses a few samples.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        // ORDERING: Relaxed — see `Telemetry::enabled`.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Starts a span timer: `Some(now)` when recording, `None` when
    /// stripped (so the disabled configuration performs no clock reads).
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Starts a *sampled* scan timer for `worker`: `Some(now)` on every
    /// `SCAN_SAMPLE_INTERVAL`-th scan of that worker while recording.
    #[inline]
    pub fn scan_timer(&self, worker: usize) -> Option<Instant> {
        if !self.enabled() {
            return None;
        }
        let slot = self.scan_samplers.get(worker)?;
        // ORDERING: Relaxed — per-worker sampling tick, purely local.
        let tick = slot.0.fetch_add(1, Ordering::Relaxed);
        if tick % SCAN_SAMPLE_INTERVAL == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Whether a commit beginning on `worker` should take full span
    /// timestamps: every `COMMIT_SAMPLE_INTERVAL`-th commit of that
    /// worker while recording — or *every* commit while the slow-op log
    /// is armed, since a sampled trace would miss most threshold
    /// crossings. Commit counts are always exact; only the commit span
    /// histograms are fed from the sample.
    #[inline]
    pub fn trace_commit(&self, worker: usize) -> bool {
        if !self.enabled() {
            return false;
        }
        // ORDERING: Relaxed — see `set_slow_op_threshold`.
        if self.slow_threshold.load(Ordering::Relaxed) != 0 {
            return true;
        }
        let Some(slot) = self.commit_samplers.get(worker) else {
            return false;
        };
        // ORDERING: Relaxed — per-worker sampling tick, purely local.
        slot.0.fetch_add(1, Ordering::Relaxed) % COMMIT_SAMPLE_INTERVAL == 0
    }

    /// Counts one committed write transaction for `worker`: a padded
    /// per-worker cell (workers without a slot fall back to the shared
    /// counter), so the commit hot path never bounces a counter line
    /// between cores. The total is flattened in [`Telemetry::snapshot`].
    #[inline]
    pub fn inc_commit(&self, worker: usize) {
        match self.commit_counts.get(worker) {
            // ORDERING: Relaxed — statistics tally, no publication.
            Some(slot) => {
                slot.0.fetch_add(1, Ordering::Relaxed);
            }
            None => self.commits.inc(),
        }
    }

    /// Total committed write transactions: the shared counter plus every
    /// per-worker tally cell.
    fn commits_total(&self) -> u64 {
        // ORDERING: Relaxed — see `inc_commit`.
        self.commits.get()
            + self
                .commit_counts
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum::<u64>()
    }

    /// Sets the slow-op threshold; `None` disables the slow-op log.
    pub fn set_slow_op_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map_or(0, |d| d.as_nanos() as u64);
        // ORDERING: Relaxed — monitoring configuration value.
        self.slow_threshold.store(nanos, Ordering::Relaxed);
    }

    /// The current slow-op threshold, if the log is on.
    pub fn slow_op_threshold(&self) -> Option<Duration> {
        // ORDERING: Relaxed — see `set_slow_op_threshold`.
        let nanos = self.slow_threshold.load(Ordering::Relaxed);
        (nanos > 0).then(|| Duration::from_nanos(nanos))
    }

    /// Records `total` against the slow-op log if it exceeds the
    /// threshold; `breakdown` is only materialised past the check. Entries
    /// go to the bounded in-memory ring and to stderr.
    #[inline]
    pub fn maybe_slow_op(
        &self,
        kind: &'static str,
        total: Option<Duration>,
        breakdown: impl FnOnce() -> Vec<(&'static str, Duration)>,
    ) {
        let Some(total) = total else { return };
        // ORDERING: Relaxed — see `set_slow_op_threshold`.
        let threshold = self.slow_threshold.load(Ordering::Relaxed);
        if threshold == 0 || (total.as_nanos() as u64) < threshold {
            return;
        }
        self.record_slow_op(SlowOp {
            kind,
            total,
            breakdown: breakdown(),
        });
    }

    fn record_slow_op(&self, op: SlowOp) {
        self.slow_ops.inc();
        let stages: Vec<String> = op
            .breakdown
            .iter()
            .map(|(name, d)| format!("{name}={:.3}ms", d.as_secs_f64() * 1e3))
            .collect();
        eprintln!(
            "[slow-op] {} took {:.3}ms ({})",
            op.kind,
            op.total.as_secs_f64() * 1e3,
            stages.join(" ")
        );
        let mut log = self.slow_log.lock();
        if log.len() == SLOW_LOG_CAPACITY {
            log.remove(0);
        }
        log.push(op);
    }

    /// The most recent slow ops (oldest first), up to the ring capacity.
    pub fn recent_slow_ops(&self) -> Vec<SlowOp> {
        self.slow_log.lock().clone()
    }

    /// Weak snapshot of every registered metric.
    ///
    /// **Snapshot contract:** fields are read one by one with relaxed
    /// loads while writers proceed, so the snapshot is *not* a consistent
    /// cut — but every individual metric is monotone (counters and
    /// histogram totals never decrease across successive snapshots).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = vec![(self.commits.name().to_string(), self.commits_total())];
        counters.extend(
            [&self.slow_ops, &self.reactor_backpressure_stalls]
                .iter()
                .map(|c| (c.name().to_string(), c.get())),
        );
        let gauges = [
            &self.replication_ship_epoch,
            &self.replication_apply_epoch,
            &self.replication_lag_epochs,
        ]
        .iter()
        .map(|g| (g.name().to_string(), g.get()))
        .collect();
        let histograms = [
            &self.commit_seconds,
            &self.commit_lock_seconds,
            &self.commit_wal_enqueue_seconds,
            &self.commit_fsync_wait_seconds,
            &self.commit_apply_seconds,
            &self.commit_gre_wait_seconds,
            &self.wal_batch_records_total,
            &self.scan_sealed_seconds,
            &self.scan_checked_seconds,
            &self.compaction_pass_seconds,
            &self.reactor_turn_seconds,
            &self.request_seconds,
        ]
        .iter()
        .map(|h| h.snapshot())
        .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time dump of a [`Telemetry`] registry, optionally extended
/// with engine-derived counters/gauges (epochs, WAL totals, scan totals)
/// by [`crate::LiveGraph::metrics`].
///
/// Carries the same weak-snapshot contract as [`Telemetry::snapshot`]:
/// individually monotone fields, no cross-field consistency.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` pairs, monotone.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, instantaneous.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Appends a derived counter.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Appends a derived gauge.
    pub fn push_gauge(&mut self, name: &str, value: i64) {
        self.gauges.push((name.to_string(), value));
    }

    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_lower_bounds_invert_bucket_index() {
        // Every bucket's lower bound maps back into that bucket, and the
        // value just below it maps into the previous one.
        for ix in 0..HISTOGRAM_BUCKETS - 1 {
            let lo = bucket_lower_bound(ix);
            assert_eq!(bucket_index(lo), ix, "lower bound of bucket {ix}");
            if lo > 0 {
                assert_eq!(bucket_index(lo - 1), ix - 1, "below bucket {ix}");
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_log_scale() {
        let mut prev = 0;
        for shift in 0..50 {
            let v = 1u64 << shift;
            let ix = bucket_index(v);
            assert!(ix >= prev, "monotone at 2^{shift}");
            prev = ix;
        }
        // Sub-octave resolution: 1024 and 1280 (1.25x) land in different
        // buckets; 1024 and 1025 land in the same one.
        assert_ne!(bucket_index(1024), bucket_index(1280));
        assert_eq!(bucket_index(1024), bucket_index(1025));
        // Relative error of the bucket representative is bounded (~19%).
        for &v in &[100u64, 999, 5_000, 123_456, 10_000_000] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.20, "value {v} rep {rep} err {err}");
        }
    }

    #[test]
    fn huge_values_clamp_into_the_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = histogram("livegraph_test_seconds");
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().max, u64::MAX);
    }

    #[test]
    fn percentiles_read_out_known_distributions() {
        let h = histogram("livegraph_test_seconds");
        // 100 observations: 1..=100 microseconds in nanos.
        for i in 1..=100u64 {
            h.observe(i * 1_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 100_000);
        // p50 ≈ 50µs, p99 ≈ 99µs, within one bucket width (25%).
        let p50 = snap.p50() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.25, "p50 {p50}");
        let p99 = snap.p99() as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.25, "p99 {p99}");
        assert!(snap.p95() <= snap.p99());
        assert!(snap.p50() <= snap.p95());
        // Mean of 1..=100µs is 50.5µs exactly (sums are not bucketed).
        assert!((snap.mean() - 50_500.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = histogram("livegraph_test_seconds");
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty(), "trailing zeros trimmed");
    }

    #[test]
    fn single_observation_is_every_percentile() {
        let h = histogram("livegraph_test_seconds");
        h.observe(7_777);
        let snap = h.snapshot();
        let rep = bucket_value(bucket_index(7_777));
        assert_eq!(snap.percentile(0.0), rep);
        assert_eq!(snap.p50(), rep);
        assert_eq!(snap.p99(), rep);
        assert_eq!(snap.percentile(1.0), rep);
    }

    #[test]
    fn timer_is_none_when_stripped() {
        let tel = Telemetry::new(2);
        assert!(tel.timer().is_none());
        assert!(tel.scan_timer(0).is_none());
        tel.set_enabled(true);
        assert!(tel.timer().is_some());
        // First scan of a worker is always sampled.
        assert!(tel.scan_timer(0).is_some());
        assert!(tel.scan_timer(0).is_none(), "second scan is skipped");
        // Out-of-range worker never panics.
        assert!(tel.scan_timer(99).is_none());
    }

    #[test]
    fn slow_op_log_respects_threshold_and_capacity() {
        let tel = Telemetry::new(1);
        tel.set_enabled(true);
        // Off by default: nothing recorded.
        tel.maybe_slow_op("commit", Some(Duration::from_secs(1)), Vec::new);
        assert_eq!(tel.recent_slow_ops().len(), 0);
        tel.set_slow_op_threshold(Some(Duration::from_millis(10)));
        tel.maybe_slow_op("commit", Some(Duration::from_millis(5)), Vec::new);
        assert_eq!(tel.recent_slow_ops().len(), 0, "below threshold");
        for _ in 0..SLOW_LOG_CAPACITY + 10 {
            tel.maybe_slow_op("commit", Some(Duration::from_millis(20)), || {
                vec![("persist", Duration::from_millis(15))]
            });
        }
        let ops = tel.recent_slow_ops();
        assert_eq!(ops.len(), SLOW_LOG_CAPACITY, "ring is bounded");
        assert_eq!(tel.slow_ops.get(), SLOW_LOG_CAPACITY as u64 + 10);
        assert_eq!(ops[0].kind, "commit");
        assert_eq!(ops[0].breakdown[0].0, "persist");
    }

    #[test]
    fn snapshot_covers_every_registered_metric() {
        let tel = Telemetry::new(1);
        tel.set_enabled(true);
        tel.commits.inc();
        tel.replication_lag_epochs.set(-3);
        tel.commit_seconds.observe(1_000);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("livegraph_commits_total"), Some(1));
        assert_eq!(snap.gauge("livegraph_replication_lag_epochs"), Some(-3));
        let h = snap.histogram("livegraph_commit_seconds").unwrap();
        assert_eq!(h.count, 1);
        // Every name obeys the repolint naming rule.
        let ok = |n: &str| {
            n.starts_with("livegraph_")
                && n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        for (n, _) in &snap.counters {
            assert!(ok(n), "counter {n}");
        }
        for (n, _) in &snap.gauges {
            assert!(ok(n), "gauge {n}");
        }
        for h in &snap.histograms {
            assert!(ok(&h.name), "histogram {}", h.name);
            assert!(
                h.name.ends_with("_seconds")
                    || h.name.ends_with("_bytes")
                    || h.name.ends_with("_total"),
                "histogram {} lacks a unit suffix",
                h.name
            );
        }
    }
}
