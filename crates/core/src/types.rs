//! Core identifier and timestamp types shared across the LiveGraph engine.

/// Vertex identifier. Vertex IDs are allocated contiguously by
/// [`crate::graph::LiveGraph::begin_write`] transactions via an atomic
/// fetch-and-add, exactly as described in §4 of the paper.
pub type VertexId = u64;

/// Edge label. Edges incident to the same vertex are grouped into one
/// Transactional Edge Log per label (§3).
pub type Label = u16;

/// Logical timestamp / epoch.
///
/// * Positive values are commit epochs (the global write epoch `GWE` at the
///   time the owning transaction persisted).
/// * Negative values are `-TID`: transaction-private, uncommitted writes.
/// * [`NULL_TS`] marks "not invalidated yet".
pub type Timestamp = i64;

/// Transaction identifier: a worker id in the high bits concatenated with a
/// worker-local sequence number (§5). Always strictly positive so `-TID` is
/// a valid negative [`Timestamp`].
pub type TxnId = i64;

/// The "never invalidated" timestamp. Chosen as `i64::MAX` so the visibility
/// predicate `read_epoch < invalidation_ts` holds for any read epoch.
pub const NULL_TS: Timestamp = i64::MAX;

/// The default edge label used by the single-label convenience APIs.
pub const DEFAULT_LABEL: Label = 0;

/// Number of bits of a [`TxnId`] reserved for the worker-local sequence
/// number; the worker id occupies the bits above.
pub const TXN_SEQ_BITS: u32 = 40;

/// Builds a transaction id from a worker slot and a worker-local sequence
/// number.
#[inline]
pub fn make_txn_id(worker: usize, seq: u64) -> TxnId {
    debug_assert!(seq < (1 << TXN_SEQ_BITS));
    (((worker as u64 + 1) << TXN_SEQ_BITS) | seq) as TxnId
}

/// Extracts the worker slot from a transaction id (for diagnostics).
#[inline]
pub fn txn_worker(tid: TxnId) -> usize {
    ((tid as u64) >> TXN_SEQ_BITS) as usize - 1
}

/// Returns true if a stored timestamp denotes a committed value.
#[inline]
pub fn is_committed(ts: Timestamp) -> bool {
    ts > 0 && ts != NULL_TS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_ids_are_positive_and_unique_per_worker() {
        let a = make_txn_id(0, 0);
        let b = make_txn_id(0, 1);
        let c = make_txn_id(1, 0);
        assert!(a > 0 && b > 0 && c > 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn txn_worker_roundtrips() {
        for worker in [0usize, 1, 7, 250] {
            assert_eq!(txn_worker(make_txn_id(worker, 12345)), worker);
        }
    }

    #[test]
    fn committed_predicate() {
        assert!(is_committed(1));
        assert!(is_committed(1 << 40));
        assert!(!is_committed(0));
        assert!(!is_committed(-5));
        assert!(!is_committed(NULL_TS));
    }
}
