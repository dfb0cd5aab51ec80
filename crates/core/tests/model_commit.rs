//! Model-checked group commit: the `GroupWal` staging buffer and
//! flush-leader handoff and the `GroupClock` epoch/GRE protocol, explored
//! over every interleaving the bounded scheduler allows. A lost durability
//! ticket or a lost GRE wakeup shows up as a model deadlock; an order
//! violation as an assertion.
//!
//! Run with `RUSTFLAGS="--cfg livegraph_loom" cargo test -p livegraph-core
//! --test model_commit`.
#![cfg(livegraph_loom)]

use livegraph_core::sync::{thread, Arc, Mutex};
use livegraph_core::wal::{read_wal, GroupCommitConfig, GroupWal, SyncMode, WalWriter};
use livegraph_core::{EpochManager, GroupClock};

// Two committers race stage + wait_durable on one WAL. Whoever finds no
// flush in progress becomes the leader and must cover (or hand off to a
// leader that covers) the other's ticket; losing a ticket — leader retires
// without a follower ever being woken — is a deadlock the checker reports.
#[test]
fn group_wal_never_loses_a_durability_ticket() {
    let path = std::env::temp_dir().join(format!(
        "livegraph-model-wal-{}.wal",
        std::process::id()
    ));
    let path_outer = path.clone();
    loom::model(move || {
        let _ = std::fs::remove_file(&path);
        let writer = WalWriter::open(&path, SyncMode::NoSync).unwrap();
        let wal = Arc::new(GroupWal::new(writer, GroupCommitConfig::default()));
        let joins: Vec<_> = (0..2)
            .map(|t| {
                let wal = Arc::clone(&wal);
                thread::spawn(move || {
                    let ticket = wal.stage(t + 1, &[]);
                    wal.wait_durable(ticket).unwrap();
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(wal.stats().group_records, 2, "both records flushed");
    });
    let _ = std::fs::remove_file(&path_outer);
}

// Epoch assignment and WAL staging happen atomically under the tracker
// lock (`begin_group_with`), so the per-log record order can never invert
// the epoch order — the invariant the crash-recovery oracle relies on
// (a torn tail is always an epoch-prefix).
#[test]
fn wal_stage_order_matches_epoch_order() {
    loom::model(|| {
        let epochs = Arc::new(EpochManager::new(4));
        let clock = GroupClock::new();
        let log: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let joins: Vec<_> = (0..2)
            .map(|_| {
                let epochs = Arc::clone(&epochs);
                let clock = Arc::clone(&clock);
                let log = Arc::clone(&log);
                thread::spawn(move || {
                    let (epoch, ()) = clock.begin_group_with(&epochs, 1, |e| {
                        log.lock().push(e);
                    });
                    clock.finish_apply(&epochs, epoch);
                    epoch
                })
            })
            .collect();
        let mut epochs_seen: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        epochs_seen.sort_unstable();
        assert_eq!(epochs_seen, vec![1, 2], "each group got a distinct epoch");
        let logged = log.lock().clone();
        assert_eq!(logged, vec![1, 2], "log order must equal epoch order");
        assert_eq!(epochs.gre(), 2, "both applies done: GRE fully advanced");
    });
}

// The whole commit path with `max_batch = 1`: two committers take epochs
// and stage their frames under the clock while the main thread, which
// staged first, leads a flush that can take only one frame per batch. The
// rest must be split off and flushed by later leaders: no ticket may be
// lost (a deadlock), every batch holds one record, and the file holds the
// three frames in epoch order.
#[test]
fn staged_frames_flush_in_epoch_order_under_max_batch_one() {
    let path = std::env::temp_dir().join(format!(
        "livegraph-model-stage-{}.wal",
        std::process::id()
    ));
    let path_outer = path.clone();
    loom::model(move || {
        let _ = std::fs::remove_file(&path);
        let writer = WalWriter::open(&path, SyncMode::NoSync).unwrap();
        let config = GroupCommitConfig::default().with_max_batch(1);
        let wal = Arc::new(GroupWal::new(writer, config));
        let epochs = Arc::new(EpochManager::new(4));
        let clock = GroupClock::new();
        let commit = {
            let (wal, epochs, clock) = (Arc::clone(&wal), Arc::clone(&epochs), Arc::clone(&clock));
            move || {
                let (epoch, ticket) = clock.begin_group_with(&epochs, 1, |e| wal.stage(e, &[]));
                wal.wait_durable(ticket).unwrap();
                clock.finish_apply(&epochs, epoch);
            }
        };
        let (first, ticket) = clock.begin_group_with(&epochs, 1, |e| wal.stage(e, &[]));
        let joins: Vec<_> = (0..2).map(|_| thread::spawn(commit.clone())).collect();
        wal.wait_durable(ticket).unwrap();
        clock.finish_apply(&epochs, first);
        for j in joins {
            j.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!((stats.groups, stats.group_records), (3, 3), "one record per batch");
        let logged: Vec<i64> = read_wal(&path).unwrap().iter().map(|r| r.epoch).collect();
        assert_eq!(logged, vec![1, 2, 3], "file order must equal epoch order");
        assert_eq!(epochs.gre(), 3);
    });
    let _ = std::fs::remove_file(&path_outer);
}

// A committer blocked in `wait_for_gre` must always see the advance
// performed by a concurrent `finish_apply` — the condvar wait re-checks
// GRE under the tracker lock, so there is no lost-wakeup window. If there
// were, this model would deadlock.
#[test]
fn wait_for_gre_never_misses_the_advance() {
    loom::model(|| {
        let epochs = Arc::new(EpochManager::new(4));
        let clock = GroupClock::new();
        let (epoch, ()) = clock.begin_group_with(&epochs, 1, |_| ());
        let waiter = {
            let epochs = Arc::clone(&epochs);
            let clock = Arc::clone(&clock);
            thread::spawn(move || clock.wait_for_gre(&epochs, epoch))
        };
        clock.finish_apply(&epochs, epoch);
        waiter.join().unwrap();
        assert_eq!(epochs.gre(), epoch);
    });
}

// Out-of-order applies: the younger epoch finishing first must not drag
// GRE past the older epoch still applying (visibility would outrun
// durability ordering). GRE jumps to 2 only once both are done.
#[test]
fn gre_advances_only_across_fully_applied_prefixes() {
    loom::model(|| {
        let epochs = Arc::new(EpochManager::new(4));
        let clock = GroupClock::new();
        let (e1, ()) = clock.begin_group_with(&epochs, 1, |_| ());
        let (e2, ()) = clock.begin_group_with(&epochs, 1, |_| ());
        assert_eq!((e1, e2), (1, 2));
        let younger = {
            let epochs = Arc::clone(&epochs);
            let clock = Arc::clone(&clock);
            thread::spawn(move || clock.finish_apply(&epochs, e2))
        };
        let gre_mid = epochs.gre();
        assert_eq!(
            gre_mid, 0,
            "epoch 1 still applying: GRE must not advance past it"
        );
        clock.finish_apply(&epochs, e1);
        younger.join().unwrap();
        assert_eq!(epochs.gre(), 2, "prefix complete: GRE reaches epoch 2");
    });
}
