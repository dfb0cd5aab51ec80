//! Where threads run: a fixed thread-to-core layout, and cores that never
//! halt while a run measures.
//!
//! On the reference host (a 2-vCPU virtual machine) a wake-up that crosses
//! cores costs ≈ 20 µs — the hypervisor delivers the inter-processor
//! interrupt — while one that stays on a core costs ≈ 2 µs. Left to the
//! scheduler, `dflt_remote`'s three threads (two clients, one reactor event
//! thread) settle into a different placement on every run, and throughput
//! moved between 45 k and 105 k ops/s across otherwise identical runs; a
//! 1 µs codec gain would be invisible. Two things fix that, the way one
//! prepares any benchmark machine:
//!
//! * **Pinning.** Driver thread *i* runs on core *i*. For `dflt_remote` the
//!   server's threads and both client connections share *one* core: every
//!   hand-off between client and server then stays on that core, the core
//!   is always busy, and throughput is 1 / (CPU time per op of codec +
//!   session + reactor + client) — exactly what a later change to those
//!   layers moves. The ladder's loopback rung uses the same layout.
//! * **No halting.** Whenever a driver thread blocks (on a socket, on the
//!   simulated log device) its core goes idle, and an idle vCPU halts;
//!   waking it costs the host a further, bimodal 4–45 µs. One spinner
//!   thread per core under the `SCHED_IDLE` policy keeps the core awake:
//!   such a thread only gets cycles nothing else wants and is preempted
//!   the moment anything else on its core becomes runnable.
//!
//! Neither is a property of the system under test; both are recorded in
//! the run record (`cpus`, `keep_awake_spinners`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
mod sys {
    /// `SCHED_IDLE` from `<sched.h>`.
    pub const SCHED_IDLE: i32 = 5;
    /// `cpu_set_t` is 1024 bits.
    pub const CPU_SET_WORDS: usize = 16;

    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: i32,
    }

    extern "C" {
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn affinity_of_this_thread() -> Option<Vec<usize>> {
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    // SAFETY: pid 0 is the calling thread and `mask` is a writable buffer
    // of exactly the size passed.
    let ok =
        unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
    ok.then(|| {
        (0..64 * sys::CPU_SET_WORDS)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

#[cfg(target_os = "linux")]
fn set_affinity_of_this_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    for &c in cpus.iter().filter(|&&c| c < 64 * sys::CPU_SET_WORDS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: pid 0 is the calling thread and `mask` is a readable buffer
    // of exactly the size passed.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel refused.
#[cfg(target_os = "linux")]
fn enter_idle_policy() -> bool {
    let param = sys::SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 is the calling thread, `param` is a valid
    // `struct sched_param` for the duration of the call, and lowering one's
    // own priority needs no privilege.
    unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn affinity_of_this_thread() -> Option<Vec<usize>> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity_of_this_thread(_cpus: &[usize]) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_policy() -> bool {
    false
}

static CPUS: OnceLock<Vec<usize>> = OnceLock::new();

/// The CPUs this process may use, as found on the first call — which must
/// come before any [`pin`], i.e. at the start of `main`.
pub fn cpus() -> &'static [usize] {
    CPUS.get_or_init(|| {
        affinity_of_this_thread()
            .filter(|c| !c.is_empty())
            .unwrap_or_else(|| {
                (0..std::thread::available_parallelism().map_or(1, usize::from)).collect()
            })
    })
}

/// Pins the calling thread — and every thread it spawns from now on — to
/// core `core` (an index into [`cpus`], wrapping).
pub fn pin(core: usize) {
    let all = cpus();
    set_affinity_of_this_thread(&[all[core % all.len()]]);
}

/// Lets the calling thread run on every allowed CPU again.
pub fn unpin() {
    set_affinity_of_this_thread(cpus());
}

/// The spinners; dropping it stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    spinning: Arc<AtomicUsize>,
}

impl KeepAwake {
    /// Starts one pinned idle-policy spinner per core. A spinner that
    /// cannot get the idle policy exits at once rather than compete with
    /// the workload.
    pub fn start() -> Self {
        let cores = cpus().len();
        let stop = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(std::sync::Barrier::new(cores + 1));
        let threads = (0..cores)
            .map(|core| {
                let (stop, spinning, ready) =
                    (Arc::clone(&stop), Arc::clone(&spinning), Arc::clone(&ready));
                std::thread::spawn(move || {
                    pin(core);
                    let idle = enter_idle_policy();
                    if idle {
                        spinning.fetch_add(1, Ordering::SeqCst);
                    }
                    ready.wait();
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        ready.wait();
        Self {
            stop,
            threads,
            spinning,
        }
    }

    /// Spinners that are running (0 when the kernel refused the policy).
    pub fn spinners(&self) -> usize {
        self.spinning.load(Ordering::SeqCst)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report from a destructor.
            let _ = t.join();
        }
    }
}
