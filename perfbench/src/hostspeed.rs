//! Host speed, measured beside the workload so that host time can be
//! rescaled to a fixed reference speed.
//!
//! On a shared host the same single-threaded run takes up to 1.7× longer
//! when neighbours load the memory system, for minutes at a time. The
//! thread's on-CPU time slows just as much as its wall time, so the
//! slowdown is not steal or run-queue wait, and a pure-ALU loop barely
//! notices it. The benchmark therefore times a fixed reference kernel
//! right after each run: an ALU loop plus the hash-map, heap and
//! formatting churn the simulator itself is made of. A run's host seconds
//! are multiplied by `REFERENCE_NOMINAL_S / reference time`, which turns
//! them into seconds on a host running the kernel at its nominal speed.
//!
//! The kernel is part of the benchmark and must not change once a
//! baseline is recorded: it is the yardstick, not the thing measured.

use magma_sim::racecheck::splitmix64;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// On-CPU seconds the reference kernel takes on the host the benchmark
/// was tuned on (a 2-vCPU Xeon VM) when neighbours leave it alone.
pub const REFERENCE_NOMINAL_S: f64 = 0.065;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// On-CPU seconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`):
/// unlike wall time, it leaves out time the thread waited for a CPU.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A fixed amount of work: an ALU loop (about a sixth of the time),
/// then event-heap pushes and pops, a 64 Ki-key map of growing byte
/// vectors and small `format!` calls (the rest). Returns a checksum so
/// that nothing is optimised away.
// The map is only ever probed by key, never iterated, and its hasher has
// fixed keys, so every call does exactly the same work.
#[allow(clippy::disallowed_types)]
fn reference_kernel() -> u64 {
    let mut x = 0x1234_5678u64;
    for _ in 0..4_000_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 17;
    }
    let mut acc = black_box(x);
    let mut heap = BinaryHeap::new();
    let mut map: std::collections::HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> =
        Default::default();
    for i in 0..250_000u64 {
        x = splitmix64(x);
        heap.push(Reverse((x >> 40, i)));
        if heap.len() > 4096 {
            if let Some(Reverse((t, j))) = heap.pop() {
                acc ^= t ^ j;
            }
        }
        let key = x % 65_536;
        let bytes = map.entry(key).or_default();
        bytes.extend_from_slice(&x.to_le_bytes());
        if bytes.len() > 256 {
            bytes.clear();
        }
        if i % 16 == 0 {
            acc = acc.wrapping_add(format!("{{\"k\":{key},\"v\":{x}}}").len() as u64);
        }
    }
    acc.wrapping_add(map.len() as u64)
}

/// Host speed relative to nominal: `REFERENCE_NOMINAL_S` divided by the
/// on-CPU seconds the reference kernel takes now (below 1 on a slowed
/// host).
pub fn measure() -> f64 {
    let t0 = thread_cpu_s();
    black_box(reference_kernel());
    REFERENCE_NOMINAL_S / (thread_cpu_s() - t0).max(1e-9)
}
