//! Counting-allocator proof of the ISSUE's zero-allocation claim: once a
//! rank runtime has declared a pattern and its output buffers are
//! reserved, the steady-state (predicting) intercept path never touches
//! the heap. The library itself forbids `unsafe`; this integration-test
//! binary is a separate crate, so a `#[global_allocator]` wrapper is
//! allowed here.

use ibp_core::{GramInterner, PowerConfig, RankRuntime};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall::{Allreduce, Sendrecv};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through to the system allocator that counts every heap request
/// (alloc, zeroed alloc, and growth via realloc) made by a thread while
/// that thread is armed.
struct CountingAlloc;

thread_local! {
    /// Whether this thread's heap requests are being counted. Per
    /// thread, so allocations by other threads inside a measured window
    /// (the test harness reporting a concurrent test, say) never count.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Heap requests this thread made while armed.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one heap request if the calling thread is armed. `try_with`:
/// the allocator also runs while thread-locals are being torn down.
fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` on this thread with allocation counting armed and return how
/// many heap requests it made. Tests run concurrently, each on its own
/// thread, so no test sees another's allocations.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (ALLOCS.get(), out)
}

/// One period of the ALYA-like stream (Fig. 2): a three-call Sendrecv
/// gram followed by two single-Allreduce grams.
fn period(lead_us: u64) -> [(ibp_trace::MpiCall, SimDuration); 5] {
    [
        (Sendrecv, SimDuration::from_us(lead_us)),
        (Sendrecv, SimDuration::from_us(2)),
        (Sendrecv, SimDuration::from_us(3)),
        (Allreduce, SimDuration::from_us(250)),
        (Allreduce, SimDuration::from_us(250)),
    ]
}

#[test]
fn steady_state_intercept_path_is_allocation_free() {
    const TRAIN_ITERS: usize = 40;
    const MEASURED_ITERS: usize = 250; // 1250 intercepted calls

    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let mut rt = RankRuntime::new(0, cfg);
    rt.reserve_events((TRAIN_ITERS + MEASURED_ITERS) * 5);

    for i in 0..TRAIN_ITERS {
        for (call, gap) in period(if i == 0 { 0 } else { 300 }) {
            rt.intercept(call, gap);
        }
    }
    assert!(
        rt.predicting(),
        "training stream must reach prediction mode before measuring"
    );

    let steady = period(300);
    let (allocs, ()) = count_allocs(|| {
        for _ in 0..MEASURED_ITERS {
            for &(call, gap) in &steady {
                rt.intercept(call, gap);
            }
        }
    });
    assert!(
        rt.predicting(),
        "measured stream must stay in prediction mode"
    );
    assert_eq!(
        allocs,
        0,
        "steady-state intercept path allocated {allocs} times over {} calls",
        MEASURED_ITERS * 5
    );

    // The run did real work: every measured call was predicted.
    assert!(rt.stats().correct_calls >= (MEASURED_ITERS * 5) as u64);
}

#[test]
fn gram_interner_hit_path_is_allocation_free() {
    let mut interner = GramInterner::new();
    let shapes: Vec<Vec<u16>> = (0..32)
        .map(|i| (0..=(i % 5) as u16).map(|k| k + i as u16).collect())
        .collect();
    let first: Vec<u32> = shapes.iter().map(|s| interner.intern(s)).collect();

    let (allocs, hits) = count_allocs(|| {
        let mut ids = [0u32; 32];
        for _ in 0..100 {
            for (k, s) in shapes.iter().enumerate() {
                ids[k] = interner.intern(s);
            }
        }
        ids
    });
    assert_eq!(
        allocs, 0,
        "re-interning known shapes allocated {allocs} times"
    );
    assert_eq!(
        &hits[..],
        &first[..],
        "hit path must return the original ids"
    );
}

#[test]
fn counter_sees_only_the_armed_thread() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let (own, v) = count_allocs(|| Vec::<u64>::with_capacity(8));
    assert_eq!(own, 1, "the armed thread's own allocation must count");
    drop(v);

    // Another thread allocating throughout the armed window is not
    // counted: the window stays open until it has allocated 100 times.
    let running = Arc::new(AtomicBool::new(true));
    let allocated = Arc::new(AtomicU64::new(0));
    let noisy = {
        let (running, allocated) = (Arc::clone(&running), Arc::clone(&allocated));
        std::thread::spawn(move || {
            while running.load(Ordering::SeqCst) {
                std::hint::black_box(Box::new(0u64));
                allocated.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let (allocs, ()) = count_allocs(|| {
        let start = allocated.load(Ordering::SeqCst);
        while allocated.load(Ordering::SeqCst) < start + 100 {
            std::thread::yield_now();
        }
    });
    running.store(false, Ordering::SeqCst);
    noisy.join().expect("allocating thread panicked");
    assert_eq!(allocs, 0, "another thread's allocations were counted");
}
