//! Pool reuse, measured: warm calls must not re-pay cold-start costs.
//!
//! Requires the `memprof` counting allocator:
//!
//! ```text
//! cargo test -p bench --features memprof --test pool_reuse --release
//! ```
//!
//! The persistent executor exists to amortise two per-call costs of the
//! old `crossbeam::scope` pipelines: OS thread spawning and scratch
//! (re)allocation. Both are observable from outside — thread creation
//! through `exec::Pool::spawned_threads`, allocation churn through the
//! counting allocator's cumulative byte counter — so this test pins the
//! amortisation down as numbers rather than trusting the design.

#![cfg(feature = "memprof")]

use exec::Pool;

#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

/// The largest explicit worker count any test in this binary requests.
const MAX_WORKERS: usize = 4;

/// Serialises this binary's pool-census tests, and grows the shared
/// pool to the largest worker count any test here can request (the
/// explicit counts, or `Threads::Auto` up to the machine) before a
/// census is read, so no test running beside it can spawn threads under
/// it. Taken after a test's cold call, which must meet an unwarmed pool.
fn census_lock() -> std::sync::MutexGuard<'static, ()> {
    static CENSUS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    Pool::global().run(MAX_WORKERS.max(exec::available_parallelism()), |_| {});
    guard
}

#[test]
fn warm_calls_reuse_threads_and_scratch() {
    let g = bench::random_graph(150, 0.12, 42);
    let reference = cpm::percolate(&g);

    // Cold call: spawns pool threads, builds per-worker scratch arenas.
    let (cold_result, cold_bytes) =
        bench::memprof::measure_total(|| cpm::parallel::percolate_parallel(&g, 4));
    assert_eq!(reference.levels, cold_result.levels);
    let _census = census_lock();
    let spawned = Pool::global().spawned_threads();
    assert!(spawned >= 3, "expected pool threads after a 4-worker call");

    // Warm calls: same work, but threads and arenas already exist.
    let mut warm_bytes = Vec::new();
    for round in 0..5 {
        let (warm_result, bytes) =
            bench::memprof::measure_total(|| cpm::parallel::percolate_parallel(&g, 4));
        assert_eq!(reference.levels, warm_result.levels, "round {round}");
        assert_eq!(
            Pool::global().spawned_threads(),
            spawned,
            "round {round}: warm call spawned threads"
        );
        warm_bytes.push(bytes);
    }

    // Every warm call allocates strictly less than the cold call: the
    // one-time costs (thread bookkeeping, arena construction) are gone.
    for (round, &bytes) in warm_bytes.iter().enumerate() {
        assert!(
            bytes < cold_bytes,
            "round {round}: warm call allocated {bytes} bytes, cold call {cold_bytes}"
        );
    }

    // And warm calls are allocation-stable against each other: scratch
    // arenas persist instead of being re-grown, so identical inputs
    // allocate (nearly) identical volumes. 10% slack covers ancillary
    // noise (e.g. lazily grown Vec capacities crossing a threshold).
    let min = *warm_bytes.iter().min().unwrap() as f64;
    let max = *warm_bytes.iter().max().unwrap() as f64;
    assert!(
        max <= min * 1.10,
        "warm allocation volumes vary too much: min {min}, max {max}"
    );
}
