//! Allocation budget of station admission and retirement.
//!
//! A counting global allocator measures one `execute_scenario` call over the
//! 2,000-station frozen metropolis slice on one virtual-time worker, after a
//! warm-up call (training and the first run's lazily built, process-wide
//! state are excluded). Metropolis stations are short (about 42 packets and
//! 5 windows each), so per-station fixed cost dominates there: the immutable
//! traffic models and defense tables are shared, and the per-station
//! buffers (scorer scratch, windower banks, stage scratch, report vectors)
//! recycle through the worker. A change that rebuilds or clones one of them
//! per admission shows up here as a jump in allocations per station.
//!
//! This binary holds a single test so no other test thread allocates while
//! the counter runs.

use bench::scenario::{
    default_scenarios_dir, execute_scenario, load_spec, train_for, AdversaryMode,
};
use bench::streaming::Executor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) since the
/// process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// relaxed atomic, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations one metropolis station may cost.
const BUDGET_PER_STATION: f64 = 30.0;

#[test]
fn metropolis_stations_stay_within_their_allocation_budget() {
    let mut spec = load_spec(&default_scenarios_dir().join("metropolis.toml"))
        .unwrap_or_else(|e| panic!("{e}"));
    let total: usize = spec.stations.iter().map(|g| g.count).sum();
    for group in &mut spec.stations {
        group.count = (group.count * 2_000 / total).max(1);
    }
    assert_eq!(spec.adversary.mode, AdversaryMode::Batch);
    let scenario = spec.build().unwrap_or_else(|e| panic!("{e}"));
    let adversary = train_for(&scenario);
    let executor = Executor::VirtualTime {
        workers: Some(1),
        max_slice: None,
    };
    let warm = execute_scenario(&scenario, &adversary, executor).expect("runs");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (report, stats) = execute_scenario(&scenario, &adversary, executor).expect("runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(report, warm.0, "a repeated run reports the same");
    assert_eq!(stats.admitted, scenario.station_count());
    let per_station = allocations as f64 / scenario.station_count() as f64;
    println!(
        "{allocations} allocations for {} stations: {per_station:.1} per station",
        scenario.station_count()
    );
    assert!(
        per_station <= BUDGET_PER_STATION,
        "{per_station:.1} allocations per station exceeds the budget of {BUDGET_PER_STATION}"
    );
}
