//! Staging a write into the WAL's open batch allocates nothing once the
//! batch buffer has the room: each frame is encoded in place, from a
//! borrowed view of the write. A counting global allocator pins it, so
//! the staging cost stays guarded without timing anything.
//!
//! Its own test binary: the allocator is process-global. It counts per
//! thread, so the harness's other threads cannot disturb a measurement.

use casper_persist::wal::{Wal, WalOp};
use casper_persist::VfsHandle;
use casper_workload::HapQuery;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting allocations and reallocations.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn staging_into_a_reserved_batch_allocates_nothing() {
    assert!(
        allocations(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(8)))) > 0,
        "the counter sees allocations"
    );
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wal_alloc");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut wal = Wal::create(&VfsHandle::default(), &dir.join("wal.log"), 1).expect("create");

    let q4 = HapQuery::Q4 {
        key: 7,
        payload: (0..15).collect(),
    };
    let q5 = HapQuery::Q5 { v: 7 };
    let q6 = HapQuery::Q6 { v: 7, vnew: 8 };
    let writes = [&q4, &q5, &q6];
    let ops: Vec<WalOp> = writes
        .iter()
        .map(|q| WalOp::from_query(q).expect("a write"))
        .collect();

    // Reserve the room: a sealed batch keeps its buffer's capacity.
    for _ in 0..4 {
        for q in writes {
            wal.stage_query(q);
        }
    }
    wal.seal().expect("seal");

    let n = allocations(|| {
        for q in writes {
            wal.stage_query(q);
        }
        for op in &ops {
            wal.stage(op);
        }
    });
    assert_eq!(wal.staged_records(), 6);
    assert_eq!(
        n, 0,
        "staging a Q4, a Q5 and a Q6 twice allocated {n} times"
    );
    wal.seal().expect("seal");
}
