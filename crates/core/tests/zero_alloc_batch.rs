//! Machine-checked batch-path performance contract: a warm
//! [`check_batch`] whose every request hits the SPT or the VAT performs
//! **zero heap allocations** — the per-process checker's staging
//! scratch is reused across batches and its pass buffers only ever grow
//! during warmup; the thread-shared handle's batch is a loop over its
//! scalar check and stages nothing.
//!
//! Mirrors `zero_alloc.rs` (same counting allocator, same gating), for
//! the batched entry points of both `DracoChecker` and the thread-shared
//! `SharedThreadHandle`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use draco_core::{CheckPath, CheckResult, DracoChecker, ProcessId, SharedDracoProcess};
use draco_profiles::{ProfileGenerator, ProfileKind, ProfileSpec};
use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Counting is gated on a thread-local flag so harness threads can never
// be mistaken for batch-path allocations (see zero_alloc.rs).
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_enabled() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn req(nr: u16, args: &[u64]) -> SyscallRequest {
    SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
}

/// An argument-checking profile plus a batch that, once warm, resolves
/// entirely from the tables: VAT hits for the arg-checked calls, SPT
/// exits for getpid.
fn profile_and_batch() -> (ProfileSpec, Vec<SyscallRequest>) {
    let mut gen = ProfileGenerator::new("zero-alloc-batch");
    gen.observe(&req(0, &[3, 0xaaaa, 64]));
    gen.observe(&req(0, &[4, 0xbbbb, 128]));
    gen.observe(&req(1, &[3, 0xcccc, 64]));
    gen.observe(&req(39, &[]));
    let profile = gen.emit(ProfileKind::SyscallComplete);
    // A full batch mixing both fast-path classes, with repeats so the
    // CRC pass exercises the 4-lane chunks AND the scalar remainder.
    let batch: Vec<SyscallRequest> = (0..33)
        .map(|i| match i % 4 {
            0 => req(0, &[3, 1, 64]),
            1 => req(0, &[4, 2, 128]),
            2 => req(1, &[3, 3, 64]),
            _ => req(39, &[]),
        })
        .collect();
    (profile, batch)
}

#[test]
fn warm_batches_do_not_allocate() {
    let (profile, batch) = profile_and_batch();
    let mut checker = DracoChecker::from_profile(&profile).expect("compiles");
    let mut out = vec![CheckResult::KILLED; batch.len()];

    // Warmup: first batch runs the filter and inserts into the VAT
    // (allocation is fine there) and grows the staging scratch to the
    // batch's high-water mark.
    checker.check_batch(&batch, &mut out);
    checker.check_batch(&batch, &mut out);
    for (r, result) in batch.iter().zip(out.iter()) {
        assert!(
            matches!(result.path, CheckPath::SptHit | CheckPath::VatHit),
            "warmed: {r} took {:?}",
            result.path
        );
    }

    // Measured window: every batch below is all-hits and must not touch
    // the heap — the scratch vectors are reused at capacity.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    for _ in 0..1_000 {
        checker.check_batch(&batch, &mut out);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm check_batch must perform zero heap allocations"
    );
    for result in &out {
        assert!(matches!(result.path, CheckPath::SptHit | CheckPath::VatHit));
    }
    let stats = checker.batch_stats();
    assert!(stats.batches >= 1_002);
    assert!(stats.prefetch_issued > 0, "candidates were staged: {stats}");

    // Second window: the span tracer's buffers are pre-allocated at
    // install time, so traced batch stages stay allocation-free too.
    checker.enable_span_trace(4096, 4);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    for _ in 0..500 {
        checker.check_batch(&batch, &mut out);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "sampled span tracing must not allocate on the batch path"
    );
}

#[test]
fn warm_shared_batches_do_not_allocate() {
    let (profile, batch) = profile_and_batch();
    let process = SharedDracoProcess::spawn(ProcessId(1), &profile).expect("spawns");
    let mut handle = process.spawn_thread();
    let mut out = vec![CheckResult::KILLED; batch.len()];

    handle.check_batch(&batch, &mut out);
    handle.check_batch(&batch, &mut out);
    for (r, result) in batch.iter().zip(out.iter()) {
        assert!(
            matches!(result.path, CheckPath::SptHit | CheckPath::VatHit),
            "warmed: {r} took {:?}",
            result.path
        );
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    for _ in 0..1_000 {
        handle.check_batch(&batch, &mut out);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warm shared check_batch must perform zero heap allocations"
    );
    for result in &out {
        assert!(matches!(result.path, CheckPath::SptHit | CheckPath::VatHit));
    }
    let stats = handle.batch_stats();
    assert!(stats.batches >= 1_002);
    assert_eq!(
        stats.prefetch_issued, 0,
        "the shared batch stages nothing: {stats}"
    );
    assert_eq!(
        stats.miss_dedup_hits, 0,
        "the shared batch stages nothing: {stats}"
    );
}
