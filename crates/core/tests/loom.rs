//! Loom models for the thread-shared checker
//! ([`draco_core::SharedDracoProcess`]).
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI job):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p draco-core --test loom
//! ```
//!
//! Under `--cfg loom` the shared checker's `Arc`/`Mutex`/`RwLock`/atomics
//! come from the `loom` crate, so against upstream loom these models are
//! exhaustively interleaved; against the vendored shim they are repeated
//! stochastic runs on real threads. Invariants:
//! 1. concurrent checks through shared tables always return the
//!    **profile's decision** — a torn SPT word or VAT entry would
//!    surface as a wrong action;
//! 2. a request whose argument set **no thread ever validated** is never
//!    served from the cache;
//! 3. a handle that just validated a request **hits on its re-check**
//!    (its own insert is visible to it), even while a sibling thread
//!    writes other keys;
//! 4. checks racing a **flush** still return the profile's decision;
//! 5. a **batched** check group racing a flush still returns the
//!    profile's decision for every slot — the staged probe pass may see
//!    pre-flush table state, but the commit walk re-validates before
//!    deciding.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;

use draco_core::{CheckPath, ProcessId, SharedDracoProcess};
use draco_profiles::{ProfileGenerator, ProfileKind, ProfileSpec};
use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};

fn req(nr: u16, args: &[u64]) -> SyscallRequest {
    SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
}

/// read(2) with two hot argument sets (arg-checked, VAT-backed) plus
/// getpid(2) (ID-only, SPT fast path).
fn profile() -> ProfileSpec {
    let mut gen = ProfileGenerator::new("loom");
    gen.observe(&req(0, &[3, 0xaaaa, 64]));
    gen.observe(&req(0, &[4, 0xbbbb, 128]));
    gen.observe(&req(39, &[]));
    gen.emit(ProfileKind::SyscallComplete)
}

#[test]
fn concurrent_checks_return_the_profile_decision() {
    loom::model(|| {
        let profile = profile();
        let process =
            Arc::new(SharedDracoProcess::spawn(ProcessId(1), &profile).expect("compiles"));
        let reqs = [req(0, &[3, 7, 64]), req(0, &[4, 8, 128]), req(39, &[])];
        let mut joins = Vec::new();
        for _ in 0..2 {
            let process = Arc::clone(&process);
            let profile = profile.clone();
            let reqs = reqs.clone();
            joins.push(thread::spawn(move || {
                let mut handle = process.spawn_thread();
                for r in &reqs {
                    let outcome = handle.check(r);
                    assert_eq!(
                        outcome.action,
                        profile.evaluate(r),
                        "shared tables changed the decision for {r}"
                    );
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    });
}

#[test]
fn unvalidated_argument_sets_are_never_cache_hits() {
    loom::model(|| {
        let profile = profile();
        let process =
            Arc::new(SharedDracoProcess::spawn(ProcessId(2), &profile).expect("compiles"));
        // A sibling validates one argument set; the observer checks a
        // *different* (still-permitted) set. Nobody inserted the
        // observer's key before its own check, so its first check must
        // run the filter, not hit the cache.
        let sibling = {
            let process = Arc::clone(&process);
            thread::spawn(move || {
                process.spawn_thread().check(&req(0, &[3, 1, 64]));
            })
        };
        let observer = {
            let process = Arc::clone(&process);
            thread::spawn(move || {
                let fresh = req(0, &[4, 2, 128]);
                let outcome = process.spawn_thread().check(&fresh);
                assert!(
                    !outcome.path.is_cache_hit(),
                    "cache hit {:?} for an argument set no thread validated",
                    outcome.path
                );
            })
        };
        sibling.join().unwrap();
        observer.join().unwrap();
    });
}

#[test]
fn validating_thread_hits_on_its_recheck() {
    loom::model(|| {
        let profile = profile();
        let process =
            Arc::new(SharedDracoProcess::spawn(ProcessId(3), &profile).expect("compiles"));
        let writer = {
            let process = Arc::clone(&process);
            thread::spawn(move || {
                let mut handle = process.spawn_thread();
                let mine = req(0, &[3, 5, 64]);
                assert!(!handle.check(&mine).path.is_cache_hit());
                // No flush runs in this model, so the validation this
                // handle just published must be visible to itself.
                let again = handle.check(&mine);
                assert!(
                    again.path.is_cache_hit(),
                    "own validation lost: re-check took {:?}",
                    again.path
                );
            })
        };
        let sibling = {
            let process = Arc::clone(&process);
            thread::spawn(move || {
                let mut handle = process.spawn_thread();
                handle.check(&req(0, &[4, 6, 128]));
                handle.check(&req(39, &[]));
            })
        };
        writer.join().unwrap();
        sibling.join().unwrap();
    });
}

#[test]
fn batched_checks_racing_a_flush_keep_the_profile_decision() {
    loom::model(|| {
        let profile = profile();
        let process =
            Arc::new(SharedDracoProcess::spawn(ProcessId(5), &profile).expect("compiles"));
        // Warm one key so the batch's first check can hit a live VAT
        // entry that the flush may wipe before the batch's later checks.
        process.spawn_thread().check(&req(0, &[3, 9, 64]));
        let batcher = {
            let process = Arc::clone(&process);
            let profile = profile.clone();
            thread::spawn(move || {
                let mut handle = process.spawn_thread();
                let reqs = [
                    req(0, &[3, 9, 64]),  // candidate (warmed above)
                    req(39, &[]),         // SPT exit
                    req(0, &[4, 10, 128]), // miss
                    req(0, &[3, 9, 64]),  // duplicate of the candidate
                ];
                let mut out = [draco_core::CheckResult::KILLED; 4];
                handle.check_batch(&reqs, &mut out);
                for (r, got) in reqs.iter().zip(out.iter()) {
                    assert_eq!(
                        got.action,
                        profile.evaluate(r),
                        "batched decision diverged for {r}"
                    );
                }
            })
        };
        let flusher = {
            let process = Arc::clone(&process);
            thread::spawn(move || {
                process.flush();
            })
        };
        batcher.join().unwrap();
        flusher.join().unwrap();
        // The tables stay usable: a fresh batch repopulates and hits.
        let mut handle = process.spawn_thread();
        let reqs = [req(0, &[3, 9, 64]), req(0, &[3, 9, 64])];
        let mut out = [draco_core::CheckResult::KILLED; 2];
        handle.check_batch(&reqs, &mut out);
        handle.check_batch(&reqs, &mut out);
        assert_eq!(out[0].path, CheckPath::VatHit);
        assert_eq!(out[1].path, CheckPath::VatHit);
    });
}

#[test]
fn checks_racing_a_flush_keep_the_profile_decision() {
    loom::model(|| {
        let profile = profile();
        let process =
            Arc::new(SharedDracoProcess::spawn(ProcessId(4), &profile).expect("compiles"));
        let checker = {
            let process = Arc::clone(&process);
            let profile = profile.clone();
            thread::spawn(move || {
                let mut handle = process.spawn_thread();
                let reqs = [req(0, &[3, 9, 64]), req(39, &[]), req(0, &[3, 9, 64])];
                for r in &reqs {
                    assert_eq!(handle.check(r).action, profile.evaluate(r));
                }
            })
        };
        let flusher = {
            let process = Arc::clone(&process);
            thread::spawn(move || {
                process.flush();
            })
        };
        checker.join().unwrap();
        flusher.join().unwrap();
        // After the dust settles a fresh check still agrees and can
        // repopulate the wiped tables.
        let r = req(0, &[3, 9, 64]);
        let mut handle = process.spawn_thread();
        assert_eq!(handle.check(&r).action, profile.evaluate(&r));
        assert_eq!(handle.check(&r).path, CheckPath::VatHit);
    });
}
