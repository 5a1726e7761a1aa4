//! Loom models for tenant hot-reload through the service path.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI job):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p draco-dracod --test loom
//! ```
//!
//! The race under test is the one the epoch protocol exists for: one
//! thread is mid-`check_batch` on a tenant's shared tables (it may have
//! run the filter under the *old* policy) while another thread
//! drives [`DracoService::reload`] — `install_additional` plus flush —
//! through the service. The invariant: **no stale-epoch validation ever
//! commits**. Concretely, once the reload returns, an argument set the
//! old policy allowed but the new policy denies must (a) be denied and
//! (b) never be served from the cache — a stale commit would surface as
//! a cached allow after the flush.

#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;

use draco_core::CheckResult;
use draco_dracod::{DracoService, ServiceConfig};
use draco_profiles::{ProfileGenerator, ProfileKind, ProfileSpec};
use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};

fn req(nr: u16, args: &[u64]) -> SyscallRequest {
    SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
}

/// read(2) with two argument sets (VAT-backed) plus getpid(2) (SPT).
fn base_profile() -> ProfileSpec {
    let mut gen = ProfileGenerator::new("loom");
    gen.observe(&req(0, &[3, 0xaaaa, 64]));
    gen.observe(&req(0, &[4, 0xbbbb, 128]));
    gen.observe(&req(39, &[]));
    gen.emit(ProfileKind::SyscallComplete)
}

/// A refinement of [`base_profile`]: only getpid survives. Admitted by
/// `RequireRefinement`, and the install flushes every cached
/// validation of the tenant.
fn tightened() -> ProfileSpec {
    let mut gen = ProfileGenerator::new("loom-tight");
    gen.observe(&req(39, &[]));
    gen.emit(ProfileKind::SyscallComplete)
}

#[test]
fn batched_checks_racing_a_service_reload_never_commit_stale_epochs() {
    loom::model(|| {
        let mut svc = DracoService::new(ServiceConfig::default());
        let tenant = svc.register(&base_profile()).expect("compiles");
        // Warm the doomed argument set so the racing batch has a live
        // cached validation for the reload's flush to invalidate
        // between its probe pass and its commit walk.
        let doomed = req(0, &[3, 0xaaaa, 64]);
        svc.submit(tenant, doomed).unwrap();
        svc.drain();
        // A worker handle checks on the tenant's shared tables without
        // holding the service lock — exactly how an external admission
        // thread rides alongside the service loop.
        let worker = svc.spawn_worker(tenant).expect("tenant is live");
        let svc = Arc::new(Mutex::new(svc));

        let old = base_profile();
        let new = tightened();
        let batcher = {
            let old = old.clone();
            let new = new.clone();
            thread::spawn(move || {
                let mut handle = worker;
                let reqs = [
                    doomed,                // cached under the old policy
                    req(39, &[]),          // allowed under both
                    req(0, &[4, 0xbbbb, 128]), // old-allowed miss
                    doomed,                // duplicate of the candidate
                ];
                let mut out = [CheckResult::KILLED; 4];
                handle.check_batch(&reqs, &mut out);
                for (r, got) in reqs.iter().zip(out.iter()) {
                    // Racing the reload, each decision must be exactly
                    // the old policy's or the new policy's verdict —
                    // never a third thing stitched from both epochs.
                    let old_says = old.evaluate(r);
                    let new_says = new.evaluate(r);
                    assert!(
                        got.action == old_says || got.action == new_says,
                        "{r}: got {:?}, old {:?}, new {:?}",
                        got.action,
                        old_says,
                        new_says
                    );
                }
            })
        };
        let reloader = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || {
                let mut svc = svc.lock().unwrap();
                svc.reload(tenant, &tightened())
                    .expect("refinement is admitted");
            })
        };
        batcher.join().unwrap();
        reloader.join().unwrap();

        // The reload has fully returned: the new policy owns the
        // tables. If any stale-epoch validation had committed, this
        // probe would be a cached allow — it must be a filtered denial.
        let mut svc = svc.lock().unwrap();
        let mut decisions = Vec::new();
        svc.submit(tenant, doomed).unwrap();
        svc.submit(tenant, req(39, &[])).unwrap();
        svc.drain_with(|_, _, d| decisions.push(d));
        assert!(
            !decisions[0].action.permits(),
            "stale-epoch validation survived the reload: {:?}",
            decisions[0]
        );
        assert!(
            !decisions[0].path.is_cache_hit(),
            "denied request served from cache: {:?}",
            decisions[0].path
        );
        assert!(decisions[1].action.permits(), "getpid survives the tighten");
    });
}

#[test]
fn worker_checks_racing_a_refused_reload_keep_the_old_policy_and_cache() {
    loom::model(|| {
        let mut svc = DracoService::new(ServiceConfig::default());
        let tenant = svc.register(&base_profile()).expect("compiles");
        let warmed = req(0, &[3, 0xaaaa, 64]);
        svc.submit(tenant, warmed).unwrap();
        svc.drain();
        let worker = svc.spawn_worker(tenant).expect("tenant is live");
        let svc = Arc::new(Mutex::new(svc));

        // A *relaxation* of the installed policy: refused by
        // RequireRefinement, so no flush may happen.
        let relaxed = {
            let mut gen = ProfileGenerator::new("loom-relaxed");
            gen.observe(&req(0, &[3, 0xaaaa, 64]));
            gen.observe(&req(0, &[4, 0xbbbb, 128]));
            gen.observe(&req(39, &[]));
            gen.observe(&req(41, &[2, 1, 6])); // socket: never observed
            gen.emit(ProfileKind::SyscallComplete)
        };

        let old = base_profile();
        let checker = {
            let old = old.clone();
            thread::spawn(move || {
                let mut handle = worker;
                for r in [warmed, req(39, &[]), warmed] {
                    assert_eq!(
                        handle.check(&r).action,
                        old.evaluate(&r),
                        "refused reload must not change decisions"
                    );
                }
            })
        };
        let reloader = {
            let svc = Arc::clone(&svc);
            let relaxed = relaxed.clone();
            thread::spawn(move || {
                let mut svc = svc.lock().unwrap();
                svc.reload(tenant, &relaxed)
                    .expect_err("relaxation is refused");
            })
        };
        checker.join().unwrap();
        reloader.join().unwrap();

        // No flush happened: the warmed key still hits, decisions obey
        // the old policy, and the refusal is counted.
        let mut svc = svc.lock().unwrap();
        let mut d = None;
        svc.submit(tenant, warmed).unwrap();
        svc.drain_with(|_, _, r| d = Some(r));
        let d = d.unwrap();
        assert!(d.action.permits());
        assert!(d.path.is_cache_hit(), "refusal must not flush: {:?}", d.path);
        assert_eq!(svc.counters().reloads_refused, 1);
        assert_eq!(svc.counters().reloads_permitted, 0);
    });
}
