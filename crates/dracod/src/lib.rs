//! `dracod`: a multi-tenant syscall-admission service over shared
//! Draco checkers.
//!
//! The rest of the workspace exercises checkers one process at a time;
//! this crate runs them as shards of a long-running service (ROADMAP
//! item 1, the "millions of users" deployment shape from paper §VII).
//! A [`DracoService`] owns a registry of tenants — each with its own
//! profile, [`SharedDracoProcess`](draco_core::SharedDracoProcess)
//! (shared SPT/VAT plus optional analysis plan), submission queue, and
//! latency histogram — and multiplexes them over one request loop that
//! drains queues into `check_batch` calls (a loop over the shared
//! handle's scalar check).
//!
//! | Module | Contents |
//! |---|---|
//! | [`service`] | Tenant registry, lifecycle (`register`/`fork`/`exec`/`reload`/`retire`), request loop |
//! | [`churn`] | Seeded churn scenario (arrivals, fork storms, flush-heavy reloads) + the bench `service` section |
//!
//! The lifecycle guarantees are the point: tenants share no checkable
//! state (isolation proven by differential replay in the repo's test
//! battery), ids/pids are monotone and never reused, hot reloads run
//! through the epoch protocol under
//! [`ReloadPolicy`](draco_core::ReloadPolicy), and a refused reload
//! leaves the old filter serving with every cached validation intact.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod churn;
pub mod service;

pub use churn::{
    run_churn, ChurnConfig, ChurnReport, ServiceThroughput, TenantLatency, SERVICE_SCHEMA,
};
pub use service::{
    DracoService, DrainSummary, ServiceConfig, ServiceCounters, ServiceError, TenantId,
    TenantSnapshot,
};
