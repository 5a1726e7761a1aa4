//! Seeded input generation shared by the workloads. The program under
//! test receives only what these functions produce.

use std::time::{Duration, Instant};

use draco_bpf::SeccompAction;
use draco_profiles::{ProfileKind, ProfileSpec};
use draco_syscalls::{ArgSet, SyscallRequest};
use draco_workloads::timing::profile_for_trace;
use draco_workloads::{SyscallTrace, TraceGenerator, WorkloadSpec};

/// XOR applied to every argument of a perturbed request, so its masked
/// argument bytes leave the whitelist and the filter denies it.
const PERTURBATION: u64 = 0xdead_0000_0000_beef;

/// errno returned by denials (EPERM, docker's default): a denied call
/// fails but leaves its caller running, so denials cannot end a stream.
pub const DENY_ERRNO: u16 = 1;

/// Mixes a seed with stream indices (splitmix64 finalizer), so every
/// input of a run derives from `--seed` alone.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Time spent generating inputs, by the library doing the work.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenTimes {
    /// `draco-workloads` trace generation.
    pub trace: Duration,
    /// `draco-profiles` profile generation.
    pub profile: Duration,
}

/// One generated application: its trace's requests and the
/// `syscall-complete` profile learnt from that trace.
#[derive(Clone, Debug)]
pub struct AppInput {
    /// The workload's catalog name.
    pub name: &'static str,
    /// The profile, denying with [`DENY_ERRNO`].
    pub profile: ProfileSpec,
    /// The trace's requests, in order, before any perturbation.
    pub requests: Vec<SyscallRequest>,
}

/// Generates `ops` requests of `spec` and learns their profile.
pub fn app(spec: &WorkloadSpec, seed: u64, ops: usize, times: &mut GenTimes) -> AppInput {
    let t = Instant::now();
    let trace: SyscallTrace = TraceGenerator::new(spec, seed).generate(ops);
    times.trace += t.elapsed();
    let t = Instant::now();
    let learnt = profile_for_trace(&trace, ProfileKind::SyscallComplete);
    let profile = with_errno_default(&learnt);
    times.profile += t.elapsed();
    AppInput {
        name: spec.name,
        profile,
        requests: trace.requests().collect(),
    }
}

/// `profile` with every rule kept and the default action replaced by
/// `ERRNO(EPERM)`.
pub fn with_errno_default(profile: &ProfileSpec) -> ProfileSpec {
    let mut out = ProfileSpec::new(profile.name(), SeccompAction::Errno(DENY_ERRNO));
    for (id, rule) in profile.rules() {
        out.allow(id, rule.clone());
    }
    out.with_repeat(profile.repeat())
}

/// The request with every argument XOR-perturbed.
pub fn perturb(req: &SyscallRequest) -> SyscallRequest {
    let mut args = [0u64; 6];
    for (i, slot) in args.iter_mut().enumerate() {
        *slot = req.args.get(i) ^ PERTURBATION;
    }
    SyscallRequest::new(req.pc, req.id, ArgSet::new(args))
}

/// `requests` with every `every`-th one (1-based) perturbed; `every`
/// of 0 perturbs nothing.
pub fn with_denials(requests: &[SyscallRequest], every: usize) -> Vec<SyscallRequest> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if every > 0 && i % every == every - 1 {
                perturb(r)
            } else {
                *r
            }
        })
        .collect()
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
