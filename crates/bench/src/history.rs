//! Throughput history and the regression gate behind `repro compare`.
//!
//! Every tracked `repro throughput` run appends one summary line to
//! `BENCH_history.jsonl` (JSON Lines: one self-contained entry per
//! line, so the file grows append-only and merges trivially). The
//! `repro compare` gate then checks the current report's software-Draco
//! single-thread rate — the number PR work on the hot path moves —
//! against the best comparable entry in the history and fails when it
//! regresses past a threshold. CI runs the gate with `--warn-only`
//! (shared runners are noisy); locally it is a hard gate.

use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::throughput::{series_value, Series, ThroughputReport};

/// Schema tag carried by every history line (bump on breaking changes).
/// v2 copies the report's named series; v1 lines (one field per
/// measurement) are skipped by [`load_history`].
pub const HISTORY_SCHEMA: &str = "draco-history/v2";

/// The series the `repro compare` gate checks: software Draco, one
/// shard on one thread — the number work on the hot path moves.
pub(crate) const GATED_SERIES: &str = "draco-sw.single_checks_per_sec";

/// Default regression threshold: fail when the current rate drops more
/// than this fraction below the best comparable baseline.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// One appended summary of a tracked throughput run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Schema tag ([`HISTORY_SCHEMA`]).
    pub schema: String,
    /// Replayed workload.
    pub workload: String,
    /// Shard count of the multi-thread runs.
    pub shards: u64,
    /// Measured checks per shard.
    pub ops_per_shard: u64,
    /// The report's series, copied as they were measured.
    pub series: Vec<Series>,
}

impl HistoryEntry {
    /// Summarizes a throughput report into one history line.
    pub fn from_report(report: &ThroughputReport) -> Self {
        HistoryEntry {
            schema: HISTORY_SCHEMA.to_owned(),
            workload: report.workload.clone(),
            shards: report.shards,
            ops_per_shard: report.ops_per_shard,
            series: report.series.clone(),
        }
    }

    /// The gated rate; zero when the entry lacks it (a zero baseline
    /// never gates, so a malformed entry cannot fail the comparison by
    /// accident).
    fn gated(&self) -> f64 {
        series_value(&self.series, GATED_SERIES).unwrap_or(0.0)
    }

    /// Whether `other` measured the same experiment (same workload and
    /// per-shard op count — rates from different run lengths are not
    /// comparable).
    pub fn comparable_to(&self, other: &HistoryEntry) -> bool {
        self.workload == other.workload && self.ops_per_shard == other.ops_per_shard
    }
}

/// The verdict of one history comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareOutcome {
    /// The gated rate from the current report (draco-sw single-thread).
    pub current_checks_per_sec: f64,
    /// The best comparable baseline rate, if the history has one.
    pub baseline_checks_per_sec: Option<f64>,
    /// `(baseline - current) / baseline * 100`; negative when the
    /// current run is faster. `None` without a baseline.
    pub regression_pct: Option<f64>,
    /// The threshold the gate applied.
    pub threshold_pct: f64,
    /// Comparable history entries considered.
    pub baselines_considered: usize,
    /// True when the current rate fell more than `threshold_pct` below
    /// the baseline. Always false without a baseline.
    pub regressed: bool,
}

impl fmt::Display for CompareOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.baseline_checks_per_sec, self.regression_pct) {
            (Some(base), Some(pct)) => write!(
                f,
                "draco-sw single-thread: {:.0} checks/s vs best baseline {:.0} ({}{:.1}% {}, threshold {:.1}%, {} baseline{})",
                self.current_checks_per_sec,
                base,
                if pct >= 0.0 { "-" } else { "+" },
                pct.abs(),
                if pct >= 0.0 { "slower" } else { "faster" },
                self.threshold_pct,
                self.baselines_considered,
                if self.baselines_considered == 1 { "" } else { "s" },
            ),
            _ => write!(
                f,
                "draco-sw single-thread: {:.0} checks/s (no comparable baseline in history)",
                self.current_checks_per_sec
            ),
        }
    }
}

/// Compares a report's `draco-sw.single_checks_per_sec` series against
/// the best comparable entry in `history`.
///
/// The *best* (not latest) baseline gates: a slow run appended to the
/// history must not lower the bar for the runs after it. Entries for a
/// different workload or op count, and zero-rate entries, are skipped.
pub fn compare(
    history: &[HistoryEntry],
    report: &ThroughputReport,
    threshold_pct: f64,
) -> CompareOutcome {
    let current = HistoryEntry::from_report(report);
    let rate = current.gated();
    let comparable: Vec<&HistoryEntry> = history
        .iter()
        .filter(|e| e.comparable_to(&current) && e.gated() > 0.0)
        .collect();
    let baseline = comparable
        .iter()
        .map(|e| e.gated())
        .fold(None, |best: Option<f64>, rate| {
            Some(best.map_or(rate, |b| b.max(rate)))
        });
    let regression_pct = baseline.map(|base| (base - rate) / base * 100.0);
    CompareOutcome {
        current_checks_per_sec: rate,
        baseline_checks_per_sec: baseline,
        regression_pct,
        threshold_pct,
        baselines_considered: comparable.len(),
        regressed: regression_pct.is_some_and(|pct| pct > threshold_pct),
    }
}

/// How long a sidecar lock may exist before a waiter presumes its owner
/// crashed and steals it.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(2);

/// Poll interval while waiting for the sidecar lock.
const LOCK_RETRY_EVERY: Duration = Duration::from_millis(10);

/// An advisory append lock implemented as a `<path>.lock` sidecar file
/// created with `create_new` (atomic on every platform and filesystem,
/// unlike `flock`, which this toolchain has no bindings for). The lock
/// is released by deleting the sidecar on drop; a sidecar older than
/// [`LOCK_STALE_AFTER`] is presumed orphaned by a crashed writer and
/// stolen.
struct HistoryLock {
    path: PathBuf,
}

impl HistoryLock {
    fn acquire(target: &Path) -> std::io::Result<HistoryLock> {
        let mut path = target.as_os_str().to_owned();
        path.push(".lock");
        let path = PathBuf::from(path);
        let mut waited = Duration::ZERO;
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    // Owner pid, for humans inspecting a stuck lock.
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(HistoryLock { path });
                }
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                    if waited >= LOCK_STALE_AFTER {
                        // Steal: remove and retry with create_new, so of
                        // N stealers exactly one wins the next round.
                        let _ = std::fs::remove_file(&path);
                        waited = Duration::ZERO;
                        continue;
                    }
                    std::thread::sleep(LOCK_RETRY_EVERY);
                    waited += LOCK_RETRY_EVERY;
                }
                Err(err) => return Err(err),
            }
        }
    }
}

impl Drop for HistoryLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Appends one entry to a JSONL history file (created if missing).
///
/// The append is atomic against concurrent appenders: the whole line —
/// JSON plus trailing newline — is staged into one buffer and handed to
/// the kernel as a **single `write_all` on an `O_APPEND` descriptor**,
/// under the `<path>.lock` sidecar advisory lock. Two racing `repro
/// throughput` runs therefore cannot interleave bytes mid-line (which
/// previously could split a line into `serde_json` output and a
/// separately written `\n`, corrupting both entries for
/// [`load_history`]).
///
/// # Errors
///
/// Returns any I/O error from locking, opening, or writing the file.
pub fn append_history(path: &Path, entry: &HistoryEntry) -> std::io::Result<()> {
    let mut line = serde_json::to_string(entry).expect("history entries always serialize");
    line.push('\n');
    let _lock = HistoryLock::acquire(path)?;
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// Loads every parseable entry from a JSONL history file. A missing
/// file is an empty history; malformed or foreign-schema lines are
/// skipped (an old or hand-edited history must not wedge the gate).
///
/// # Errors
///
/// Returns any I/O error other than the file not existing.
pub fn load_history(path: &Path) -> std::io::Result<Vec<HistoryEntry>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    Ok(text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| serde_json::from_str::<HistoryEntry>(line).ok())
        .filter(|entry| entry.schema == HISTORY_SCHEMA)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::{run_throughput, ThroughputConfig};

    fn tiny_report() -> ThroughputReport {
        run_throughput(&ThroughputConfig {
            workload: "pipe".to_owned(),
            ops_per_shard: 200,
            warmup_ops: 20,
            seed: 11,
            shards: 2,
            shared_threads: 2,
            batch: 32,
        })
    }

    fn entry_with_rate(report: &ThroughputReport, rate: f64) -> HistoryEntry {
        let mut entry = HistoryEntry::from_report(report);
        for s in &mut entry.series {
            if s.name == GATED_SERIES {
                s.value = rate;
            }
        }
        entry
    }

    #[test]
    fn entry_summarizes_report() {
        let report = tiny_report();
        let entry = HistoryEntry::from_report(&report);
        assert_eq!(entry.schema, HISTORY_SCHEMA);
        assert_eq!(entry.workload, "pipe");
        assert_eq!(entry.ops_per_shard, 200);
        assert_eq!(entry.shards, 2);
        assert_eq!(entry.series, report.series, "every series is recorded");
        assert!(entry.gated() > 0.0);
    }

    /// Asserts that `entry` records every series in `names` with a
    /// positive value, and that an entry appended before those series
    /// existed (the same line without them) still loads from the history
    /// file and still gates.
    fn assert_carries_and_tolerates_absence(names: &[&str]) {
        let report = tiny_report();
        let entry = HistoryEntry::from_report(&report);
        for name in names {
            let value = series_value(&entry.series, name);
            assert!(value.is_some_and(|v| v > 0.0), "{name}: {value:?}");
        }
        let mut old = entry.clone();
        old.series.retain(|s| !names.contains(&s.name.as_str()));
        assert_eq!(old.series.len() + names.len(), entry.series.len());
        let dir = std::env::temp_dir().join("draco-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "history-absent-{}-{}.jsonl",
            names[0],
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        append_history(&path, &old).unwrap();
        let history = load_history(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(history, vec![old]);
        for name in names {
            assert_eq!(series_value(&history[0].series, name), None, "{name}");
        }
        let outcome = compare(&history, &report, DEFAULT_THRESHOLD_PCT);
        assert_eq!(outcome.baselines_considered, 1, "{outcome}");
    }

    #[test]
    fn entry_carries_shared_rates_and_tolerates_their_absence() {
        assert_carries_and_tolerates_absence(&[
            "shared.uniform.multi_checks_per_sec",
            "shared.uniform.scaling",
        ]);
    }

    #[test]
    fn entry_carries_batch_rates_and_tolerates_their_absence() {
        assert_carries_and_tolerates_absence(&[
            "draco-batch.single_checks_per_sec",
            "draco-batch.speedup_vs_scalar",
        ]);
    }

    #[test]
    fn entry_carries_dag_rates_and_tolerates_their_absence() {
        assert_carries_and_tolerates_absence(&["dag.dag_checks_per_sec", "dag.speedup_vs_interp"]);
    }

    #[test]
    fn entry_carries_service_rates_and_tolerates_their_absence() {
        assert_carries_and_tolerates_absence(&["service.checks_per_sec", "service.p99_latency_ns"]);
    }

    #[test]
    fn empty_history_never_regresses() {
        let report = tiny_report();
        let outcome = compare(&[], &report, DEFAULT_THRESHOLD_PCT);
        assert!(!outcome.regressed);
        assert_eq!(outcome.baseline_checks_per_sec, None);
        assert_eq!(outcome.baselines_considered, 0);
        assert!(outcome.to_string().contains("no comparable baseline"));
    }

    #[test]
    fn synthetic_regression_trips_the_gate() {
        let report = tiny_report();
        let current = HistoryEntry::from_report(&report).gated();
        // A baseline 2x faster than the current run: a 50% regression.
        let fast = entry_with_rate(&report, current * 2.0);
        let outcome = compare(&[fast], &report, 10.0);
        assert!(outcome.regressed, "{outcome}");
        assert!((outcome.regression_pct.unwrap() - 50.0).abs() < 1e-9);
        assert!(outcome.to_string().contains("slower"));
    }

    #[test]
    fn comparable_baseline_within_threshold_passes() {
        let report = tiny_report();
        let current = HistoryEntry::from_report(&report).gated();
        // Baseline 5% above current: inside the 10% default threshold.
        let close = entry_with_rate(&report, current * 1.05);
        let outcome = compare(&[close], &report, DEFAULT_THRESHOLD_PCT);
        assert!(!outcome.regressed, "{outcome}");
        // A faster current run reads as negative regression.
        let slow = entry_with_rate(&report, current * 0.5);
        let outcome = compare(&[slow], &report, DEFAULT_THRESHOLD_PCT);
        assert!(!outcome.regressed);
        assert!(outcome.regression_pct.unwrap() < 0.0);
        assert!(outcome.to_string().contains("faster"));
    }

    #[test]
    fn best_baseline_gates_not_latest() {
        let report = tiny_report();
        let current = HistoryEntry::from_report(&report).gated();
        // The latest entry is slow, but an earlier fast entry still gates.
        let history = vec![
            entry_with_rate(&report, current * 3.0),
            entry_with_rate(&report, current * 0.1),
        ];
        let outcome = compare(&history, &report, 10.0);
        assert!(outcome.regressed);
        assert_eq!(outcome.baselines_considered, 2);
        assert!((outcome.baseline_checks_per_sec.unwrap() - current * 3.0).abs() < 1e-6);
    }

    #[test]
    fn incomparable_entries_are_skipped() {
        let report = tiny_report();
        let current = HistoryEntry::from_report(&report).gated();
        let mut other_workload = entry_with_rate(&report, current * 100.0);
        other_workload.workload = "nginx".to_owned();
        let mut other_ops = entry_with_rate(&report, current * 100.0);
        other_ops.ops_per_shard = 999_999;
        let zero_rate = entry_with_rate(&report, 0.0);
        let outcome = compare(
            &[other_workload, other_ops, zero_rate],
            &report,
            DEFAULT_THRESHOLD_PCT,
        );
        assert!(!outcome.regressed);
        assert_eq!(outcome.baselines_considered, 0);
        assert_eq!(outcome.baseline_checks_per_sec, None);
    }

    #[test]
    fn jsonl_round_trip_and_append() {
        let report = tiny_report();
        let entry = HistoryEntry::from_report(&report);
        let dir = std::env::temp_dir().join("draco-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("history-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_history(&path).unwrap(), Vec::new(), "missing = empty");
        append_history(&path, &entry).unwrap();
        append_history(&path, &entry).unwrap();
        // Garbage and foreign-schema lines are tolerated.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "not json at all").unwrap();
            writeln!(f, "{{\"schema\":\"other/v9\"}}").unwrap();
            // A line of the superseded one-field-per-measurement schema.
            writeln!(
                f,
                "{{\"schema\":\"draco-history/v1\",\"workload\":\"pipe\",\"shards\":2,\"ops_per_shard\":200,\"draco_sw_single_checks_per_sec\":1e9}}"
            )
            .unwrap();
        }
        let loaded = load_history(&path).unwrap();
        assert_eq!(loaded, vec![entry.clone(), entry]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mixed_version_history_compares_without_loss() {
        // Entries converted from the one-field-per-measurement schema
        // carry only the series that existed when they were recorded;
        // they load and gate next to full entries.
        let report = tiny_report();
        let full = HistoryEntry::from_report(&report);
        let mut early = full.clone();
        early
            .series
            .retain(|s| s.name.starts_with("draco-sw.") || s.name.starts_with("seccomp-"));
        let mut no_rate = full.clone();
        no_rate.series.retain(|s| s.name != GATED_SERIES);
        let dir = std::env::temp_dir().join("draco-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("history-mixed-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        for entry in [&early, &no_rate, &full] {
            append_history(&path, entry).unwrap();
        }
        let history = load_history(&path).unwrap();
        assert_eq!(history, vec![early, no_rate, full], "every entry loads");
        let outcome = compare(&history, &report, DEFAULT_THRESHOLD_PCT);
        assert_eq!(
            outcome.baselines_considered, 2,
            "an entry without the gated series is no baseline"
        );
        assert!(!outcome.regressed, "{outcome}");
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression test for the non-atomic append: the old implementation
    /// wrote the JSON and the trailing newline as two syscalls with no
    /// lock, so concurrent appenders could interleave and corrupt both
    /// lines. Hammer the file from many threads and require every line
    /// to parse back intact.
    #[test]
    fn concurrent_appends_never_tear_lines() {
        let report = tiny_report();
        let dir = std::env::temp_dir().join("draco-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("history-race-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        const WRITERS: usize = 8;
        const APPENDS_EACH: u64 = 16;
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let path = &path;
                let report = &report;
                scope.spawn(move || {
                    for i in 0..APPENDS_EACH {
                        let mut entry = HistoryEntry::from_report(report);
                        // Tag each line so loss would also be detectable.
                        entry.ops_per_shard = (writer as u64) * APPENDS_EACH + i;
                        append_history(path, &entry).unwrap();
                    }
                });
            }
        });

        // Every appended line must parse; none may be torn or lost.
        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), WRITERS * APPENDS_EACH as usize);
        let mut tags: Vec<u64> = lines
            .iter()
            .map(|line| {
                serde_json::from_str::<HistoryEntry>(line)
                    .unwrap_or_else(|err| panic!("torn line {line:?}: {err}"))
                    .ops_per_shard
            })
            .collect();
        tags.sort_unstable();
        let expected: Vec<u64> = (0..WRITERS as u64 * APPENDS_EACH).collect();
        assert_eq!(tags, expected, "no append may be lost");
        assert!(
            !std::path::Path::new(&format!("{}.lock", path.display())).exists(),
            "the sidecar lock is released after every append"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_sidecar_locks_are_stolen() {
        let dir = std::env::temp_dir().join("draco-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("history-stale-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let lock_path = PathBuf::from(format!("{}.lock", path.display()));
        // Simulate a crashed writer that left its lock behind.
        std::fs::write(&lock_path, b"dead").unwrap();
        let report = tiny_report();
        let entry = HistoryEntry::from_report(&report);
        append_history(&path, &entry).unwrap();
        assert_eq!(load_history(&path).unwrap(), vec![entry]);
        assert!(!lock_path.exists());
        std::fs::remove_file(&path).unwrap();
    }
}
