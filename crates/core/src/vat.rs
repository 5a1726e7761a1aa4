//! The Validated Argument Table (paper §V-B, §VII-A).

use core::borrow::Borrow;
use core::fmt;

use draco_cuckoo::{CrcPairHasher, CuckooTable, HashPair, Lookup, Way};
use draco_obs::{CuckooMetrics, Stage, TraceScope, VatMetrics};
use draco_syscalls::{ArgBitmask, ArgSet, MaskedBytes, SyscallId};

/// The key of a VAT entry: the masked-selected argument bytes of one
/// validated invocation, in bitmask bit order (what the paper's Selector
/// feeds to the CRC hash functions, Fig. 5).
///
/// The bytes live in a fixed 48-byte inline buffer — the Argument
/// Bitmask is 48 bits wide, so a key can never be longer — making the
/// key `Copy` and keeping VAT probes free of heap allocation. Equality
/// and hashing are over the selected bytes only; the table probes it
/// through its `Borrow<[u8]>` form, so a lookup needs no owned key at
/// all.
#[derive(Clone, Copy, Debug)]
pub struct VatKey(MaskedBytes);

impl VatKey {
    /// Builds the key for an argument set under a bitmask.
    pub fn new(mask: ArgBitmask, args: &ArgSet) -> Self {
        VatKey(mask.select_bytes(args))
    }

    /// The selected bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }
}

// Equality and hashing go through the byte slice (not the whole inline
// buffer) so they agree with the key's `Borrow<[u8]>` form, as the
// `Borrow` contract requires.
impl PartialEq for VatKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for VatKey {}

impl core::hash::Hash for VatKey {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl AsRef<[u8]> for VatKey {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Borrow<[u8]> for VatKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<MaskedBytes> for VatKey {
    fn from(bytes: MaskedBytes) -> Self {
        VatKey(bytes)
    }
}

/// Result of a successful VAT probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VatLookup {
    /// Which hash function located the entry (the SLB/STB cache this).
    pub way: Way,
    /// The hash value that located the entry.
    pub hash: u64,
}

/// One syscall's table within the VAT, plus the argument set each entry
/// stores (the cuckoo value is the full masked [`ArgSet`], which the
/// hardware fetches into the SLB).
type SyscallVat = CuckooTable<VatKey, ArgSet>;

/// The per-process Validated Argument Table.
///
/// One bounded two-way cuckoo table per syscall that checks arguments.
/// Tables are created on demand and sized as *twice* the expected number
/// of argument sets (paper §VII-A over-provisioning), with a configurable
/// floor.
///
/// # Example
///
/// ```
/// use draco_core::Vat;
/// use draco_syscalls::{ArgBitmask, ArgSet, SyscallId};
///
/// let mut vat = Vat::new();
/// let id = SyscallId::new(0);
/// let mask = ArgBitmask::from_widths([4, 0, 8, 0, 0, 0]);
/// let args = ArgSet::from_slice(&[3, 0xdead, 64]);
/// let idx = vat.ensure_table(id, 4);
/// assert!(vat.lookup(idx, mask, &args).is_none());
/// vat.insert(idx, mask, &args);
/// assert!(vat.lookup(idx, mask, &args).is_some());
/// ```
#[derive(Debug)]
pub struct Vat {
    tables: Vec<SyscallVat>,
    owners: Vec<SyscallId>,
    /// Syscall-id → table-index map, indexed by raw syscall number:
    /// `ensure_table` sits on the miss/update path of every argument
    /// check, so resolving an existing table must not scan `owners`.
    index_of: Vec<Option<u32>>,
    min_capacity: usize,
    capacity_cap: Option<usize>,
}

impl Vat {
    /// Default minimum per-syscall table capacity.
    pub const DEFAULT_MIN_CAPACITY: usize = 8;

    /// Creates an empty VAT.
    pub fn new() -> Self {
        Vat {
            tables: Vec::new(),
            owners: Vec::new(),
            index_of: Vec::new(),
            min_capacity: Self::DEFAULT_MIN_CAPACITY,
            capacity_cap: None,
        }
    }

    /// Sets the minimum per-syscall table capacity (builder-style).
    #[must_use]
    pub fn with_min_capacity(mut self, min: usize) -> Self {
        self.min_capacity = min.max(2);
        self
    }

    /// Caps every per-syscall table at `cap` entries (builder-style).
    ///
    /// The paper over-provisions tables to twice the expected argument
    /// sets; an OS under memory pressure can bound them instead, trading
    /// evictions (re-validations) for footprint.
    #[must_use]
    pub fn with_capacity_cap(mut self, cap: usize) -> Self {
        self.capacity_cap = Some(cap.max(2));
        self
    }

    /// An empty VAT sized like this one (same minimum capacity and cap):
    /// the tables a forked child starts with.
    #[must_use]
    pub(crate) fn cold_copy(&self) -> Self {
        Vat {
            min_capacity: self.min_capacity,
            capacity_cap: self.capacity_cap,
            ..Vat::new()
        }
    }

    /// Creates (or finds) the table for a syscall, sized for
    /// `expected_sets` argument sets. Returns the table index — the SPT's
    /// Base field.
    pub fn ensure_table(&mut self, id: SyscallId, expected_sets: usize) -> u32 {
        let nr = id.as_u16() as usize;
        if let Some(&Some(index)) = self.index_of.get(nr) {
            return index;
        }
        // Over-provision 2x (paper §VII-A), subject to the memory cap.
        let mut capacity = (expected_sets * 2).max(self.min_capacity);
        if let Some(cap) = self.capacity_cap {
            capacity = capacity.min(cap);
        }
        self.tables
            .push(CuckooTable::with_capacity(capacity, CrcPairHasher::new()));
        self.owners.push(id);
        let index = (self.tables.len() - 1) as u32;
        if self.index_of.len() <= nr {
            self.index_of.resize(nr + 1, None);
        }
        self.index_of[nr] = Some(index);
        index
    }

    /// Number of per-syscall tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// The syscall owning a table index.
    pub fn owner(&self, index: u32) -> Option<SyscallId> {
        self.owners.get(index as usize).copied()
    }

    /// The hash pair for an argument set (what hardware computes before
    /// probing).
    pub fn hash_pair(&self, index: u32, mask: ArgBitmask, args: &ArgSet) -> Option<HashPair> {
        let table = self.tables.get(index as usize)?;
        Some(table.hash_pair(mask.select_bytes(args).as_slice()))
    }

    /// Probes the table for a validated argument set (two probes, like
    /// the hardware). The selected bytes are borrowed straight off the
    /// stack — a probe performs no heap allocation.
    pub fn lookup(&mut self, index: u32, mask: ArgBitmask, args: &ArgSet) -> Option<VatLookup> {
        let table = self.tables.get_mut(index as usize)?;
        let key = mask.select_bytes(args);
        table.lookup(key.as_slice()).map(|hit| VatLookup {
            way: hit.way,
            hash: hit.hash,
        })
    }

    /// Issues software prefetches for both cuckoo ways of a pending
    /// probe — the batched check path's stand-in for the hardware SLB
    /// overlapping probe latency with younger checks. Returns whether
    /// the table exists, so callers can count issued prefetches.
    pub fn prefetch(&self, index: u32, pair: HashPair) -> bool {
        match self.tables.get(index as usize) {
            Some(table) => {
                table.prefetch(pair);
                true
            }
            None => false,
        }
    }

    /// Probes with a precomputed hash pair *without* touching the lookup
    /// counters. The batched check path separates the bulk probe pass
    /// from the in-order commit walk; the walk replays the bookkeeping
    /// through [`Vat::count_lookup`] so batched and scalar runs produce
    /// identical table metrics.
    pub fn probe_hashed(&self, index: u32, key: &[u8], pair: HashPair) -> Option<Lookup> {
        self.tables.get(index as usize)?.probe(key, pair)
    }

    /// Replays the counted-lookup bookkeeping for a probe performed via
    /// [`Vat::probe_hashed`], in commit order.
    pub fn count_lookup(&mut self, index: u32, found: Option<Lookup>) {
        if let Some(table) = self.tables.get_mut(index as usize) {
            table.count_lookup(found);
        }
    }

    /// Replays the bookkeeping of `n` consecutive counted lookups that
    /// all hit the same entry of table `index` (no other lookup of that
    /// table in between) in O(1) — the batch commit fast path's bulk
    /// form of [`Vat::count_lookup`]. Exactness is pinned by the
    /// table-level differential test
    /// (`hashed_bulk_hits_match_serial_count_lookup`).
    pub fn count_hits_bulk(&mut self, index: u32, hit: Lookup, n: u64) {
        if let Some(table) = self.tables.get_mut(index as usize) {
            table.count_hits_bulk(hit, n);
        }
    }

    /// [`Vat::lookup`] decomposed into its timed stages for a sampled
    /// check: CRC hashing, then each cuckoo way probed separately, each
    /// under its own span. Counters update exactly as in `lookup`
    /// (`count_lookup` replays the counted-lookup bookkeeping), so traced
    /// and untraced runs produce identical registries.
    pub fn lookup_traced(
        &mut self,
        index: u32,
        mask: ArgBitmask,
        args: &ArgSet,
        scope: &mut TraceScope<'_>,
    ) -> Option<VatLookup> {
        let table = self.tables.get_mut(index as usize)?;
        let key = mask.select_bytes(args);
        let key = key.as_slice();

        let t = scope.stage_begin();
        let pair = table.hash_pair(key);
        scope.stage_end(Stage::CrcHash, t);

        let t = scope.stage_begin();
        let mut found = table.probe_way(key, pair, Way::H1);
        scope.stage_end(Stage::VatProbeWay1, t);
        if found.is_none() {
            let t = scope.stage_begin();
            found = table.probe_way(key, pair, Way::H2);
            scope.stage_end(Stage::VatProbeWay2, t);
        }
        table.count_lookup(found);
        found.map(|hit| VatLookup {
            way: hit.way,
            hash: hit.hash,
        })
    }

    /// Records a newly validated argument set. Returns the eviction, if
    /// table pressure forced one.
    pub fn insert(
        &mut self,
        index: u32,
        mask: ArgBitmask,
        args: &ArgSet,
    ) -> Option<(VatKey, ArgSet)> {
        let table = self
            .tables
            .get_mut(index as usize)
            .expect("insert into nonexistent VAT table");
        let key = VatKey::new(mask, args);
        table.insert(key, mask.masked(args))
    }

    /// The stored argument set a preload fetches for `(index, hash, way)`,
    /// mirroring the hardware's VAT read during SLB preload (paper §VI-B).
    pub fn fetch_by_hash(&self, index: u32, hash: u64, way: Way) -> Option<ArgSet> {
        let table = self.tables.get(index as usize)?;
        table
            .iter()
            .find(|(k, _)| table.hash_pair(k.as_bytes()).for_way(way) == hash)
            .map(|(_, v)| *v)
    }

    /// Removes every entry from every table (fast clear, paper §VII-B).
    pub fn clear(&mut self) {
        for table in &mut self.tables {
            table.clear();
        }
    }

    /// Total resident argument sets across all tables.
    pub fn resident_sets(&self) -> usize {
        self.tables.iter().map(draco_cuckoo::CuckooTable::len).sum()
    }

    /// Total evictions across all tables (insertion-pressure signal).
    pub fn total_evictions(&self) -> u64 {
        self.tables.iter().map(|t| t.stats().evictions).sum()
    }

    /// Aggregated cuckoo-table observability across every per-syscall
    /// table (saturating section merge — order-independent).
    pub fn cuckoo_metrics(&self) -> CuckooMetrics {
        let mut merged = CuckooMetrics::default();
        for table in &self.tables {
            merged.merge(&table.metrics());
        }
        merged
    }

    /// Occupancy gauges for the registry's `vat` section.
    pub fn metrics(&self) -> VatMetrics {
        VatMetrics {
            tables: self.table_count() as u64,
            resident_sets: self.resident_sets() as u64,
            footprint_bytes: self.footprint_bytes() as u64,
        }
    }

    /// Approximate memory footprint in bytes (paper §XI-C reports a
    /// geometric mean of 6.98 KB per process).
    ///
    /// Each slot is costed as a packed VAT record: 48 bytes of argument
    /// values plus an 8-byte hash/metadata word.
    pub fn footprint_bytes(&self) -> usize {
        const ENTRY_BYTES: usize = 48 + 8;
        self.tables
            .iter()
            .map(|t| t.footprint_bytes(ENTRY_BYTES))
            .sum()
    }
}

impl Default for Vat {
    fn default() -> Self {
        Vat::new()
    }
}

impl fmt::Display for Vat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VAT: {} tables, {} sets, {} bytes",
            self.table_count(),
            self.resident_sets(),
            self.footprint_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask2() -> ArgBitmask {
        ArgBitmask::from_widths([4, 4, 0, 0, 0, 0])
    }

    #[test]
    fn ensure_table_is_idempotent() {
        let mut vat = Vat::new();
        let a = vat.ensure_table(SyscallId::new(0), 4);
        let b = vat.ensure_table(SyscallId::new(0), 400);
        assert_eq!(a, b);
        assert_eq!(vat.table_count(), 1);
        assert_eq!(vat.owner(a), Some(SyscallId::new(0)));
        assert_eq!(vat.owner(99), None);
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut vat = Vat::new();
        let idx = vat.ensure_table(SyscallId::new(1), 4);
        let args = ArgSet::from_slice(&[5, 6]);
        assert!(vat.lookup(idx, mask2(), &args).is_none());
        vat.insert(idx, mask2(), &args);
        let hit = vat.lookup(idx, mask2(), &args).expect("hit");
        let pair = vat.hash_pair(idx, mask2(), &args).unwrap();
        assert_eq!(hit.hash, pair.for_way(hit.way));
    }

    #[test]
    fn unselected_bytes_do_not_affect_lookup() {
        let mut vat = Vat::new();
        let idx = vat.ensure_table(SyscallId::new(1), 4);
        vat.insert(idx, mask2(), &ArgSet::from_slice(&[5, 6, 0xdead]));
        assert!(
            vat.lookup(idx, mask2(), &ArgSet::from_slice(&[5, 6, 0xbeef]))
                .is_some(),
            "third argument is unselected"
        );
        assert!(vat
            .lookup(idx, mask2(), &ArgSet::from_slice(&[5, 7]))
            .is_none());
    }

    #[test]
    fn fetch_by_hash_finds_preload_target() {
        let mut vat = Vat::new();
        let idx = vat.ensure_table(SyscallId::new(2), 4);
        let args = ArgSet::from_slice(&[9, 8]);
        vat.insert(idx, mask2(), &args);
        let hit = vat.lookup(idx, mask2(), &args).unwrap();
        let fetched = vat.fetch_by_hash(idx, hit.hash, hit.way).expect("fetch");
        assert_eq!(fetched, mask2().masked(&args));
        assert!(vat.fetch_by_hash(idx, hit.hash ^ 1, hit.way).is_none());
    }

    #[test]
    fn over_provisioning_doubles_capacity() {
        let mut vat = Vat::new().with_min_capacity(2);
        let idx = vat.ensure_table(SyscallId::new(3), 10);
        // 10 expected sets → capacity 20: all 10 inserts fit.
        for i in 0..10u64 {
            assert!(vat.insert(idx, mask2(), &ArgSet::from_slice(&[i, i])).is_none());
        }
        assert_eq!(vat.resident_sets(), 10);
        assert_eq!(vat.total_evictions(), 0);
    }

    #[test]
    fn pressure_causes_bounded_eviction() {
        let mut vat = Vat::new().with_min_capacity(4);
        let idx = vat.ensure_table(SyscallId::new(3), 1); // capacity 4
        let mut evictions = 0;
        for i in 0..64u64 {
            if vat.insert(idx, mask2(), &ArgSet::from_slice(&[i, i])).is_some() {
                evictions += 1;
            }
        }
        assert!(evictions > 0);
        assert!(vat.resident_sets() <= 4);
        assert_eq!(vat.total_evictions(), evictions);
    }

    #[test]
    fn clear_empties_everything() {
        let mut vat = Vat::new();
        let idx = vat.ensure_table(SyscallId::new(0), 4);
        vat.insert(idx, mask2(), &ArgSet::from_slice(&[1, 2]));
        vat.clear();
        assert_eq!(vat.resident_sets(), 0);
        assert!(vat.lookup(idx, mask2(), &ArgSet::from_slice(&[1, 2])).is_none());
    }

    #[test]
    fn footprint_is_positive_and_scales() {
        let mut vat = Vat::new();
        vat.ensure_table(SyscallId::new(0), 4);
        let f1 = vat.footprint_bytes();
        vat.ensure_table(SyscallId::new(1), 40);
        let f2 = vat.footprint_bytes();
        assert!(f1 > 0);
        assert!(f2 > f1);
        assert!(vat.to_string().contains("tables"));
    }

    #[test]
    fn ensure_table_scales_to_hundreds_of_tables() {
        // A full x86-64 profile can check arguments on ~400 syscalls;
        // resolving an existing table must stay O(1), not scan owners.
        let mut vat = Vat::new();
        let first: Vec<u32> = (0..403u16)
            .map(|nr| vat.ensure_table(SyscallId::new(nr), 2))
            .collect();
        assert_eq!(vat.table_count(), 403);
        for (nr, &idx) in first.iter().enumerate() {
            assert_eq!(vat.ensure_table(SyscallId::new(nr as u16), 2), idx);
            assert_eq!(vat.owner(idx), Some(SyscallId::new(nr as u16)));
        }
        assert_eq!(vat.table_count(), 403, "re-resolution must not grow");
    }

    #[test]
    fn metrics_aggregate_across_tables() {
        let mut vat = Vat::new();
        let a = vat.ensure_table(SyscallId::new(0), 4);
        let b = vat.ensure_table(SyscallId::new(1), 4);
        vat.insert(a, mask2(), &ArgSet::from_slice(&[1, 2]));
        vat.insert(b, mask2(), &ArgSet::from_slice(&[3, 4]));
        vat.lookup(a, mask2(), &ArgSet::from_slice(&[1, 2])); // hit
        vat.lookup(b, mask2(), &ArgSet::from_slice(&[9, 9])); // miss
        let cm = vat.cuckoo_metrics();
        assert_eq!(cm.hits, 1);
        assert_eq!(cm.misses, 1);
        assert_eq!(cm.insertions, 2);
        assert_eq!(cm.probe_length.count(), 2);
        assert_eq!(cm.reuse_distance.count(), 1);
        let vm = vat.metrics();
        assert_eq!(vm.tables, 2);
        assert_eq!(vm.resident_sets, 2);
        assert_eq!(vm.footprint_bytes, vat.footprint_bytes() as u64);
    }

    #[test]
    fn traced_lookup_matches_untraced() {
        let mut plain = Vat::new();
        let mut traced = Vat::new();
        let (pi, ti) = (
            plain.ensure_table(SyscallId::new(1), 4),
            traced.ensure_table(SyscallId::new(1), 4),
        );
        for i in 0..4u64 {
            plain.insert(pi, mask2(), &ArgSet::from_slice(&[i, i]));
            traced.insert(ti, mask2(), &ArgSet::from_slice(&[i, i]));
        }
        // An inactive scope (the common case) and an active one must both
        // preserve results and counters.
        let mut tracer = draco_obs::SpanTracer::new(64, 1);
        for i in 0..8u64 {
            let args = ArgSet::from_slice(&[i, i]);
            let expected = plain.lookup(pi, mask2(), &args);
            let mut scope = draco_obs::TraceScope::begin(Some(&mut tracer), i + 1, 1);
            let got = traced.lookup_traced(ti, mask2(), &args, &mut scope);
            scope.finish(draco_obs::FlowClass::VatHit);
            assert_eq!(got, expected, "args {i}");
        }
        assert_eq!(traced.cuckoo_metrics(), plain.cuckoo_metrics());
        // Hits record crc + way spans; misses additionally probe way 2.
        assert!(tracer.spans().iter().any(|s| s.stage == Stage::CrcHash));
        assert!(tracer.spans().iter().any(|s| s.stage == Stage::VatProbeWay2));
        // Bad index leaves no spans and returns None.
        let mut scope = draco_obs::TraceScope::inactive();
        assert!(traced
            .lookup_traced(999, mask2(), &ArgSet::from_slice(&[1, 1]), &mut scope)
            .is_none());
    }

    #[test]
    fn hashed_probe_with_replayed_counting_matches_lookup() {
        let mut counted = Vat::new();
        let mut staged = Vat::new();
        let (ci, si) = (
            counted.ensure_table(SyscallId::new(1), 4),
            staged.ensure_table(SyscallId::new(1), 4),
        );
        for i in 0..4u64 {
            counted.insert(ci, mask2(), &ArgSet::from_slice(&[i, i]));
            staged.insert(si, mask2(), &ArgSet::from_slice(&[i, i]));
        }
        for i in 0..8u64 {
            let args = ArgSet::from_slice(&[i, i]);
            let expected = counted.lookup(ci, mask2(), &args);
            let key = mask2().select_bytes(&args);
            let pair = staged.hash_pair(si, mask2(), &args).unwrap();
            assert!(staged.prefetch(si, pair), "table exists");
            let found = staged.probe_hashed(si, key.as_slice(), pair);
            staged.count_lookup(si, found);
            assert_eq!(
                found.map(|hit| VatLookup {
                    way: hit.way,
                    hash: hit.hash
                }),
                expected,
                "args {i}"
            );
        }
        assert_eq!(staged.cuckoo_metrics(), counted.cuckoo_metrics());
        // Out-of-range indices are inert on every staged entry point.
        let pair = staged.hash_pair(si, mask2(), &ArgSet::from_slice(&[0, 0])).unwrap();
        assert!(!staged.prefetch(999, pair));
        assert!(staged.probe_hashed(999, &[0], pair).is_none());
        staged.count_lookup(999, None);
        assert_eq!(staged.cuckoo_metrics(), counted.cuckoo_metrics());
    }

    #[test]
    fn vat_key_is_copy_and_borrows_as_bytes() {
        let mask = ArgBitmask::from_widths([2, 0, 0, 0, 0, 0]);
        let key = VatKey::new(mask, &ArgSet::from_slice(&[0x1234]));
        let copy = key; // Copy, not move
        assert_eq!(key, copy);
        let slice: &[u8] = core::borrow::Borrow::borrow(&key);
        assert_eq!(slice, key.as_bytes());
        assert_eq!(VatKey::from(mask.select_bytes(&ArgSet::from_slice(&[0x1234]))), key);
    }

    #[test]
    fn vat_key_is_selected_bytes() {
        let mask = ArgBitmask::from_widths([2, 0, 0, 0, 0, 0]);
        let key = VatKey::new(mask, &ArgSet::from_slice(&[0x1234]));
        assert_eq!(key.as_bytes(), &[0x34, 0x12]);
        assert_eq!(key.as_ref(), key.as_bytes());
    }
}
