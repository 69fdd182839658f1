//! The region cache: Theorem 2 turned into a lookup structure.
//!
//! Every instance of a locally linear region recovers the **identical**
//! core parameters (Theorem 2), so interpretation results are cacheable per
//! *region*, not per instance. [`RegionCache`] owns the membership-probe
//! lookup, the canonical-fingerprint merge, and the collision fallback — the
//! one membership code path of the workspace. The single-threaded batch
//! layer ([`crate::batch::BatchInterpreter`]), the concurrent cache in
//! `openapi-serve` (one `RegionCache` behind a lock), and the durable store
//! in `openapi-store` (whose in-memory image is an unbounded `RegionCache`)
//! all look up and merge regions here, in one order: a probe resolves to
//! the first admitted region that explains it.
//!
//! Lookup is black-box and sound by Theorem 2
//! ([`RegionCache::lookup_probe`]): a cached region's parameters either
//! explain the probed prediction at every contrast
//! ([`Interpretation::explains_probe`]), in which case the probe lies in
//! that region and the cached interpretation is *its* interpretation, or
//! they don't and the scan moves on.
//!
//! # The blocked membership scan
//!
//! The black-box scan is the warm serving path's dominant cost, so it does
//! not walk per-entry heap allocations: alongside the entries, the cache
//! packs every boundary row of a `(class, dimension)` pair into contiguous
//! row-major [`RowMatrix`] pages of whole region groups (`PAGE_ROWS` rows
//! or a little more each), rebuilt incrementally on insert and eviction.
//! The rows evaluate through the configured [`Backend`] — `y = W·x + b` per
//! cached contrast, Theorem-2 verdicts per region group. A single probe
//! screens each region on its first contrast row and evaluates the rest
//! only when that row passes (the scalar test's early exit), so a miss
//! costs one row per cached region. The observed log-probability ratios
//! are memoized per probe (one `ln` per class instead of one per cached
//! region), and [`RegionCache::lookup_probe_batch`] iterates page-outer /
//! probe-inner, running each whole page through the backend's *multi-probe*
//! kernel ([`Backend::boundary_eval_batch`]) so a whole batch shares one
//! sweep of the packed rows while they are hot in cache. Backends are
//! bit-identical by contract, so the verdicts do not depend on which one
//! is configured.
//!
//! An optional capacity bound turns the cache into a CLOCK (second-chance)
//! eviction structure: lookups mark entries referenced through an atomic
//! flag (no `&mut` required, so shared readers stay cheap), and inserts
//! past capacity sweep the clock hand for an unreferenced victim. Removal
//! keeps the survivors in insertion order, so the unbounded configuration
//! — the batch layer's and the store's — scans (and iterates) its regions
//! in exactly the order they were admitted.

use crate::decision::{Interpretation, RegionFingerprint};
use openapi_linalg::kernel::{default_backend, Backend, RowGroup, RowMatrix};
use openapi_linalg::Vector;
use openapi_sync::atomic::{AtomicBool, Ordering};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Rows per page of packed boundaries: a page takes whole region groups
/// until it holds at least this many rows, and one batched kernel pass
/// evaluates one page. Sized so a page of `d = 196` boundaries (~200 KB)
/// stays resident in L2 while a probe batch re-walks it, while still
/// amortizing the per-pass setup. Pages also bound every packed
/// allocation, however many regions a class holds: a multi-MB block freed
/// with its cache raises glibc's mmap threshold, after which mid-size
/// allocations fragment the heap instead of returning to the system.
const PAGE_ROWS: usize = 128;

/// Configuration of a [`RegionCache`].
#[derive(Debug, Clone)]
pub struct RegionCacheConfig {
    /// Relative tolerance of the membership test. Defaults to
    /// [`crate::openapi::OpenApiConfig::rtol`]'s default: membership and
    /// Algorithm 1's consistency check judge the same Theorem-2 identity.
    pub membership_rtol: f64,
    /// Maximum cached regions; `None` (the batch layer's and the store's
    /// setting) never evicts. A bound of 0 is clamped to 1.
    pub capacity: Option<usize>,
    /// Kernel backend the blocked membership scan runs on (see
    /// [`openapi_linalg::kernel`]). Backends are bit-identical by
    /// contract; the default is the blocked implementation.
    pub backend: Arc<dyn Backend>,
}

impl Default for RegionCacheConfig {
    fn default() -> Self {
        RegionCacheConfig {
            membership_rtol: crate::openapi::OpenApiConfig::default().rtol,
            capacity: None,
            backend: default_backend(),
        }
    }
}

/// A served cache entry: the canonical interpretation of one region.
///
/// The interpretation is shared, not owned: a hit clones an [`Arc`] (one
/// reference-count bump), never the multi-KB parameter payload — at
/// `d = 196` a deep clone used to cost several KB of allocation per hit,
/// which is exactly the traffic a hot cache serves most.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRegion {
    /// Canonical key of the region.
    pub fingerprint: RegionFingerprint,
    /// The interpretation every member instance of the region shares.
    pub interpretation: Arc<Interpretation>,
}

/// A borrowed probe for [`RegionCache::lookup_probe_batch`]: one instance,
/// its observed prediction, and the explained class.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRef<'a> {
    /// The probed instance.
    pub x: &'a Vector,
    /// The model's predicted probability vector at `x`.
    pub probs: &'a [f64],
    /// The class whose regions are scanned.
    pub class: usize,
}

/// Where a slot's boundary rows live inside the packed pages.
#[derive(Debug, Clone, Copy)]
struct BlockRef {
    class: usize,
    dim: usize,
    page: usize,
    group: usize,
}

/// One cached region plus its CLOCK reference flag.
#[derive(Debug)]
struct Slot {
    fingerprint: RegionFingerprint,
    interpretation: Arc<Interpretation>,
    /// Second-chance bit: set by lookups (under `&self`), cleared by the
    /// sweeping clock hand. Relaxed ordering suffices — the flag is a usage
    /// hint, not a synchronization point.
    referenced: AtomicBool,
    /// The slot's group in its `(class, dim)` block, when it has one
    /// (entries with no contrasts or ragged dimensions explain no probe
    /// and are not packed).
    block: Option<BlockRef>,
}

impl Slot {
    /// The slot's region, shared (an `Arc` clone, no payload copy).
    fn region(&self) -> CachedRegion {
        CachedRegion {
            fingerprint: self.fingerprint,
            interpretation: Arc::clone(&self.interpretation),
        }
    }

    fn block_mut(&mut self) -> &mut BlockRef {
        self.block
            .as_mut()
            .expect("packed slot keeps its block ref")
    }
}

/// One page of the packed boundary rows of a `(class, dim)` pair: `w`
/// holds the contrast weight rows back to back, `bias` and `c_prime` are
/// parallel per-row arrays, and `groups` partitions the rows by region in
/// scan order, group `i` serving the `entries` index `slots[i]`.
#[derive(Debug)]
struct Page {
    w: RowMatrix,
    bias: Vec<f64>,
    c_prime: Vec<usize>,
    groups: Vec<RowGroup>,
    slots: Vec<usize>,
}

impl Page {
    /// An empty page with room for `rows` rows: it is allocated once, at
    /// the size it will keep.
    fn new(dim: usize, rows: usize) -> Self {
        Page {
            w: RowMatrix::with_capacity(dim, rows),
            bias: Vec::with_capacity(rows),
            c_prime: Vec::with_capacity(rows),
            groups: Vec::new(),
            slots: Vec::new(),
        }
    }
}

/// Reusable per-thread buffers of the kernel passes, so `lookup_probe`
/// stays `&self` and allocation-free on the warm path.
#[derive(Debug, Default)]
struct Scratch {
    ln_probs: Vec<f64>,
    y: Vec<f64>,
    targets: Vec<f64>,
    verdicts: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Memoizes `ln(max(p, MIN_POSITIVE))` per class — the scan recombines
/// these by subtraction, bit-identical to
/// [`openapi_api::probability::log_ratio`] but costing one `ln` per class
/// instead of one per cached region.
fn fill_ln(out: &mut Vec<f64>, probs: &[f64]) {
    out.clear();
    out.extend(probs.iter().map(|&p| p.max(f64::MIN_POSITIVE).ln()));
}

/// Fills `out` with a probe's per-row targets against the contrasts
/// `c_prime`, recombined from its ln memo exactly as
/// `log_ratio(probs, class, c')`. An out-of-range class or contrast can
/// never be explained: its NaN fails every comparison, exactly like the
/// scalar path's early `false`.
fn fill_targets(out: &mut Vec<f64>, c_prime: &[usize], class: usize, ln_probs: &[f64]) {
    let class_ln = ln_probs.get(class).copied();
    out.clear();
    out.extend(
        c_prime
            .iter()
            .map(|&cp| match (class_ln, ln_probs.get(cp)) {
                (Some(lc), Some(&lcp)) => lc - lcp,
                _ => f64::NAN,
            }),
    );
}

/// The region cache (see the module docs).
#[derive(Debug, Default)]
pub struct RegionCache {
    config: RegionCacheConfig,
    /// Cached regions in insertion order.
    entries: Vec<Slot>,
    /// Packed boundary pages per `(class, dim)`; the membership scan walks
    /// these, in group (registration) order.
    blocks: HashMap<(usize, usize), Vec<Page>>,
    /// `(class, fingerprint) → entries index` — merges duplicate solves.
    by_fingerprint: HashMap<(usize, RegionFingerprint), usize>,
    /// CLOCK hand: next eviction candidate.
    hand: usize,
    evictions: u64,
}

impl RegionCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: RegionCacheConfig) -> Self {
        RegionCache {
            config,
            ..RegionCache::default()
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &RegionCacheConfig {
        &self.config
    }

    /// Number of distinct regions currently cached (all classes).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no regions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries cached for one class.
    pub fn class_len(&self, class: usize) -> usize {
        self.entries
            .iter()
            .filter(|e| e.interpretation.class == class)
            .count()
    }

    /// Regions evicted over the cache's lifetime (0 when unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every cached region (the eviction count is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.blocks.clear();
        self.by_fingerprint.clear();
        self.hand = 0;
    }

    /// Iterates the cached regions in insertion order (the scan order of
    /// every class). Entries are `Arc` clones — no parameter payload is
    /// copied.
    pub fn iter(&self) -> impl Iterator<Item = CachedRegion> + '_ {
        self.entries.iter().map(Slot::region)
    }

    /// Black-box membership lookup: the first cached region of `class`
    /// whose core parameters explain the prediction `probs` observed at
    /// `x` (Theorem 2 — see [`Interpretation::explains_probe`]), found by
    /// kernel evaluations of the packed boundaries instead of a per-entry
    /// scan, with verdicts bit-identical to `explains_probe`'s.
    pub fn lookup_probe(&self, x: &Vector, probs: &[f64], class: usize) -> Option<CachedRegion> {
        if x.is_empty() {
            // Zero-dimensional probes cannot be packed (a RowMatrix has at
            // least one column); fall back to the reference entry scan.
            let rtol = self.config.membership_rtol;
            return self
                .entries
                .iter()
                .position(|e| {
                    e.interpretation.class == class
                        && e.interpretation.explains_probe(x, probs, rtol)
                })
                .map(|slot| self.serve(slot));
        }
        let pages = self.blocks.get(&(class, x.len()))?;
        SCRATCH
            .with(|scratch| {
                let s = &mut *scratch.borrow_mut();
                fill_ln(&mut s.ln_probs, probs);
                self.scan_pages(pages, x.as_slice(), class, s)
            })
            .map(|slot| self.serve(slot))
    }

    /// Batched black-box lookup: resolves every probe whose `results` slot
    /// is `None`, writing hits in place (slots already `Some` are skipped,
    /// so callers can pre-resolve). Verdict-equivalent to calling
    /// [`RegionCache::lookup_probe`] per probe, but iterates page-outer /
    /// probe-inner so a whole batch walks each packed page while it is
    /// hot in cache — the warm path of a wire batch costs one blocked pass
    /// over the class's boundaries, not N sequential scans.
    ///
    /// # Panics
    /// When `probes.len() != results.len()`.
    pub fn lookup_probe_batch(
        &self,
        probes: &[ProbeRef<'_>],
        results: &mut [Option<CachedRegion>],
    ) {
        assert_eq!(probes.len(), results.len(), "probes/results must align");
        let mut by_key: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (i, p) in probes.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            if p.x.is_empty() {
                results[i] = self.lookup_probe(p.x, p.probs, p.class);
            } else {
                by_key.entry((p.class, p.x.len())).or_default().push(i);
            }
        }
        for ((class, dim), idxs) in by_key {
            let Some(pages) = self.blocks.get(&(class, dim)) else {
                continue;
            };
            // Per-probe ln memo, computed once for the whole scan.
            let memos: Vec<Vec<f64>> = idxs
                .iter()
                .map(|&i| {
                    let mut ln = Vec::new();
                    fill_ln(&mut ln, probes[i].probs);
                    ln
                })
                .collect();
            let mut unresolved: Vec<usize> = (0..idxs.len()).collect();
            for page in pages {
                if unresolved.is_empty() {
                    break;
                }
                SCRATCH.with(|scratch| {
                    let s = &mut *scratch.borrow_mut();
                    // One multi-probe kernel pass evaluates the page for
                    // every still-unresolved probe (probe-major output),
                    // then the per-probe verdict halves run off the shared
                    // evaluation. Bit-identical to per-probe scans by the
                    // `boundary_eval_batch` contract.
                    let xs: Vec<&[f64]> = unresolved
                        .iter()
                        .map(|&u| probes[idxs[u]].x.as_slice())
                        .collect();
                    let n = page.w.rows();
                    let mut y = std::mem::take(&mut s.y);
                    let backend = &*self.config.backend;
                    backend.boundary_eval_batch(&page.w, &page.bias, &xs, 0..n, &mut y);
                    // One multi-probe kernel pass; payload = total row
                    // evaluations (rows × still-unresolved probes).
                    openapi_trace::emit(openapi_trace::Stage::KernelPass, (n * xs.len()) as u64);
                    let mut p = 0;
                    unresolved.retain(|&u| {
                        let yp = &y[p * n..(p + 1) * n];
                        p += 1;
                        match self.verdict_scan(page, yp, class, &memos[u], s) {
                            Some(slot) => {
                                results[idxs[u]] = Some(self.serve(slot));
                                false
                            }
                            None => true,
                        }
                    });
                    s.y = y;
                });
            }
        }
    }

    /// Scans `pages` in order, returning the first slot whose group
    /// verdict passes. Like the scalar test, which stops at a region's
    /// first failing contrast, a group is screened on its first row and
    /// evaluated in full only when that row passes, so a miss costs one
    /// row per region rather than `C − 1`. A group passes only when every
    /// row does, so the screen never changes a verdict.
    fn scan_pages(
        &self,
        pages: &[Page],
        x: &[f64],
        class: usize,
        s: &mut Scratch,
    ) -> Option<usize> {
        for page in pages {
            let mut rows = 0;
            let mut hit = None;
            for (i, g) in page.groups.iter().enumerate() {
                rows += 1;
                if !self.rows_pass(page, g.start..g.start + 1, x, class, s) {
                    continue;
                }
                rows += g.len;
                if self.rows_pass(page, g.start..g.start + g.len, x, class, s) {
                    hit = Some(page.slots[i]);
                    break;
                }
            }
            // One page scanned; payload = boundary rows evaluated.
            // Attributes to the calling request's span (if the serving tier
            // set one on this thread).
            openapi_trace::emit(openapi_trace::Stage::KernelPass, rows as u64);
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// Whether every row in `rows` of `page` explains the probe whose ln
    /// memo is `s.ln_probs`: one kernel evaluation and one group verdict.
    fn rows_pass(
        &self,
        page: &Page,
        rows: Range<usize>,
        x: &[f64],
        class: usize,
        s: &mut Scratch,
    ) -> bool {
        let backend = &*self.config.backend;
        backend.boundary_eval(&page.w, &page.bias, x, rows.clone(), &mut s.y);
        fill_targets(
            &mut s.targets,
            &page.c_prime[rows.clone()],
            class,
            &s.ln_probs,
        );
        let group = RowGroup {
            start: 0,
            len: rows.len(),
        };
        let rtol = self.config.membership_rtol;
        backend.membership_verdicts(&s.y, &s.targets, rtol, &[group], &mut s.verdicts);
        s.verdicts[0]
    }

    /// The verdict half of the batched lookup: given one probe's evaluated
    /// boundary values `y` for every row of `page`, reconstructs the
    /// probe's targets from its ln memo and returns the slot of the first
    /// passing group.
    fn verdict_scan(
        &self,
        page: &Page,
        y: &[f64],
        class: usize,
        ln_probs: &[f64],
        s: &mut Scratch,
    ) -> Option<usize> {
        fill_targets(&mut s.targets, &page.c_prime, class, ln_probs);
        self.config.backend.membership_verdicts(
            y,
            &s.targets,
            self.config.membership_rtol,
            &page.groups,
            &mut s.verdicts,
        );
        s.verdicts
            .iter()
            .position(|&v| v)
            .map(|hit| page.slots[hit])
    }

    /// Marks a slot referenced and serves it.
    fn serve(&self, slot: usize) -> CachedRegion {
        let e = &self.entries[slot];
        // ordering: Relaxed — a CLOCK reference bit, read and cleared only
        // by `evict_one`, which runs under the owner's exclusive borrow; no
        // data is published.
        e.referenced.store(true, Ordering::Relaxed);
        e.region()
    }

    /// Whether `(class, fingerprint)` keys a canonical entry (a collided,
    /// un-indexed entry does not count).
    pub fn contains(&self, class: usize, fingerprint: RegionFingerprint) -> bool {
        self.by_fingerprint.contains_key(&(class, fingerprint))
    }

    /// Admits a solved region under the `fingerprint` its caller computed
    /// (or, for a stored or replicated record, carries). The region merges
    /// into an existing entry when its parameters agree with the key's
    /// canonical entry — or, on a fingerprint collision, with any entry of
    /// the class — so a re-solve of a collided region never adds a
    /// duplicate. A collision between genuinely different regions
    /// (quantization landing both in one grid cell, or a 64-bit hash
    /// collision) gets its own un-indexed entry instead of silently serving
    /// the wrong region's parameters.
    ///
    /// Returns the entry that ends up cached, which is what every caller
    /// must serve, and whether it is a new entry. Takes the interpretation
    /// as an [`Arc`] so a region recovered from a durable store (or another
    /// cache tier) is admitted without copying its parameters.
    pub fn insert(
        &mut self,
        fingerprint: RegionFingerprint,
        interpretation: Arc<Interpretation>,
    ) -> (CachedRegion, bool) {
        let class = interpretation.class;
        let tol = self.config.membership_rtol;
        let agrees = |e: &Slot| interpretations_agree(&e.interpretation, &interpretation, tol);
        let (index, fresh) = match self.by_fingerprint.get(&(class, fingerprint)) {
            Some(&i) if agrees(&self.entries[i]) => (i, false),
            Some(_) => match self
                .entries
                .iter()
                .position(|e| e.interpretation.class == class && agrees(e))
            {
                Some(i) => (i, false),
                // Collision: cache the new region un-indexed (the membership
                // scan still serves it; only the fingerprint shortcut is
                // unavailable for it).
                None => (self.push_slot(fingerprint, interpretation), true),
            },
            None => {
                let i = self.push_slot(fingerprint, interpretation);
                self.by_fingerprint.insert((class, fingerprint), i);
                (i, true)
            }
        };
        (self.entries[index].region(), fresh)
    }

    /// Pushes a new slot, evicting first when at capacity, and packs its
    /// boundary rows into the `(class, dim)` block. The fresh entry starts
    /// referenced so it survives at least one full clock sweep.
    fn push_slot(
        &mut self,
        fingerprint: RegionFingerprint,
        interpretation: Arc<Interpretation>,
    ) -> usize {
        if let Some(capacity) = self.config.capacity {
            let capacity = capacity.max(1);
            while self.entries.len() >= capacity {
                self.evict_one();
            }
        }
        self.entries.push(Slot {
            fingerprint,
            interpretation,
            referenced: AtomicBool::new(true),
            block: None,
        });
        let index = self.entries.len() - 1;
        self.register_slot(index);
        index
    }

    /// Packs `entries[index]`'s boundary rows into the last page of its
    /// `(class, dim)` pair, opening a new page once the last holds
    /// `PAGE_ROWS` rows. Slots whose contrasts are absent or dimensionally
    /// ragged explain no probe (the scalar semantics' dot product fails)
    /// and stay unpacked.
    fn register_slot(&mut self, index: usize) {
        let interp = &self.entries[index].interpretation;
        let Some(first) = interp.pairwise.first() else {
            return;
        };
        let dim = first.weights.len();
        if dim == 0 || interp.pairwise.iter().any(|p| p.weights.len() != dim) {
            return;
        }
        let class = interp.class;
        let pages = self.blocks.entry((class, dim)).or_default();
        if pages.last().is_none_or(|p| p.w.rows() >= PAGE_ROWS) {
            // A page closes with fewer than `PAGE_ROWS` rows plus one more
            // group — of this size, when a class's regions have equal
            // contrast counts (a model's regions all have C − 1).
            pages.push(Page::new(dim, PAGE_ROWS - 1 + interp.pairwise.len()));
        }
        let page = pages.len() - 1;
        let last = &mut pages[page];
        let start = last.w.rows();
        for p in &interp.pairwise {
            last.w.push_row(p.weights.as_slice());
            last.bias.push(p.bias);
            last.c_prime.push(p.c_prime);
        }
        last.groups.push(RowGroup {
            start,
            len: interp.pairwise.len(),
        });
        last.slots.push(index);
        let group = last.groups.len() - 1;
        self.entries[index].block = Some(BlockRef {
            class,
            dim,
            page,
            group,
        });
    }

    /// Unpacks a slot's rows from its page: the row range is drained
    /// (later rows shift down, preserving scan order), later groups'
    /// offsets and their slots' back-references are repaired, and an
    /// emptied page (and then an emptied pair) is dropped.
    fn unregister_slot(&mut self, bref: BlockRef) {
        let key = (bref.class, bref.dim);
        let pages = self
            .blocks
            .get_mut(&key)
            .expect("slot block ref points at a live block");
        let page = &mut pages[bref.page];
        let g = page.groups.remove(bref.group);
        page.slots.remove(bref.group);
        let rows = g.start..g.start + g.len;
        page.w.remove_rows(rows.clone());
        page.bias.drain(rows.clone());
        page.c_prime.drain(rows);
        for (grp, &slot) in page.groups[bref.group..]
            .iter_mut()
            .zip(&page.slots[bref.group..])
        {
            grp.start -= g.len;
            self.entries[slot].block_mut().group -= 1;
        }
        if page.groups.is_empty() {
            pages.remove(bref.page);
            for later in &pages[bref.page..] {
                for &slot in &later.slots {
                    self.entries[slot].block_mut().page -= 1;
                }
            }
            if pages.is_empty() {
                self.blocks.remove(&key);
            }
        }
    }

    /// CLOCK sweep: clears reference bits until an unreferenced victim is
    /// found, then removes it. Terminates within two passes — the first
    /// sweep clears every bit it crosses.
    fn evict_one(&mut self) {
        debug_assert!(!self.entries.is_empty());
        loop {
            if self.hand >= self.entries.len() {
                self.hand = 0;
            }
            let referenced = &self.entries[self.hand].referenced;
            // ordering: Relaxed — the bit only steers eviction; `&mut
            // self` already excludes concurrent markers.
            if referenced.swap(false, Ordering::Relaxed) {
                self.hand += 1;
            } else {
                let victim = self.hand;
                self.remove_slot(victim);
                self.evictions += 1;
                return;
            }
        }
    }

    /// Drops every cached entry of `class` keyed by `fingerprint` —
    /// collision-fallback entries included, which is why this scans
    /// instead of consulting `by_fingerprint` alone. The drift detector's
    /// cache half, and the store's tombstone suppression: a region the
    /// hidden model no longer explains is removed here (and tombstoned in
    /// the durable store by the serving tier). Returns the number of
    /// entries removed; removals do not count as capacity evictions.
    pub fn evict_fingerprint(&mut self, class: usize, fingerprint: RegionFingerprint) -> usize {
        let mut removed = 0;
        while let Some(index) = self
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint && e.interpretation.class == class)
        {
            self.remove_slot(index);
            removed += 1;
        }
        removed
    }

    /// Removes the slot at `index`, keeping the survivors in insertion
    /// order: the victim's rows are unpacked, and every index past it —
    /// in the fingerprint map, the packed groups and the clock hand —
    /// shifts down by one.
    fn remove_slot(&mut self, index: usize) {
        if let Some(bref) = self.entries[index].block {
            self.unregister_slot(bref);
        }
        self.entries.remove(index);
        for page in self.blocks.values_mut().flatten() {
            for slot in &mut page.slots {
                survives(slot, index);
            }
        }
        self.by_fingerprint.retain(|_, v| survives(v, index));
        survives(&mut self.hand, index);
    }
}

/// Repairs an entries index after `entries.remove(removed)`: later indices
/// shift down by one. Returns whether the index survives (it is not the
/// removed slot itself).
fn survives(v: &mut usize, removed: usize) -> bool {
    if *v == removed {
        return false;
    }
    if *v > removed {
        *v -= 1;
    }
    true
}

/// Whether two interpretations recovered the same region's parameters, up
/// to solver round-off: same class, same contrast order, and every weight
/// and bias within `tol` (relative). Used to distinguish "same region,
/// independently re-solved" (merge) from a fingerprint collision (keep
/// both).
fn interpretations_agree(a: &Interpretation, b: &Interpretation, tol: f64) -> bool {
    a.class == b.class
        && a.pairwise.len() == b.pairwise.len()
        && a.pairwise.iter().zip(&b.pairwise).all(|(p, q)| {
            p.c_prime == q.c_prime
                && (p.bias - q.bias).abs() <= tol * p.bias.abs().max(1.0)
                && p.weights.len() == q.weights.len()
                && p.weights
                    .iter()
                    .zip(q.weights.iter())
                    .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1.0))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::PairwiseCoreParams;

    /// A synthetic one-contrast interpretation whose single weight encodes
    /// a distinct region identity.
    fn interp(class: usize, w: f64) -> Arc<Interpretation> {
        Arc::new(
            Interpretation::from_pairwise(
                class,
                vec![PairwiseCoreParams {
                    c_prime: class + 1,
                    weights: Vector(vec![w]),
                    bias: 0.0,
                }],
            )
            .unwrap(),
        )
    }

    /// A probe consistent with `interp(class, w)` at `x` (two-class
    /// sigmoid whose log-ratio matches `w·x`).
    fn consistent_probs(i: &Interpretation, x: &Vector) -> Vec<f64> {
        let p = &i.pairwise[0];
        let target = p.weights.dot(x).unwrap() + p.bias;
        let r = target.exp();
        let denom = 1.0 + r;
        let mut probs = vec![0.0; p.c_prime + 1];
        probs[i.class] = r / denom;
        probs[p.c_prime] = 1.0 / denom;
        probs
    }

    /// Inserts under the interpretation's own 6-digit fingerprint.
    fn insert(cache: &mut RegionCache, i: Arc<Interpretation>) -> CachedRegion {
        let fingerprint = i.fingerprint(6);
        cache.insert(fingerprint, i).0
    }

    /// Looks up `interp(class, w)` through the probe scan at `x = 0.4`
    /// (which also sets the entry's CLOCK reference bit on a hit).
    fn touch(cache: &RegionCache, class: usize, w: f64) -> Option<CachedRegion> {
        let x = Vector(vec![0.4]);
        let probs = consistent_probs(&interp(class, w), &x);
        cache.lookup_probe(&x, &probs, class)
    }

    /// Region groups packed for `(class, dim)` across its pages.
    fn packed_groups(cache: &RegionCache, class: usize, dim: usize) -> usize {
        cache
            .blocks
            .get(&(class, dim))
            .map_or(0, |pages| pages.iter().map(|p| p.groups.len()).sum())
    }

    fn bounded(capacity: usize) -> RegionCache {
        RegionCache::new(RegionCacheConfig {
            capacity: Some(capacity),
            ..RegionCacheConfig::default()
        })
    }

    #[test]
    fn unbounded_cache_never_evicts_and_preserves_order() {
        let mut cache = RegionCache::default();
        for i in 0..100 {
            insert(&mut cache, interp(0, i as f64));
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.evictions(), 0);
        let firsts: Vec<f64> = cache
            .iter()
            .map(|r| r.interpretation.pairwise[0].weights[0])
            .collect();
        assert_eq!(firsts, (0..100).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_bound_is_enforced_by_clock_eviction() {
        let mut cache = bounded(4);
        for i in 0..20 {
            insert(&mut cache, interp(0, i as f64));
            assert!(cache.len() <= 4, "capacity bound violated at insert {i}");
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 16);
    }

    #[test]
    fn recently_looked_up_entries_survive_the_sweep() {
        let mut cache = bounded(3);
        for w in [1.0, 2.0, 3.0] {
            insert(&mut cache, interp(0, w));
        }
        // The fourth insert sweeps every initial reference bit clear and
        // evicts region 1; the hand now rests on region 2.
        insert(&mut cache, interp(0, 4.0));
        assert!(touch(&cache, 0, 1.0).is_none());
        // Touch region 2: the next insert must pass it over and evict
        // region 3, the first unreferenced entry after it.
        assert!(touch(&cache, 0, 2.0).is_some());
        insert(&mut cache, interp(0, 5.0));
        assert!(
            touch(&cache, 0, 2.0).is_some(),
            "referenced entry must get a second chance"
        );
        assert!(touch(&cache, 0, 3.0).is_none());
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn eviction_repairs_the_index_maps() {
        let mut cache = bounded(2);
        insert(&mut cache, interp(0, 1.0));
        insert(&mut cache, interp(0, 2.0));
        // Force evictions and verify every surviving fingerprint key still
        // resolves to the entry carrying its own parameters: a re-insert
        // merges into it.
        for i in 3..40 {
            insert(&mut cache, interp(0, i as f64));
            for j in 1..=i {
                let again = interp(0, j as f64);
                let key = again.fingerprint(6);
                if cache.contains(0, key) {
                    let (hit, fresh) = cache.insert(key, again);
                    assert!(!fresh, "key {j} did not merge");
                    assert_eq!(
                        hit.interpretation.pairwise[0].weights[0], j as f64,
                        "key {j} resolved to the wrong entry"
                    );
                }
            }
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_keeps_the_packed_scan_serving_the_right_regions() {
        let mut cache = bounded(8);
        let x = Vector(vec![0.4]);
        for i in 0..50 {
            insert(&mut cache, interp(0, i as f64 + 0.5));
            // Every probe that hits must return exactly its own region —
            // the packed blocks track every eviction and swap.
            for j in 0..=i {
                let target = interp(0, j as f64 + 0.5);
                let probs = consistent_probs(&target, &x);
                if let Some(hit) = cache.lookup_probe(&x, &probs, 0) {
                    assert_eq!(hit.interpretation, target, "probe {j} after insert {i}");
                }
            }
        }
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn evict_fingerprint_forgets_exactly_the_named_region() {
        let mut cache = RegionCache::default();
        let x = Vector(vec![0.4]);
        let victim = interp(0, 3.0);
        let fingerprint = victim.fingerprint(6);
        for i in 0..8 {
            insert(&mut cache, interp(0, i as f64));
        }
        assert_eq!(cache.evict_fingerprint(0, fingerprint), 1);
        assert_eq!(cache.len(), 7);
        // Invalidation is not a capacity eviction.
        assert_eq!(cache.evictions(), 0);
        // The victim no longer serves; every survivor still serves its own
        // exact parameters through the repaired packed blocks and maps.
        let probs = consistent_probs(&victim, &x);
        assert!(cache.lookup_probe(&x, &probs, 0).is_none());
        assert!(!cache.contains(0, fingerprint));
        for j in (0..8).filter(|&j| j != 3) {
            let target = interp(0, j as f64);
            let probs = consistent_probs(&target, &x);
            let hit = cache.lookup_probe(&x, &probs, 0).expect("survivor serves");
            assert_eq!(hit.interpretation, target);
        }
        // Idempotent: the region is already gone.
        assert_eq!(cache.evict_fingerprint(0, fingerprint), 0);
        // Class-scoped: another class's entry under the same fingerprint
        // value is untouched.
        insert(&mut cache, interp(1, 3.0));
        let other = interp(1, 3.0).fingerprint(6);
        assert_eq!(cache.evict_fingerprint(0, other), 0);
    }

    #[test]
    fn probe_lookup_hits_through_the_packed_scan() {
        let mut cache = RegionCache::default();
        let x = Vector(vec![-0.3]);
        for i in 0..30 {
            insert(&mut cache, interp(0, i as f64 + 0.25));
        }
        let target = interp(0, 17.25);
        let probs = consistent_probs(&target, &x);
        let hit = cache.lookup_probe(&x, &probs, 0).expect("region cached");
        assert_eq!(hit.interpretation, target);
        // A probe nothing explains, and a class with no block, both miss.
        assert!(cache.lookup_probe(&x, &[0.4, 0.6], 0).is_none());
        assert!(cache.lookup_probe(&x, &probs, 5).is_none());
    }

    #[test]
    fn batched_lookup_matches_per_probe_lookup() {
        let mut cache = RegionCache::default();
        let xs: Vec<Vector> = (0..6).map(|i| Vector(vec![0.1 * i as f64 - 0.2])).collect();
        for i in 0..200 {
            insert(&mut cache, interp(0, i as f64 + 0.5));
        }
        let targets: Vec<_> = [3usize, 60, 199, 123, 0, 77]
            .iter()
            .map(|&i| interp(0, i as f64 + 0.5))
            .collect();
        let probs: Vec<Vec<f64>> = targets
            .iter()
            .zip(&xs)
            .map(|(t, x)| consistent_probs(t, x))
            .collect();
        let probes: Vec<ProbeRef> = xs
            .iter()
            .zip(&probs)
            .map(|(x, p)| ProbeRef {
                x,
                probs: p,
                class: 0,
            })
            .collect();
        let mut results = vec![None; probes.len()];
        // Pre-resolved slots must be left alone.
        results[4] = cache.lookup_probe(&xs[4], &probs[4], 0);
        cache.lookup_probe_batch(&probes, &mut results);
        for (i, r) in results.iter().enumerate() {
            let single = cache.lookup_probe(&xs[i], &probs[i], 0).unwrap();
            let batched = r.as_ref().expect("batched lookup must hit");
            assert_eq!(batched.interpretation, single.interpretation, "probe {i}");
        }
    }

    #[test]
    fn pages_stay_consistent_across_removals() {
        let mut cache = RegionCache::default();
        let x = Vector(vec![0.4]);
        for i in 0..300 {
            insert(&mut cache, interp(0, i as f64 + 0.5));
        }
        // Empty the first page entirely and punch a hole in the second.
        for i in (0..128).chain([200]) {
            let fingerprint = interp(0, i as f64 + 0.5).fingerprint(6);
            assert_eq!(cache.evict_fingerprint(0, fingerprint), 1);
        }
        assert_eq!(packed_groups(&cache, 0, 1), 171);
        for j in 0..300 {
            let target = interp(0, j as f64 + 0.5);
            let probs = consistent_probs(&target, &x);
            let hit = cache.lookup_probe(&x, &probs, 0).map(|h| h.interpretation);
            let live = j >= 128 && j != 200;
            assert_eq!(hit, live.then_some(target), "region {j}");
        }
    }

    #[test]
    fn duplicate_solves_merge_to_the_first_entry() {
        let mut cache = RegionCache::default();
        let a = insert(&mut cache, interp(0, 5.0));
        let b = insert(&mut cache, interp(0, 5.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.interpretation, b.interpretation);
        // The merge left exactly one packed group behind.
        assert_eq!(packed_groups(&cache, 0, 1), 1);
    }

    #[test]
    fn a_re_solved_collided_region_merges_instead_of_duplicating() {
        let mut cache = RegionCache::default();
        let key = RegionFingerprint(7);
        let (a, a_fresh) = cache.insert(key, interp(0, 1.0));
        // Same key, genuinely different parameters: a second entry.
        let (b, b_fresh) = cache.insert(key, interp(0, 5.0));
        // B re-solved: merges into the agreeing collided entry.
        let (again, again_fresh) = cache.insert(key, interp(0, 5.0));
        assert!(a_fresh && b_fresh && !again_fresh);
        assert_eq!(cache.len(), 2);
        assert_ne!(a, b);
        assert_eq!(again, b);
        assert!(cache.contains(0, key));
        assert!(!cache.contains(1, key));
    }

    #[test]
    fn removal_keeps_insertion_order() {
        let mut cache = RegionCache::default();
        for i in 0..6 {
            insert(&mut cache, interp(0, i as f64));
        }
        assert_eq!(cache.evict_fingerprint(0, interp(0, 2.0).fingerprint(6)), 1);
        let order: Vec<f64> = cache
            .iter()
            .map(|r| r.interpretation.pairwise[0].weights[0])
            .collect();
        assert_eq!(order, [0.0, 1.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn classes_are_disjoint() {
        let mut cache = RegionCache::default();
        insert(&mut cache, interp(0, 1.0));
        insert(&mut cache, interp(1, 1.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.class_len(0), 1);
        assert_eq!(cache.class_len(1), 1);
    }

    #[test]
    fn clear_empties_but_keeps_eviction_count() {
        let mut cache = bounded(2);
        for i in 0..5 {
            insert(&mut cache, interp(0, i as f64));
        }
        let evicted = cache.evictions();
        assert!(evicted > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), evicted);
        assert_eq!(packed_groups(&cache, 0, 1), 0);
        assert!(touch(&cache, 0, 4.0).is_none());
    }
}
