//! The predecoded instruction and basic-block cache.
//!
//! The interpreter's hot loop used to fetch 8 bytes from guest memory and
//! re-decode them on **every** executed instruction. Real processors (and
//! fast emulators — QEMU's TB cache plays this role in the paper's setup)
//! decode each instruction once and reuse the result until the code is
//! overwritten. [`BlockCache`] does the same for the simulator, at two
//! granularities:
//!
//! * **Instructions** — a per-page array of decoded instructions, filled
//!   lazily on first execution ([`BlockCache::get`]/[`BlockCache::insert`]).
//! * **Basic blocks** — decoded straight-line runs terminated at control
//!   transfers, privileged/IO instructions, interrupt-flag writes, and page
//!   boundaries ([`BlockCache::block_info`]/[`BlockCache::insert_block`]).
//!   The block executor in [`crate::GuestVm`] retires whole blocks between
//!   *event horizons* with a single counter bump and no per-instruction
//!   budget/breakpoint checks.
//! * **Superblocks (traces)** — chains of hot blocks across taken branches,
//!   direct calls, profiled indirect targets, and page boundaries, flattened
//!   into one contiguous op array with a single dispatch per trace
//!   ([`BlockCache::trace_at`]/[`BlockCache::install_trace`]). Heads are
//!   found by wall-clock-only heat counters fed from block-exit edge
//!   profiling ([`BlockCache::record_edge`]); loops unroll through the head
//!   until the op cap. Every constituent page contributes a write-version
//!   guard ([`TraceGuards`]) plus a bitmap of the 8-byte slots its ops
//!   decode from ([`TracePage`]): a page bump re-validates the trace
//!   against exactly those slots, so data writes into pages that share
//!   hot code don't kill it.
//!
//! The two lower layers are invalidated wholesale when the page's write-version
//! ([`Memory::page_version`]) moves — which is what makes self-modifying
//! code (and checkpoint restores) correct without any explicit flush
//! protocol.
//!
//! Only 8-byte-aligned PCs are cached: aligned fetches never straddle a
//! page, so one `(page, slot)` pair identifies the instruction. Unaligned
//! PCs (possible targets of a hijacked return) fall back to the slow
//! fetch+decode path. Decoding is architecturally free in the cost model
//! ([`crate::CostModel`] charges nothing for it), so caching changes
//! wall-clock time only, never virtual cycles.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use rnr_isa::{Addr, Instruction};

use crate::mem::{Memory, Page, PAGE_SIZE};

/// Decoded slots per page (8-byte instructions).
const SLOTS: usize = PAGE_SIZE / 8;

/// Block-head executions before a superblock is chained from that head.
/// High enough that cold code never pays the build, low enough that every
/// hot loop crosses it within its first few thousand retired instructions.
pub const TRACE_HEAT: u16 = 64;

/// Maximum instructions per superblock trace. Loops unroll up to this cap,
/// so one dispatch covers up to this many retirements; it is also the upper
/// bound a dispatch needs below the event horizon.
pub const TRACE_MAX_OPS: usize = 256;

/// Maximum distinct constituent pages per trace (the guard list is a fixed
/// array so dispatch copies it without allocating).
pub const TRACE_MAX_PAGES: usize = 8;

/// Heat sentinel: trace formation failed at this head, stop profiling it.
/// Lives in the profile, so `heads` holds live traces only.
const UNTRACEABLE: u16 = u16::MAX;

/// "No successor observed yet" marker in the edge-profile array.
const NO_SUCC: Addr = Addr::MAX;

/// How a trace op executes: straight-line ops batch through the fast
/// interpreter; control transfers run through the same semantics core as
/// the stepper, with a guard on the expected next PC. Every other opcode
/// (privileged, IO, interrupt-flag, `Rdtsc`, `Hlt`,
/// `Syscall`/`Sysret`/`Iret`) ends trace formation, so a running trace can
/// never change the halt/interrupt state or observe the cycle counter
/// mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStep {
    /// Non-store straight-line instruction.
    Straight,
    /// Store-class straight-line instruction (`St`/`St8`/`Push`): the
    /// executor checks the written range against the trace's op-slot map
    /// after it (self-modification side-exits).
    StraightStore,
    /// Control transfer (jump, branch, call, return), guarded on the
    /// successor observed at build time: static for direct jumps and
    /// calls, profiled otherwise.
    Control,
}

/// One flattened instruction of a superblock trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceOp {
    /// The op's own PC (partial commits restore from here).
    pub pc: Addr,
    /// The decoded instruction.
    pub insn: Instruction,
    /// Execution kind, classified at build time.
    pub step: TraceStep,
    /// The next PC the trace expects to execute: the following op's `pc`,
    /// or the trace's `end_pc` for the last op. Control transfers whose
    /// actual next PC differs side-exit the trace here.
    pub expect: Addr,
}

/// One constituent page of a trace body: the build-time page bytes (pinned
/// so pointer equality proves "unchanged"), plus a bitmap of the 8-byte
/// slots the trace's ops actually decode from. The bitmap is what lets
/// data and hot code share a page: writes that miss every op slot leave
/// the trace usable.
#[derive(Debug)]
pub struct TracePage {
    /// Page index.
    pub index: usize,
    /// Full page contents at build time.
    pub bytes: Arc<Page>,
    /// Bit `s` set ⇔ some op decodes from slot `s` (bytes `8s..8s+8`).
    op_slots: [u64; SLOTS / 64],
}

impl TracePage {
    /// A page entry with no op slots marked yet.
    pub fn new(index: usize, bytes: Arc<Page>) -> TracePage {
        TracePage { index, bytes, op_slots: [0; SLOTS / 64] }
    }

    /// Marks slot `s` as holding an op of this trace.
    pub fn mark_slot(&mut self, s: usize) {
        self.op_slots[s / 64] |= 1 << (s % 64);
    }

    /// True when slot `s` holds an op of this trace.
    #[inline]
    fn covers_slot(&self, s: usize) -> bool {
        self.op_slots[s / 64] & (1u64 << (s % 64)) != 0
    }

    /// True when `cur` still decodes every op identically: each op slot's
    /// 8 bytes match the pinned build-time bytes. Non-op bytes are free to
    /// differ — only bytes an op decodes from can change its meaning.
    /// Code is mostly contiguous, so compare maximal runs of set bits as
    /// single slices (memcmp speed) rather than slot by slot.
    fn ops_unchanged(&self, cur: &[u8; PAGE_SIZE]) -> bool {
        self.op_slots.iter().enumerate().all(|(w, &bits)| {
            let mut bits = bits;
            while bits != 0 {
                let first = bits.trailing_zeros() as usize;
                let run = (bits >> first).trailing_ones() as usize;
                let lo = (w * 64 + first) * 8;
                let hi = lo + run * 8;
                if cur[lo..hi] != self.bytes[lo..hi] {
                    return false;
                }
                // A full word (first 0, run 64) must not shift by 64.
                if run == 64 {
                    bits = 0;
                } else {
                    bits &= !(((1u64 << run) - 1) << first);
                }
            }
            true
        })
    }
}

/// The immutable body of a superblock, behind an `Arc` so a dispatch can
/// hold it while the cache changes: the flattened ops plus everything a
/// dispatcher needs to validate it (PC bounds for breakpoint filtering, the
/// exact page `Arc`s it was decoded from for the survival check after a
/// page-version bump).
#[derive(Debug)]
pub struct TraceBody {
    /// Flattened ops, head first; loops appear unrolled.
    pub ops: Vec<TraceOp>,
    /// Where execution continues after the last op retires.
    pub end_pc: Addr,
    /// Every page the ops decode from, with pinned bytes and op-slot map.
    pub pages: Vec<TracePage>,
    /// Lowest op PC (breakpoint-span prefilter).
    pub min_pc: Addr,
    /// Highest op PC (breakpoint-span prefilter).
    pub max_pc: Addr,
    /// Sorted, deduplicated op PCs, each with the index of its *first*
    /// occurrence in `ops` (loops appear unrolled, so a PC can repeat).
    /// Lets the dispatcher resolve an armed breakpoint to a cut point with
    /// one binary search instead of scanning every op.
    pub pcs: Vec<(Addr, u32)>,
}

impl TraceBody {
    /// True when a write covering the inclusive byte range `[lo, hi]`
    /// overlaps a byte any op decodes from — the store might rewrite trace
    /// code, so the dispatcher must side-exit. Mid-trace, only the guest's
    /// own stores can invalidate decoded code, so this check after each
    /// store *is* re-validation; writes to non-op bytes of a constituent
    /// page (data sharing the page with hot code) deliberately miss.
    #[inline]
    pub fn write_hits_ops(&self, lo: Addr, hi: Addr) -> bool {
        self.pages.iter().any(|p| {
            let base = (p.index * PAGE_SIZE) as Addr;
            if hi < base || lo >= base + PAGE_SIZE as Addr {
                return false;
            }
            let s0 = (lo.max(base) - base) as usize / 8;
            let s1 = (hi.min(base + PAGE_SIZE as Addr - 1) - base) as usize / 8;
            (s0..=s1).any(|s| p.covers_slot(s))
        })
    }

    /// The index of the first op at `pc`, if any op sits there.
    #[inline]
    pub fn first_op_at(&self, pc: Addr) -> Option<usize> {
        self.pcs.binary_search_by_key(&pc, |&(p, _)| p).ok().map(|i| self.pcs[i].1 as usize)
    }
}

/// Write-version guards of a trace: one `(page, version)` pair per
/// constituent page, stamped at install time against the owning VM's
/// memory. `Copy` by design — dispatch grabs a snapshot without allocating.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceGuards {
    len: u8,
    pages: [(u32, u64); TRACE_MAX_PAGES],
}

impl TraceGuards {
    /// Stamps guards for `body`'s pages against `mem`'s current versions.
    fn stamp(body: &TraceBody, mem: &Memory) -> TraceGuards {
        let mut g = TraceGuards::default();
        for p in &body.pages {
            g.pages[g.len as usize] = (p.index as u32, mem.page_version(p.index));
            g.len += 1;
        }
        g
    }

    /// True while no constituent page's write-version has moved.
    #[inline]
    pub fn valid(&self, mem: &Memory) -> bool {
        self.pages[..self.len as usize].iter().all(|&(p, v)| mem.page_version(p as usize) == v)
    }
}

/// Packed block metadata: low 10 bits = length in instructions (1..=512),
/// bit 10 = ends in a terminal (non-straight-line) instruction.
const META_LEN_MASK: u16 = 0x03ff;
const META_TERMINAL: u16 = 0x0400;

/// Shape of a cached basic block starting at some slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Number of instructions in the block (terminal included).
    pub len: u16,
    /// True when the last instruction is a block terminator (control
    /// transfer, privileged/IO, or interrupt-flag write). False for blocks
    /// truncated by a page boundary or undecodable bytes.
    pub has_terminal: bool,
}

impl BlockInfo {
    fn pack(self) -> u16 {
        debug_assert!(self.len >= 1 && (self.len as usize) <= SLOTS);
        (self.len & META_LEN_MASK) | if self.has_terminal { META_TERMINAL } else { 0 }
    }

    fn unpack(meta: u16) -> Option<BlockInfo> {
        let len = meta & META_LEN_MASK;
        if len == 0 {
            return None;
        }
        Some(BlockInfo { len, has_terminal: meta & META_TERMINAL != 0 })
    }
}

/// Wall-clock counters of the block cache (never affect virtual time).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockStats {
    /// Block lookups served straight from the cache.
    pub hits: u64,
    /// Blocks decoded and installed (cold misses and rebuilds).
    pub builds: u64,
    /// Page caches dropped because the page's write-version moved.
    pub flushes: u64,
    /// Always 0: every VM decodes into its own cache. Kept only because the
    /// frozen repository benchmark reads it; deleted at the next change to
    /// `benchmark/`.
    pub shared_imports: u64,
    /// Superblock traces chained and installed.
    pub trace_builds: u64,
    /// Superblock dispatches: a valid trace was entered (it may still
    /// side-exit early on a guard mispredict, fault, or SMC).
    pub trace_hits: u64,
    /// Traces dropped because a constituent page's write-version moved
    /// (self-modifying code, checkpoint restores) or its page flushed.
    pub trace_flushes: u64,
    /// Valid traces skipped at dispatch because a budget horizon or a
    /// breakpoint intruded — execution fell back to the block engine.
    pub trace_fallbacks: u64,
    /// Instructions retired through trace dispatches (coverage diagnostic:
    /// divide by `trace_hits` for the mean retirement per dispatch).
    pub trace_insns: u64,
}

impl BlockStats {
    /// Accumulates another stats snapshot into this one.
    pub fn merge(&mut self, other: &BlockStats) {
        self.hits += other.hits;
        self.builds += other.builds;
        self.flushes += other.flushes;
        self.trace_builds += other.trace_builds;
        self.trace_hits += other.trace_hits;
        self.trace_flushes += other.trace_flushes;
        self.trace_fallbacks += other.trace_fallbacks;
        self.trace_insns += other.trace_insns;
    }
}

/// One page's worth of predecoded instructions and block metadata, valid for
/// a single write version of the backing page.
#[derive(Debug, Clone)]
struct PageCache {
    version: u64,
    slots: Box<[Option<Instruction>; SLOTS]>,
    blocks: Box<[u16; SLOTS]>,
    // Live superblock heads: per-slot trace pool id, 0 = none. Allocated
    // on the first install so trace-free pages stay light; the direct index
    // keeps the per-dispatch lookup O(1). Heads formation gave up on are not
    // recorded here; they carry the `UNTRACEABLE` heat sentinel in the
    // profile instead.
    heads: Option<Box<[u32; SLOTS]>>,
    // Edge profile, allocated on the first profiled block exit.
    profile: Option<Box<Profile>>,
}

/// Per-block-head edge profile for one page. `heat` counts block-exit
/// executions (saturating) and `succ` remembers the last observed
/// successor PC (`NO_SUCC` when never seen). All wall-clock-only.
#[derive(Debug, Clone)]
struct Profile {
    heat: [u16; SLOTS],
    succ: [Addr; SLOTS],
}

impl Profile {
    fn boxed() -> Box<Profile> {
        Box::new(Profile { heat: [0; SLOTS], succ: [NO_SUCC; SLOTS] })
    }
}

impl PageCache {
    fn new(version: u64) -> PageCache {
        PageCache {
            version,
            slots: Box::new([None; SLOTS]),
            blocks: Box::new([0; SLOTS]),
            heads: None,
            profile: None,
        }
    }

    /// The trace pool id installed at `slot` (0 = none).
    #[inline]
    fn head(&self, slot: usize) -> u32 {
        self.heads.as_ref().map_or(0, |h| h[slot])
    }

    fn set_head(&mut self, slot: usize, id: u32) {
        self.heads.get_or_insert_with(|| Box::new([0; SLOTS]))[slot] = id;
    }

    fn clear_head(&mut self, slot: usize) {
        if let Some(h) = self.heads.as_mut() {
            h[slot] = 0;
        }
    }
}

/// A pooled superblock: its body plus the guard stamps it was validated at.
#[derive(Debug, Clone)]
struct TraceRef {
    body: Arc<TraceBody>,
    guards: TraceGuards,
}

/// A lazily filled, version-checked decode, basic-block, and superblock
/// cache over guest memory.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    pages: Vec<Option<PageCache>>,
    // Superblock pool, referenced by `PageCache::trace_idx` as index + 1.
    // Freed entries recycle through `free_traces`.
    traces: Vec<Option<TraceRef>>,
    free_traces: Vec<u32>,
    stats: BlockStats,
}

impl BlockCache {
    /// An empty cache (sized on first use).
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Wall-clock hit/build/flush counters.
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// The cached decode of the instruction at `pc`, if still valid.
    ///
    /// Returns `None` for unaligned or out-of-range PCs, for never-decoded
    /// slots, and whenever the page has been written since the decode.
    #[inline]
    pub fn get(&self, pc: Addr, mem: &Memory) -> Option<Instruction> {
        if pc & 7 != 0 {
            return None;
        }
        let page = (pc as usize) / PAGE_SIZE;
        let cached = self.pages.get(page)?.as_ref()?;
        if cached.version != mem.page_version(page) {
            return None;
        }
        cached.slots[(pc as usize % PAGE_SIZE) / 8]
    }

    /// Stores a fresh decode of the instruction at `pc`.
    ///
    /// If the page's cache is stale it is reset to the current version
    /// first, dropping every slot (and block) decoded against old bytes.
    pub fn insert(&mut self, pc: Addr, insn: Instruction, mem: &Memory) {
        if pc & 7 != 0 {
            return;
        }
        let page = (pc as usize) / PAGE_SIZE;
        if page >= mem.page_count() {
            return;
        }
        let cached = self.fresh_page(page, mem);
        cached.slots[(pc as usize % PAGE_SIZE) / 8] = Some(insn);
    }

    /// The cached basic block starting at `pc`, if still valid.
    #[inline]
    pub fn block_info(&mut self, pc: Addr, mem: &Memory) -> Option<BlockInfo> {
        debug_assert_eq!(pc & 7, 0, "block entries are aligned");
        let page = (pc as usize) / PAGE_SIZE;
        let cached = self.pages.get(page)?.as_ref()?;
        if cached.version != mem.page_version(page) {
            return None;
        }
        let info = BlockInfo::unpack(cached.blocks[(pc as usize % PAGE_SIZE) / 8])?;
        self.stats.hits += 1;
        Some(info)
    }

    /// Installs a decoded basic block starting at `pc`.
    ///
    /// The slice must not cross a page boundary. A stale page cache is reset
    /// to the current version first.
    pub fn insert_block(&mut self, pc: Addr, insns: &[Instruction], info: BlockInfo, mem: &Memory) {
        debug_assert_eq!(pc & 7, 0, "block entries are aligned");
        debug_assert_eq!(insns.len(), info.len as usize);
        let page = (pc as usize) / PAGE_SIZE;
        let slot = (pc as usize % PAGE_SIZE) / 8;
        debug_assert!(slot + insns.len() <= SLOTS, "blocks never cross pages");
        if page >= mem.page_count() || insns.is_empty() {
            return;
        }
        self.stats.builds += 1;
        let cached = self.fresh_page(page, mem);
        for (i, insn) in insns.iter().enumerate() {
            cached.slots[slot + i] = Some(*insn);
        }
        cached.blocks[slot] = info.pack();
    }

    /// The decoded instruction at `(page, slot)`.
    ///
    /// Only valid for slots covered by a block previously returned by
    /// [`BlockCache::block_info`] in the same borrow region (no version
    /// re-check — the executor performs its own after stores).
    ///
    /// # Panics
    ///
    /// Panics if the slot was never decoded (an executor bug).
    #[inline]
    pub fn slot_insn(&self, page: usize, slot: usize) -> Instruction {
        self.pages[page].as_ref().expect("block page present")[slot]
    }

    /// Resolves (or resets) the page cache for the current page version.
    fn fresh_page(&mut self, page: usize, mem: &Memory) -> &mut PageCache {
        if self.pages.len() <= page {
            self.pages.resize(page + 1, None);
        }
        let version = mem.page_version(page);
        let stale = matches!(&self.pages[page], Some(c) if c.version != version);
        if stale {
            self.stats.flushes += 1;
            // The page's decodes are gone, but traces headed here may
            // survive: their bodies pin the exact bytes they decoded from,
            // and most version bumps on mixed code/data pages are data
            // writes that touch no op byte. Carry the heads into the fresh
            // cache — the next `trace_at` re-validates each against its
            // op-slot map and frees the ones the write really changed.
            let dropped = self.pages[page].take().expect("stale entry present");
            let fresh = self.pages[page].get_or_insert_with(|| PageCache::new(version));
            fresh.heads = dropped.heads;
            return fresh;
        }
        self.pages[page].get_or_insert_with(|| PageCache::new(version))
    }

    /// Returns a pool entry to the free list (idempotent).
    fn free_trace(&mut self, id: u32) {
        let idx = (id - 1) as usize;
        if self.traces.get(idx).is_some_and(Option::is_some) {
            self.traces[idx] = None;
            self.free_traces.push(id);
            self.stats.trace_flushes += 1;
        }
    }

    /// Allocates a pool slot for a trace, recycling freed entries.
    fn alloc_trace(&mut self, tr: TraceRef) -> u32 {
        if let Some(id) = self.free_traces.pop() {
            self.traces[(id - 1) as usize] = Some(tr);
            id
        } else {
            self.traces.push(Some(tr));
            u32::try_from(self.traces.len()).expect("trace pool fits in u32")
        }
    }

    /// The valid superblock headed at `pc`. A trace whose guards went stale
    /// is re-validated against its op bytes; one whose code changed is
    /// dropped on the spot and its head re-heats, so the next threshold
    /// crossing rebuilds against the new bytes.
    #[inline]
    pub fn trace_at(&mut self, pc: Addr, mem: &Memory) -> Option<Arc<TraceBody>> {
        let page = (pc as usize) / PAGE_SIZE;
        let slot = (pc as usize % PAGE_SIZE) / 8;
        let cached = self.pages.get(page)?.as_ref()?;
        if cached.version != mem.page_version(page) {
            return None;
        }
        let id = cached.head(slot);
        if id == 0 {
            return None;
        }
        let tr = self.traces[(id - 1) as usize].as_mut().expect("indexed trace present");
        if !tr.guards.valid(mem) {
            // Version counters are per-VM and bump on every write and
            // checkpoint restore, including ones that change no op byte.
            // The body pins its constituent pages' `Arc`s (refcount ≥ 2 ⇒
            // any write copies first), so pointer equality proves the page
            // never changed; failing that, compare just the op slots —
            // data writes into a page shared with hot code leave them
            // intact. Either way the trace survives: re-stamp the guards
            // instead of burning it and re-heating.
            let unchanged = tr.body.pages.iter().all(|p| {
                mem.page_arc(p.index).is_some_and(|cur| Arc::ptr_eq(&p.bytes, cur) || p.ops_unchanged(cur))
            });
            if unchanged {
                tr.guards = TraceGuards::stamp(&tr.body, mem);
            } else {
                self.free_trace(id);
                let cached = self.pages[page].as_mut().expect("page checked above");
                cached.clear_head(slot);
                if let Some(profile) = cached.profile.as_mut() {
                    profile.heat[slot] = 0;
                }
                return None;
            }
        }
        let tr = self.traces[(id - 1) as usize].as_ref().expect("indexed trace present");
        Some(Arc::clone(&tr.body))
    }

    /// Counts a trace dispatch (the executor entered a valid trace).
    #[inline]
    pub fn note_trace_hit(&mut self) {
        self.stats.trace_hits += 1;
    }

    /// Counts instructions retired by a trace dispatch.
    #[inline]
    pub fn note_trace_insns(&mut self, n: u64) {
        self.stats.trace_insns += n;
    }

    /// Profiles a block-exit edge: remembers `succ` as the last observed
    /// successor of the block headed at `(page, slot)` and bumps the head's
    /// heat. Returns the new heat, or `None` once a trace exists (or
    /// formation was marked hopeless) for this head.
    #[inline]
    pub fn record_edge(&mut self, page: usize, slot: usize, succ: Addr) -> Option<u16> {
        let cached = self.pages.get_mut(page)?.as_mut()?;
        let heat = cached.profile.as_ref().map_or(0, |p| p.heat[slot]);
        if heat == UNTRACEABLE {
            return None;
        }
        if heat >= TRACE_HEAT && cached.head(slot) != 0 {
            // A live trace covers this head; the block path only sees it
            // on horizon or breakpoint fallbacks. (The `heads` scan is
            // gated behind the heat test so cold code never pays it.)
            return None;
        }
        let profile = cached.profile.get_or_insert_with(Profile::boxed);
        profile.succ[slot] = succ;
        // Cap below the sentinel: a head whose install failed must not
        // drift into "untraceable" by sheer execution count.
        let heat = heat.saturating_add(1).min(UNTRACEABLE - 1);
        profile.heat[slot] = heat;
        Some(heat)
    }

    /// The last observed successor of the block headed at `(page, slot)`.
    pub fn observed_succ(&self, page: usize, slot: usize) -> Option<Addr> {
        let succ = self.pages.get(page)?.as_ref()?.profile.as_ref()?.succ[slot];
        (succ != NO_SUCC).then_some(succ)
    }

    /// Marks the block head at `pc` as untraceable (formation produced
    /// nothing worth dispatching) so profiling stops retrying it. Cleared
    /// naturally when the page flushes.
    pub fn mark_untraceable(&mut self, pc: Addr) {
        let page = (pc as usize) / PAGE_SIZE;
        let slot = (pc as usize % PAGE_SIZE) / 8;
        if let Some(Some(cached)) = self.pages.get_mut(page) {
            cached.profile.get_or_insert_with(Profile::boxed).heat[slot] = UNTRACEABLE;
        }
    }

    /// Installs a built superblock at its head `pc`, stamping guards from
    /// `mem`'s current page versions. Installs nothing when the head's page
    /// cache is missing or stale.
    pub fn install_trace(&mut self, pc: Addr, body: Arc<TraceBody>, mem: &Memory) {
        debug_assert!(body.pages.len() <= TRACE_MAX_PAGES);
        let page = (pc as usize) / PAGE_SIZE;
        let slot = (pc as usize % PAGE_SIZE) / 8;
        let Some(Some(cached)) = self.pages.get(page) else { return };
        if cached.version != mem.page_version(page) {
            return;
        }
        let old = cached.head(slot);
        let guards = TraceGuards::stamp(&body, mem);
        let id = self.alloc_trace(TraceRef { body, guards });
        if old != 0 {
            self.free_trace(old);
        }
        self.pages[page].as_mut().expect("page checked above").set_head(slot, id);
        self.stats.trace_builds += 1;
    }

    /// Counts a dispatch fallback: a valid trace was found but a budget
    /// horizon or breakpoint forced block-at-a-time execution instead.
    #[inline]
    pub fn note_trace_fallback(&mut self) {
        self.stats.trace_fallbacks += 1;
    }
}

/// Does nothing: every VM decodes, builds blocks and forms traces in its own
/// [`BlockCache`]. The type survives only because the frozen repository
/// benchmark still names it; it is deleted at the next change to
/// `benchmark/`.
#[derive(Debug, Default)]
pub struct SharedPageCache;

impl SharedPageCache {
    /// Does nothing (see [`SharedPageCache`]); deleted at the next change to
    /// `benchmark/`.
    pub fn new() -> SharedPageCache {
        SharedPageCache
    }
}

impl std::ops::Index<usize> for PageCache {
    type Output = Instruction;

    fn index(&self, slot: usize) -> &Instruction {
        self.slots[slot].as_ref().expect("slot decoded as part of a block")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnr_isa::{Opcode, Reg};

    fn insn(imm: i32) -> Instruction {
        Instruction::new(Opcode::MovImm, Reg::R1, Reg::R0, Reg::R0, imm)
    }

    #[test]
    fn miss_then_hit() {
        let mem = Memory::new(PAGE_SIZE * 2);
        let mut cache = BlockCache::new();
        assert_eq!(cache.get(0x8, &mem), None);
        cache.insert(0x8, insn(1), &mem);
        assert_eq!(cache.get(0x8, &mem), Some(insn(1)));
        assert_eq!(cache.get(0x10, &mem), None, "other slots stay cold");
    }

    #[test]
    fn unaligned_pcs_are_never_cached() {
        let mem = Memory::new(PAGE_SIZE);
        let mut cache = BlockCache::new();
        cache.insert(0x9, insn(1), &mem);
        assert_eq!(cache.get(0x9, &mem), None);
    }

    #[test]
    fn write_to_page_invalidates_its_decodes() {
        let mut mem = Memory::new(PAGE_SIZE * 2);
        let mut cache = BlockCache::new();
        cache.insert(0x8, insn(1), &mem);
        cache.insert(PAGE_SIZE as u64 + 8, insn(2), &mem);
        mem.write_u8(0x8, 0xff).unwrap();
        assert_eq!(cache.get(0x8, &mem), None, "written page drops");
        assert_eq!(cache.get(PAGE_SIZE as u64 + 8, &mem), Some(insn(2)), "other page survives");
        // Re-inserting against the new version works.
        cache.insert(0x8, insn(3), &mem);
        assert_eq!(cache.get(0x8, &mem), Some(insn(3)));
    }

    #[test]
    fn restore_after_write_invalidates() {
        let mut mem = Memory::new(PAGE_SIZE);
        let snap = mem.snapshot_pages();
        let mut cache = BlockCache::new();
        mem.write_u8(0x10, 7).unwrap();
        cache.insert(0x0, insn(1), &mem);
        mem.restore_pages(snap);
        assert_eq!(cache.get(0x0, &mem), None, "restore of a differing page flushes");
    }

    #[test]
    fn restore_of_identical_pages_keeps_cache_warm() {
        let mut mem = Memory::new(PAGE_SIZE);
        let snap = mem.snapshot_pages();
        let mut cache = BlockCache::new();
        cache.insert(0x0, insn(1), &mem);
        // Nothing was written between snapshot and restore: the pages are
        // the same `Arc`s, the content cannot have changed, and the decode
        // survives (the warm-restore optimization for CR rewinds).
        mem.restore_pages(snap);
        assert_eq!(cache.get(0x0, &mem), Some(insn(1)));
    }

    #[test]
    fn out_of_range_pc_is_ignored() {
        let mem = Memory::new(PAGE_SIZE);
        let mut cache = BlockCache::new();
        cache.insert(PAGE_SIZE as u64 * 10, insn(1), &mem);
        assert_eq!(cache.get(PAGE_SIZE as u64 * 10, &mem), None);
    }

    #[test]
    fn block_round_trip_and_invalidation() {
        let mut mem = Memory::new(PAGE_SIZE);
        let mut cache = BlockCache::new();
        let block = [insn(1), insn(2), insn(3)];
        let info = BlockInfo { len: 3, has_terminal: true };
        assert_eq!(cache.block_info(0x10, &mem), None);
        cache.insert_block(0x10, &block, info, &mem);
        assert_eq!(cache.block_info(0x10, &mem), Some(info));
        assert_eq!(cache.slot_insn(0, 2 + 1), insn(2));
        assert_eq!(cache.get(0x20, &mem), Some(insn(3)), "block slots serve single decodes too");
        // Interior slots are not block entry points.
        assert_eq!(cache.block_info(0x18, &mem), None);
        mem.write_u8(0x18, 0xff).unwrap();
        assert_eq!(cache.block_info(0x10, &mem), None, "write invalidates the block");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.builds), (1, 1));
    }

    #[test]
    fn stale_page_reset_counts_a_flush() {
        let mut mem = Memory::new(PAGE_SIZE);
        let mut cache = BlockCache::new();
        let info = BlockInfo { len: 1, has_terminal: false };
        cache.insert_block(0x0, &[insn(1)], info, &mem);
        mem.write_u8(0x100, 1).unwrap();
        cache.insert_block(0x0, &[insn(2)], info, &mem);
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.slot_insn(0, 0), insn(2));
    }

    #[test]
    fn meta_packing_round_trips() {
        for len in [1u16, 2, 511, 512] {
            for has_terminal in [false, true] {
                let info = BlockInfo { len, has_terminal };
                assert_eq!(BlockInfo::unpack(info.pack()), Some(info));
            }
        }
        assert_eq!(BlockInfo::unpack(0), None);
    }
}
