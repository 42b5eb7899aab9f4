//! The discrete-event, cycle-level TrieJax simulator.
//!
//! Each hardware thread context executes the Cached TrieJoin control flow
//! of paper Figures 9-12 as a resumable state machine. One simulation
//! event advances one thread through one macro-operation (opening a level,
//! one leapfrog alignment, one match, one replayed cache value, one
//! backtrack step); the latencies inside an event are sequentially
//! dependent (binary-search probes, child-range reads), while memory-level
//! parallelism arises across threads, exactly as the paper's
//! multithreading intends (§3.4).

mod cursor;
mod pjr;
mod units;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use triejax_join::{Catalog, JoinError, ResultSink, TrieSet};
use triejax_memsim::{Cycle, MemorySystem};
use triejax_query::CompiledQuery;
use triejax_relation::{AddressSpace, Trie, Value};

use crate::report::{ComponentOps, SimReport};
use crate::{MtMode, TrieJaxConfig};

use cursor::SimCursor;
use pjr::{PjrCache, PjrEntry, PjrKey};
use units::Units;

/// The TrieJax accelerator: configure once, run compiled queries.
///
/// See the crate-level example. Every run executes the full Cached
/// TrieJoin and reports cycle-accurate timing, per-component operation
/// counts, memory-system behaviour and the energy breakdown.
#[derive(Debug, Clone)]
pub struct TrieJax {
    config: TrieJaxConfig,
}

impl TrieJax {
    /// Creates an accelerator instance with the given configuration.
    pub fn new(config: TrieJaxConfig) -> Self {
        TrieJax { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrieJaxConfig {
        &self.config
    }

    /// Runs `plan` over `catalog`, counting results.
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] if the catalog does not satisfy the plan.
    pub fn run(&self, plan: &CompiledQuery, catalog: &Catalog) -> Result<SimReport, JoinError> {
        self.run_inner(plan, catalog, &mut NullSink)
    }

    /// Runs `plan` over `catalog`, streaming every result into `sink`
    /// (head-variable order). Mainly for validation against the software
    /// engines.
    ///
    /// # Errors
    ///
    /// Returns a [`JoinError`] if the catalog does not satisfy the plan.
    pub fn run_with_sink(
        &self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<SimReport, JoinError> {
        self.run_inner(plan, catalog, sink)
    }

    fn run_inner(
        &self,
        plan: &CompiledQuery,
        catalog: &Catalog,
        sink: &mut dyn ResultSink,
    ) -> Result<SimReport, JoinError> {
        let mut tries = TrieSet::build(plan, catalog)?;
        let mut asp = AddressSpace::new();
        tries.assign_addresses(&mut asp);
        let result_base = asp.alloc(64).base;

        // An empty atom relation annuls the join.
        if tries.tries().iter().any(|t| t.tuple_count() == 0) {
            return Ok(SimReport::default());
        }

        let mut sim = Simulator::new(&self.config, plan, &tries, result_base, sink);
        sim.launch();
        sim.run_to_completion();
        Ok(sim.into_report())
    }
}

/// Sink that discards results (counting happens in the simulator).
struct NullSink;

impl ResultSink for NullSink {
    fn push(&mut self, _tuple: &[Value]) {}
}

/// Per-level execution frame.
#[derive(Debug, Clone)]
struct LevelFrame {
    mode: FrameMode,
    /// The remainder of this level is owned by a spawned thread.
    detached: bool,
    recording: Option<RecordState>,
}

#[derive(Debug, Clone)]
enum FrameMode {
    /// Leapfrog over the participating cursors; `p` is the round-robin
    /// pointer of the classic algorithm.
    Normal { p: usize },
    /// Replaying a PJR entry.
    Replay {
        entry: PjrEntry,
        idx: usize,
        open: bool,
    },
}

#[derive(Debug, Clone)]
struct RecordState {
    key: PjrKey,
}

/// What the thread does at its next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    StartLevel { depth: usize },
    Advance { depth: usize },
    ReplayNext { depth: usize },
    Backtrack { depth: usize },
    Idle,
}

#[derive(Debug, Clone)]
struct ThreadCtx {
    cursors: Vec<SimCursor>,
    binding: Vec<Value>,
    stack: Vec<LevelFrame>,
    phase: Phase,
    /// Words buffered in the result write buffer (flushed per cache line).
    wb_words: u64,
    /// Static-MT constraint on the first depth-0 participant.
    chunk: Option<(u32, u32)>,
}

impl ThreadCtx {
    fn new(num_atoms: usize, arity: usize) -> Self {
        ThreadCtx {
            cursors: vec![SimCursor::default(); num_atoms],
            binding: vec![0; arity],
            stack: Vec::with_capacity(arity),
            phase: Phase::Idle,
            wb_words: 0,
            chunk: None,
        }
    }
}

struct Simulator<'a> {
    cfg: &'a TrieJaxConfig,
    plan: &'a CompiledQuery,
    tries: &'a TrieSet,
    mem: MemorySystem,
    units: Units,
    pjr: PjrCache,
    threads: Vec<ThreadCtx>,
    free_ctx: Vec<usize>,
    events: BinaryHeap<Reverse<(Cycle, u64, usize)>>,
    seq: u64,
    now: Cycle,
    end_time: Cycle,
    ops: ComponentOps,
    results: u64,
    result_addr: u64,
    result_lines: u64,
    spawns: u64,
    threads_used: u64,
    slots: Vec<usize>,
    emit_buf: Vec<Value>,
    sink: &'a mut dyn ResultSink,
}

impl<'a> Simulator<'a> {
    fn new(
        cfg: &'a TrieJaxConfig,
        plan: &'a CompiledQuery,
        tries: &'a TrieSet,
        result_base: u64,
        sink: &'a mut dyn ResultSink,
    ) -> Self {
        let head = plan.query().head();
        let slots = plan
            .order()
            .iter()
            .map(|v| {
                head.iter()
                    .position(|h| h == v)
                    .expect("order vars in head")
            })
            .collect();
        let num_atoms = plan.atom_plans().len();
        let arity = plan.arity();
        Simulator {
            cfg,
            plan,
            tries,
            mem: MemorySystem::new(cfg.mem),
            units: Units::new(),
            pjr: PjrCache::new(
                cfg.pjr_enabled && !plan.cache_specs().is_empty(),
                cfg.pjr_bytes,
                cfg.pjr_banks,
                cfg.pjr_latency,
                cfg.pjr_entry_values,
            ),
            threads: (0..cfg.threads)
                .map(|_| ThreadCtx::new(num_atoms, arity))
                .collect(),
            free_ctx: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            now: 0,
            end_time: 0,
            ops: ComponentOps::default(),
            results: 0,
            result_addr: result_base,
            result_lines: 0,
            spawns: 0,
            threads_used: 0,
            slots,
            emit_buf: vec![0; arity],
            sink,
        }
    }

    fn trie_of(&self, atom: usize) -> &Trie {
        self.tries.for_atom(atom)
    }

    /// Queueing delay for one Cupid issue slot at the current event time.
    fn cupid_wait(&mut self) -> Cycle {
        let now = self.now;
        self.units.cupid.issue(now) - now
    }

    /// Queueing delay plus service time for one PJR bank access.
    fn pjr_wait(&mut self) -> Cycle {
        let now = self.now;
        self.pjr.access(now) - now
    }

    fn schedule(&mut self, t: Cycle, tid: usize) {
        self.seq += 1;
        self.end_time = self.end_time.max(t);
        self.events.push(Reverse((t, self.seq, tid)));
    }

    /// Seeds the initial threads per the MT scheme (§3.4).
    fn launch(&mut self) {
        let first_atom = self.plan.atoms_at(0)[0].0;
        let n0 = self.trie_of(first_atom).level(0).len() as u32;
        let num_static = match self.cfg.mt_mode {
            MtMode::Dynamic => 1,
            MtMode::Static | MtMode::Combined => (self.cfg.threads as u32).min(n0).max(1) as usize,
        };
        for i in 0..num_static {
            let lo = (i as u64 * n0 as u64 / num_static as u64) as u32;
            let hi = ((i as u64 + 1) * n0 as u64 / num_static as u64) as u32;
            if lo >= hi {
                continue;
            }
            self.threads[i].chunk = if num_static > 1 { Some((lo, hi)) } else { None };
            self.threads[i].phase = Phase::StartLevel { depth: 0 };
            self.threads_used += 1;
            self.schedule(0, i);
        }
        for i in (num_static..self.cfg.threads).rev() {
            self.free_ctx.push(i);
        }
    }

    fn run_to_completion(&mut self) {
        while let Some(Reverse((time, _, tid))) = self.events.pop() {
            self.now = time;
            self.step(tid);
        }
        // Drain partial write buffers.
        let t = self.end_time;
        for tid in 0..self.threads.len() {
            if self.threads[tid].wb_words > 0 {
                self.threads[tid].wb_words = 0;
                self.mem.write_result(self.result_addr, t);
                self.result_addr += 64;
                self.result_lines += 1;
            }
        }
    }

    fn into_report(self) -> SimReport {
        let cycles = self.end_time;
        let runtime_s = self.cfg.mem.cycles_to_seconds(cycles);
        let mem = self.mem.stats();
        let energy =
            self.cfg
                .energy
                .breakdown(&mem, self.pjr.stats.accesses, self.ops.total(), runtime_s);
        SimReport {
            cycles,
            runtime_s,
            results: self.results,
            result_lines_written: self.result_lines,
            ops: self.ops,
            pjr: self.pjr.stats,
            mem,
            energy,
            threads_used: self.threads_used,
            spawns: self.spawns,
        }
    }

    /// Executes one macro-operation of thread `tid`.
    fn step(&mut self, tid: usize) {
        match self.threads[tid].phase {
            Phase::StartLevel { depth } => self.start_level(tid, depth),
            Phase::Advance { depth } => self.advance(tid, depth),
            Phase::ReplayNext { depth } => self.replay_next(tid, depth),
            Phase::Backtrack { depth } => self.backtrack(tid, depth),
            Phase::Idle => {}
        }
    }

    // ----- phase handlers ---------------------------------------------

    fn start_level(&mut self, tid: usize, depth: usize) {
        let mut t = self.now;

        // PJR lookup happens before any trie work (paper §3.5).
        let mut recording = None;
        if self.pjr.enabled() {
            if let Some(spec) = self.plan.cache_spec_at(depth) {
                let key: PjrKey = (
                    depth,
                    spec.key_depths()
                        .iter()
                        .map(|&kd| self.threads[tid].binding[kd])
                        .collect(),
                );
                self.ops.cupid += 1;
                t += self.cupid_wait() + 1;
                t += self.pjr_wait();
                if let Some(entry) = self.pjr.lookup(&key) {
                    self.threads[tid].stack.push(LevelFrame {
                        mode: FrameMode::Replay {
                            entry,
                            idx: 0,
                            open: false,
                        },
                        detached: false,
                        recording: None,
                    });
                    self.threads[tid].phase = Phase::ReplayNext { depth };
                    self.schedule(t, tid);
                    return;
                }
                let path = &self.threads[tid].binding[..depth];
                if self.pjr.begin_fill(&key, path) {
                    recording = Some(RecordState { key });
                }
            }
        }

        t = self.open_level(tid, depth, t);
        self.threads[tid].stack.push(LevelFrame {
            mode: FrameMode::Normal { p: 0 },
            detached: false,
            recording,
        });
        match self.search(tid, depth, &mut t) {
            Some(v) => self.process_match(tid, depth, v, t),
            None => {
                self.threads[tid].phase = Phase::Backtrack { depth };
                self.schedule(t, tid);
            }
        }
    }

    fn advance(&mut self, tid: usize, depth: usize) {
        let mut t = self.now;
        t += self.cupid_wait() + 1;
        self.ops.cupid += 1;

        let p = match &self.threads[tid].stack.last().expect("frame").mode {
            FrameMode::Normal { p } => *p,
            FrameMode::Replay { .. } => unreachable!("advance only on normal frames"),
        };
        let parts = self.plan.atoms_at(depth);
        let atom = parts[p % parts.len()].0;
        let trie = self.tries.for_atom(atom);
        match self.threads[tid].cursors[atom].advance(trie) {
            Some(addr) => {
                t += self.mem.read(addr, t);
                match self.search(tid, depth, &mut t) {
                    Some(v) => self.process_match(tid, depth, v, t),
                    None => {
                        self.threads[tid].phase = Phase::Backtrack { depth };
                        self.schedule(t, tid);
                    }
                }
            }
            None => {
                self.threads[tid].phase = Phase::Backtrack { depth };
                self.schedule(t, tid);
            }
        }
    }

    fn replay_next(&mut self, tid: usize, depth: usize) {
        let mut t = self.now;
        let parts: &[(usize, usize)] = self.plan.atoms_at(depth);

        // Close the open_at frames from the previous replayed value.
        let (entry, idx) = {
            let frame = self.threads[tid].stack.last_mut().expect("frame");
            let FrameMode::Replay {
                entry: _,
                idx: _,
                open,
            } = &mut frame.mode
            else {
                unreachable!("replay_next only on replay frames")
            };
            if *open {
                *open = false;
                for &(a, _) in parts {
                    self.threads[tid].cursors[a].up();
                }
            }
            let frame = self.threads[tid].stack.last_mut().expect("frame");
            let FrameMode::Replay { entry, idx, .. } = &mut frame.mode else {
                unreachable!()
            };
            (Rc::clone(entry), *idx)
        };

        if idx >= entry.len() {
            self.threads[tid].phase = Phase::Backtrack { depth };
            self.schedule(t + 1, tid);
            return;
        }

        // Read the cached (value, indexes) pair from PJR SRAM.
        t += self.pjr_wait();
        self.pjr.stats.values_replayed += 1;
        self.ops.cupid += 1;
        t += self.cupid_wait() + 1;

        let (v, positions) = &entry[idx];
        self.threads[tid].binding[depth] = *v;
        {
            let frame = self.threads[tid].stack.last_mut().expect("frame");
            let FrameMode::Replay { idx, .. } = &mut frame.mode else {
                unreachable!()
            };
            *idx += 1;
        }

        if depth + 1 == self.plan.arity() {
            let t2 = self.emit(tid, t);
            self.threads[tid].phase = Phase::ReplayNext { depth };
            self.schedule(t2, tid);
        } else {
            for (i, &(a, _)) in parts.iter().enumerate() {
                self.threads[tid].cursors[a].open_at(positions[i]);
            }
            let frame = self.threads[tid].stack.last_mut().expect("frame");
            let FrameMode::Replay { open, .. } = &mut frame.mode else {
                unreachable!()
            };
            *open = true;
            self.threads[tid].phase = Phase::StartLevel { depth: depth + 1 };
            self.schedule(t, tid);
        }
    }

    fn backtrack(&mut self, tid: usize, depth: usize) {
        let mut t = self.now;
        self.ops.cupid += 1;
        t += self.cupid_wait() + 1;

        let frame = self.threads[tid]
            .stack
            .pop()
            .expect("backtrack needs a frame");
        let parts = self.plan.atoms_at(depth);
        match frame.mode {
            FrameMode::Normal { .. } => {
                for &(a, _) in parts {
                    self.threads[tid].cursors[a].up();
                }
                if let Some(rec) = frame.recording {
                    // This thread finished the level; the entry commits
                    // when every sibling has (§3.5).
                    self.pjr.release_fill(&rec.key);
                    t += self.pjr_wait();
                }
            }
            FrameMode::Replay { open, .. } => {
                if open {
                    for &(a, _) in parts {
                        self.threads[tid].cursors[a].up();
                    }
                }
            }
        }

        if self.threads[tid].stack.is_empty() {
            self.finish_thread(tid);
            return;
        }
        let parent_depth = depth - 1;
        let parent = self.threads[tid].stack.last().expect("non-empty");
        self.threads[tid].phase = if parent.detached {
            Phase::Backtrack {
                depth: parent_depth,
            }
        } else {
            match parent.mode {
                FrameMode::Normal { .. } => Phase::Advance {
                    depth: parent_depth,
                },
                FrameMode::Replay { .. } => Phase::ReplayNext {
                    depth: parent_depth,
                },
            }
        };
        self.schedule(t, tid);
    }

    // ----- building blocks --------------------------------------------

    /// Opens `depth` on every participating cursor, charging Midwife
    /// child-range reads and the first-value fetch.
    fn open_level(&mut self, tid: usize, depth: usize, mut t: Cycle) -> Cycle {
        let parts = self.plan.atoms_at(depth);
        for &(a, lvl) in parts {
            let trie = self.tries.for_atom(a);
            if lvl == 0 {
                let opened = self.threads[tid].cursors[a].open_root(trie);
                assert!(opened, "empty tries are rejected before simulation");
                if depth == 0 && a == parts[0].0 {
                    if let Some((lo, hi)) = self.threads[tid].chunk {
                        self.threads[tid].cursors[a].constrain(lo, hi);
                        if self.threads[tid].cursors[a].at_end() {
                            continue;
                        }
                    }
                }
            } else {
                self.ops.midwife += 1;
                let now = self.now;
                t += self.units.midwife.issue(now) - now + 1;
                let ((lo, hi), addrs) = self.threads[tid].cursors[a].child_range(trie);
                for addr in addrs {
                    t += self.mem.read(addr, t);
                }
                self.threads[tid].cursors[a].open_child_range(lo, hi);
            }
            // Fetch the first value of the newly opened range.
            if !self.threads[tid].cursors[a].at_end() {
                let pos = self.threads[tid].cursors[a].pos();
                let addr = self.threads[tid].cursors[a].value_addr(trie, pos);
                t += self.mem.read(addr, t);
            }
        }
        t
    }

    /// Leapfrog alignment at `depth` (MatchMaker + LUB, Figures 9-10).
    fn search(&mut self, tid: usize, depth: usize, t: &mut Cycle) -> Option<Value> {
        let parts = self.plan.atoms_at(depth);
        self.ops.matchmaker += 1;
        let now = self.now;
        *t += self.units.matchmaker.issue(now) - now + 1;

        let k = parts.len();
        if parts
            .iter()
            .any(|&(a, _)| self.threads[tid].cursors[a].at_end())
        {
            return None;
        }
        let mut max = 0;
        let mut argmax = 0;
        for (i, &(a, _)) in parts.iter().enumerate() {
            let key = self.threads[tid].cursors[a].key(self.tries.for_atom(a));
            if i == 0 || key > max {
                max = key;
                argmax = i;
            }
        }
        let mut agree = 1;
        let mut p = argmax;
        let mut probes = Vec::new();
        while agree < k {
            p = (p + 1) % k;
            let a = parts[p].0;
            let trie = self.tries.for_atom(a);
            let key = self.threads[tid].cursors[a].key(trie);
            if key == max {
                agree += 1;
                continue;
            }
            // LUB seek: sequential binary-search probes.
            self.ops.lub_seeks += 1;
            *t += self.units.lub.issue(now) - now + 1;
            probes.clear();
            let found = self.threads[tid].cursors[a].seek(trie, max, &mut probes);
            self.ops.lub_probes += probes.len() as u64;
            for &addr in &probes {
                *t += self.mem.read(addr, *t) + 1;
            }
            if !found {
                return None;
            }
            let key = self.threads[tid].cursors[a].key(trie);
            if key == max {
                agree += 1;
            } else {
                max = key;
                agree = 1;
            }
        }
        // Record the final pointer for `advance`.
        if let FrameMode::Normal { p: fp } =
            &mut self.threads[tid].stack.last_mut().expect("frame").mode
        {
            *fp = p;
        }
        Some(max)
    }

    /// Handles a confirmed match at `depth` (Cupid, Figure 12): record for
    /// the PJR fill, maybe spawn a sibling thread, then emit or descend.
    fn process_match(&mut self, tid: usize, depth: usize, v: Value, mut t: Cycle) {
        self.ops.cupid += 1;
        t += self.cupid_wait() + 2;
        self.threads[tid].binding[depth] = v;

        // Record into the pending PJR entry.
        let parts = self.plan.atoms_at(depth);
        let positions: Option<Vec<u32>> = {
            let frame = self.threads[tid].stack.last().expect("frame");
            frame.recording.as_ref().map(|_| {
                parts
                    .iter()
                    .map(|&(a, _)| self.threads[tid].cursors[a].pos())
                    .collect()
            })
        };
        if let Some(positions) = positions {
            let key = {
                let frame = self.threads[tid].stack.last().expect("frame");
                frame.recording.as_ref().expect("recording").key.clone()
            };
            if self.pjr.record(&key, v, positions) {
                t += self.pjr_wait(); // insertion-buffer write
            }
        }

        // Dynamic MT: hand the remainder of this level to a fresh context.
        let can_spawn = matches!(self.cfg.mt_mode, MtMode::Dynamic | MtMode::Combined)
            && !self.free_ctx.is_empty()
            && matches!(
                self.threads[tid].stack.last().expect("frame").mode,
                FrameMode::Normal { .. }
            )
            && !self.threads[tid].stack.last().expect("frame").detached;
        if can_spawn {
            t = self.spawn(tid, t);
        }

        if depth + 1 == self.plan.arity() {
            let t2 = self.emit(tid, t);
            let detached = self.threads[tid].stack.last().expect("frame").detached;
            self.threads[tid].phase = if detached {
                Phase::Backtrack { depth }
            } else {
                Phase::Advance { depth }
            };
            self.schedule(t2, tid);
        } else {
            self.threads[tid].phase = Phase::StartLevel { depth: depth + 1 };
            self.schedule(t, tid);
        }
    }

    /// Clones the current thread into a free context that takes over the
    /// remainder of the current level (paper Figure 8, dynamic MT).
    fn spawn(&mut self, tid: usize, mut t: Cycle) -> Cycle {
        let new_tid = self.free_ctx.pop().expect("checked by caller");
        self.ops.cupid += 1;
        t += self.cupid_wait() + 2;

        // The level's fill (if any) becomes shared: the spawned sibling
        // joins it and bumps the per-entry thread counter (§3.5).
        let depth = self.threads[tid].stack.len() - 1;
        let shared_recording = {
            let frame = self.threads[tid].stack.last_mut().expect("frame");
            frame.detached = true;
            frame.recording.as_ref().map(|r| r.key.clone())
        };
        if let Some(key) = &shared_recording {
            let path = self.threads[tid].binding[..depth].to_vec();
            let joined = self.pjr.join_fill(key, &path);
            debug_assert!(joined, "same-path sibling always joins its fill");
        }

        let src = &self.threads[tid];
        let mut clone = ThreadCtx {
            cursors: src.cursors.clone(),
            binding: src.binding.clone(),
            stack: src
                .stack
                .iter()
                .map(|f| LevelFrame {
                    mode: f.mode.clone(),
                    detached: true,
                    recording: None,
                })
                .collect(),
            phase: Phase::Advance { depth },
            wb_words: 0,
            chunk: None,
        };
        // The clone owns the remainder of the *top* level only, and keeps
        // recording into the shared fill.
        let top = clone.stack.last_mut().expect("frame");
        top.detached = false;
        top.recording = shared_recording.map(|key| RecordState { key });
        self.threads[new_tid] = clone;
        self.spawns += 1;
        self.threads_used += 1;
        self.schedule(t, new_tid);
        t
    }

    /// Emits the current binding as a result through the write buffer
    /// (flushing one cache line per 16 words, §3.3). In aggregation mode
    /// (the §5 future-work extension) the result only bumps an on-chip
    /// accumulator: no buffering, no memory traffic.
    fn emit(&mut self, tid: usize, mut t: Cycle) -> Cycle {
        self.ops.cupid += 1;
        t += self.cupid_wait() + 1;
        for d in 0..self.threads[tid].binding.len() {
            self.emit_buf[self.slots[d]] = self.threads[tid].binding[d];
        }
        self.sink.push(&self.emit_buf);
        self.results += 1;
        if self.cfg.aggregate {
            return t;
        }
        self.threads[tid].wb_words += self.plan.arity() as u64;
        if self.threads[tid].wb_words * 4 >= 64 {
            self.threads[tid].wb_words = 0;
            // Posted write: occupies a DRAM channel but does not stall the
            // thread (paper §3.1 result streaming).
            self.mem.write_result(self.result_addr, t);
            self.result_addr += 64;
            self.result_lines += 1;
        }
        t
    }

    fn finish_thread(&mut self, tid: usize) {
        self.threads[tid].phase = Phase::Idle;
        self.threads[tid].chunk = None;
        self.free_ctx.push(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triejax_join::{CollectSink, CountSink, Ctj, JoinEngine, Lftj};
    use triejax_query::patterns::{self, Pattern};
    use triejax_relation::Relation;

    fn catalog(edges: &[(u32, u32)]) -> Catalog {
        let mut c = Catalog::new();
        c.insert("G", Relation::from_pairs(edges.to_vec()));
        c
    }

    fn test_edges() -> Vec<(u32, u32)> {
        vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 1),
            (0, 2),
            (3, 0),
            (1, 3),
            (4, 1),
            (2, 4),
            (4, 0),
            (5, 1),
            (1, 5),
            (5, 2),
        ]
    }

    #[test]
    fn matches_software_ctj_on_every_pattern() {
        let c = catalog(&test_edges());
        let accel = TrieJax::new(TrieJaxConfig::default());
        for p in Pattern::ALL {
            let plan = CompiledQuery::compile(&p.query()).unwrap();
            let mut hw = CollectSink::new();
            let report = accel.run_with_sink(&plan, &c, &mut hw).unwrap();
            let mut sw = CollectSink::new();
            Ctj::new().execute(&plan, &c, &mut sw).unwrap();
            assert_eq!(report.results as usize, sw.len(), "{p} count");
            assert_eq!(hw.into_sorted(), sw.into_sorted(), "{p} tuples");
        }
    }

    #[test]
    fn result_count_is_thread_count_invariant() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle4()).unwrap();
        let mut reference = CountSink::default();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        for threads in [1, 2, 4, 8, 32, 64] {
            let accel = TrieJax::new(TrieJaxConfig::default().with_threads(threads));
            let report = accel.run(&plan, &c).unwrap();
            assert_eq!(report.results, reference.count(), "{threads} threads");
        }
    }

    #[test]
    fn result_count_is_mt_mode_invariant() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::clique4()).unwrap();
        let mut reference = CountSink::default();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        for mode in [MtMode::Static, MtMode::Dynamic, MtMode::Combined] {
            let accel = TrieJax::new(TrieJaxConfig::default().with_mt_mode(mode));
            let report = accel.run(&plan, &c).unwrap();
            assert_eq!(report.results, reference.count(), "{mode:?}");
        }
    }

    #[test]
    fn more_threads_means_fewer_cycles() {
        // A graph with enough depth-0 fanout to parallelize.
        let mut edges = Vec::new();
        for i in 0..60u32 {
            edges.push((i, (i + 1) % 60));
            edges.push((i, (i + 7) % 60));
            edges.push((i, (i + 13) % 60));
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let t1 = TrieJax::new(TrieJaxConfig::default().with_threads(1))
            .run(&plan, &c)
            .unwrap();
        let t8 = TrieJax::new(TrieJaxConfig::default().with_threads(8))
            .run(&plan, &c)
            .unwrap();
        assert_eq!(t1.results, t8.results);
        assert!(
            t8.cycles * 2 < t1.cycles,
            "8T {} should be well under 1T {}",
            t8.cycles,
            t1.cycles
        );
    }

    #[test]
    fn pjr_cache_hits_on_shared_keys() {
        let mut edges = Vec::new();
        for x in 0..10u32 {
            edges.push((x, 100));
        }
        for z in 101..110u32 {
            edges.push((100, z));
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let accel = TrieJax::new(TrieJaxConfig::default().with_threads(1));
        let report = accel.run(&plan, &c).unwrap();
        assert!(report.pjr.hits > 0, "y=100 repeats across x values");
        assert!(report.pjr.values_replayed > 0);
    }

    #[test]
    fn pjr_disabled_still_correct_and_never_accessed() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let accel = TrieJax::new(TrieJaxConfig::default().with_pjr_enabled(false));
        let report = accel.run(&plan, &c).unwrap();
        let mut reference = CountSink::default();
        Lftj::new().execute(&plan, &c, &mut reference).unwrap();
        assert_eq!(report.results, reference.count());
        assert_eq!(report.pjr.accesses, 0);
        assert_eq!(report.energy.pjr, 0.0);
    }

    #[test]
    fn cycle3_never_uses_pjr() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::cycle3()).unwrap();
        let report = TrieJax::new(TrieJaxConfig::default())
            .run(&plan, &c)
            .unwrap();
        assert_eq!(report.pjr.accesses, 0, "no valid cache spec for cycle3");
    }

    #[test]
    fn empty_graph_is_an_empty_report() {
        let c = catalog(&[]);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let report = TrieJax::new(TrieJaxConfig::default())
            .run(&plan, &c)
            .unwrap();
        assert_eq!(report.results, 0);
        assert_eq!(report.cycles, 0);
    }

    #[test]
    fn missing_relation_is_an_error() {
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        assert!(TrieJax::new(TrieJaxConfig::default())
            .run(&plan, &Catalog::new())
            .is_err());
    }

    #[test]
    fn energy_is_dram_dominated() {
        let c = catalog(&test_edges());
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let report = TrieJax::new(TrieJaxConfig::default())
            .run(&plan, &c)
            .unwrap();
        assert!(report.energy.total() > 0.0);
        assert!(
            report.energy.dram_fraction() > 0.5,
            "{}",
            report.energy.dram_fraction()
        );
    }

    #[test]
    fn dynamic_mode_spawns_threads() {
        let mut edges = Vec::new();
        for i in 0..40u32 {
            edges.push((i, (i + 1) % 40));
            edges.push((i, (i + 3) % 40));
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::path3()).unwrap();
        let accel = TrieJax::new(TrieJaxConfig::default().with_mt_mode(MtMode::Dynamic));
        let report = accel.run(&plan, &c).unwrap();
        assert!(report.spawns > 0);
        assert!(report.threads_used > 1);
    }

    #[test]
    fn aggregate_mode_counts_without_memory_traffic() {
        // Dense enough that result-write bandwidth is the bottleneck.
        let mut edges = Vec::new();
        for i in 0..60u32 {
            for j in 1..12u32 {
                edges.push((i, (i + j) % 60));
            }
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let full = TrieJax::new(TrieJaxConfig::default())
            .run(&plan, &c)
            .unwrap();
        let agg = TrieJax::new(TrieJaxConfig::default().with_aggregate(true))
            .run(&plan, &c)
            .unwrap();
        assert_eq!(agg.results, full.results, "same count either way");
        assert_eq!(agg.result_lines_written, 0, "no result lines in memory");
        assert_eq!(agg.mem.dram.writes, 0);
        assert!(
            agg.cycles < full.cycles,
            "counting {} should beat materializing {}",
            agg.cycles,
            full.cycles
        );
    }

    #[test]
    fn write_bypass_reduces_llc_traffic() {
        let mut edges = Vec::new();
        for i in 0..50u32 {
            for j in 1..6u32 {
                edges.push((i, (i + j) % 50));
            }
        }
        let c = catalog(&edges);
        let plan = CompiledQuery::compile(&patterns::path4()).unwrap();
        let with = TrieJax::new(TrieJaxConfig::default())
            .run(&plan, &c)
            .unwrap();
        let without = TrieJax::new(TrieJaxConfig::default().with_write_bypass(false))
            .run(&plan, &c)
            .unwrap();
        assert_eq!(with.results, without.results);
        assert!(with.mem.llc.accesses() < without.mem.llc.accesses());
    }
}
