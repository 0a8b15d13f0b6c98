//! Streaming extraction: the cost polynomial folded straight out of a
//! schedule generator, with no IR.
//!
//! [`CostSink`] is a [`ScheduleSink`]: a generator emits its steps into
//! it exactly as it would into the [`crate::schedule::ScheduleBuilder`],
//! and the sink runs [`super::extract_poly`]'s componentwise
//! longest-path DP and NIC ledger as the steps arrive. A rank's step
//! *posts* once the rank's previous step has completed: its copies and
//! sends are charged and each send either meets a waiting receive or
//! joins its directed pair's FIFO. It *completes* once every one of its
//! receives has found its FIFO-matched send. Matching per directed pair
//! in program order is exactly the tag discipline the builder encodes,
//! so no tags, no message sort and no graph are needed.
//!
//! Generators emit round by round (a topological order of the step
//! graph), so nearly every step posts and completes on arrival, and the
//! live state is about one round of messages rather than the schedule.
//! Any interleaving is still correct: a step that cannot post yet waits
//! in its rank's backlog.
//!
//! The sink only *detects* a defective stream: it makes extraction's
//! structural checks per op as the step arrives, compares message sizes
//! as messages are matched, and at [`CostSink::finish`] rejects a
//! stream with operations left unmatched or steps never completed.
//! Saying *why* is left to the reference path: [`stream_poly`] rebuilds
//! the IR of a rejected schedule and returns [`super::extract_poly`]'s
//! typed error, so both paths report the same error by construction.

use super::{
    dp_add, dp_max, extract_poly, poly_of, step_weights, CostError, CostPoly, Dp, METRICS,
};
use crate::algo::Algorithm;
use crate::schedcheck::{check_op, OpRef};
use crate::schedule::{pair_key, Geometry, Op, PairMap, ScheduleSink, StepBuilder};
use pml_simnet::JobLayout;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// The polynomial of `algo`'s schedule at (`layout`, `block`), streamed
/// from its generator. Equal to [`super::extract_poly`] on
/// `algo.schedule(layout.world_size(), block)`, errors included: a
/// stream the sink rejects is extracted from its IR to name the defect.
pub fn stream_poly(
    algo: Algorithm,
    layout: JobLayout,
    block: usize,
) -> Result<CostPoly, CostError> {
    let world = layout.world_size();
    let mut sink = CostSink::new(layout);
    algo.emit(world, block, &mut sink)?;
    match sink.finish() {
        Some(poly) => Ok(poly),
        None => extract_poly(&algo.schedule(world, block)?, layout),
    }
}

/// Arena index meaning "none" (slot 0 is never handed out).
const NIL: u32 = 0;

/// An unmatched send or receive queued on its directed pair.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    len: usize,
    /// For a send: the sender's Post value, an index into `posts`. For a
    /// receive: [`NIL`].
    post: u32,
    next: u32,
}

/// One directed pair's FIFO of unmatched operations: `[head, tail]`
/// indices into `pending` (head [`NIL`]: empty). It holds only sends or
/// only receives: a match pops as soon as both sides exist. A plain
/// array, so a dense table of them is allocated zeroed and its pages are
/// touched only where pairs are used.
type Fifo = [u32; 2];

/// Largest world whose pair FIFOs live in a dense `world²` table
/// (8 bytes a pair, 128 MiB of address space at the bound, resident only
/// where used). Larger worlds keep just the pairs with queued operations
/// in a hash map. The table wins wherever an algorithm keeps many pairs
/// queued at once (scatter-destination alltoall queues p²/2), and up to
/// 4096 ranks it wins over all the algorithms of a collective in both
/// time and peak memory; DESIGN.md §6.9 has the measurements.
const DENSE_WORLD: u32 = 4096;

/// Every directed pair's FIFO.
#[derive(Debug)]
enum Pairs {
    Dense { world: usize, table: Vec<Fifo> },
    Sparse(PairMap<Fifo>),
}

#[derive(Debug, Clone, Default)]
struct RankState {
    /// The last completed step's Complete value; while a step is open,
    /// the running max over its Complete node's inputs.
    dp: Dp,
    /// What completing the open step adds.
    on_complete: Dp,
    /// Unmatched receives of the open step (0: no step is open).
    waiting: u32,
    /// Steps emitted behind the open one, not yet posted.
    backlog: VecDeque<Vec<Op>>,
}

/// A free-listed store whose handles are never [`NIL`].
#[derive(Debug, Default)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T: Default> Slab<T> {
    fn insert(&mut self, item: T) -> u32 {
        if let Some(id) = self.free.pop() {
            self.items[id as usize] = item;
            return id;
        }
        if self.items.is_empty() {
            self.items.push(T::default());
        }
        self.items.push(item);
        self.items.len() as u32 - 1
    }
}

/// Queued operations, and the Post values their sends carry.
#[derive(Debug)]
struct Arena {
    pairs: Pairs,
    pending: Slab<Pending>,
    /// Queued operations in all FIFOs.
    live: usize,
    /// Post values of steps with queued sends, and how many queued sends
    /// still refer to each.
    posts: Slab<(Dp, u32)>,
}

impl Arena {
    fn new(world: u32) -> Self {
        let pairs = if world <= DENSE_WORLD {
            let world = world as usize;
            Pairs::Dense {
                world,
                table: vec![[NIL; 2]; world * world],
            }
        } else {
            Pairs::Sparse(PairMap::default())
        };
        Arena {
            pairs,
            pending: Slab::default(),
            live: 0,
            posts: Slab::default(),
        }
    }

    /// Match an operation against the FIFO of the directed pair
    /// (`from`, `to`): pop the oldest queued operation of the other kind
    /// (a receive for a send, a send for a receive), or queue `op`
    /// behind its own kind.
    fn exchange(&mut self, from: u32, to: u32, op: Pending) -> Option<Pending> {
        let pending = &mut self.pending;
        let matched = match &mut self.pairs {
            Pairs::Dense { world, table } => fifo(
                pending,
                &mut table[from as usize * *world + to as usize],
                op,
            ),
            Pairs::Sparse(map) => match map.entry(pair_key(from, to)) {
                Entry::Occupied(mut e) => {
                    let matched = fifo(pending, e.get_mut(), op);
                    if e.get()[0] == NIL {
                        e.remove();
                    }
                    matched
                }
                Entry::Vacant(e) => fifo(pending, e.insert([NIL; 2]), op),
            },
        };
        if matched.is_some() {
            self.live -= 1;
        } else {
            self.live += 1;
        }
        matched
    }

    /// A queued send's Post value, releasing the send's reference.
    fn take_post(&mut self, id: u32) -> Dp {
        let slot = &mut self.posts.items[id as usize];
        slot.1 -= 1;
        if slot.1 == 0 {
            self.posts.free.push(id);
        }
        slot.0
    }
}

/// [`Arena::exchange`] on one pair's FIFO.
fn fifo(pending: &mut Slab<Pending>, fifo: &mut Fifo, op: Pending) -> Option<Pending> {
    let [head, tail] = *fifo;
    if head != NIL {
        let first = pending.items[head as usize];
        if (first.post == NIL) != (op.post == NIL) {
            pending.free.push(head);
            fifo[0] = first.next;
            return Some(first);
        }
    }
    let id = pending.insert(op);
    if head == NIL {
        *fifo = [id, id];
    } else {
        pending.items[tail as usize].next = id;
        fifo[1] = id;
    }
    None
}

/// A [`ScheduleSink`] that folds the steps of one schedule on one
/// [`JobLayout`] into its [`CostPoly`].
#[derive(Debug)]
pub struct CostSink {
    layout: JobLayout,
    geometry: Geometry,
    /// Node of each rank.
    node: Vec<u32>,
    ranks: Vec<RankState>,
    arena: Arena,
    nic_tx: Vec<u64>,
    nic_rx: Vec<u64>,
    /// Ranks whose open step just received its last message.
    ready: Vec<u32>,
    /// Reused op buffer for the step being emitted.
    scratch: Vec<Op>,
    /// Set by the first defect met; the rest of the stream is ignored.
    failed: bool,
}

impl CostSink {
    pub fn new(layout: JobLayout) -> Self {
        CostSink {
            layout,
            geometry: Geometry::default(),
            node: Vec::new(),
            ranks: Vec::new(),
            arena: Arena::new(0),
            nic_tx: Vec::new(),
            nic_rx: Vec::new(),
            ready: Vec::new(),
            scratch: Vec::new(),
            failed: false,
        }
    }

    /// The polynomial of everything emitted, or `None` if the stream is
    /// defective (a structural or size defect, an operation left
    /// unmatched, a step never completed) or was not for this layout.
    /// [`super::extract_poly`] on the same schedule names the defect.
    pub fn finish(self) -> Option<CostPoly> {
        if self.failed || self.geometry.world != self.layout.world_size() || self.arena.live > 0 {
            return None;
        }
        let mut max = [0u64; METRICS];
        for st in &self.ranks {
            dp_max(&mut max, &st.dp);
        }
        let nic_bytes = self.nic_tx.iter().chain(&self.nic_rx).copied().max();
        Some(poly_of(&max, nic_bytes.unwrap_or(0)))
    }

    /// Check one emitted step and post it, or queue it behind its rank's
    /// open step.
    fn push(&mut self, rank: u32, ops: &[Op]) {
        let Some(st) = self.ranks.get_mut(rank as usize) else {
            self.failed = true;
            return;
        };
        // Only the rank of the site matters here; extraction reports it.
        let at = OpRef {
            rank,
            step: 0,
            op: 0,
        };
        if ops
            .iter()
            .any(|op| check_op(op, at, &self.geometry).is_err())
        {
            self.failed = true;
            return;
        }
        if st.waiting > 0 {
            st.backlog.push_back(ops.to_vec());
            return;
        }
        self.post(rank, ops);
        while !self.failed {
            let Some(r) = self.ready.pop() else {
                break;
            };
            let st = &mut self.ranks[r as usize];
            dp_add(&mut st.dp, &st.on_complete);
            while !self.failed && self.ranks[r as usize].waiting == 0 {
                let Some(ops) = self.ranks[r as usize].backlog.pop_front() else {
                    break;
                };
                self.post(r, &ops);
            }
        }
    }

    /// Post `rank`'s next step: charge it, offer its sends to waiting
    /// receives, match its receives against queued sends, and complete it
    /// at once if nothing is missing.
    fn post(&mut self, rank: u32, ops: &[Op]) {
        let me = self.node[rank as usize];
        let node = &self.node;
        let [on_post, on_complete] = step_weights(ops, |peer| node[peer as usize] == me);
        let mut value = self.ranks[rank as usize].dp;
        dp_add(&mut value, &on_post);
        // The step's Post value, kept while any of its sends is queued.
        let post = self.arena.posts.insert((value, 0));
        for op in ops {
            let Op::Send { to, region, .. } = *op else {
                continue;
            };
            if self.node[to as usize] != me {
                self.nic_tx[me as usize] += region.len as u64;
            }
            let send = Pending {
                len: region.len,
                post,
                next: NIL,
            };
            let Some(recv) = self.arena.exchange(rank, to, send) else {
                self.arena.posts.items[post as usize].1 += 1;
                continue;
            };
            if recv.len != region.len {
                self.failed = true;
                return;
            }
            let peer = &mut self.ranks[to as usize];
            dp_max(&mut peer.dp, &value);
            peer.waiting -= 1;
            if peer.waiting == 0 {
                self.ready.push(to);
            }
        }
        if self.arena.posts.items[post as usize].1 == 0 {
            self.arena.posts.free.push(post);
        }
        let mut waiting = 0u32;
        for op in ops {
            let Op::Recv { from, region, .. } = *op else {
                continue;
            };
            if self.node[from as usize] != me {
                self.nic_rx[me as usize] += region.len as u64;
            }
            let recv = Pending {
                len: region.len,
                post: NIL,
                next: NIL,
            };
            let Some(send) = self.arena.exchange(from, rank, recv) else {
                waiting += 1;
                continue;
            };
            if send.len != region.len {
                self.failed = true;
                return;
            }
            let sent = self.arena.take_post(send.post);
            dp_max(&mut value, &sent);
        }
        let st = &mut self.ranks[rank as usize];
        st.dp = value;
        st.waiting = waiting;
        if waiting == 0 {
            dp_add(&mut st.dp, &on_complete);
        } else {
            st.on_complete = on_complete;
        }
    }
}

impl ScheduleSink for CostSink {
    fn begin(&mut self, geometry: Geometry) {
        *self = CostSink::new(self.layout);
        self.geometry = geometry;
        if geometry.world != self.layout.world_size() {
            self.failed = true;
            return;
        }
        self.node = (0..geometry.world)
            .map(|r| self.layout.node_of(r))
            .collect();
        self.ranks = vec![RankState::default(); geometry.world as usize];
        self.arena = Arena::new(geometry.world);
        self.nic_tx = vec![0; self.layout.nodes as usize];
        self.nic_rx = vec![0; self.layout.nodes as usize];
    }

    fn step(&mut self, rank: u32, f: impl FnOnce(&mut StepBuilder<'_>)) {
        if self.failed {
            return;
        }
        let mut ops = std::mem::take(&mut self.scratch);
        ops.clear();
        f(&mut StepBuilder::new(&mut ops));
        if !ops.is_empty() {
            self.push(rank, &ops);
        }
        self.scratch = ops;
    }
}
