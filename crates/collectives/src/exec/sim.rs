//! Virtual-time executor.
//!
//! Walks a [`CommSchedule`] against a [`CostModel`], producing the modelled
//! runtime of the collective on the described hardware. The execution model:
//!
//! * each rank has a local clock advancing through its steps;
//! * a step's copies run first (memory-system cost), then its sends are
//!   posted (per-message CPU cost each; eager sends detach, rendezvous-sized
//!   sends hold the rank until the payload clears its NIC), then its
//!   receives complete in arrival order (per-message CPU cost each);
//! * inter-node messages serialize through the sender's NIC TX engine and
//!   the receiver's NIC RX engine (cut-through, one wire-time end to end
//!   when uncontended) with the fabric latency in between — this is where
//!   algorithms that flood the NIC (Scatter-Dest at scale) pay, and where
//!   high PPN causes injection contention;
//! * intra-node messages go through the memory system at the L3/DRAM-share
//!   bandwidth from the cost model.
//!
//! Steps are processed in start-time order from a priority queue, so results
//! are deterministic. Because sends never wait on receivers, any schedule
//! that passes [`CommSchedule::validate`] terminates.

use crate::schedule::{CommSchedule, Op};
use pml_simnet::{CostModel, JobLayout};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-xor hasher: the sim's hot maps are keyed by dense
/// integer message ids, where SipHash costs more than the rest of the
/// event loop.
#[derive(Debug, Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        // Fold the high bits down: hashbrown derives bucket indices from
        // the hash's low bits, and a bare multiply leaves them determined
        // by the key's low bits alone — message keys that differ only in
        // src/dst (high bits) would otherwise cluster into few buckets.
        let h = self.0;
        h ^ (h >> 29) ^ (h >> 47)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517cc1b727220a95);
    }
}

type FxMap<V> = HashMap<u64, V, BuildHasherDefault<FxHasher>>;

/// Message key: (src, dst, tag) packed into 64 bits. World sizes and
/// per-pair tag counts far exceed anything the zoo generates.
fn msg_key(src: u32, dst: u32, tag: u32) -> u64 {
    debug_assert!(src < (1 << 21) && dst < (1 << 21) && tag < (1 << 22));
    ((src as u64) << 43) | ((dst as u64) << 22) | tag as u64
}

/// Outcome of one simulated collective execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Completion time of the slowest rank, seconds.
    pub time_s: f64,
    /// Per-rank completion times.
    pub per_rank_end: Vec<f64>,
    /// Total bytes that crossed the fabric (inter-node only).
    pub wire_bytes: u64,
    /// Total messages (inter- plus intra-node).
    pub messages: u64,
}

/// Heap key ordered by (time, rank): deterministic pops.
#[derive(PartialEq)]
struct StartEvent {
    time: f64,
    rank: u32,
    step: usize,
}

impl Eq for StartEvent {}

impl PartialOrd for StartEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StartEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.rank.cmp(&other.rank))
            .then(self.step.cmp(&other.step))
    }
}

/// Per-(rank, step) bookkeeping while in flight. Most steps have at most
/// two receives (all the p-round algorithms have exactly one), so arrivals
/// are stored inline and only spill to the heap for wait-all steps like
/// Scatter-Dest's.
#[derive(Default, Clone)]
struct StepState {
    started: bool,
    /// Completion floor from posting (copies + send CPU) and from
    /// rendezvous-send wire drain.
    local_floor: f64,
    post_end: f64,
    /// Receives not yet matched to an arrival.
    missing_recvs: usize,
    /// (arrival time, completion CPU cost) of matched receives.
    n_inline: u8,
    inline: [(f64, f64); 2],
    overflow: Vec<(f64, f64)>,
}

impl StepState {
    #[inline]
    fn push_arrival(&mut self, a: (f64, f64)) {
        if (self.n_inline as usize) < self.inline.len() {
            self.inline[self.n_inline as usize] = a;
            self.n_inline += 1;
        } else {
            self.overflow.push(a);
        }
    }

    /// Completion time of the wait-all over the registered receives,
    /// starting from `post_end`: receives complete in arrival order, each
    /// charging its CPU cost.
    fn recv_completion(&mut self) -> f64 {
        let mut tc = self.post_end;
        if self.overflow.is_empty() {
            match self.n_inline {
                0 => {}
                1 => tc = tc.max(self.inline[0].0) + self.inline[0].1,
                _ => {
                    let (a, b) = (self.inline[0], self.inline[1]);
                    let (first, second) = if a.0 <= b.0 { (a, b) } else { (b, a) };
                    tc = tc.max(first.0) + first.1;
                    tc = tc.max(second.0) + second.1;
                }
            }
        } else {
            let mut all: Vec<(f64, f64)> = self.inline[..self.n_inline as usize].to_vec();
            all.append(&mut self.overflow);
            all.sort_by(|x, y| x.0.total_cmp(&y.0));
            for (a, cpu) in all {
                tc = tc.max(a) + cpu;
            }
        }
        tc
    }
}

/// Simulate one collective execution. `layout.world_size()` must equal the
/// schedule's world size.
pub fn run(schedule: &CommSchedule, layout: JobLayout, cost: &CostModel) -> SimResult {
    run_scaled(schedule, layout, cost, 1)
}

/// Simulate with every region length multiplied by `scale`.
///
/// Every generator in this crate produces schedules whose structure depends
/// only on the world size — all offsets and lengths are multiples of the
/// block size. A schedule generated at `block = 1` therefore stands for the
/// whole message-size sweep: simulating it at `scale = msg` is exactly
/// equivalent to simulating `schedule(p, msg)`, and dataset generation
/// exploits that to build each schedule once per job shape instead of once
/// per grid cell.
pub fn run_scaled(
    schedule: &CommSchedule,
    layout: JobLayout,
    cost: &CostModel,
    scale: usize,
) -> SimResult {
    assert!(scale >= 1, "scale must be positive");
    assert_eq!(
        layout.world_size(),
        schedule.world,
        "layout world size must match schedule world size"
    );
    let world = schedule.world as usize;
    let nodes = layout.nodes as usize;

    // Message arrival registry: msg_key -> arrival time.
    let mut arrival: FxMap<f64> = FxMap::default();
    // Receives that were processed before their arrival was known:
    // msg_key -> (rank, step).
    let mut waiting: FxMap<(u32, usize)> = FxMap::default();

    let mut states: Vec<Vec<StepState>> = schedule
        .ranks
        .iter()
        .map(|prog| vec![StepState::default(); prog.len()])
        .collect();
    let mut rank_end = vec![0.0f64; world];

    let mut nic_tx = vec![0.0f64; nodes];
    let mut nic_rx = vec![0.0f64; nodes];

    let mut wire_bytes: u64 = 0;
    let mut messages: u64 = 0;

    let mut heap: BinaryHeap<Reverse<StartEvent>> = BinaryHeap::new();
    for r in 0..world {
        if !schedule.ranks[r].is_empty() {
            heap.push(Reverse(StartEvent {
                time: 0.0,
                rank: r as u32,
                step: 0,
            }));
        }
    }

    // Steps whose last arrival just landed and that may now complete.
    let mut completable: Vec<(u32, usize)> = Vec::new();

    while let Some(Reverse(ev)) = heap.pop() {
        let rank = ev.rank as usize;
        let step_idx = ev.step;
        let step = &schedule.ranks[rank][step_idx];
        let my_node = layout.node_of(ev.rank) as usize;

        let mut t = ev.time;
        // Phase 1: copies and reductions.
        for op in &step.ops {
            match op {
                Op::Copy { src, .. } => t += cost.copy_s(src.len * scale),
                Op::Combine { src, .. } => t += cost.combine_s(src.len * scale),
                _ => {}
            }
        }
        // Phase 2: sends.
        let mut local_floor = t;
        for op in &step.ops {
            if let Op::Send { to, tag, region } = op {
                let dst_node = layout.node_of(*to) as usize;
                t += if dst_node != my_node {
                    cost.per_msg_net_s()
                } else {
                    cost.per_msg_shm_s()
                };
                let ready = t;
                messages += 1;
                let len = region.len * scale;
                let (arr, sender_hold) = if dst_node != my_node {
                    wire_bytes += len as u64;
                    let wire = cost.net_serialize_s(len) + cost.nic_msg_occupancy_s();
                    let tx_start = ready.max(nic_tx[my_node]);
                    nic_tx[my_node] = tx_start + wire;
                    let rx_start = (tx_start + cost.net_alpha_s(len)).max(nic_rx[dst_node]);
                    nic_rx[dst_node] = rx_start + wire;
                    let arr = rx_start + wire;
                    let hold = if len >= cost.rendezvous_threshold() {
                        tx_start + wire
                    } else {
                        ready
                    };
                    (arr, hold)
                } else {
                    (ready + cost.intra_node_msg_s(len), ready)
                };
                local_floor = local_floor.max(sender_hold);
                let key = msg_key(ev.rank, *to, *tag);
                let recv_cpu = if dst_node != my_node {
                    cost.per_msg_net_s()
                } else {
                    cost.per_msg_shm_s()
                };
                arrival.insert(key, arr);
                if let Some(&(wr, ws)) = waiting.get(&key) {
                    waiting.remove(&key);
                    let st = &mut states[wr as usize][ws];
                    st.push_arrival((arr, recv_cpu));
                    st.missing_recvs -= 1;
                    if st.started && st.missing_recvs == 0 {
                        completable.push((wr, ws));
                    }
                }
            }
        }
        let post_end = t;

        // Phase 3: register receives.
        let st = &mut states[rank][step_idx];
        st.started = true;
        st.local_floor = local_floor.max(post_end);
        st.post_end = post_end;
        for op in &step.ops {
            if let Op::Recv { from, tag, .. } = op {
                let key = msg_key(*from, ev.rank, *tag);
                let recv_cpu = if layout.node_of(*from) as usize != my_node {
                    cost.per_msg_net_s()
                } else {
                    cost.per_msg_shm_s()
                };
                if let Some(&arr) = arrival.get(&key) {
                    st.push_arrival((arr, recv_cpu));
                } else {
                    st.missing_recvs += 1;
                    let prev = waiting.insert(key, (ev.rank, step_idx));
                    assert!(prev.is_none(), "two receives for one message {key:?}");
                }
            }
        }
        if st.missing_recvs == 0 {
            completable.push((ev.rank, step_idx));
        }

        // Finalize every step that became completable.
        while let Some((cr, cs)) = completable.pop() {
            let st = &mut states[cr as usize][cs];
            debug_assert!(st.started && st.missing_recvs == 0);
            let end = st.recv_completion().max(st.local_floor);
            rank_end[cr as usize] = rank_end[cr as usize].max(end);
            let next = cs + 1;
            if next < schedule.ranks[cr as usize].len() {
                heap.push(Reverse(StartEvent {
                    time: end,
                    rank: cr,
                    step: next,
                }));
            }
        }
    }

    for (r, prog) in schedule.ranks.iter().enumerate() {
        for (s, st) in states[r].iter().enumerate() {
            assert!(
                st.started && st.missing_recvs == 0,
                "rank {r} step {s} never completed (deadlock — schedule invalid); \
                 program has {} steps",
                prog.len()
            );
        }
    }

    let time_s = rank_end.iter().copied().fold(0.0, f64::max);
    SimResult {
        time_s,
        per_rank_end: rank_end,
        wire_bytes,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Geometry, Region, ScheduleBuilder};
    use pml_simnet::{CpuFamily, CpuSpec, HcaGeneration, InterconnectSpec, NodeSpec, PcieVersion};

    fn test_node() -> NodeSpec {
        NodeSpec {
            cpu: CpuSpec {
                model: "t".into(),
                family: CpuFamily::IntelXeon,
                max_clock_ghz: 2.7,
                l3_cache_mib: 38.5,
                mem_bw_gbs: 140.0,
                cores: 28,
                threads: 56,
                sockets: 2,
                numa_nodes: 2,
            },
            nic: InterconnectSpec::new(HcaGeneration::Edr, PcieVersion::Gen3),
        }
    }

    /// Two ranks exchanging one message each.
    fn exchange(bytes: usize) -> CommSchedule {
        let mut sb = ScheduleBuilder::new(Geometry::new(2, bytes, bytes, bytes, 0));
        for r in 0..2u32 {
            let peer = 1 - r;
            sb.step(r, |s| {
                s.send(peer, Region::input(0, bytes));
                s.recv(peer, Region::work(0, bytes));
            });
        }
        sb.finish()
    }

    #[test]
    fn inter_node_costs_more_than_intra_node() {
        let sch = exchange(4096);
        let cost = CostModel::new(test_node(), 2);
        let intra = run(&sch, JobLayout::new(1, 2), &cost);
        let cost1 = CostModel::new(test_node(), 1);
        let inter = run(&sch, JobLayout::new(2, 1), &cost1);
        assert!(
            inter.time_s > intra.time_s,
            "{} vs {}",
            inter.time_s,
            intra.time_s
        );
        assert_eq!(intra.wire_bytes, 0);
        assert_eq!(inter.wire_bytes, 2 * 4096);
    }

    #[test]
    fn time_monotone_in_message_size() {
        let cost = CostModel::new(test_node(), 1);
        let mut prev = 0.0;
        for log in [4usize, 8, 12, 16, 20] {
            let sch = exchange(1usize << log);
            let t = run(&sch, JobLayout::new(2, 1), &cost).time_s;
            assert!(t > prev, "size 2^{log}: {t} !> {prev}");
            prev = t;
        }
    }

    #[test]
    fn deterministic() {
        let sch = exchange(1 << 14);
        let cost = CostModel::new(test_node(), 1);
        let a = run(&sch, JobLayout::new(2, 1), &cost);
        let b = run(&sch, JobLayout::new(2, 1), &cost);
        assert_eq!(a, b);
    }

    #[test]
    fn nic_contention_serializes_concurrent_senders() {
        // Two ranks on node 0 each send a large message to ranks on node 1.
        let bytes = 1 << 20;
        let mut sb = ScheduleBuilder::new(Geometry::new(4, bytes, bytes, bytes, 0));
        sb.step(0, |s| s.send(2, Region::input(0, bytes)));
        sb.step(1, |s| s.send(3, Region::input(0, bytes)));
        sb.step(2, |s| s.recv(0, Region::work(0, bytes)));
        sb.step(3, |s| s.recv(1, Region::work(0, bytes)));
        let sch = sb.finish();
        sch.validate().unwrap();
        let cost = CostModel::new(test_node(), 2);
        let contended = run(&sch, JobLayout::new(2, 2), &cost);

        // Same transfer but only one sender on the node.
        let mut sb1 = ScheduleBuilder::new(Geometry::new(2, bytes, bytes, bytes, 0));
        sb1.step(0, |s| s.send(1, Region::input(0, bytes)));
        sb1.step(1, |s| s.recv(0, Region::work(0, bytes)));
        let sch1 = sb1.finish();
        let cost1 = CostModel::new(test_node(), 1);
        let solo = run(&sch1, JobLayout::new(2, 1), &cost1);

        // With two senders sharing the NIC, the later message needs roughly
        // twice the wire time.
        assert!(contended.time_s > 1.7 * solo.time_s);
    }

    #[test]
    fn empty_schedule_takes_zero_time() {
        let sb = ScheduleBuilder::new(Geometry::new(1, 8, 8, 8, 0));
        let sch = sb.finish();
        let cost = CostModel::new(test_node(), 1);
        let res = run(&sch, JobLayout::new(1, 1), &cost);
        assert_eq!(res.time_s, 0.0);
        assert_eq!(res.messages, 0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn missing_sender_detected() {
        let b = 8;
        let mut sb = ScheduleBuilder::new(Geometry::new(2, b, b, b, 0));
        sb.step(1, |s| s.recv(0, Region::work(0, b)));
        let sch = sb.finish();
        let cost = CostModel::new(test_node(), 1);
        run(&sch, JobLayout::new(1, 2), &cost);
    }
}
