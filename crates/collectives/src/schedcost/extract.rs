//! Polynomial extraction: a componentwise longest-path walk over the
//! schedcheck Post/Complete graph.
//!
//! Every metric (rounds, bytes, reduction bytes, …) is maximized
//! *independently* along paths, so the result is an upper bound on any
//! single execution path — exact for the symmetric algorithms the
//! registry ships, where one rank's chain is the critical path for every
//! metric at once. Costs are charged receiver-side, mirroring the
//! virtual-time executor's accounting: a phase that completes receives
//! pays one latency term per traffic class (net or shm by the layout)
//! plus its payload bytes, every message beyond the first in a phase is
//! a marginal per-message term, and a posted `Copy`/`Combine` is
//! pack/reduction bytes. Matched ping and fan-in probes then fit α and
//! the marginal cost to exactly those terms end to end (see
//! [`super::fit_params`]), which is what makes the polynomial's units
//! line up with the simulator's.

use super::{dp_add, dp_max, poly_of, step_weights, CostError, CostPoly, Dp, METRICS};
use crate::schedcheck::{self, Phase, SchedError, ScheduleDoc, SCHED_DOC_VERSION};
use crate::schedule::CommSchedule;
use pml_simnet::JobLayout;

/// Extract the symbolic cost polynomial of `schedule` on `layout`
/// without executing it.
///
/// The schedule is structurally verified first (typed errors, never
/// panics on corrupted input), its messages FIFO-matched, and the
/// Post/Complete graph topologically ordered — the same machinery
/// schedcheck's dataflow verifier runs on. The walk itself is linear in
/// the schedule size.
///
/// This is the reference oracle: registered algorithms reach the same
/// polynomial through [`super::stream_poly`] without building the IR,
/// and on-disk documents come through [`doc_cost`].
pub fn extract_poly(schedule: &CommSchedule, layout: JobLayout) -> Result<CostPoly, CostError> {
    schedcheck::structural(schedule)?;
    if schedule.world != layout.world_size() {
        return Err(CostError::LayoutMismatch {
            schedule_world: schedule.world,
            layout_world: layout.world_size(),
        });
    }
    let msgs = schedcheck::match_messages(schedule)?;
    let order = schedcheck::topo_order(schedule, &msgs)?;

    // Dense node ids, same scheme as the topo sort: 2·(steps before
    // rank + step) + phase.
    let mut base = vec![0usize; schedule.ranks.len() + 1];
    for (r, prog) in schedule.ranks.iter().enumerate() {
        base[r + 1] = base[r] + prog.len();
    }
    let n = 2 * base[schedule.ranks.len()];
    let node_id = |rank: u32, step: usize, phase: Phase| -> usize {
        2 * (base[rank as usize] + step) + matches!(phase, Phase::Complete) as usize
    };

    // Cross-rank dependency edges (sender Post → receiver Complete),
    // bucketed per Complete node in compressed form (count, prefix-sum,
    // fill), plus the NIC tx/rx byte ledgers for the contention term.
    let mut cursor = vec![0u32; n + 1];
    for (_, rcv) in &msgs.pairs {
        cursor[node_id(rcv.at.rank, rcv.at.step, Phase::Complete) + 1] += 1;
    }
    for i in 0..n {
        cursor[i + 1] += cursor[i];
    }
    let off = cursor.clone();
    let mut preds = vec![0u32; off[n] as usize];
    let mut nic_tx = vec![0u64; layout.nodes as usize];
    let mut nic_rx = vec![0u64; layout.nodes as usize];
    for (snd, rcv) in &msgs.pairs {
        let id = node_id(rcv.at.rank, rcv.at.step, Phase::Complete);
        preds[cursor[id] as usize] = node_id(snd.at.rank, snd.at.step, Phase::Post) as u32;
        cursor[id] += 1;
        if !layout.same_node(snd.at.rank, rcv.at.rank) {
            nic_tx[layout.node_of(snd.at.rank) as usize] += snd.region.len as u64;
            nic_rx[layout.node_of(rcv.at.rank) as usize] += rcv.region.len as u64;
        }
    }

    // Componentwise longest path in topological order. A node's value is
    // the max over its predecessors plus its own weight; receiver-side
    // weights live on Complete nodes, local-op weights on Post nodes.
    let mut dp: Vec<Dp> = vec![[0u64; METRICS]; n];
    for sr in &order {
        let ops = &schedule.ranks[sr.rank as usize][sr.step].ops;
        let mut acc = match sr.phase {
            Phase::Post if sr.step > 0 => dp[node_id(sr.rank, sr.step - 1, Phase::Complete)],
            Phase::Post => [0u64; METRICS],
            Phase::Complete => dp[node_id(sr.rank, sr.step, Phase::Post)],
        };
        let id = node_id(sr.rank, sr.step, sr.phase);
        if sr.phase == Phase::Complete {
            for &p in &preds[off[id] as usize..off[id + 1] as usize] {
                dp_max(&mut acc, &dp[p as usize]);
            }
        }
        let [post, done] = step_weights(ops, |peer| layout.same_node(peer, sr.rank));
        dp_add(
            &mut acc,
            if sr.phase == Phase::Post {
                &post
            } else {
                &done
            },
        );
        dp[id] = acc;
    }

    let mut max = [0u64; METRICS];
    for v in &dp {
        dp_max(&mut max, v);
    }
    let nic_bytes = nic_tx
        .iter()
        .chain(nic_rx.iter())
        .copied()
        .max()
        .unwrap_or(0);
    Ok(poly_of(&max, nic_bytes))
}

/// Extract the cost polynomial of an on-disk schedule document,
/// rejecting unknown versions and world/layout disagreements before
/// touching the schedule body — a corrupted `pml-sched/v1` file yields a
/// typed [`CostError`], never a panic.
pub fn doc_cost(doc: &ScheduleDoc, layout: JobLayout) -> Result<CostPoly, CostError> {
    if doc.v != SCHED_DOC_VERSION {
        return Err(CostError::Sched(SchedError::BadDocVersion {
            got: doc.v.clone(),
        }));
    }
    extract_poly(&doc.schedule, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{Algorithm, AllgatherAlgo, AllreduceAlgo};
    use crate::schedule::{Geometry, Region, ScheduleBuilder};

    fn ring(p: u32, b: usize) -> CommSchedule {
        Algorithm::Allgather(AllgatherAlgo::Ring)
            .schedule(p, b)
            .unwrap()
    }

    #[test]
    fn ring_allgather_has_p_minus_1_rounds_and_bytes() {
        let p = 6u32;
        let b = 16usize;
        // All ranks on one node: pure shm.
        let poly = extract_poly(&ring(p, b), JobLayout::new(1, p)).unwrap();
        assert_eq!(poly.net_rounds, 0);
        assert_eq!(poly.shm_rounds, (p - 1) as u64);
        assert_eq!(poly.shm_bytes, ((p - 1) as usize * b) as u64);
        assert_eq!(poly.nic_bytes, 0);
        // One rank per node: pure net, same shape.
        let poly = extract_poly(&ring(p, b), JobLayout::new(p, 1)).unwrap();
        assert_eq!(poly.net_rounds, (p - 1) as u64);
        assert_eq!(poly.shm_rounds, 0);
        assert_eq!(poly.net_bytes, ((p - 1) as usize * b) as u64);
        // Each node sends and receives one block per round.
        assert_eq!(poly.nic_bytes, ((p - 1) as usize * b) as u64);
    }

    #[test]
    fn mixed_layout_splits_net_and_shm() {
        // Metrics are maximized independently: on a (3, 2) layout the
        // ring has a rank whose every receive crosses nodes (p−1 net
        // rounds) and a rank whose every receive stays local (p−1 shm
        // rounds). Each bound is tight for its own metric.
        let p = 6u32;
        let poly = extract_poly(&ring(p, 8), JobLayout::new(3, 2)).unwrap();
        assert_eq!(poly.net_rounds, (p - 1) as u64);
        assert_eq!(poly.shm_rounds, (p - 1) as u64);
    }

    #[test]
    fn recursive_doubling_has_log_p_rounds() {
        let p = 8u32;
        let sch = Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling)
            .schedule(p, 4)
            .unwrap();
        let poly = extract_poly(&sch, JobLayout::new(p, 1)).unwrap();
        assert_eq!(poly.net_rounds, 3); // log2(8)
        assert_eq!(poly.net_bytes, (7 * 4) as u64); // (p-1)·b received in total
    }

    #[test]
    fn allreduce_paths_carry_reduction_bytes() {
        let sch = Algorithm::Allreduce(AllreduceAlgo::RecursiveDoubling)
            .schedule(8, 64)
            .unwrap();
        let poly = extract_poly(&sch, JobLayout::new(2, 4)).unwrap();
        assert!(poly.reduce_bytes > 0, "{poly}");
    }

    #[test]
    fn unit_block_polynomial_scales_linearly() {
        // Scale invariance: the coefficients at block b are exactly b
        // times the coefficients at block 1 (rounds unchanged).
        let layout = JobLayout::new(3, 2);
        let unit = extract_poly(&ring(6, 1), layout).unwrap();
        let big = extract_poly(&ring(6, 512), layout).unwrap();
        assert_eq!(big.net_rounds, unit.net_rounds);
        assert_eq!(big.shm_rounds, unit.shm_rounds);
        assert_eq!(big.net_bytes, 512 * unit.net_bytes);
        assert_eq!(big.shm_bytes, 512 * unit.shm_bytes);
        assert_eq!(big.nic_bytes, 512 * unit.nic_bytes);
        assert_eq!(big.net_msgs, unit.net_msgs);
        assert_eq!(big.shm_msgs, unit.shm_msgs);
    }

    #[test]
    fn layout_mismatch_is_typed() {
        let err = extract_poly(&ring(6, 8), JobLayout::new(2, 2)).unwrap_err();
        assert!(
            matches!(
                err,
                CostError::LayoutMismatch {
                    schedule_world: 6,
                    layout_world: 4
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn corrupt_world_is_typed_not_a_panic() {
        let mut sch = ring(4, 8);
        sch.world = 9;
        let err = extract_poly(&sch, JobLayout::new(9, 1)).unwrap_err();
        assert!(
            matches!(err, CostError::Sched(SchedError::WorldMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn fan_in_contention_exceeds_path_bytes() {
        // p−1 ranks each send one block to rank 0 — the path sees p−1
        // blocks at the receiver, and so does its NIC; but the senders'
        // NICs see one block each. Compare with a ring where every NIC
        // carries the full p−1 blocks.
        let p = 8u32;
        let b = 32usize;
        let mut sb = ScheduleBuilder::new(Geometry::new(p, b, b, (p - 1) as usize * b, 0));
        for r in 1..p {
            sb.step(r, |s| s.send(0, Region::input(0, b)));
        }
        sb.step(0, |s| {
            for r in 1..p {
                s.recv(r, Region::work((r - 1) as usize * b, b));
            }
        });
        let poly = extract_poly(&sb.finish(), JobLayout::new(p, 1)).unwrap();
        // One completing phase → one latency round, the other p−2
        // receives are marginal messages.
        assert_eq!(poly.net_rounds, 1);
        assert_eq!(poly.net_msgs, (p - 2) as u64);
        assert_eq!(poly.nic_bytes, ((p - 1) as usize * b) as u64);
        assert_eq!(poly.net_bytes, poly.nic_bytes);
    }

    #[test]
    fn doc_cost_rejects_bad_version() {
        let sch = ring(4, 8);
        let mut doc = ScheduleDoc::new(crate::Collective::Allgather, 8, sch);
        doc.v = "pml-sched/v0".into();
        let err = doc_cost(&doc, JobLayout::new(4, 1)).unwrap_err();
        assert!(
            matches!(err, CostError::Sched(SchedError::BadDocVersion { .. })),
            "{err:?}"
        );
    }
}
