//! Differential test: cost polynomials streamed from the schedule
//! generators ([`CostSink`], the production path behind `poly_for`)
//! equal the reference extraction over the built IR ([`extract_poly`])
//! for every registered algorithm, and the sink rejects defective step
//! streams, whose typed errors then come from extraction.
//!
//! The large-world lane (every Frontera and MRI layout, up to 1024
//! ranks) is `#[ignore]`d; `cargo xtask verify-costs` runs it in release:
//! `cargo test --release --test schedcost_stream -- --ignored`.

use pml_mpi::clusters::by_name;
use pml_mpi::collectives::schedcheck::{SchedError, StepRef};
use pml_mpi::collectives::schedcost::{extract_poly, poly_for, CostError, CostPoly, CostSink};
use pml_mpi::collectives::schedule::{Geometry, Op, Region, ScheduleBuilder, ScheduleSink};
use pml_mpi::collectives::{
    Algorithm, AllgatherAlgo, AllreduceAlgo, BcastAlgo, Collective, CommSchedule,
};
use pml_mpi::simnet::JobLayout;

fn oracle(algo: Algorithm, layout: JobLayout, block: usize) -> CostPoly {
    let schedule = algo.schedule(layout.world_size(), block).unwrap();
    extract_poly(&schedule, layout).unwrap()
}

fn assert_stream_matches(algo: Algorithm, layout: JobLayout, block: usize) {
    let mut sink = CostSink::new(layout);
    algo.emit(layout.world_size(), block, &mut sink).unwrap();
    let streamed = sink
        .finish()
        .unwrap_or_else(|| panic!("sink rejected {algo} on {layout:?} block {block}"));
    assert_eq!(
        streamed,
        oracle(algo, layout, block),
        "{algo} on {layout:?} block {block}"
    );
}

fn extract_errors() -> u64 {
    let snap = pml_mpi::obs::metrics::snapshot();
    snap.counters
        .get("schedcost.extract_errors")
        .copied()
        .unwrap_or(0)
}

#[test]
fn stream_equals_oracle_on_every_small_layout() {
    let mut cells = 0;
    for world in 1..=48u32 {
        for ppn in (1..=world).filter(|ppn| world.is_multiple_of(*ppn)) {
            let layout = JobLayout::new(world / ppn, ppn);
            for c in Collective::ALL {
                for algo in Algorithm::applicable_for(c, world) {
                    // 1000 is not a multiple of most worlds: the chunked
                    // bcast/allreduce variants get ragged chunks.
                    for block in [1, 1000] {
                        assert_stream_matches(algo, layout, block);
                        cells += 1;
                    }
                    // The cached production path agrees as well (it keys
                    // scale-invariant algorithms at unit block).
                    let key_block = if algo.scale_invariant() { 1 } else { 1000 };
                    assert_eq!(
                        poly_for(algo, layout, 1000),
                        Some(oracle(algo, layout, key_block)),
                        "poly_for {algo} on {layout:?}"
                    );
                }
            }
        }
    }
    assert!(cells > 4500, "grid unexpectedly small: {cells}");
    assert_eq!(extract_errors(), 0, "schedcost.extract_errors");
}

#[test]
fn hashed_pair_fifos_beyond_the_dense_bound_agree() {
    // Above 4096 ranks the sink hashes its pair FIFOs instead of
    // indexing a dense table; the p·log p algorithms keep this cheap.
    let layout = JobLayout::new(128, 64);
    for algo in [
        Algorithm::Allgather(AllgatherAlgo::Bruck),
        Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling),
        Algorithm::Bcast(BcastAlgo::Binomial),
        Algorithm::Allreduce(AllreduceAlgo::ReduceBroadcast),
    ] {
        assert_stream_matches(algo, layout, 1);
    }
}

/// Replay a built schedule into `sink` one whole rank at a time, last
/// rank first — an emission order far from topological, so most steps
/// wait in backlogs before they can post.
fn replay_reversed(schedule: &CommSchedule, sink: &mut impl ScheduleSink) {
    sink.begin(schedule.geometry());
    for (rank, prog) in schedule.ranks.iter().enumerate().rev() {
        for step in prog {
            sink.step(rank as u32, |s| {
                for op in &step.ops {
                    match *op {
                        Op::Send { to, region, .. } => s.send(to, region),
                        Op::Recv { from, region, .. } => s.recv(from, region),
                        Op::Copy { src, dst } => s.copy(src, dst),
                        Op::Combine { src, dst } => s.combine(src, dst),
                    }
                }
            });
        }
    }
}

#[test]
fn any_emission_order_gives_the_same_polynomial() {
    let layout = JobLayout::new(3, 4);
    for c in Collective::ALL {
        for algo in Algorithm::applicable_for(c, 12) {
            let schedule = algo.schedule(12, 100).unwrap();
            let mut sink = CostSink::new(layout);
            replay_reversed(&schedule, &mut sink);
            assert_eq!(
                sink.finish(),
                Some(extract_poly(&schedule, layout).unwrap()),
                "{algo}"
            );
        }
    }
}

/// Run one hand-built defective step stream through both sinks: the
/// cost sink must reject it, and extraction over the IR the builder
/// makes of it names the defect.
fn rejected(emit: impl Fn(&mut dyn FnMut(u32, &[Act]))) -> CostError {
    fn run<S: ScheduleSink>(sink: &mut S, emit: &impl Fn(&mut dyn FnMut(u32, &[Act]))) {
        sink.begin(Geometry::new(2, 8, 8, 16, 0));
        emit(&mut |rank: u32, acts: &[Act]| {
            sink.step(rank, |s| {
                for act in acts {
                    match *act {
                        Act::Send(to, r) => s.send(to, r),
                        Act::Recv(from, r) => s.recv(from, r),
                    }
                }
            })
        });
    }
    let layout = JobLayout::new(2, 1);
    let mut sink = CostSink::new(layout);
    run(&mut sink, &emit);
    assert_eq!(sink.finish(), None, "the sink accepted a defective stream");
    let mut builder = ScheduleBuilder::default();
    run(&mut builder, &emit);
    extract_poly(&builder.finish(), layout).unwrap_err()
}

#[derive(Clone, Copy)]
enum Act {
    Send(u32, Region),
    Recv(u32, Region),
}

const IN: Region = Region {
    buf: pml_mpi::collectives::Buf::Input,
    offset: 0,
    len: 8,
};

fn work(offset: usize, len: usize) -> Region {
    Region::work(offset, len)
}

#[test]
fn dropped_receive_is_an_unmatched_send() {
    let e = rejected(|step| {
        step(0, &[Act::Send(1, IN), Act::Send(1, IN)]);
        step(1, &[Act::Recv(0, work(0, 8))]);
    });
    assert!(
        matches!(
            e,
            CostError::Sched(SchedError::UnmatchedSend { to: 1, tag: 1, .. })
        ),
        "{e:?}"
    );
}

#[test]
fn dropped_send_is_an_unmatched_receive() {
    let e = rejected(|step| {
        step(0, &[Act::Send(1, IN)]);
        step(1, &[Act::Recv(0, work(0, 8)), Act::Recv(0, work(8, 8))]);
    });
    assert!(
        matches!(
            e,
            CostError::Sched(SchedError::UnmatchedRecv {
                from: 0,
                tag: 1,
                ..
            })
        ),
        "{e:?}"
    );
}

#[test]
fn size_mismatch_is_typed() {
    let e = rejected(|step| {
        step(0, &[Act::Send(1, IN)]);
        step(1, &[Act::Recv(0, work(0, 4))]);
    });
    let want = CostError::Sched(SchedError::MessageSizeMismatch {
        src: 0,
        dst: 1,
        tag: 0,
        send_len: 8,
        recv_len: 4,
    });
    assert_eq!(e, want);
}

#[test]
fn send_recv_cycle_is_a_deadlock_with_a_witness() {
    // Both ranks receive before they send: neither first step can ever
    // complete.
    let e = rejected(|step| {
        for (rank, peer) in [(0, 1), (1, 0)] {
            step(rank, &[Act::Recv(peer, work(0, 8))]);
            step(rank, &[Act::Send(peer, IN)]);
        }
    });
    let CostError::Sched(SchedError::Deadlock { cycle }) = e else {
        panic!("expected a deadlock, got {e:?}");
    };
    assert!(cycle.len() >= 4, "{cycle:?}");
    for rank in [0, 1] {
        assert!(cycle.iter().any(|n: &StepRef| n.rank == rank), "{cycle:?}");
    }
}

#[test]
fn structural_defects_are_typed() {
    let e = rejected(|step| {
        step(0, &[Act::Send(0, IN)]);
    });
    assert!(
        matches!(e, CostError::Sched(SchedError::BadPeer { peer: 0, .. })),
        "{e:?}"
    );
    let e = rejected(|step| {
        step(0, &[Act::Send(1, IN)]);
        step(1, &[Act::Recv(0, IN)]);
    });
    assert!(
        matches!(e, CostError::Sched(SchedError::ReadOnlyInputWrite { .. })),
        "{e:?}"
    );
    let e = rejected(|step| {
        step(0, &[Act::Send(1, IN)]);
        step(1, &[Act::Recv(0, work(12, 8))]);
    });
    assert!(
        matches!(e, CostError::Sched(SchedError::RegionOutOfBounds { .. })),
        "{e:?}"
    );
}

#[test]
fn layout_mismatch_is_rejected() {
    let algo = Algorithm::applicable_for(Collective::Allgather, 6)[0];
    let layout = JobLayout::new(2, 2);
    let mut sink = CostSink::new(layout);
    algo.emit(6, 8, &mut sink).unwrap();
    assert_eq!(sink.finish(), None);
    assert_eq!(
        extract_poly(&algo.schedule(6, 8).unwrap(), layout).unwrap_err(),
        CostError::LayoutMismatch {
            schedule_world: 6,
            layout_world: 4
        }
    );
}

/// Every Frontera and MRI deploy layout (up to 896 and 1024 ranks) ×
/// every applicable allgather/alltoall algorithm at unit block.
#[test]
#[ignore = "large worlds: run in release via `cargo xtask verify-costs`"]
fn stream_equals_oracle_on_every_deploy_layout() {
    let mut cells = 0;
    for cluster in ["Frontera", "MRI"] {
        let entry = by_name(cluster).unwrap();
        for &nodes in &entry.node_grid {
            for &ppn in &entry.ppn_grid {
                let layout = JobLayout::new(nodes, ppn);
                for c in Collective::PAPER {
                    for algo in Algorithm::applicable_for(c, layout.world_size()) {
                        assert_stream_matches(algo, layout, 1);
                        cells += 1;
                    }
                }
            }
        }
    }
    assert!(cells > 500, "grid unexpectedly small: {cells}");
    assert_eq!(extract_errors(), 0, "schedcost.extract_errors");
}
