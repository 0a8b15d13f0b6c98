//! Two-level (hierarchical) collectives — a working demonstration of the
//! paper's future-work direction ("collectives with more intricate
//! communication hierarchies", §IX).
//!
//! Flat algorithms see an unstructured rank set; two-level algorithms
//! exploit the node boundary: gather onto one leader per node through
//! shared memory, run the inter-node phase among leaders only (putting p/ppn
//! participants on the fabric instead of p), then fan the result back out
//! locally. Unlike the flat generators, these schedules depend on the
//! *job layout*, not just the world size.

use crate::schedule::{CommSchedule, Geometry, Region, ScheduleBuilder};
use pml_simnet::JobLayout;

/// Two-level allgather: intra-node gather → leader ring allgather →
/// intra-node broadcast.
///
/// Produces the standard allgather contract (every rank ends with all
/// `world` blocks in rank order), so it verifies against the same oracle
/// as the flat algorithms.
pub fn two_level_allgather(layout: JobLayout, block: usize) -> CommSchedule {
    let p = layout.world_size();
    let ppn = layout.ppn;
    let nodes = layout.nodes;
    let b = block;
    let pu = p as usize;
    let mut sb = ScheduleBuilder::new(Geometry::new(p, b, b, pu * b, 0));

    for r in 0..p {
        let node = layout.node_of(r);
        let leader = node * ppn;
        let node_off = (node * ppn) as usize * b; // this node's slab in Work

        if r == leader {
            // Phase 1: gather the node's blocks.
            sb.step(r, |s| {
                s.copy(Region::input(0, b), Region::work(r as usize * b, b));
                for peer in leader + 1..leader + ppn {
                    s.recv(peer, Region::work(peer as usize * b, b));
                }
            });
            // Phase 2: ring allgather of node slabs among leaders.
            if nodes > 1 {
                let right = ((node + 1) % nodes) * ppn;
                let left = ((node + nodes - 1) % nodes) * ppn;
                let slab = ppn as usize * b;
                for k in 0..nodes - 1 {
                    let send_node = ((node + nodes - k) % nodes) as usize;
                    let recv_node = ((node + nodes - 1 - k) % nodes) as usize;
                    sb.step(r, |s| {
                        s.send(right, Region::work(send_node * ppn as usize * b, slab));
                        s.recv(left, Region::work(recv_node * ppn as usize * b, slab));
                    });
                }
            }
            // Phase 3: fan the full result out to the node.
            if ppn > 1 {
                sb.step(r, |s| {
                    for peer in leader + 1..leader + ppn {
                        s.send(peer, Region::work(0, pu * b));
                    }
                });
            }
        } else {
            sb.step(r, |s| s.send(leader, Region::input(0, b)));
            sb.step(r, |s| s.recv(leader, Region::work(0, pu * b)));
        }
        let _ = node_off;
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sim;
    use crate::verify::check_allgather;
    use crate::{Algorithm, AllgatherAlgo};
    use pml_simnet::CostModel;

    #[test]
    fn correct_for_various_layouts() {
        for (nodes, ppn) in [(1u32, 1u32), (1, 6), (3, 1), (2, 4), (3, 5), (4, 8)] {
            let layout = JobLayout::new(nodes, ppn);
            let sch = two_level_allgather(layout, 8);
            check_allgather(&sch, 8).unwrap_or_else(|e| panic!("layout {nodes}x{ppn}: {e}"));
        }
    }

    #[test]
    fn only_leaders_touch_the_fabric() {
        let layout = JobLayout::new(3, 4);
        let sch = two_level_allgather(layout, 16);
        // Count inter-node messages: every send from a non-leader goes to
        // its own leader (intra-node).
        for r in 0..layout.world_size() {
            if r % 4 != 0 {
                for step in &sch.ranks[r as usize] {
                    for (to, _, _) in step.sends() {
                        assert!(layout.same_node(r, *to), "rank {r} sent off-node");
                    }
                }
            }
        }
    }

    #[test]
    fn beats_flat_ring_at_high_ppn() {
        // With 32 ranks per node, the flat ring pushes every block through
        // the memory system p−1 times and pays p−1 latency terms; the
        // two-level variant does nodes−1 fabric rounds of big slabs.
        let node = pml_clusters_like_node();
        let layout = JobLayout::new(4, 32);
        let cost = CostModel::new(node, 32);
        let block = 4096;
        let two_level = sim::run(&two_level_allgather(layout, block), layout, &cost).time_s;
        let flat = sim::run(
            &Algorithm::Allgather(AllgatherAlgo::Ring)
                .schedule(layout.world_size(), block)
                .unwrap(),
            layout,
            &cost,
        )
        .time_s;
        assert!(
            two_level < flat,
            "two-level {two_level} should beat flat ring {flat} at 4x32"
        );
    }

    fn pml_clusters_like_node() -> pml_simnet::NodeSpec {
        use pml_simnet::*;
        NodeSpec {
            cpu: CpuSpec {
                model: "t".into(),
                family: CpuFamily::IntelXeon,
                max_clock_ghz: 2.7,
                l3_cache_mib: 77.0,
                mem_bw_gbs: 220.0,
                cores: 32,
                threads: 32,
                sockets: 2,
                numa_nodes: 2,
            },
            nic: InterconnectSpec::new(HcaGeneration::Edr, PcieVersion::Gen3),
        }
    }
}
