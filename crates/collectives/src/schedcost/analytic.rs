//! Analytic algorithm ranking: memoized polynomials × fitted constants.
//!
//! Polynomials are streamed straight from the schedule generators
//! ([`stream_poly`]); no schedule IR is built on this path. The
//! polynomial for a scale-invariant algorithm is extracted **once**
//! per (algorithm, layout) at unit block and reused across the whole
//! message-size sweep (the same trick `measure_sweep` plays with
//! `run_scaled`); the chunked bcast/allreduce variants, whose schedule
//! shape depends on `msg mod p`, are keyed by the actual size. Ties
//! break by registry index, so rankings are bit-identical run to run —
//! the property the obs-determinism CI lane pins for the selector tier
//! built on top of this.

use super::fit::cached_params;
use super::stream::stream_poly;
use super::CostPoly;
use crate::algo::{Algorithm, Collective};
use pml_obs::Counter;
use pml_simnet::{JobLayout, NodeSpec};
use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

/// Polynomial-cache hits.
static POLY_HITS: Counter = Counter::new("schedcost.cache.poly_hits");

/// Registered algorithms whose schedule failed extraction — each one
/// silently missing from a ranking. Expected to stay 0.
static EXTRACT_ERRORS: Counter = Counter::new("schedcost.extract_errors");

type PolyKey = (Collective, usize, u32, u32, usize);

/// Process-wide polynomial cache: (collective, algo index, nodes, ppn,
/// size key) → polynomial. Size key is 0 for scale-invariant algorithms
/// (unit-block polynomial) and the message size otherwise.
static POLYS: OnceLock<RwLock<BTreeMap<PolyKey, CostPoly>>> = OnceLock::new();

/// The cost polynomial of `algo` at this layout and message size, from
/// cache when possible. `None` when the algorithm is undefined at the
/// layout's world size, or when its schedule fails extraction (counted
/// in `schedcost.extract_errors`; the differential tests hold it at 0).
pub fn poly_for(algo: Algorithm, layout: JobLayout, msg: usize) -> Option<CostPoly> {
    let p = layout.world_size();
    if !algo.supports(p) {
        return None;
    }
    let (block, size_key) = if algo.scale_invariant() {
        (1, 0)
    } else {
        (msg.max(1), msg.max(1))
    };
    let key: PolyKey = (
        algo.collective(),
        algo.index(),
        layout.nodes,
        layout.ppn,
        size_key,
    );
    let cache = POLYS.get_or_init(|| RwLock::new(BTreeMap::new()));
    if let Ok(guard) = cache.read() {
        if let Some(poly) = guard.get(&key) {
            POLY_HITS.inc();
            return Some(*poly);
        }
    }
    let Ok(poly) = stream_poly(algo, layout, block) else {
        EXTRACT_ERRORS.inc();
        return None;
    };
    if let Ok(mut guard) = cache.write() {
        guard.insert(key, poly);
    }
    Some(poly)
}

/// Predicted runtime of `algo` on `node` at this shape, in seconds.
pub fn cost_for(algo: Algorithm, node: &NodeSpec, layout: JobLayout, msg: usize) -> Option<f64> {
    let poly = poly_for(algo, layout, msg)?;
    let params = cached_params(node, layout.ppn);
    let scale = if algo.scale_invariant() {
        msg.max(1) as f64
    } else {
        1.0
    };
    Some(poly.eval(&params, scale))
}

/// Every applicable algorithm for `collective` at this shape, cheapest
/// first. Deterministic: ties break by registry index.
pub fn rank_static(
    collective: Collective,
    node: &NodeSpec,
    layout: JobLayout,
    msg: usize,
) -> Vec<(Algorithm, f64)> {
    let mut out: Vec<(Algorithm, f64)> = Algorithm::applicable_for(collective, layout.world_size())
        .into_iter()
        .filter_map(|a| cost_for(a, node, layout, msg).map(|t| (a, t)))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())));
    out
}

/// The analytically cheapest algorithm, if any is applicable.
pub fn best_static(
    collective: Collective,
    node: &NodeSpec,
    layout: JobLayout,
    msg: usize,
) -> Option<Algorithm> {
    rank_static(collective, node, layout, msg)
        .first()
        .map(|(a, _)| *a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{AllgatherAlgo, BcastAlgo};
    use pml_simnet::{CpuFamily, CpuSpec, HcaGeneration, InterconnectSpec, PcieVersion};

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

    #[test]
    fn unsupported_world_yields_none() {
        let algo = Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling);
        assert!(poly_for(algo, JobLayout::new(3, 2), 64).is_none());
        assert!(cost_for(algo, &test_node(), JobLayout::new(3, 2), 64).is_none());
    }

    #[test]
    fn ranking_is_sorted_complete_and_deterministic() {
        let node = test_node();
        let layout = JobLayout::new(2, 4);
        for c in Collective::ALL {
            let a = rank_static(c, &node, layout, 4096);
            let b = rank_static(c, &node, layout, 4096);
            assert_eq!(a, b);
            assert_eq!(a.len(), c.algo_count());
            for w in a.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
            assert_eq!(best_static(c, &node, layout, 4096), Some(a[0].0));
        }
    }

    #[test]
    fn cost_grows_with_message_size() {
        let node = test_node();
        let layout = JobLayout::new(4, 2);
        let algo = Algorithm::Allgather(AllgatherAlgo::Ring);
        let small = cost_for(algo, &node, layout, 64).unwrap();
        let big = cost_for(algo, &node, layout, 1 << 20).unwrap();
        assert!(big > small);
    }

    #[test]
    fn non_scale_invariant_algorithms_get_per_size_polys() {
        // Chunked pipelined ring at two sizes that are not multiples of
        // each other: the polynomials must differ beyond pure scaling.
        let algo = Algorithm::Bcast(BcastAlgo::PipelinedRing);
        let layout = JobLayout::new(5, 1);
        let a = poly_for(algo, layout, 1000).unwrap();
        let b = poly_for(algo, layout, 1 << 20).unwrap();
        assert_ne!(a, b);
        // And evaluation uses scale 1 (already baked into the bytes).
        let node = test_node();
        let ta = cost_for(algo, &node, layout, 1000).unwrap();
        let tb = cost_for(algo, &node, layout, 1 << 20).unwrap();
        assert!(tb > ta);
    }
}
