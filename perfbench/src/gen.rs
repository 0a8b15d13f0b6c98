//! Seeded request generators. Every request the benchmark sends is drawn
//! here from `--seed`; the daemon sees only the rendered frames.

use pml_clusters::{by_name, ClusterEntry};
use pml_collectives::Collective;
use pml_serve::collective_wire_name;
use std::collections::BTreeSet;

/// The two collectives the paper (and every workload) covers.
pub const COLLECTIVES: [Collective; 2] = [Collective::Allgather, Collective::Alltoall];

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per (seed, stream id).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform integer in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + self.unit() * (h - l)).exp().round() as usize).clamp(lo, hi)
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Index into [`HELD_OUT`] for `predict`; unused for `select`.
    pub cluster: u8,
    pub collective: Collective,
    pub nodes: u32,
    pub ppn: u32,
    pub msg: usize,
}

/// Which path a `select` request is drawn to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectKind {
    /// An exact tuning-table cell.
    Exact,
    /// One of a fixed pool of off-grid sizes (nearest-bucket lookups).
    OffGrid,
    /// A size never sent before (a memo insert on every request).
    Fresh,
}

/// The cluster whose tables the `select` daemon serves.
pub const SELECT_CLUSTER: &str = "RI2";
/// Off-grid sizes in the fixed pool.
const OFF_GRID_POOL: usize = 64;
/// Largest never-repeated size, and the modulus of the bijection that
/// generates them (a prime, so `k -> k * MUL mod P` never repeats for
/// `k < P`).
const FRESH_PRIME: u64 = 2_097_143;
const FRESH_MUL: u64 = 1_000_003;

/// `select` traffic over the RI2 grid: ¾ exact cells, ⅛ a fixed pool of
/// off-grid sizes, ⅛ never-repeated sizes, collectives 50/50.
#[derive(Debug, Clone)]
pub struct SelectGen {
    rng: Rng,
    shapes: Vec<(u32, u32)>,
    grid_msgs: Vec<usize>,
    pool: Vec<usize>,
    /// Sizes the fresh stream must skip (grid and pool sizes).
    taken: BTreeSet<usize>,
    /// Next fresh index; streams interleave (`conn`, `conn + conns`, ...)
    /// so connections never share a fresh size either.
    fresh_k: u64,
    fresh_step: u64,
    fresh_offset: u64,
}

impl SelectGen {
    /// Connection `conn` of `conns`, all drawn from `seed`.
    pub fn new(seed: u64, conn: usize, conns: usize) -> SelectGen {
        let entry = by_name(SELECT_CLUSTER).expect("RI2 is a zoo cluster");
        let grid_msgs = entry.msg_grid.clone();
        let max = *grid_msgs.last().expect("RI2 has message sizes");
        let mut taken: BTreeSet<usize> = grid_msgs.iter().copied().collect();
        // The pool is shared by every connection: drawn from the seed alone.
        let mut pool_rng = Rng::new(seed, 0x9001);
        let mut pool = Vec::with_capacity(OFF_GRID_POOL);
        while pool.len() < OFF_GRID_POOL {
            let m = pool_rng.log_uniform(2, max);
            if taken.insert(m) {
                pool.push(m);
            }
        }
        SelectGen {
            rng: Rng::new(seed, 0x5e1 + conn as u64),
            shapes: shapes(entry, u32::MAX),
            grid_msgs,
            pool,
            taken,
            fresh_k: conn as u64,
            fresh_step: conns as u64,
            fresh_offset: seed % FRESH_PRIME,
        }
    }

    pub fn next(&mut self) -> (Req, SelectKind) {
        let collective = COLLECTIVES[self.rng.below(2)];
        let (nodes, ppn) = self.shapes[self.rng.below(self.shapes.len())];
        let (msg, kind) = match self.rng.below(8) {
            0..=5 => (
                self.grid_msgs[self.rng.below(self.grid_msgs.len())],
                SelectKind::Exact,
            ),
            6 => (
                self.pool[self.rng.below(self.pool.len())],
                SelectKind::OffGrid,
            ),
            _ => (self.fresh(), SelectKind::Fresh),
        };
        let req = Req {
            cluster: 0,
            collective,
            nodes,
            ppn,
            msg,
        };
        (req, kind)
    }

    fn fresh(&mut self) -> usize {
        loop {
            let k = (self.fresh_k + self.fresh_offset) % FRESH_PRIME;
            self.fresh_k += self.fresh_step;
            let m = (1 + k * FRESH_MUL % FRESH_PRIME) as usize;
            if !self.taken.contains(&m) {
                return m;
            }
        }
    }
}

/// The paper's unseen evaluation clusters: held out of training, served
/// by `predict`, and deployed to by `deploy`.
pub const HELD_OUT: [&str; 2] = ["Frontera", "MRI"];
/// `predict` draws (nodes, ppn) from the Table I grid up to this many
/// ranks. Larger shapes cost seconds of first-touch cost extraction each
/// (the `deploy` workload's subject); the warm per-request path does not
/// depend on world size.
pub const PREDICT_MAX_WORLD: u32 = 256;
/// `predict` message sizes: log-uniform in [1 B, 4 MiB].
const PREDICT_MAX_MSG: usize = 4 << 20;

/// `predict` traffic: cluster in {Frontera, MRI}, both collectives,
/// grid shapes, log-uniform sizes.
#[derive(Debug, Clone)]
pub struct PredictGen {
    rng: Rng,
    shapes: [Vec<(u32, u32)>; 2],
}

impl PredictGen {
    pub fn new(seed: u64, conn: usize) -> PredictGen {
        PredictGen {
            rng: Rng::new(seed, 0x9e0 + conn as u64),
            shapes: HELD_OUT.map(|c| {
                shapes(
                    by_name(c).expect("held-out clusters are zoo clusters"),
                    PREDICT_MAX_WORLD,
                )
            }),
        }
    }

    pub fn next(&mut self) -> Req {
        let cluster = self.rng.below(2);
        let collective = COLLECTIVES[self.rng.below(2)];
        let shapes = &self.shapes[cluster];
        let (nodes, ppn) = shapes[self.rng.below(shapes.len())];
        Req {
            cluster: cluster as u8,
            collective,
            nodes,
            ppn,
            msg: self.rng.log_uniform(1, PREDICT_MAX_MSG),
        }
    }

    /// One request per distinct (cluster, collective, nodes, ppn): the
    /// set-up pass that pays first-touch cost extraction.
    pub fn distinct_shapes(&self) -> Vec<Req> {
        let mut out = Vec::new();
        for (cluster, shapes) in self.shapes.iter().enumerate() {
            for collective in COLLECTIVES {
                for &(nodes, ppn) in shapes {
                    out.push(Req {
                        cluster: cluster as u8,
                        collective,
                        nodes,
                        ppn,
                        msg: 4096,
                    });
                }
            }
        }
        out
    }
}

/// Grid (nodes, ppn) shapes of a cluster with at most `max_world` ranks.
fn shapes(entry: &ClusterEntry, max_world: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for &n in &entry.node_grid {
        for &p in &entry.ppn_grid {
            if n.saturating_mul(p) <= max_world {
                out.push((n, p));
            }
        }
    }
    out
}

/// Render a request as one `pml-serve/v1` frame, newline included.
pub fn frame(op: &str, id: u64, req: &Req) -> String {
    let cluster = if op == "predict" {
        format!(r#""cluster":"{}","#, HELD_OUT[req.cluster as usize])
    } else {
        String::new()
    };
    format!(
        "{{\"v\":\"pml-serve/v1\",\"id\":{id},\"op\":\"{op}\",{cluster}\"collective\":\"{}\",\"nodes\":{},\"ppn\":{},\"msg_size\":{}}}\n",
        collective_wire_name(req.collective),
        req.nodes,
        req.ppn,
        req.msg
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SelectGen::new(7, 0, 2);
        let mut b = SelectGen::new(7, 0, 2);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = PredictGen::new(7, 1);
        let mut d = PredictGen::new(7, 1);
        for _ in 0..1000 {
            assert_eq!(c.next(), d.next());
        }
    }

    #[test]
    fn fresh_sizes_never_repeat_across_connections() {
        let mut seen = BTreeSet::new();
        let grid: BTreeSet<usize> = by_name(SELECT_CLUSTER)
            .unwrap()
            .msg_grid
            .iter()
            .copied()
            .collect();
        for conn in 0..2 {
            let mut g = SelectGen::new(3, conn, 2);
            for _ in 0..40_000 {
                let (req, kind) = g.next();
                match kind {
                    SelectKind::Fresh => assert!(seen.insert(req.msg), "repeated {}", req.msg),
                    SelectKind::Exact => assert!(grid.contains(&req.msg)),
                    SelectKind::OffGrid => assert!(!grid.contains(&req.msg)),
                }
            }
        }
    }

    #[test]
    fn predict_shapes_respect_the_world_cap() {
        let mut g = PredictGen::new(1, 0);
        for _ in 0..1000 {
            let r = g.next();
            assert!(r.nodes * r.ppn <= PREDICT_MAX_WORLD);
            assert!((1..=PREDICT_MAX_MSG).contains(&r.msg));
        }
        assert!(!g.distinct_shapes().is_empty());
    }

    #[test]
    fn frames_parse() {
        let req = PredictGen::new(1, 0).next();
        let parsed = pml_serve::parse_request(&frame("predict", 9, &req)).unwrap();
        assert_eq!(parsed.id, Some(9));
    }
}
