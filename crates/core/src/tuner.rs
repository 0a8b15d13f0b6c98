//! The runtime-side tuner facade — the piece an MPI library links.
//!
//! At application startup the library builds one [`Tuner`] from the tuning
//! tables produced at compile time (Fig. 4's JSON artifacts, one per
//! collective). Every collective call then asks the tuner which algorithm
//! to run. [`Tuner::new`] compiles each table once into an immutable grid
//! index, so an exact grid cell costs three binary searches and one array
//! read — the "constant time at application runtime" the paper's title
//! promises — and an off-grid query is one scan over the table's entries
//! with every logarithm precomputed.
//!
//! Nothing in a [`Tuner`] changes after construction: no locks, no
//! atomics, no per-query cache, and no state that grows with the queries
//! it answers. It is `Send + Sync` and designed to live in an
//! [`std::sync::Arc`] shared by every serving thread (see `pml-serve`).

use crate::error::PmlError;
use crate::selectors::{
    applicable_or_fallback, AlgorithmSelector, AnalyticSelector, JobConfig, MvapichDefault,
};
use crate::tuning_table::TuningTable;
use pml_collectives::{Algorithm, Collective};
use pml_obs::Histogram;
use pml_simnet::NodeSpec;
use std::collections::BTreeMap;

/// How far each lookup strayed from the pre-computed table — bucketed by
/// [`FallbackDepth`] (0 exact … 4 default rules).
static FALLBACK_DEPTH: Histogram = Histogram::new("table.fallback.depth", &[0, 1, 2, 3, 4]);

/// How a [`Tuner::select`] decision was reached, from best to worst:
/// the lower the depth, the more the pre-trained table was trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FallbackDepth {
    /// The queried (nodes, ppn, msg) was an exact grid cell and its
    /// algorithm applied as-is.
    Exact = 0,
    /// Off-grid query resolved to the nearest table bucket.
    NearestBucket = 1,
    /// The table's recommendation was inapplicable at this world size and
    /// a fallback algorithm was substituted.
    Substituted = 2,
    /// No table covers the collective: the analytic α-β-γ tier ranked the
    /// applicable algorithms from statically extracted cost polynomials
    /// (hardware-aware, model-free — see `pml_collectives::schedcost`).
    Analytic = 3,
    /// No table and no analytic tier (or neither produced an applicable
    /// algorithm): the library's static default rules decided.
    DefaultRules = 4,
}

impl FallbackDepth {
    pub fn as_u64(self) -> u64 {
        self as u64
    }
}

/// The log-scale coordinate [`TuningTable::lookup`] measures distance in.
fn lg(x: u64) -> f64 {
    (x as f64).max(1.0).log2()
}

/// One axis of a compiled table: its sorted distinct values and their
/// [`lg`] coordinates.
#[derive(Debug)]
struct Axis {
    values: Vec<u64>,
    lg: Vec<f64>,
}

impl Axis {
    fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        values.dedup();
        let lg = values.iter().map(|&v| lg(v)).collect();
        Axis { values, lg }
    }

    /// Index of `v` on this axis, if it is a grid value.
    fn position(&self, v: u64) -> Option<usize> {
        self.values.binary_search(&v).ok()
    }

    /// `|lg(v) − lg(q)|` for every value `v` on this axis.
    fn distances(&self, q: u64) -> impl Iterator<Item = f64> + '_ {
        let lq = lg(q);
        self.lg.iter().map(move |&l| (l - lq).abs())
    }

    /// Index of a value known to be on this axis.
    fn slot(&self, v: u64) -> usize {
        self.values.partition_point(|&x| x < v)
    }
}

/// Marks a grid cell no entry occupies.
const NO_ENTRY: usize = usize::MAX;

/// A dense cell array may hold at most this many slots per table entry.
/// A verified table is a total grid (one slot per entry); sparser tables
/// find exact cells by scanning entry coordinates instead, so the index
/// stays within a constant factor of the table it was built from.
const MAX_CELLS_PER_ENTRY: usize = 4;

/// A tuning table compiled for lookup. Answers exactly what
/// [`TuningTable::get`] and [`TuningTable::lookup`] answer on the table it
/// was built from, and is never mutated after [`CompiledTable::new`].
#[derive(Debug)]
struct CompiledTable {
    cluster: String,
    /// (nodes, ppn, msg) axes.
    axes: [Axis; 3],
    /// Every entry in stored order: its position on each axis and its
    /// algorithm.
    entries: Vec<([usize; 3], Algorithm)>,
    /// Row-major (nodes, ppn, msg) cell → index into `entries` of the
    /// first entry at that cell, or [`NO_ENTRY`]. Empty when the grid has
    /// more than [`MAX_CELLS_PER_ENTRY`] cells per entry.
    cells: Vec<usize>,
}

impl CompiledTable {
    fn new(table: &TuningTable) -> Self {
        let rows = table.entries();
        let axes = [
            Axis::new(rows.iter().map(|e| u64::from(e.nodes)).collect()),
            Axis::new(rows.iter().map(|e| u64::from(e.ppn)).collect()),
            Axis::new(rows.iter().map(|e| e.msg_size).collect()),
        ];
        let entries = rows
            .iter()
            .map(|e| {
                let c = [
                    axes[0].slot(u64::from(e.nodes)),
                    axes[1].slot(u64::from(e.ppn)),
                    axes[2].slot(e.msg_size),
                ];
                (c, e.algorithm)
            })
            .collect();
        let n_cells = axes
            .iter()
            .try_fold(1usize, |acc, a| acc.checked_mul(a.values.len()));
        let mut t = CompiledTable {
            cluster: table.cluster.clone(),
            axes,
            entries,
            cells: Vec::new(),
        };
        if let Some(n) = n_cells.filter(|&n| n <= MAX_CELLS_PER_ENTRY * t.entries.len()) {
            let mut cells = vec![NO_ENTRY; n];
            for (i, (c, _)) in t.entries.iter().enumerate() {
                let slot = &mut cells[t.cell(*c)];
                if *slot == NO_ENTRY {
                    *slot = i;
                }
            }
            t.cells = cells;
        }
        t
    }

    fn cell(&self, [i, j, k]: [usize; 3]) -> usize {
        (i * self.axes[1].values.len() + j) * self.axes[2].values.len() + k
    }

    /// Exact-cell hit, as [`TuningTable::get`]: the first entry at the
    /// queried cell.
    fn get(&self, q: [u64; 3]) -> Option<Algorithm> {
        let c = [
            self.axes[0].position(q[0])?,
            self.axes[1].position(q[1])?,
            self.axes[2].position(q[2])?,
        ];
        let entry = if self.cells.is_empty() {
            self.entries.iter().position(|(e, _)| *e == c)?
        } else {
            self.cells
                .get(self.cell(c))
                .copied()
                .filter(|&e| e != NO_ENTRY)?
        };
        self.entries.get(entry).map(|&(_, a)| a)
    }

    /// Nearest bucket, as [`TuningTable::lookup`]: the same distance
    /// expression over the same `lg` values, scanned in stored order, first
    /// minimum wins — bitwise the oracle's choice. Only each axis's
    /// `|lg(v) − lg(q)|` terms are hoisted out of the scan.
    fn nearest(&self, q: [u64; 3]) -> Option<Algorithm> {
        let [n, p, m] = &self.axes;
        let all: Vec<f64> = n
            .distances(q[0])
            .chain(p.distances(q[1]))
            .chain(m.distances(q[2]))
            .collect();
        let (dn, rest) = all.split_at(n.values.len());
        let (dp, dm) = rest.split_at(p.values.len());
        self.entries
            .iter()
            .map(|&([i, j, k], a)| (4.0 * dn[i] + 4.0 * dp[j] + dm[k], a))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, a)| a)
    }
}

/// Per-process algorithm selection from compiled tuning tables.
///
/// Thread-safety: everything is immutable after construction, so any
/// number of threads may call [`Tuner::select`] concurrently on one shared
/// (`Arc`-wrapped) tuner without synchronizing. Ordered maps throughout:
/// iteration order (e.g. in [`Tuner::covered`]) is deterministic, never
/// hash-seed dependent.
#[derive(Debug)]
pub struct Tuner {
    tables: BTreeMap<Collective, CompiledTable>,
    /// The analytic α-β-γ tier, graded between the table and the static
    /// default rules when present (see [`FallbackDepth::Analytic`]).
    analytic: Option<AnalyticSelector>,
}

impl Tuner {
    /// Build from tuning tables (typically deserialized from the JSON files
    /// next to the MPI library), compiling each for lookup. Collectives
    /// without a table fall back to the library's static default rules;
    /// of two tables for one collective, the later wins.
    pub fn new(tables: impl IntoIterator<Item = TuningTable>) -> Self {
        Tuner {
            tables: tables
                .into_iter()
                .map(|t| (t.collective, CompiledTable::new(&t)))
                .collect(),
            analytic: None,
        }
    }

    /// Like [`Tuner::new`], but queries not answerable from any table are
    /// ranked by the analytic cost model fitted for `node` before the
    /// hardware-blind default rules get a say. Decisions stay
    /// deterministic: polynomials and fitted constants are pure functions
    /// of (node, job shape).
    pub fn with_analytic(tables: impl IntoIterator<Item = TuningTable>, node: NodeSpec) -> Self {
        let mut t = Tuner::new(tables);
        t.analytic = Some(AnalyticSelector::new(node));
        t
    }

    /// Whether the analytic fallback tier is installed.
    pub fn has_analytic(&self) -> bool {
        self.analytic.is_some()
    }

    /// Load every `*.json` tuning table in a directory, routing each
    /// through the static verifier ([`crate::verify::verify_table`]) — grid
    /// totality, collective consistency, fallback termination. Files that
    /// fail to parse or verify are skipped, not fatal — the warnings list
    /// says which and why (a deployment with one damaged table still serves
    /// the rest).
    pub fn from_dir(dir: &std::path::Path) -> Result<(Self, Vec<String>), PmlError> {
        let io_err = |e: std::io::Error, path: &std::path::Path| PmlError::Io {
            path: path.to_path_buf(),
            source: e,
        };
        let mut tables = Vec::new();
        let mut warnings = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(e, dir))? {
            let path = entry.map_err(|e| io_err(e, dir))?.path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).map_err(|e| io_err(e, &path))?;
                match crate::verify::verify_table_json(&text) {
                    Ok(t) => tables.push(t),
                    Err(e) => warnings.push(format!("skipping table {}: {e}", path.display())),
                }
            }
        }
        Ok((Tuner::new(tables), warnings))
    }

    /// Which collectives have tables loaded.
    pub fn covered(&self) -> Vec<Collective> {
        let mut v: Vec<Collective> = self.tables.keys().copied().collect();
        v.sort();
        v
    }

    /// Cluster name the loaded table for `collective` was measured on, if
    /// a table is loaded. The serve-side quality monitor uses this to
    /// resolve the analytic referee for table-backed (`select`) answers.
    pub fn table_cluster(&self, collective: Collective) -> Option<&str> {
        self.tables.get(&collective).map(|t| t.cluster.as_str())
    }

    /// Pick the algorithm for one collective call.
    pub fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        self.select_traced(collective, job).0
    }

    /// Like [`Tuner::select`], but also report how the decision was reached.
    /// Every call records its depth in the `table.fallback.depth` histogram.
    pub fn select_traced(
        &self,
        collective: Collective,
        job: JobConfig,
    ) -> (Algorithm, FallbackDepth) {
        let world = job.world_size();
        let mut depth = FallbackDepth::DefaultRules;
        let mut chosen = None;
        if let Some(t) = self.tables.get(&collective) {
            let q = [
                u64::from(job.nodes),
                u64::from(job.ppn),
                job.msg_size as u64,
            ];
            let exact = t.get(q);
            let raw = exact.or_else(|| t.nearest(q));
            if let Some(a) = raw {
                let applied = applicable_or_fallback(a, world);
                if applied.supports(world) {
                    depth = if applied != a {
                        FallbackDepth::Substituted
                    } else if exact.is_some() {
                        FallbackDepth::Exact
                    } else {
                        FallbackDepth::NearestBucket
                    };
                    chosen = Some(applied);
                }
            }
        }
        if chosen.is_none() {
            if let Some(analytic) = &self.analytic {
                if let Some(a) = analytic.try_select(collective, job) {
                    if a.supports(world) {
                        depth = FallbackDepth::Analytic;
                        chosen = Some(a);
                    }
                }
            }
        }
        let chosen = chosen.unwrap_or_else(|| MvapichDefault.select(collective, job));
        FALLBACK_DEPTH.observe(depth.as_u64());
        (chosen, depth)
    }
}

impl AlgorithmSelector for Tuner {
    fn name(&self) -> &str {
        "pml-tuner"
    }

    fn select(&self, collective: Collective, job: JobConfig) -> Algorithm {
        Tuner::select(self, collective, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::AlltoallAlgo;

    fn table() -> TuningTable {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(2, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Bruck))
            .unwrap();
        t.insert(2, 8, 65536, Algorithm::Alltoall(AlltoallAlgo::Pairwise))
            .unwrap();
        t
    }

    #[test]
    fn uncovered_collectives_use_default_rules() {
        let tuner = Tuner::new([table()]);
        let job = JobConfig::new(2, 8, 1024);
        let a = tuner.select(Collective::Allgather, job);
        assert_eq!(a, MvapichDefault.select(Collective::Allgather, job));
        assert_eq!(tuner.covered(), vec![Collective::Alltoall]);
    }

    #[test]
    fn inapplicable_table_entries_fall_back_safely() {
        // Table recommends RD (pow2 only); a 6-rank job must not get it.
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(
            3,
            2,
            64,
            Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling),
        )
        .unwrap();
        let tuner = Tuner::new([t]);
        let a = tuner.select(Collective::Alltoall, JobConfig::new(3, 2, 64));
        assert!(a.supports(6));
        assert_eq!(a, Algorithm::Alltoall(AlltoallAlgo::Bruck)); // RD's fallback
    }

    #[test]
    fn directory_loading_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pmltuner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("aa.json"), table().to_json().unwrap()).unwrap();
        std::fs::write(dir.join("junk.json"), "not json").unwrap();
        let (tuner, warnings) = Tuner::from_dir(&dir).unwrap();
        assert_eq!(tuner.covered(), vec![Collective::Alltoall]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("junk.json"), "{warnings:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn off_grid_queries_resolve_by_nearest_bucket() {
        let tuner = Tuner::new([table()]);
        let a = tuner.select(Collective::Alltoall, JobConfig::new(2, 8, 100));
        assert_eq!(a, Algorithm::Alltoall(AlltoallAlgo::Bruck));
    }

    /// An exact grid-cell hit must report fallback depth 0 — the regression
    /// guard for the `table.fallback.depth` metric's base case.
    #[test]
    fn exact_cell_hits_have_zero_fallback_depth() {
        let tuner = Tuner::new([table()]);
        let job = JobConfig::new(2, 8, 64);
        let (a, depth) = tuner.select_traced(Collective::Alltoall, job);
        assert_eq!(a, Algorithm::Alltoall(AlltoallAlgo::Bruck));
        assert_eq!(depth, FallbackDepth::Exact);
        assert_eq!(depth.as_u64(), 0);
        // A repeat reports the same depth.
        assert_eq!(
            tuner.select_traced(Collective::Alltoall, job),
            (a, FallbackDepth::Exact)
        );
    }

    /// A tuner in an `Arc` is usable from any number of threads.
    /// Compile-time guarantee.
    #[test]
    fn tuner_is_send_sync_and_arc_shareable() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Tuner>();
        assert_send_sync::<std::sync::Arc<Tuner>>();
    }

    #[test]
    fn concurrent_lookups_agree_with_serial_ones() {
        let tuner = std::sync::Arc::new(Tuner::new([table()]));
        let serial = Tuner::new([table()]);
        let jobs: Vec<JobConfig> = (0..64)
            .map(|i| JobConfig::new(1 + i % 5, 1 + i % 7, 1usize << (i % 18)))
            .collect();
        let want: Vec<_> = jobs
            .iter()
            .map(|&j| serial.select_traced(Collective::Alltoall, j))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tuner = std::sync::Arc::clone(&tuner);
                let jobs = &jobs;
                let want = &want;
                scope.spawn(move || {
                    for (j, w) in jobs.iter().zip(want) {
                        assert_eq!(tuner.select_traced(Collective::Alltoall, *j), *w);
                    }
                });
            }
        });
    }

    #[test]
    fn analytic_tier_sits_between_table_and_default_rules() {
        let node = pml_clusters::by_name("RI").unwrap().spec.node.clone();
        let tuner = Tuner::with_analytic([table()], node.clone());
        assert!(tuner.has_analytic());
        // Covered collective, exact cell: the table still wins.
        let (a, d) = tuner.select_traced(Collective::Alltoall, JobConfig::new(2, 8, 64));
        assert_eq!(
            (a, d),
            (
                Algorithm::Alltoall(AlltoallAlgo::Bruck),
                FallbackDepth::Exact
            )
        );
        // Uncovered collective: the analytic ranking decides, graded as
        // its own depth so the obs histogram can tell the tiers apart.
        let job = JobConfig::new(2, 2, 1024);
        let (a, d) = tuner.select_traced(Collective::Allgather, job);
        assert_eq!(d, FallbackDepth::Analytic);
        assert_eq!(d.as_u64(), 3);
        assert!(a.supports(job.world_size()));
        let analytic = crate::selectors::AnalyticSelector::new(node);
        assert_eq!(Some(a), analytic.try_select(Collective::Allgather, job));
        // Bit-identical decisions on a fresh tuner over the same inputs.
        let node = pml_clusters::by_name("RI").unwrap().spec.node.clone();
        let again = Tuner::with_analytic([table()], node);
        assert_eq!(again.select_traced(Collective::Allgather, job), (a, d));
    }

    #[test]
    fn plain_tuner_keeps_default_rules_for_uncovered_collectives() {
        let tuner = Tuner::new([table()]);
        assert!(!tuner.has_analytic());
        let job = JobConfig::new(2, 2, 1024);
        let (a, d) = tuner.select_traced(Collective::Allgather, job);
        assert_eq!(d, FallbackDepth::DefaultRules);
        assert_eq!(d.as_u64(), 4);
        assert_eq!(a, MvapichDefault.select(Collective::Allgather, job));
    }

    #[test]
    fn fallback_depth_grades_by_distance_from_the_table() {
        let tuner = Tuner::new([table()]);
        // Off-grid message size → nearest bucket.
        let (_, d) = tuner.select_traced(Collective::Alltoall, JobConfig::new(2, 8, 100));
        assert_eq!(d, FallbackDepth::NearestBucket);
        // No table for the collective → default rules.
        let (_, d) = tuner.select_traced(Collective::Allgather, JobConfig::new(2, 8, 64));
        assert_eq!(d, FallbackDepth::DefaultRules);
        // Inapplicable recommendation → substituted fallback.
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(
            3,
            2,
            64,
            Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling),
        )
        .unwrap();
        let tuner = Tuner::new([t]);
        let (a, d) = tuner.select_traced(Collective::Alltoall, JobConfig::new(3, 2, 64));
        assert_eq!(d, FallbackDepth::Substituted);
        assert!(a.supports(6));
    }
}
