//! Tuning-table wire format and lookup totality, end to end: a real model
//! generates a real table, the table survives a JSON round trip, and the
//! nearest-bucket lookup answers every query the MPI runtime could pose.
//! The `Tuner`'s compiled lookup is checked against the table's own
//! `get`/`lookup` on zoo-shaped and irregular tables.

mod common;

use pml_mpi::core::TableEntry;
use pml_mpi::{
    applicable_or_fallback, zoo, Algorithm, AlgorithmSelector, Collective, FallbackDepth,
    JobConfig, MvapichDefault, Tuner, TuningTable,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[test]
fn json_round_trip_is_lossless() {
    let engine = common::mini_engine();
    let table = engine
        .tuning_table("RI", Collective::Allgather)
        .expect("table generates")
        .clone();
    assert!(!table.is_empty());
    let json = table.to_json().expect("table serializes");
    let back = TuningTable::from_json(&json).expect("round trip parses");
    assert_eq!(table, back);
}

#[test]
fn nearest_bucket_lookup_is_total() {
    let engine = common::mini_engine();
    let table = engine
        .tuning_table("Haswell", Collective::Alltoall)
        .expect("table generates")
        .clone();
    // Every query — on-grid, off-grid, absurdly large — must resolve to an
    // algorithm of the right collective that supports the queried world.
    for nodes in [1u32, 2, 3, 4, 7, 16, 100] {
        for ppn in [1u32, 2, 5, 8, 56, 200] {
            for msg in [1u64, 17, 1024, 65536, 1 << 22, 1 << 30] {
                let algo = table
                    .lookup(nodes, ppn, msg)
                    .expect("non-empty table answers every query");
                assert_eq!(algo.collective(), Collective::Alltoall);
            }
        }
    }
    // Exact grid points must return their own entry, not a neighbour.
    for e in table.entries() {
        assert_eq!(
            table.lookup(e.nodes, e.ppn, e.msg_size),
            Some(e.algorithm),
            "grid point ({}, {}, {}) resolved elsewhere",
            e.nodes,
            e.ppn,
            e.msg_size
        );
    }
}

#[test]
fn empty_table_is_the_only_none() {
    let table = TuningTable::new("Nowhere", Collective::Bcast);
    assert_eq!(table.lookup(4, 8, 1024), None);
}

#[test]
fn cross_collective_json_is_rejected() {
    let engine = common::mini_engine();
    let table = engine
        .tuning_table("RI", Collective::Allgather)
        .expect("table generates")
        .clone();
    // Flip only the table-level collective; the entries keep their
    // allgather algorithms, so validation must flag the mismatch.
    let sabotaged = table.to_json().expect("table serializes").replacen(
        "\"collective\": \"Allgather\"",
        "\"collective\": \"Alltoall\"",
        1,
    );
    assert!(matches!(
        TuningTable::from_json(&sabotaged),
        Err(pml_mpi::PmlError::CrossCollective { .. })
    ));
}

// ---------------------------------------------------------------------------
// Differential: `Tuner::select_traced` (the compiled index) against a
// reference chain built only from `TuningTable::get` → `lookup` →
// `applicable_or_fallback` → `MvapichDefault`.
// ---------------------------------------------------------------------------

/// What `Tuner::new([table])` must answer, from the table's own lookups.
fn reference(table: &TuningTable, job: JobConfig) -> (Algorithm, FallbackDepth) {
    let world = job.world_size();
    let msg = job.msg_size as u64;
    let exact = table.get(job.nodes, job.ppn, msg);
    if let Some(a) = exact.or_else(|| table.lookup(job.nodes, job.ppn, msg)) {
        let applied = applicable_or_fallback(a, world);
        if applied.supports(world) {
            let depth = if applied != a {
                FallbackDepth::Substituted
            } else if exact.is_some() {
                FallbackDepth::Exact
            } else {
                FallbackDepth::NearestBucket
            };
            return (applied, depth);
        }
    }
    (
        MvapichDefault.select(table.collective, job),
        FallbackDepth::DefaultRules,
    )
}

/// Assert the tuner matches the reference on every job; returns how many
/// jobs were checked.
fn assert_matches_reference(table: &TuningTable, jobs: &[JobConfig]) -> usize {
    let tuner = Tuner::new([table.clone()]);
    for &job in jobs {
        assert_eq!(
            tuner.select_traced(table.collective, job),
            reference(table, job),
            "{} {:?}: ({}, {}, {})",
            table.cluster,
            table.collective,
            job.nodes,
            job.ppn,
            job.msg_size
        );
    }
    jobs.len()
}

/// A table with a seeded algorithm in every given cell, stored in the
/// order the cells are given.
fn seeded_table(
    name: &str,
    collective: Collective,
    cells: &[(u32, u32, u64)],
    rng: &mut StdRng,
) -> TuningTable {
    let algos = Algorithm::all_for(collective);
    let mut t = TuningTable::new(name, collective);
    for &(n, p, m) in cells {
        let a = *algos.choose(rng).expect("every collective has algorithms");
        t.insert(n, p, m, a).expect("algorithm matches collective");
    }
    t
}

fn grid(nodes: &[u32], ppn: &[u32], msg: &[u64]) -> Vec<(u32, u32, u64)> {
    let mut cells = Vec::new();
    for &n in nodes {
        for &p in ppn {
            for &m in msg {
                cells.push((n, p, m));
            }
        }
    }
    cells
}

/// Seeded off-grid queries: zero dimensions, sizes up to 2³⁰, grid values
/// mixed with arbitrary ones on each axis, and geometric midpoints between
/// neighbouring grid values (exact log-distance ties).
fn off_grid_jobs(table: &TuningTable, count: usize, rng: &mut StdRng) -> Vec<JobConfig> {
    let axis = |f: &dyn Fn(&TableEntry) -> u64| {
        let mut v: Vec<u64> = table.entries().iter().map(f).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let nodes = axis(&|e| u64::from(e.nodes));
    let ppn = axis(&|e| u64::from(e.ppn));
    let msg = axis(&|e| e.msg_size);
    let pick = |rng: &mut StdRng, grid: &[u64], max: u64| -> u64 {
        match rng.gen_range(0u32..6) {
            0 => 0,
            1 => *grid.choose(rng).unwrap_or(&1),
            2 => {
                // Geometric midpoint of two neighbours: equal log distance.
                let i = rng.gen_range(0..grid.len().max(2) - 1);
                match (grid.get(i), grid.get(i + 1)) {
                    (Some(&a), Some(&b)) => ((a as f64) * (b as f64)).sqrt().round() as u64,
                    _ => 1,
                }
            }
            3 => 1,
            _ => rng.gen_range(0..max + 1),
        }
    };
    (0..count)
        .map(|_| {
            let n = pick(rng, &nodes, 4096) as u32;
            let p = pick(rng, &ppn, 256) as u32;
            let m = pick(rng, &msg, 1 << 30) as usize;
            JobConfig::new(n, p, m)
        })
        .collect()
}

#[test]
fn compiled_tuner_matches_reference_on_every_zoo_grid() {
    let mut rng = StdRng::seed_from_u64(0x7ab1e);
    let mut off_grid = 0;
    for (i, entry) in zoo().iter().enumerate() {
        let collective = Collective::ALL[i % Collective::ALL.len()];
        let msg: Vec<u64> = entry.msg_grid.iter().map(|&m| m as u64).collect();
        let cells = grid(&entry.node_grid, &entry.ppn_grid, &msg);
        let table = seeded_table(entry.name(), collective, &cells, &mut rng);
        // Every cell is an exact hit (or a substitution at that world size).
        let on_grid: Vec<JobConfig> = cells
            .iter()
            .map(|&(n, p, m)| JobConfig::new(n, p, m as usize))
            .collect();
        assert_matches_reference(&table, &on_grid);
        let tuner = Tuner::new([table.clone()]);
        for &job in &on_grid {
            let (_, depth) = tuner.select_traced(collective, job);
            assert!(depth <= FallbackDepth::Substituted, "{depth:?}");
        }
        let jobs = off_grid_jobs(&table, 600, &mut rng);
        off_grid += assert_matches_reference(&table, &jobs);
    }
    assert!(off_grid >= 10_000, "only {off_grid} off-grid queries");
}

#[test]
fn log_midpoint_ties_resolve_to_the_first_stored_entry() {
    // Query 4 sits exactly between 2 and 8 on the node axis; whichever
    // cell was stored first must win, in both insertion orders.
    for cells in [[(2, 4, 64), (8, 4, 64)], [(8, 4, 64), (2, 4, 64)]] {
        let mut t = TuningTable::new("tie", Collective::Allgather);
        let algos = Algorithm::all_for(Collective::Allgather);
        for (&(n, p, m), &a) in cells.iter().zip(&algos) {
            t.insert(n, p, m, a).expect("allgather algorithm");
        }
        let job = JobConfig::new(4, 4, 64);
        assert_matches_reference(&t, &[job]);
        let (_, depth) = Tuner::new([t.clone()]).select_traced(Collective::Allgather, job);
        assert_ne!(depth, FallbackDepth::Exact);
    }
}

/// A very sparse table (a diagonal): too many grid cells per entry for a
/// dense cell array, so the index finds exact hits by scanning entries.
fn diagonal() -> Vec<(u32, u32, u64)> {
    (0..64u32)
        .map(|i| (1 + i, 1 + (i * 7) % 64, 1u64 << (i % 31)))
        .collect()
}

#[test]
fn compiled_tuner_matches_reference_on_irregular_tables() {
    let mut rng = StdRng::seed_from_u64(0x1ee7);
    let msg: Vec<u64> = (0..12).map(|i| 1u64 << (2 * i)).collect();
    let full = grid(&[1, 2, 4, 8, 16], &[1, 4, 16, 28], &msg);

    // Shuffled insertion order: stored order differs from sorted order.
    let mut shuffled = full.clone();
    shuffled.shuffle(&mut rng);
    let shuffled = seeded_table("shuffled", Collective::Alltoall, &shuffled, &mut rng);

    // Non-total with a few holes: the dense cell array marks them empty.
    let holes: Vec<_> = full.iter().copied().filter(|_| rng.gen_bool(0.8)).collect();
    let holes = seeded_table("holes", Collective::Bcast, &holes, &mut rng);

    let diagonal = seeded_table("diagonal", Collective::Allreduce, &diagonal(), &mut rng);

    // Zero-byte and one-byte sizes share a log coordinate: both sit at
    // distance 0 from a 1-byte query.
    let zero = grid(&[1, 2, 4], &[1, 2], &[0, 1, 2, 64]);
    let zero = seeded_table("zero", Collective::Allgather, &zero, &mut rng);

    for table in [&shuffled, &holes, &diagonal, &zero] {
        let mut jobs: Vec<JobConfig> = table
            .entries()
            .iter()
            .map(|e| JobConfig::new(e.nodes, e.ppn, e.msg_size as usize))
            .collect();
        jobs.extend(off_grid_jobs(table, 2000, &mut rng));
        assert_matches_reference(table, &jobs);
    }
}

#[test]
fn duplicate_cells_resolve_to_the_first_entry_like_get() {
    // `insert` replaces, so a duplicate cell can only arrive over the wire:
    // splice a second entry for an existing cell into the JSON, once after
    // and once before the original, in a dense and in a sparse table.
    let mut rng = StdRng::seed_from_u64(0xd0b1e);
    for cells in [grid(&[2, 4], &[8, 16], &[64, 4096]), diagonal()] {
        let table = seeded_table("dup", Collective::Alltoall, &cells, &mut rng);
        let (n, p, m) = cells[3];
        check_duplicate_cell(&table, (n, p, m), &mut rng);
    }
}

fn check_duplicate_cell(table: &TuningTable, (n, p, m): (u32, u32, u64), rng: &mut StdRng) {
    let current = table.get(n, p, m).expect("cell exists");
    let replacement = Algorithm::all_for(Collective::Alltoall)
        .into_iter()
        .find(|&a| a != current)
        .expect("alltoall has several algorithms");
    let mut other = TuningTable::new("dup", Collective::Alltoall);
    other
        .insert(n, p, m, replacement)
        .expect("alltoall algorithm");

    let entries_of = |t: &TuningTable| -> Vec<serde::Value> {
        let v: serde::Value = serde_json::from_str(&t.to_json().expect("serializes")).unwrap();
        match v {
            serde::Value::Object(fields) => fields
                .into_iter()
                .find_map(|(k, v)| match (k.as_str(), v) {
                    ("entries", serde::Value::Array(a)) => Some(a),
                    _ => None,
                })
                .expect("entries array"),
            _ => panic!("table JSON is an object"),
        }
    };
    let dup = entries_of(&other).remove(0);
    for at in [table.len(), 0] {
        let mut entries = entries_of(table);
        entries.insert(at, dup.clone());
        let json = serde_json::to_string(&serde::Value::Object(vec![
            ("cluster".into(), serde::Value::Str("dup".into())),
            ("collective".into(), serde::Value::Str("Alltoall".into())),
            ("entries".into(), serde::Value::Array(entries)),
        ]))
        .expect("serializes");
        let spliced = TuningTable::from_json(&json).expect("duplicate cells still parse");
        assert_eq!(spliced.len(), table.len() + 1);
        let want = if at == 0 { replacement } else { current };
        assert_eq!(spliced.get(n, p, m), Some(want));
        let mut jobs = vec![JobConfig::new(n, p, m as usize)];
        jobs.extend(off_grid_jobs(&spliced, 500, rng));
        assert_matches_reference(&spliced, &jobs);
    }
}

#[test]
fn empty_table_falls_through_to_default_rules() {
    let table = TuningTable::new("Nowhere", Collective::Bcast);
    let mut rng = StdRng::seed_from_u64(7);
    let jobs: Vec<JobConfig> = (0..200)
        .map(|_| {
            JobConfig::new(
                rng.gen_range(0..300u32),
                rng.gen_range(0..64u32),
                rng.gen_range(0..(1usize << 30)),
            )
        })
        .collect();
    assert_matches_reference(&table, &jobs);
    let (_, depth) = Tuner::new([table]).select_traced(Collective::Bcast, JobConfig::new(4, 8, 1));
    assert_eq!(depth, FallbackDepth::DefaultRules);
}
