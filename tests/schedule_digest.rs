//! The schedule IR is pinned byte for byte: every registered algorithm's
//! `pml-sched/v1` document, serialized, must hash to the digest committed
//! in `tests/fixtures/schedules/ir_digests.txt`.
//!
//! The generators emit through a sink trait and some emit in a different
//! loop order than they once did; each rank's program order, and with it
//! every FIFO tag, must not change. Any drift in op order, regions or
//! tags changes a digest here before it can change a simnet measurement
//! or an analytic polynomial.
//!
//! The fixture holds one line per cell: `<algorithm> <world> <block>
//! <fnv1a-64 hex>`. After an intentional IR change, rewrite it with
//! `cargo test --release --test schedule_digest -- --ignored
//! regenerate_fixture` and review the diff.

use pml_mpi::collectives::{Algorithm, Collective, ScheduleDoc};
use std::path::PathBuf;

const WORLDS_EXTRA: [u32; 4] = [64, 112, 128, 448];
const BLOCKS: [usize; 3] = [1, 8, 1000];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/schedules/ir_digests.txt")
}

/// 64-bit FNV-1a, fed incrementally. (An index loop: iterator adapters
/// cost a call per byte in unoptimized test builds, and the documents
/// add up to ~1.3 GB.)
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            self.0 = (self.0 ^ bytes[i] as u64).wrapping_mul(0x0000_0100_0000_01b3);
            i += 1;
        }
    }
}

/// FNV-1a of the compact `pml-sched/v1` JSON of one registered schedule.
/// The document is serialized piecewise — the shell with an empty rank
/// list, then one rank program at a time spliced in — which yields the
/// same bytes as serializing it whole without holding the whole tree.
fn doc_digest(algo: Algorithm, p: u32, block: usize) -> u64 {
    let mut schedule = algo.schedule(p, block).unwrap();
    let ranks = std::mem::take(&mut schedule.ranks);
    let doc = ScheduleDoc::new(algo.collective(), block, schedule);
    let shell = serde_json::to_string(&doc).unwrap();
    let (head, tail) = shell.split_once("\"ranks\":[]").unwrap();
    let mut h = Fnv1a::new();
    h.write(head);
    h.write("\"ranks\":[");
    for (r, prog) in ranks.iter().enumerate() {
        if r > 0 {
            h.write(",");
        }
        h.write(&serde_json::to_string(prog).unwrap());
    }
    h.write("]");
    h.write(tail);
    h.0
}

/// Every (algorithm, world, block) cell with its digest, in fixture order.
fn digests() -> String {
    let mut out = String::new();
    for c in Collective::ALL {
        for p in (1..=33).chain(WORLDS_EXTRA) {
            for algo in Algorithm::applicable_for(c, p) {
                for block in BLOCKS {
                    let d = doc_digest(algo, p, block);
                    out.push_str(&format!("{algo} {p} {block} {d:016x}\n"));
                }
            }
        }
    }
    out
}

#[test]
fn every_registered_schedule_matches_its_pinned_digest() {
    let want = std::fs::read_to_string(fixture_path()).expect("digest fixture");
    let got = digests();
    let mismatched: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n   got {g}"))
        .collect();
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "cell count changed"
    );
    assert!(
        mismatched.is_empty(),
        "{} of {} schedules changed:\n{}",
        mismatched.len(),
        got.lines().count(),
        mismatched.join("\n")
    );
}

#[test]
#[ignore = "rewrites the fixture; run only after an intentional IR change"]
fn regenerate_fixture() {
    std::fs::write(fixture_path(), digests()).unwrap();
}
