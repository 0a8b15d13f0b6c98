//! The communication-schedule IR.
//!
//! Every collective algorithm in this crate is expressed as a
//! [`CommSchedule`]: for each rank, an ordered list of [`Step`]s, each
//! containing local copies, sends, and receives. The same schedule is then
//! consumed by two executors:
//!
//! * the sequential interpreter ([`crate::exec::interp`]) — moves real bytes,
//!   used to prove algorithm correctness;
//! * the virtual-time executor ([`crate::exec::sim`]) — charges each
//!   operation against a [`pml_simnet::CostModel`] to produce the modelled
//!   runtime the ML dataset is built from.
//!
//! ## Step semantics
//!
//! Within a step, operations execute as one MPI "phase":
//! 1. all [`Op::Copy`] operations run first, in order (packing);
//! 2. all [`Op::Send`] operations are posted (non-blocking);
//! 3. all [`Op::Recv`] operations complete (wait-all).
//!
//! A copy that consumes received data therefore belongs in the *next* step.
//! Because sends never wait on receives, a schedule whose sends and receives
//! pairwise match can never deadlock — [`CommSchedule::validate`] checks the
//! matching.
//!
//! ## Tag discipline
//!
//! Message matching is per directed pair, FIFO: the k-th send from rank `i`
//! to rank `j` matches the k-th receive at `j` from `i` (MPI non-overtaking
//! semantics). The [`ScheduleBuilder`] assigns sequence tags automatically.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Which per-rank buffer a region refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Buf {
    /// The caller's read-only send buffer.
    Input,
    /// The output buffer (the collective's result ends here).
    Work,
    /// Algorithm-private scratch space.
    Aux,
}

/// A byte range inside one of a rank's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    pub buf: Buf,
    pub offset: usize,
    pub len: usize,
}

impl Region {
    pub fn new(buf: Buf, offset: usize, len: usize) -> Self {
        Region { buf, offset, len }
    }

    pub fn input(offset: usize, len: usize) -> Self {
        Region::new(Buf::Input, offset, len)
    }

    pub fn work(offset: usize, len: usize) -> Self {
        Region::new(Buf::Work, offset, len)
    }

    pub fn aux(offset: usize, len: usize) -> Self {
        Region::new(Buf::Aux, offset, len)
    }

    /// Exclusive end of the region. Saturates on `offset + len` overflow —
    /// such a region can never fit a real buffer, and [`CommSchedule::validate`]
    /// rejects it explicitly rather than letting the sum wrap.
    pub fn end(&self) -> usize {
        self.offset.saturating_add(self.len)
    }

    /// Whether `offset + len` overflows `usize` — always invalid.
    pub fn overflows(&self) -> bool {
        self.offset.checked_add(self.len).is_none()
    }

    pub fn overlaps(&self, other: &Region) -> bool {
        self.buf == other.buf && self.offset < other.end() && other.offset < self.end()
    }
}

/// One operation executed by one rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Post a message to `to`. Non-blocking for eager-sized payloads.
    Send { to: u32, tag: u32, region: Region },
    /// Complete a message from `from` into `region`.
    Recv { from: u32, tag: u32, region: Region },
    /// Local memory copy (pack/unpack/rotate). `src.len == dst.len`.
    Copy { src: Region, dst: Region },
    /// Local elementwise reduction: `dst[i] ⊕= src[i]` (the executors use
    /// wrapping byte addition — commutative and associative, so any valid
    /// reduction order yields identical bytes). `src.len == dst.len`.
    Combine { src: Region, dst: Region },
}

/// One phase of a rank's program: copies, then posted sends, then a wait-all
/// on the receives.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Step {
    pub ops: Vec<Op>,
}

impl Step {
    pub fn sends(&self) -> impl Iterator<Item = (&u32, &u32, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Send { to, tag, region } => Some((to, tag, region)),
            _ => None,
        })
    }

    pub fn recvs(&self) -> impl Iterator<Item = (&u32, &u32, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Recv { from, tag, region } => Some((from, tag, region)),
            _ => None,
        })
    }

    pub fn copies(&self) -> impl Iterator<Item = (&Region, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Copy { src, dst } => Some((src, dst)),
            _ => None,
        })
    }

    pub fn combines(&self) -> impl Iterator<Item = (&Region, &Region)> {
        self.ops.iter().filter_map(|op| match op {
            Op::Combine { src, dst } => Some((src, dst)),
            _ => None,
        })
    }
}

/// A full collective schedule for `world` ranks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommSchedule {
    pub world: u32,
    /// The collective's unit block size in bytes.
    pub block: usize,
    pub input_len: usize,
    pub work_len: usize,
    pub aux_len: usize,
    /// When true, executors initialize `Work` with a copy of `Input` at time
    /// zero and zero cost — the MPI_IN_PLACE convention, where the user's
    /// data already lives in the receive buffer.
    pub work_initialized_from_input: bool,
    /// `ranks[r]` is rank r's program.
    pub ranks: Vec<Vec<Step>>,
}

/// Error produced by [`CommSchedule::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleError(pub String);

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule: {}", self.0)
    }
}

impl std::error::Error for ScheduleError {}

impl CommSchedule {
    /// Total bytes a given rank sends over all steps.
    pub fn bytes_sent_by(&self, rank: u32) -> usize {
        self.ranks[rank as usize]
            .iter()
            .flat_map(|s| s.sends().map(|(_, _, r)| r.len))
            .sum()
    }

    /// Total messages a given rank sends.
    pub fn messages_sent_by(&self, rank: u32) -> usize {
        self.ranks[rank as usize]
            .iter()
            .map(|s| s.sends().count())
            .sum()
    }

    /// Total bytes moved by local copies (including reductions) at a rank.
    pub fn bytes_copied_by(&self, rank: u32) -> usize {
        self.ranks[rank as usize]
            .iter()
            .flat_map(|s| s.copies().chain(s.combines()).map(|(src, _)| src.len))
            .sum()
    }

    /// Maximum number of steps over all ranks.
    pub fn max_steps(&self) -> usize {
        self.ranks.iter().map(|p| p.len()).max().unwrap_or(0)
    }

    /// Structural validation: region bounds, copy length agreement,
    /// same-buffer copy overlap, rank indices, and pairwise send/recv
    /// matching (count and sizes per directed pair, in FIFO order).
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.ranks.len() != self.world as usize {
            return Err(ScheduleError(format!(
                "world is {} but schedule has {} rank programs",
                self.world,
                self.ranks.len()
            )));
        }
        let buf_len = |b: Buf| match b {
            Buf::Input => self.input_len,
            Buf::Work => self.work_len,
            Buf::Aux => self.aux_len,
        };
        let check_region = |r: &Region, what: &str| -> Result<(), ScheduleError> {
            if r.overflows() {
                return Err(ScheduleError(format!(
                    "{what}: region {:?}+{} len {} overflows usize",
                    r.buf, r.offset, r.len
                )));
            }
            if r.end() > buf_len(r.buf) {
                return Err(ScheduleError(format!(
                    "{what}: region {:?}+{}..{} exceeds buffer length {}",
                    r.buf,
                    r.offset,
                    r.end(),
                    buf_len(r.buf)
                )));
            }
            Ok(())
        };
        // Per directed pair: ordered list of send sizes / recv sizes.
        let mut sent: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        let mut recvd: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        for (rank, prog) in self.ranks.iter().enumerate() {
            let rank = rank as u32;
            for (si, step) in prog.iter().enumerate() {
                for op in &step.ops {
                    match op {
                        Op::Send { to, region, .. } => {
                            if *to >= self.world || *to == rank {
                                return Err(ScheduleError(format!(
                                    "rank {rank} step {si}: bad send target {to}"
                                )));
                            }
                            check_region(region, &format!("rank {rank} step {si} send"))?;
                            sent.entry((rank, *to)).or_default().push(region.len);
                        }
                        Op::Recv { from, region, .. } => {
                            if *from >= self.world || *from == rank {
                                return Err(ScheduleError(format!(
                                    "rank {rank} step {si}: bad recv source {from}"
                                )));
                            }
                            check_region(region, &format!("rank {rank} step {si} recv"))?;
                            recvd.entry((*from, rank)).or_default().push(region.len);
                        }
                        Op::Copy { src, dst } | Op::Combine { src, dst } => {
                            check_region(src, &format!("rank {rank} step {si} copy src"))?;
                            check_region(dst, &format!("rank {rank} step {si} copy dst"))?;
                            if src.len != dst.len {
                                return Err(ScheduleError(format!(
                                    "rank {rank} step {si}: copy length mismatch {} vs {}",
                                    src.len, dst.len
                                )));
                            }
                            if src.overlaps(dst) {
                                return Err(ScheduleError(format!(
                                    "rank {rank} step {si}: overlapping same-buffer copy"
                                )));
                            }
                            if dst.buf == Buf::Input {
                                return Err(ScheduleError(format!(
                                    "rank {rank} step {si}: copy writes the read-only input"
                                )));
                            }
                        }
                    }
                }
                for (_, _, region) in step.recvs() {
                    if region.buf == Buf::Input {
                        return Err(ScheduleError(format!(
                            "rank {rank} step {si}: recv writes the read-only input"
                        )));
                    }
                }
            }
        }
        for (pair, sends) in &sent {
            let recvs = recvd.get(pair).map(Vec::as_slice).unwrap_or(&[]);
            if sends.len() != recvs.len() {
                return Err(ScheduleError(format!(
                    "pair {:?}: {} sends but {} recvs",
                    pair,
                    sends.len(),
                    recvs.len()
                )));
            }
            for (k, (s, r)) in sends.iter().zip(recvs).enumerate() {
                if s != r {
                    return Err(ScheduleError(format!(
                        "pair {pair:?} message {k}: send {s} bytes but recv {r} bytes"
                    )));
                }
            }
        }
        for (pair, recvs) in &recvd {
            if !sent.contains_key(pair) && !recvs.is_empty() {
                return Err(ScheduleError(format!("pair {pair:?}: recvs with no sends")));
            }
        }
        Ok(())
    }
}

/// Incremental builder that assigns FIFO message tags automatically.
#[derive(Debug)]
pub struct ScheduleBuilder {
    schedule: CommSchedule,
    send_seq: HashMap<(u32, u32), u32>,
    recv_seq: HashMap<(u32, u32), u32>,
}

impl ScheduleBuilder {
    pub fn new(
        world: u32,
        block: usize,
        input_len: usize,
        work_len: usize,
        aux_len: usize,
    ) -> Self {
        ScheduleBuilder {
            schedule: CommSchedule {
                world,
                block,
                input_len,
                work_len,
                aux_len,
                work_initialized_from_input: false,
                ranks: vec![Vec::new(); world as usize],
            },
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
        }
    }

    /// Mark the schedule as operating in place (Work pre-seeded from Input).
    pub fn work_initialized_from_input(&mut self) {
        self.schedule.work_initialized_from_input = true;
    }

    /// Append one step to `rank`'s program, described by closure calls on a
    /// [`StepBuilder`]. Empty steps are dropped.
    pub fn step(&mut self, rank: u32, f: impl FnOnce(&mut StepBuilder<'_>)) {
        let mut sb = StepBuilder {
            rank,
            ops: Vec::new(),
            builder: self,
        };
        f(&mut sb);
        let ops = std::mem::take(&mut sb.ops);
        if !ops.is_empty() {
            self.schedule.ranks[rank as usize].push(Step { ops });
        }
    }

    pub fn finish(self) -> CommSchedule {
        self.schedule
    }
}

/// Builds one step; obtained through [`ScheduleBuilder::step`].
#[derive(Debug)]
pub struct StepBuilder<'a> {
    rank: u32,
    ops: Vec<Op>,
    builder: &'a mut ScheduleBuilder,
}

impl StepBuilder<'_> {
    pub fn copy(&mut self, src: Region, dst: Region) {
        if src.len == 0 {
            return;
        }
        self.ops.push(Op::Copy { src, dst });
    }

    pub fn combine(&mut self, src: Region, dst: Region) {
        if src.len == 0 {
            return;
        }
        self.ops.push(Op::Combine { src, dst });
    }

    pub fn send(&mut self, to: u32, region: Region) {
        if region.len == 0 {
            return;
        }
        let seq = self.builder.send_seq.entry((self.rank, to)).or_insert(0);
        let tag = *seq;
        *seq += 1;
        self.ops.push(Op::Send { to, tag, region });
    }

    pub fn recv(&mut self, from: u32, region: Region) {
        if region.len == 0 {
            return;
        }
        let seq = self.builder.recv_seq.entry((from, self.rank)).or_insert(0);
        let tag = *seq;
        *seq += 1;
        self.ops.push(Op::Recv { from, tag, region });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_exchange() -> CommSchedule {
        let b = 8;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        for r in 0..2u32 {
            let peer = 1 - r;
            sb.step(r, |s| {
                s.copy(Region::input(0, b), Region::work(r as usize * b, b));
                s.send(peer, Region::input(0, b));
                s.recv(peer, Region::work(peer as usize * b, b));
            });
        }
        sb.finish()
    }

    #[test]
    fn valid_exchange_passes() {
        let sch = two_rank_exchange();
        sch.validate().unwrap();
        assert_eq!(sch.bytes_sent_by(0), 8);
        assert_eq!(sch.messages_sent_by(0), 1);
        assert_eq!(sch.bytes_copied_by(1), 8);
        assert_eq!(sch.max_steps(), 1);
    }

    #[test]
    fn tags_are_fifo_per_pair() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        sb.step(0, |s| {
            s.send(1, Region::input(0, b));
            s.send(1, Region::input(0, b));
        });
        sb.step(1, |s| {
            s.recv(0, Region::work(0, b));
            s.recv(0, Region::work(b, b));
        });
        let sch = sb.finish();
        let tags: Vec<u32> = sch.ranks[0][0].sends().map(|(_, t, _)| *t).collect();
        assert_eq!(tags, vec![0, 1]);
        sch.validate().unwrap();
    }

    #[test]
    fn unmatched_send_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        assert!(sb.finish().validate().is_err());
    }

    #[test]
    fn size_mismatch_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        sb.step(1, |s| s.recv(0, Region::work(0, 2)));
        assert!(sb.finish().validate().is_err());
    }

    #[test]
    fn out_of_bounds_region_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        sb.step(1, |s| s.recv(0, Region::work(b, b))); // past end of work
        assert!(sb.finish().validate().is_err());
    }

    #[test]
    fn overflowing_region_fails_instead_of_wrapping() {
        // offset + len wraps usize; a naive `offset + len > buf_len` bound
        // check would accept this region (the wrapped end is tiny).
        let b = 4;
        let mut sch = two_rank_exchange();
        sch.ranks[0][0].ops[0] = Op::Copy {
            src: Region::input(0, b),
            dst: Region::new(Buf::Work, usize::MAX - 1, b),
        };
        let err = sch.validate().unwrap_err();
        assert!(err.0.contains("overflows"), "{err}");
        assert_eq!(Region::new(Buf::Work, usize::MAX - 1, b).end(), usize::MAX);
    }

    #[test]
    fn self_send_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(0, |s| s.send(0, Region::input(0, b)));
        assert!(sb.finish().validate().is_err());
    }

    #[test]
    fn overlapping_copy_fails() {
        let b = 8;
        let mut sb = ScheduleBuilder::new(1, b, b, 2 * b, 0);
        sb.step(0, |s| s.copy(Region::work(0, b), Region::work(4, b)));
        assert!(sb.finish().validate().is_err());
    }

    #[test]
    fn recv_into_input_fails() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        sb.step(1, |s| s.recv(0, Region::input(0, b)));
        assert!(sb.finish().validate().is_err());
    }

    #[test]
    fn zero_length_ops_are_dropped() {
        let mut sb = ScheduleBuilder::new(2, 4, 4, 4, 0);
        sb.step(0, |s| {
            s.send(1, Region::input(0, 0));
            s.copy(Region::input(0, 0), Region::work(0, 0));
        });
        let sch = sb.finish();
        assert!(sch.ranks[0].is_empty());
        sch.validate().unwrap();
    }

    #[test]
    fn schedule_serde_roundtrip() {
        let sch = two_rank_exchange();
        let json = serde_json::to_string(&sch).unwrap();
        let back: CommSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(sch, back);
    }
}
