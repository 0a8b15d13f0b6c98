//! # pml-collectives
//!
//! MPI collective-communication algorithms as executable communication
//! schedules — the MVAPICH-engine substitute for the PML-MPI reproduction.
//!
//! Nine algorithms from the paper's §III are implemented from scratch:
//! four for `MPI_Allgather` ([`allgather`]) and five for `MPI_Alltoall`
//! ([`alltoall`]). Each is a *schedule generator* producing the
//! [`schedule::CommSchedule`] IR, which two executors consume:
//!
//! * [`exec::interp`] — sequential, byte-accurate (correctness oracle);
//! * [`exec::sim`] — virtual time against a [`pml_simnet::CostModel`]
//!   (the measurement backend for the ML dataset).
//!
//! [`mod@measure`] wraps the sim executor into the micro-benchmark API used by
//! dataset generation, and [`verify`] holds the correctness oracles.

#![deny(rust_2018_idioms, missing_debug_implementations)]
#![deny(clippy::dbg_macro, clippy::todo)]
pub mod algo;
pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod bcast;
pub mod exec;
pub mod hierarchical;
pub mod measure;
pub mod schedcheck;
pub mod schedcost;
pub mod schedule;
pub mod verify;

pub use algo::{Algorithm, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, Collective};
pub use exec::SimResult;
pub use hierarchical::two_level_allgather;
pub use measure::{measure, measure_noisy, measure_sweep, rank_algorithms, MeasureConfig};
pub use schedcheck::{
    check_algorithm, check_schedule, sweep_grid, SchedError, ScheduleDoc, Spec, SCHED_DOC_VERSION,
};
pub use schedcost::{CostError, CostPoly};
pub use schedule::{Buf, CommSchedule, Op, Region, ScheduleBuilder, Step};
