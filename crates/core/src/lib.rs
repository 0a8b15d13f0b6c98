//! # pml-core
//!
//! The PML-MPI framework itself — the paper's contribution.
//!
//! * [`features`] — the 17-feature (3 MPI + 11 hardware + 3 analytic-cost)
//!   extraction of §V-A;
//! * [`pipeline`] — offline training (Fig. 3) producing a serializable
//!   [`pipeline::PretrainedModel`], and online inference (Fig. 4) emitting
//!   JSON tuning tables for unseen clusters in constant time;
//! * [`tuning_table`] — the JSON artifact + the compile-time table cache;
//! * [`hwdetect`] — the feature-extraction "script": parsers for
//!   `lscpu`/`ibstat`/`lspci` captures producing a ready
//!   [`pml_simnet::NodeSpec`];
//! * [`selectors`] — the strategy zoo benchmarked in §VII: the proposed
//!   ML selector, MVAPICH2/Open MPI-style static defaults, random
//!   selection, and the exhaustive-micro-benchmark oracle;
//! * [`overhead`] — the core-hour models of Figs. 1 and 7;
//! * [`tuner`] — the runtime-side facade an MPI library links: tuning
//!   tables compiled at load into immutable lookups, graded down through
//!   analytic-cost and static-rule fallback tiers;
//! * [`verify`] — static structural verification of shipped artifacts
//!   (models, tuning tables, binned matrices) without executing them.

#![deny(rust_2018_idioms, missing_debug_implementations)]
#![deny(clippy::dbg_macro, clippy::todo)]
pub mod engine;
pub mod error;
pub mod features;
pub mod hwdetect;
pub mod overhead;
pub mod pipeline;
pub mod selectors;
pub mod tuner;
pub mod tuning_table;
pub mod verify;

pub use engine::{EngineConfig, SelectionEngine};
pub use error::PmlError;
pub use features::{extract, extract_batch, records_to_dataset, FEATURE_NAMES, N_FEATURES};
pub use hwdetect::{detect_node, parse_ibstat, parse_lscpu, parse_lspci_link, HwDetectError};
pub use pipeline::{MlSelector, PretrainedModel, TrainConfig};
pub use selectors::{
    applicable_or_fallback, AlgorithmSelector, AnalyticSelector, JobConfig, MvapichDefault,
    OpenMpiDefault, OracleSelector, RandomSelector,
};
pub use tuner::{FallbackDepth, Tuner};
pub use tuning_table::{TableEntry, TableStore, TuningTable};
pub use verify::{
    verify_artifact_file, verify_artifact_str, verify_compiled, verify_compiled_json, verify_model,
    verify_model_json, verify_table, verify_table_json, ArtifactKind, VerifyError, VerifyErrorKind,
};
