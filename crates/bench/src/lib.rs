//! # chipforge-bench
//!
//! The experiment harness reproducing the paper's quantitative claims.
//!
//! The position paper has no numbered tables or figures; its "evaluation"
//! is a set of in-text quantitative claims and eight recommendations.
//! Every one of them is reconstructed as an experiment here (see
//! `DESIGN.md` for the index and `EXPERIMENTS.md` for paper-vs-measured):
//!
//! | ID | Claim |
//! |----|-------|
//! | E1 | value-chain shares (design 30%/fab 34%; Europe 10%/8%; …) |
//! | E2 | abstraction gap: 5–20 gates per RTL line vs. thousands of instructions per Python line |
//! | E3 | time-to-first-success: software hours vs. chip-design months |
//! | E4 | design cost $5 M @130 nm → $725 M @2 nm |
//! | E5 | MPW amortization and turnaround vs. course length |
//! | E6 | open-vs-commercial flow PPA gap |
//! | E7 | availability ≠ enablement; template automation (Rec. 4) |
//! | E8 | centralized cloud hub vs. local setups (Rec. 7) |
//! | E9 | tiered enablement strategies (Rec. 8) |
//! | E10 | talent-pipeline stagnation and Recs. 1–3 |
//!
//! Plus ablations A1 (synthesis effort) and A2 (placement effort).
//!
//! Run everything with
//! `cargo run -p chipforge-bench --release --bin experiments -- all`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod parity;
pub mod table;

pub use experiments::{run_experiment, EXPERIMENT_IDS};
