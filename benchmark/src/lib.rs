//! `mgk-benchmark`: the repository's repeatable benchmark. See `README.md`
//! beside this crate for the metrics, the workloads and the four
//! measurement rules (one pinned CPU, identical laps, quiet values, reference
//! host speed).

pub mod bench;
pub mod cli;
pub mod corpus;
pub mod gram;
pub mod host;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod pin;
pub mod report;
pub mod run;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
