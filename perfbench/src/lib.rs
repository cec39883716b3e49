//! Outside-in performance benchmark for the DIPBench reproduction.
//!
//! Two closed-loop workloads ([`workload::Workload`]) drive the
//! repository's public API; every layer is timed from outside, through
//! public calls only: the environment (`uninitialize`,
//! `initialize_sources`), the client (`Client::run_period_from`,
//! `Client::build_outcome`), every engine call (a [`ledger::TimedSystem`]
//! wrapped around the system `dip_bench::build_system` returns) and the
//! verifier (`verify_outcome`, `digest_tables`). Traced passes add the
//! program's own counters and span self times. See `README.md` next to
//! this crate for the metric catalogue.

pub mod ledger;
pub mod metrics;
pub mod workload;
