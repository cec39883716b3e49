//! The two workloads and the closed loop that measures them.
//!
//! A run sets up the workload several times (each set-up is timed and the
//! last one is kept), then runs passes until its time budget is spent.
//! A pass deploys a fresh, wrapped system and runs every configured
//! period: `uninitialize` + `initialize_sources` (timed as the
//! environment), then the period's dispatch (timed as the client, with
//! every engine call logged by the [`TimedSystem`]). After the periods the
//! pass aggregates the monitor outcome and checks the integrated data.
//! With tracing requested, passes alternate untraced / traced; end-to-end
//! and wrapper numbers come from untraced passes only.
//!
//! The federated engine never frees a dropped system, so its heap grows
//! with every pass. Memory metrics are therefore taken per pass (the
//! heap a pass adds on top of its start) and as a slope over passes, so
//! that neither depends on how many passes fit into the budget.

use crate::ledger::{PeriodTimes, Plant, TimedSystem};
use crate::metrics::self_time_by_layer;
use dip_bench::{build_system, shape_findings, EngineKind};
use dip_trace::Layer;
use dipbench::client::{Client, ReplaySkip, RunOutcome};
use dipbench::config::BenchConfig;
use dipbench::env::BenchEnvironment;
use dipbench::metric::ProcessMetric;
use dipbench::recovery::digest_tables;
use dipbench::scale::{Distribution, ScaleFactors};
use dipbench::system::IntegrationSystem;
use dipbench::verify::verify_outcome;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Periods per pass: the ROADMAP reference cell runs three.
pub const PERIODS: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 10 cell: fed, d=0.05, uniform, one worker (gated A ∥ B).
    FedFig10,
    /// The Fig. 11 size on mtm with zipf(1.0) data and a 2-worker pool.
    MtmSkewPool,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::FedFig10, Workload::MtmSkewPool];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FedFig10 => "fed_fig10",
            Workload::MtmSkewPool => "mtm_skew_pool",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Workload::FedFig10 => EngineKind::Federated,
            Workload::MtmSkewPool => EngineKind::Mtm,
        }
    }

    /// The workload's configuration for `seed` (Eager pacing throughout).
    pub fn config(self, seed: u64) -> BenchConfig {
        let (scale, workers) = match self {
            Workload::FedFig10 => (ScaleFactors::paper_fig10(), 1),
            Workload::MtmSkewPool => (ScaleFactors::new(0.1, 1.0, Distribution::Zipf10), 2),
        };
        BenchConfig::new(scale)
            .with_periods(PERIODS)
            .with_seed(seed)
            .with_workers(workers)
    }
}

/// How much and in which mode to measure.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// No pass starts after this much time has been spent on passes.
    pub budget: Duration,
    /// Passes to run whatever the budget; a traced run makes at least
    /// two, one of each kind.
    pub min_passes: usize,
    /// Alternate untraced and traced passes.
    pub trace: bool,
    /// Number of timed set-ups.
    pub setups: usize,
    pub plant: Option<Plant>,
}

/// One traced pass: what the program's own instrumentation reported.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// Counters (dip-trace and relstore allocation), pass totals.
    pub counters: BTreeMap<String, u64>,
    /// Span self time per layer, nanoseconds.
    pub self_ns: BTreeMap<Layer, u64>,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Measurement {
    pub periods_per_pass: u32,
    pub setup: Vec<Duration>,
    /// Periods of untraced / traced passes.
    pub untraced: Vec<PeriodTimes>,
    pub traced: Vec<PeriodTimes>,
    pub traced_passes: Vec<TracedPass>,
    /// Per untraced pass: `build_outcome`, `verify_outcome` and
    /// `digest_tables` wall times.
    pub build_outcome: Vec<Duration>,
    pub verify: Vec<Duration>,
    pub digest: Vec<Duration>,
    /// Heap bytes in use (MiB) after the first set-up, before anything
    /// the program leaks on dropping a system has piled up.
    pub setup_heap_mb: Option<f64>,
    /// Per untraced pass: the largest heap in use after one of its
    /// periods, minus the heap in use when the pass started (MiB).
    pub pass_heap_rise_mb: Vec<f64>,
    /// `(pass number, heap MiB)` at the end of each untraced pass.
    pub pass_heap_mb: Vec<(f64, f64)>,
    /// Per-type monitor metrics of every pass, cold passes included.
    pub pass_metrics: Vec<Vec<ProcessMetric>>,
    /// The passed shape findings, for the report.
    pub findings: Vec<String>,
    /// Correctness failures; empty on a correct run.
    pub errors: Vec<String>,
}

impl Measurement {
    pub fn attempted(&self) -> usize {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|p| p.calls)
            .sum()
    }

    pub fn failed(&self) -> usize {
        self.untraced
            .iter()
            .chain(&self.traced)
            .map(|p| p.failed)
            .sum()
    }
}

#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Heap bytes the program holds right now, in MiB: glibc's in-use arena
/// bytes plus its memory-mapped chunks. Unlike the resident set it does
/// not count memory the allocator keeps in per-thread arenas after it was
/// freed, which varies from run to run with thread placement.
fn heap_in_use_mb() -> f64 {
    // SAFETY: mallinfo2 (glibc >= 2.33) takes no arguments and returns a
    // plain struct of ten `size_t` counters by value.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0)
}

fn rows_inserted() -> u64 {
    dip_relstore::alloc::snapshot()
        .into_iter()
        .find(|(name, _)| *name == "relstore.alloc.rows_inserted")
        .map_or(0, |(_, n)| n)
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Check a pass's monitor outcome: no dispatch failures, and
/// `verify_outcome` passes. The outcome's per-type metrics are kept for
/// the run's shape check.
fn check_outcome(
    env: &BenchEnvironment,
    outcome: &RunOutcome,
    what: &str,
    m: &mut Measurement,
) -> Result<(), String> {
    if !outcome.failures.is_empty() {
        m.errors.push(format!(
            "{what}: {} dispatch failures",
            outcome.failures.len()
        ));
    }
    let report = verify_outcome(env, outcome).map_err(err("verify"))?;
    if !report.passed() {
        m.errors
            .push(format!("{what}: verification failed:\n{report}"));
    }
    m.pass_metrics.push(outcome.metrics.clone());
    Ok(())
}

/// Per-type metrics averaged over passes. `shape_findings` compares
/// standard deviations, which the three periods of a single pass estimate
/// too noisily: one pass in about a hundred inverts the order by chance.
fn mean_metrics(passes: &[Vec<ProcessMetric>]) -> Vec<ProcessMetric> {
    let mut by_type: BTreeMap<&str, Vec<&ProcessMetric>> = BTreeMap::new();
    for pm in passes.iter().flatten() {
        by_type.entry(pm.process.as_str()).or_default().push(pm);
    }
    by_type
        .into_iter()
        .map(|(process, pms)| {
            let mean = |f: fn(&ProcessMetric) -> f64| {
                pms.iter().map(|pm| f(pm)).sum::<f64>() / pms.len() as f64
            };
            ProcessMetric {
                process: process.to_string(),
                instances: pms.iter().map(|pm| pm.instances).sum(),
                failures: pms.iter().map(|pm| pm.failures).sum(),
                navg_tu: mean(|pm| pm.navg_tu),
                stddev_tu: mean(|pm| pm.stddev_tu),
                navg_plus_tu: mean(|pm| pm.navg_plus_tu),
                comm_tu: mean(|pm| pm.comm_tu),
                mgmt_tu: mean(|pm| pm.mgmt_tu),
                proc_tu: mean(|pm| pm.proc_tu),
            }
        })
        .collect()
}

/// The paper-shape check over every pass of the run, cold passes included.
fn check_shape(config: BenchConfig, m: &mut Measurement) {
    let outcome = RunOutcome {
        system: String::new(),
        config,
        records: Vec::new(),
        normalized: Vec::new(),
        metrics: mean_metrics(&m.pass_metrics),
        failures: Vec::new(),
        dead_letters: Vec::new(),
        late_dispatch: 0,
        wall_time: Duration::ZERO,
    };
    for finding in shape_findings(&outcome) {
        match finding {
            Ok(f) => m.findings.push(f),
            Err(e) => m
                .errors
                .push(format!("shape over {} passes: {e}", m.pass_metrics.len())),
        }
    }
}

/// What the timed passes start from.
struct Prepared {
    env: BenchEnvironment,
    /// Table digests after the cold pass.
    reference: BTreeMap<String, u64>,
}

/// Time `setups` set-ups and keep the last environment. A set-up is
/// construction + deploy + the cold pass, a plain `Client::run()`, that
/// generates and caches the source snapshots. The cold pass's table
/// digests are the reference every timed pass must reproduce.
fn set_up(
    w: Workload,
    config: BenchConfig,
    opts: &Options,
    m: &mut Measurement,
) -> Result<Prepared, String> {
    let mut kept: Option<Prepared> = None;
    for _ in 0..opts.setups.max(1) {
        drop(kept.take()); // release the previous environment first
        let t = Instant::now();
        let env = BenchEnvironment::new(config).map_err(err("environment"))?;
        let client =
            Client::new(&env, build_system(w.engine(), &env)).map_err(err("deploy"))?;
        let outcome = client.run().map_err(err("cold pass"))?;
        m.setup.push(t.elapsed());
        m.setup_heap_mb.get_or_insert_with(heap_in_use_mb);
        check_outcome(&env, &outcome, "cold pass", m)?;
        let digest = digest_tables(&env.world).map_err(err("digest"))?;
        if kept.as_ref().is_some_and(|p| p.reference != digest) {
            m.errors
                .push("cold pass digests differ between set-ups".into());
        }
        drop(client);
        kept = Some(Prepared {
            env,
            reference: digest,
        });
    }
    Ok(kept.expect("at least one set-up"))
}

/// Run workload `w` under `config` and measure it.
pub fn run(w: Workload, config: BenchConfig, opts: &Options) -> Result<Measurement, String> {
    let mut m = Measurement {
        periods_per_pass: config.periods,
        ..Measurement::default()
    };
    let Prepared { env, reference } = set_up(w, config, opts, &mut m)?;
    let start = Instant::now();
    let min = opts.min_passes.max(1 + usize::from(opts.trace));
    let mut pass = 0usize;
    while pass < min || start.elapsed() < opts.budget {
        let traced = opts.trace && pass % 2 == 1;
        let heap_at_start = heap_in_use_mb();
        let timed = TimedSystem::new(build_system(w.engine(), &env), opts.plant);
        let client = Client::new(&env, timed.clone() as Arc<dyn IntegrationSystem>)
            .map_err(err("deploy"))?;
        if traced {
            let _ = dip_relstore::alloc::drain();
            let _ = dip_trace::drain();
            let _ = dip_trace::drain_counters();
            dip_trace::enable();
        }
        let pass_start = Instant::now();
        let mut failures = Vec::new();
        let mut periods = Vec::new();
        let mut heap_peak = heap_at_start;
        for k in 0..config.periods {
            let t0 = Instant::now();
            let loaded = rows_inserted();
            env.uninitialize().map_err(err("uninitialize"))?;
            env.initialize_sources(k)
                .map_err(err("initialize_sources"))?;
            let rows_loaded = rows_inserted() - loaded;
            let t1 = Instant::now();
            let run = client
                .run_period_from(k, &ReplaySkip::none(), false)
                .map_err(err("period"))?;
            failures.extend(run.failures);
            let t2 = Instant::now();
            periods.push(PeriodTimes::new(
                k,
                t0,
                t1,
                t2,
                rows_loaded,
                &timed.take_calls(),
            ));
            if !traced {
                heap_peak = heap_peak.max(heap_in_use_mb());
            }
        }
        let wall = pass_start.elapsed();
        if traced {
            dip_trace::disable();
            let mut counters: BTreeMap<String, u64> =
                dip_trace::drain_counters().into_iter().collect();
            for (name, n) in dip_relstore::alloc::drain() {
                counters.insert(name.to_string(), n);
            }
            m.traced_passes.push(TracedPass {
                counters,
                self_ns: self_time_by_layer(&dip_trace::drain()),
            });
        }
        for p in &periods {
            if p.failed > 0 {
                m.errors
                    .push(format!("period {}: {} deliveries not ok", p.k, p.failed));
            }
            if p.stray > 0 {
                m.errors.push(format!(
                    "period {}: {} engine calls outside the dispatch",
                    p.k, p.stray
                ));
            }
        }

        let t = Instant::now();
        let outcome = client.build_outcome(
            timed.recorder().drain(),
            failures,
            timed.dead_letters().drain(),
            wall,
        );
        let build = t.elapsed();
        let t = Instant::now();
        check_outcome(&env, &outcome, &format!("pass {pass}"), &mut m)?;
        let verify = t.elapsed();
        let t = Instant::now();
        let digest = digest_tables(&env.world).map_err(err("digest"))?;
        let digest_time = t.elapsed();
        if digest != reference {
            m.errors.push(format!(
                "pass {pass}: table digests differ from the cold pass"
            ));
        }

        if traced {
            m.traced.extend(periods);
        } else {
            m.untraced.extend(periods);
            m.build_outcome.push(build);
            m.verify.push(verify);
            m.digest.push(digest_time);
            m.pass_heap_rise_mb.push(heap_peak - heap_at_start);
            m.pass_heap_mb.push((pass as f64, heap_in_use_mb()));
        }
        pass += 1;
    }
    check_shape(config, &mut m);
    Ok(m)
}
