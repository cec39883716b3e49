//! The timing wrapper around the system under test, and the interval
//! arithmetic that turns its call log into per-layer times.
//!
//! Everything here observes the program from outside: the wrapper sits
//! between the [`dipbench::client::Client`] and the
//! `Arc<dyn IntegrationSystem>` that `dip_bench::build_system`
//! returns, and records one [`Call`] per `deliver`.

use dip_bench::barometer::ALL_PROCESSES;
use dip_mtm::cost::CostRecorder;
use dip_mtm::error::MtmResult;
use dip_mtm::process::ProcessDef;
use dipbench::system::{DeadLetterQueue, Delivery, Event, IntegrationSystem};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process types started by an E1 message; every other type is an E2
/// (time-based) process.
pub const E1_TYPES: [&str; 5] = ["P01", "P02", "P04", "P08", "P10"];

/// Process types of the serialized streams C and D, which run after the
/// concurrent A ∥ B phase.
pub const CD_TYPES: [&str; 4] = ["P12", "P13", "P14", "P15"];

pub fn is_e1(process: &str) -> bool {
    E1_TYPES.contains(&process)
}

/// One `deliver` call as the wrapper saw it.
#[derive(Debug, Clone)]
pub struct Call {
    pub process: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
}

impl Call {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// A planted slowdown: every delivery of `process` takes `delay` longer.
/// Used by the attribution self-test to prove that a slower layer shows
/// up in the metric that is meant to catch it.
#[derive(Debug, Clone, Copy)]
pub struct Plant {
    pub process: &'static str,
    pub delay: Duration,
}

/// Wraps a system under test and logs the wall interval of every
/// `deliver` call. All other trait methods delegate unchanged.
pub struct TimedSystem {
    inner: Arc<dyn IntegrationSystem>,
    calls: Mutex<Vec<Call>>,
    plant: Option<Plant>,
}

impl TimedSystem {
    pub fn new(inner: Arc<dyn IntegrationSystem>, plant: Option<Plant>) -> Arc<TimedSystem> {
        Arc::new(TimedSystem {
            inner,
            calls: Mutex::new(Vec::new()),
            plant,
        })
    }

    /// Take the calls logged since the last take.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log lock"))
    }
}

impl IntegrationSystem for TimedSystem {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn deploy(&self, defs: Vec<ProcessDef>) -> MtmResult<()> {
        self.inner.deploy(defs)
    }

    fn deliver(&self, event: Event) -> Delivery {
        let process = ALL_PROCESSES
            .iter()
            .copied()
            .find(|p| *p == event.process())
            .unwrap_or("other");
        let start = Instant::now();
        let delivery = self.inner.deliver(event);
        if let Some(plant) = self.plant.filter(|p| p.process == process) {
            std::thread::sleep(plant.delay);
        }
        let end = Instant::now();
        self.calls.lock().expect("call log lock").push(Call {
            process,
            start,
            end,
            ok: delivery.is_ok(),
        });
        delivery
    }

    fn recorder(&self) -> Arc<CostRecorder> {
        self.inner.recorder()
    }

    fn dead_letters(&self) -> Arc<DeadLetterQueue> {
        self.inner.dead_letters()
    }
}

/// Wall time covered by at least one of `intervals`.
pub fn union(intervals: impl IntoIterator<Item = (Instant, Instant)>) -> Duration {
    let mut v: Vec<(Instant, Instant)> = intervals.into_iter().collect();
    v.sort_by_key(|i| i.0);
    let mut total = Duration::ZERO;
    let mut open: Option<(Instant, Instant)> = None;
    for (s, e) in v {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

/// Everything measured about one period, from outside the program.
#[derive(Debug, Clone, Default)]
pub struct PeriodTimes {
    /// Period number `k`.
    pub k: u32,
    /// From `uninitialize` until the dispatch returned after the
    /// period's last delivery.
    pub period: Duration,
    /// `uninitialize` + `initialize_sources`.
    pub init: Duration,
    /// Rows the two environment calls inserted.
    pub rows_loaded: u64,
    /// The dispatch: `Client::run_period_from`.
    pub dispatch: Duration,
    /// Union of all engine-call intervals.
    pub engine_busy: Duration,
    /// Union of the E1 / E2 engine-call intervals.
    pub e1_busy: Duration,
    pub e2_busy: Duration,
    /// Summed latency of the period's E2 instances.
    pub etl: Duration,
    /// Busy (summed) and union time of the calls before stream C starts.
    pub ab_busy: Duration,
    pub ab_union: Duration,
    /// First P12 start to last P15 end (`None` without stream C/D calls).
    pub cd_serial: Option<Duration>,
    /// Per process type: call count and summed latency.
    pub by_type: BTreeMap<&'static str, (usize, Duration)>,
    /// Latency of every E1 delivery.
    pub e1_latencies: Vec<Duration>,
    pub calls: usize,
    pub failed: usize,
    /// Calls that did not lie wholly inside the dispatch; the dispatch is
    /// only split into engine and outside time when there are none.
    pub stray: usize,
}

impl PeriodTimes {
    /// Build the period's ledger from its boundaries and the calls the
    /// wrapper logged during the dispatch.
    pub fn new(
        k: u32,
        t0: Instant,
        t1: Instant,
        t2: Instant,
        rows_loaded: u64,
        calls: &[Call],
    ) -> Self {
        let span = |c: &Call| (c.start, c.end);
        let cd: Vec<&Call> = calls
            .iter()
            .filter(|c| CD_TYPES.contains(&c.process))
            .collect();
        let cd_start = cd.iter().map(|c| c.start).min();
        let ab: Vec<&Call> = calls
            .iter()
            .filter(|c| !CD_TYPES.contains(&c.process))
            .collect();
        let mut by_type: BTreeMap<&'static str, (usize, Duration)> = BTreeMap::new();
        for c in calls {
            let e = by_type.entry(c.process).or_default();
            e.0 += 1;
            e.1 += c.dur();
        }
        PeriodTimes {
            k,
            period: t2 - t0,
            init: t1 - t0,
            rows_loaded,
            dispatch: t2 - t1,
            engine_busy: union(calls.iter().map(span)),
            e1_busy: union(calls.iter().filter(|c| is_e1(c.process)).map(span)),
            e2_busy: union(calls.iter().filter(|c| !is_e1(c.process)).map(span)),
            etl: calls
                .iter()
                .filter(|c| !is_e1(c.process))
                .map(Call::dur)
                .sum(),
            ab_busy: ab.iter().map(|c| c.dur()).sum(),
            ab_union: union(ab.iter().map(|c| span(c))),
            cd_serial: cd_start.map(|s| cd.iter().map(|c| c.end).max().unwrap_or(s) - s),
            by_type,
            e1_latencies: calls
                .iter()
                .filter(|c| is_e1(c.process))
                .map(Call::dur)
                .collect(),
            calls: calls.len(),
            failed: calls.iter().filter(|c| !c.ok).count(),
            stray: calls.iter().filter(|c| c.start < t1 || c.end > t2).count(),
        }
    }

    /// Dispatch wall time not covered by any engine call.
    pub fn outside_engine(&self) -> Duration {
        self.dispatch.saturating_sub(self.engine_busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        let u = union([
            (ms(0), ms(10)),
            (ms(5), ms(15)),
            (ms(20), ms(25)),
            (ms(21), ms(22)),
        ]);
        assert_eq!(u, Duration::from_millis(20));
        assert_eq!(union([]), Duration::ZERO);
    }

    #[test]
    fn ledger_splits_ab_and_cd() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        let call = |p, s, e| Call {
            process: p,
            start: ms(s),
            end: ms(e),
            ok: true,
        };
        let calls = [
            call("P04", 2, 6),
            call("P05", 4, 8),
            call("P13", 10, 12),
            call("P14", 13, 17),
        ];
        let p = PeriodTimes::new(0, ms(0), ms(1), ms(20), 0, &calls);
        assert_eq!(p.dispatch, Duration::from_millis(19));
        assert_eq!(p.engine_busy, Duration::from_millis(12));
        assert_eq!(p.outside_engine(), Duration::from_millis(7));
        assert_eq!(p.ab_busy, Duration::from_millis(8));
        assert_eq!(p.ab_union, Duration::from_millis(6));
        assert_eq!(p.cd_serial, Some(Duration::from_millis(7)));
        assert_eq!(p.etl, Duration::from_millis(10));
        assert_eq!(p.e1_latencies, vec![Duration::from_millis(4)]);
        assert_eq!(p.stray, 0);
        let early = [call("P04", 0, 3), call("P13", 19, 21)];
        assert_eq!(PeriodTimes::new(0, ms(0), ms(1), ms(20), 0, &early).stray, 2);
    }
}
