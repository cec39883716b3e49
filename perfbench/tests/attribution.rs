//! Attribution self-tests: the wrapper sees exactly the scheduled events,
//! and a slowdown planted in one process type shows up in that type's
//! engine metric and in `period_ms`, not in the environment's time.

use dip_perfbench::ledger::Plant;
use dip_perfbench::metrics::metrics;
use dip_perfbench::workload::{run, Measurement, Options, Workload};
use dipbench::schedule;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The runs share process-global counters and compete for the same cores;
/// run them one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn options(passes: usize, plant: Option<Plant>) -> Options {
    Options {
        budget: Duration::ZERO,
        min_passes: passes,
        trace: false,
        setups: 1,
        plant,
    }
}

fn value(m: &Measurement, name: &str) -> f64 {
    metrics(m)
        .into_iter()
        .find(|x| x.name == name)
        .and_then(|x| x.value)
        .unwrap_or_else(|| panic!("{name} not measured"))
}

#[test]
fn wrapper_counts_match_the_schedule() {
    let _guard = serial();
    for w in Workload::ALL {
        let config = w.config(7).with_periods(2);
        let m = run(w, config, &options(1, None)).expect("run");
        assert!(m.errors.is_empty(), "{}: {:?}", w.name(), m.errors);
        assert_eq!(m.untraced.len(), 2, "{}: one pass of two periods", w.name());
        for p in &m.untraced {
            let mut want: BTreeMap<&str, usize> = BTreeMap::new();
            for (_, events) in schedule::period_streams(p.k, config.scale.datasize) {
                for e in events {
                    *want.entry(e.process).or_default() += 1;
                }
            }
            let got: BTreeMap<&str, usize> = p.by_type.iter().map(|(t, (n, _))| (*t, *n)).collect();
            assert_eq!(got, want, "{} period {}", w.name(), p.k);
            // every engine call lies inside the dispatch, so engine time
            // and the rest split it; the engine takes nearly all of it
            assert_eq!(p.stray, 0, "{} period {}", w.name(), p.k);
            assert!(p.engine_busy <= p.dispatch, "{} period {}", w.name(), p.k);
            let share = p.engine_busy.as_secs_f64() / p.dispatch.as_secs_f64();
            assert!(share >= 0.9, "{}: engine share {share:.3}", w.name());
        }
    }
}

#[test]
fn planted_delay_lands_in_its_layer() {
    let _guard = serial();
    let w = Workload::FedFig10;
    let config = w.config(7);
    let delay = Duration::from_millis(60);
    let plant = Plant {
        process: "P13",
        delay,
    };
    let base = run(w, config, &options(3, None)).expect("baseline run");
    let slow = run(w, config, &options(3, Some(plant))).expect("planted run");
    assert!(base.errors.is_empty(), "{:?}", base.errors);
    assert!(slow.errors.is_empty(), "{:?}", slow.errors);
    let d = delay.as_secs_f64() * 1e3;
    let grew = |name: &str| value(&slow, name) - value(&base, name);
    assert!(
        grew("engine.P13_ms") > 0.9 * d,
        "P13 grew {}",
        grew("engine.P13_ms")
    );
    assert!(
        grew("period_ms") > 0.7 * d,
        "period grew {}",
        grew("period_ms")
    );
    assert!(
        grew("env.init_ms").abs() < 0.2 * d,
        "init moved {}",
        grew("env.init_ms")
    );
    assert!(
        grew("engine.P14_ms").abs() < 0.2 * d,
        "P14 moved {}",
        grew("engine.P14_ms")
    );
}
