//! Turning a [`Measurement`] into named metrics.
//!
//! Times are medians over periods (or passes, where a quantity exists
//! once per pass); counters are medians over traced passes of the pass
//! total, so they read as exact counts when the program is deterministic.
//! A metric is *registered* when `BENCHMARK.json` lists it: registered
//! metrics exist, and are measured, on every workload. The others are
//! printed in the table only: `failed_share`, which is zero on a correct
//! run, and span self times that are zero by construction on one
//! workload (the mtm layer on fed, …).

use crate::ledger::PeriodTimes;
use crate::workload::Measurement;
use dip_trace::{Layer, SpanRecord};
use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    EndToEnd,
    Layer,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None` when the workload has nothing to measure for it.
    pub value: Option<f64>,
    /// Number of samples the value summarizes.
    pub n: usize,
    pub class: Class,
    pub registered: bool,
}

/// The median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `p`-quantile of `xs` by linear interpolation between closest ranks.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let last = s.len().checked_sub(1)?;
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Exclusive (self) time per layer: each span's duration minus its direct
/// children on the same thread. Netsim `transfer` spans are dropped — they
/// carry modeled communication time, not measured time. Cross-thread
/// waits are not subtracted: a span that waits for other threads (the
/// core `period` span during A ∥ B, say) keeps that wait as self time.
pub fn self_time_by_layer(spans: &[SpanRecord]) -> BTreeMap<Layer, u64> {
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if !(s.layer == Layer::Netsim && s.op == "transfer") {
            by_thread.entry(s.thread).or_default().push(s);
        }
    }
    let mut out: BTreeMap<Layer, u64> = BTreeMap::new();
    for mut v in by_thread.into_values() {
        // parents before their children: earlier start, then longer
        v.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut own: Vec<u64> = v.iter().map(|s| s.dur_ns).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in v.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if v[top].start_ns + v[top].dur_ns <= s.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                own[parent] = own[parent].saturating_sub(s.dur_ns);
            }
            stack.push(i);
        }
        for (s, t) in v.iter().zip(own) {
            *out.entry(s.layer).or_default() += t;
        }
    }
    out
}

fn sample(
    name: &'static str,
    unit: &'static str,
    class: Class,
    registered: bool,
    xs: Vec<f64>,
) -> Metric {
    Metric {
        name,
        unit,
        value: median(&xs),
        n: xs.len(),
        class,
        registered,
    }
}

fn single(
    name: &'static str,
    unit: &'static str,
    class: Class,
    value: Option<f64>,
    n: usize,
) -> Metric {
    Metric {
        name,
        unit,
        value,
        n,
        class,
        registered: true,
    }
}

/// Every metric of a run, end-to-end first.
pub fn metrics(m: &Measurement) -> Vec<Metric> {
    use Class::{EndToEnd as E, Layer as L};
    let per = |f: &dyn Fn(&PeriodTimes) -> f64| -> Vec<f64> { m.untraced.iter().map(f).collect() };
    let type_ms = |p: &str| per(&|t| t.by_type.get(p).map_or(0.0, |e| ms(e.1)));
    let ppp = m.periods_per_pass.max(1) as usize;
    let e1_us: Vec<f64> = m
        .untraced
        .iter()
        .flat_map(|p| &p.e1_latencies)
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let attempted = m.attempted();
    let counter = |name: &str| -> Vec<f64> {
        m.traced_passes
            .iter()
            .map(|t| t.counters.get(name).copied().unwrap_or(0) as f64)
            .collect()
    };
    let batch_share: Vec<f64> = m
        .traced_passes
        .iter()
        .map(|t| {
            let get = |k: &str| t.counters.get(k).copied().unwrap_or(0) as f64;
            get("relstore.batch.rows.scan") / get("relstore.rows_out.scan").max(1.0)
        })
        .collect();
    let self_ms = |layers: &[Layer]| -> Vec<f64> {
        m.traced_passes
            .iter()
            .map(|t| &t.self_ns)
            .map(|by| {
                let ns: u64 = layers.iter().map(|l| by.get(l).copied().unwrap_or(0)).sum();
                ns as f64 / 1e6 / ppp as f64
            })
            .collect()
    };
    let period_ms = per(&|p| ms(p.period));
    let traced_ms: Vec<f64> = m.traced.iter().map(|p| ms(p.period)).collect();
    let overhead = median(&traced_ms)
        .zip(median(&period_ms))
        .map(|(t, u)| (t / u - 1.0) * 100.0);
    // least-squares slope of the heap over passes: memory the program
    // retains from one pass to the next
    let heap_growth = (m.pass_heap_mb.len() > 2).then(|| {
        let n = m.pass_heap_mb.len() as f64;
        let mean_x = m.pass_heap_mb.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = m.pass_heap_mb.iter().map(|p| p.1).sum::<f64>() / n;
        let (mut sxy, mut sxx) = (0.0, 0.0);
        for (x, y) in &m.pass_heap_mb {
            sxy += (x - mean_x) * (y - mean_y);
            sxx += (x - mean_x) * (x - mean_x);
        }
        sxy / sxx
    });
    let durations = |ds: &[Duration]| -> Vec<f64> { ds.iter().copied().map(ms).collect() };
    // the set-up heap plus the median of the most a pass adds to it, so it
    // does not depend on how many passes or set-ups the run made
    let peak_heap = m
        .setup_heap_mb
        .zip(median(&m.pass_heap_rise_mb))
        .map(|(base, rise)| base + rise);

    vec![
        sample(
            "setup_s",
            "s",
            E,
            true,
            m.setup.iter().map(Duration::as_secs_f64).collect(),
        ),
        sample("period_ms", "ms", E, true, period_ms),
        sample("etl_ms", "ms", E, true, per(&|p| ms(p.etl))),
        single("e1_msg_us_p50", "us", E, quantile(&e1_us, 0.5), e1_us.len()),
        single("e1_msg_us_p90", "us", E, quantile(&e1_us, 0.9), e1_us.len()),
        single(
            "peak_heap_mb",
            "MiB",
            E,
            peak_heap,
            m.pass_heap_rise_mb.len(),
        ),
        Metric {
            registered: false,
            ..single(
                "failed_share",
                "ratio",
                E,
                (attempted > 0).then(|| m.failed() as f64 / attempted as f64),
                attempted,
            )
        },
        sample("env.init_ms", "ms", L, true, per(&|p| ms(p.init))),
        sample(
            "env.rows_loaded",
            "count",
            L,
            true,
            m.untraced
                .chunks(ppp)
                .map(|c| c.iter().map(|p| p.rows_loaded as f64).sum())
                .collect(),
        ),
        sample(
            "client.dispatch_ms",
            "ms",
            L,
            true,
            per(&|p| ms(p.dispatch)),
        ),
        sample(
            "client.outside_engine_ms",
            "ms",
            L,
            true,
            per(&|p| ms(p.outside_engine())),
        ),
        sample(
            "client.engine_share",
            "ratio",
            L,
            true,
            per(&|p| p.engine_busy.as_secs_f64() / p.dispatch.as_secs_f64().max(1e-12)),
        ),
        sample(
            "client.ab_parallelism",
            "ratio",
            L,
            true,
            per(&|p| p.ab_busy.as_secs_f64() / p.ab_union.as_secs_f64().max(1e-12)),
        ),
        sample(
            "client.cd_serial_ms",
            "ms",
            L,
            true,
            m.untraced
                .iter()
                .filter_map(|p| p.cd_serial)
                .map(ms)
                .collect(),
        ),
        sample("engine.busy_ms", "ms", L, true, per(&|p| ms(p.engine_busy))),
        sample("engine.e1_busy_ms", "ms", L, true, per(&|p| ms(p.e1_busy))),
        sample("engine.e2_busy_ms", "ms", L, true, per(&|p| ms(p.e2_busy))),
        sample("engine.P09_ms", "ms", L, true, type_ms("P09")),
        sample("engine.P13_ms", "ms", L, true, type_ms("P13")),
        sample("engine.P14_ms", "ms", L, true, type_ms("P14")),
        sample(
            "monitor.build_outcome_ms",
            "ms",
            L,
            true,
            durations(&m.build_outcome),
        ),
        sample("verify.verify_ms", "ms", L, true, durations(&m.verify)),
        sample("verify.digest_ms", "ms", L, true, durations(&m.digest)),
        sample(
            "relstore.rows_inserted",
            "count",
            L,
            true,
            counter("relstore.alloc.rows_inserted"),
        ),
        sample(
            "relstore.rows_scanned",
            "count",
            L,
            true,
            counter("relstore.rows_out.scan"),
        ),
        sample("relstore.batch_rows_share", "ratio", L, true, batch_share),
        sample(
            "relstore.rows_materialized",
            "count",
            L,
            true,
            counter("relstore.alloc.rows_materialized"),
        ),
        sample(
            "relstore.str_new",
            "count",
            L,
            true,
            counter("relstore.alloc.str_new"),
        ),
        sample("tx.begin", "count", L, true, counter("tx.begin")),
        sample(
            "xmlkit.parse_bytes",
            "count",
            L,
            true,
            counter("xmlkit.parse_bytes"),
        ),
        sample("netsim.bytes", "count", L, true, counter("netsim.bytes")),
        sample("self_ms.core", "ms", L, true, self_ms(&[Layer::Core])),
        sample(
            "self_ms.engine",
            "ms",
            L,
            true,
            self_ms(&[Layer::Feddbms, Layer::Mtm]),
        ),
        sample(
            "self_ms.relstore",
            "ms",
            L,
            true,
            self_ms(&[Layer::Relstore]),
        ),
        sample("self_ms.xmlkit", "ms", L, true, self_ms(&[Layer::Xmlkit])),
        sample(
            "self_ms.feddbms",
            "ms",
            L,
            false,
            self_ms(&[Layer::Feddbms]),
        ),
        sample("self_ms.mtm", "ms", L, false, self_ms(&[Layer::Mtm])),
        sample(
            "self_ms.services",
            "ms",
            L,
            false,
            self_ms(&[Layer::Services]),
        ),
        single("trace.overhead_pct", "%", L, overhead, traced_ms.len()),
        single(
            "mem.heap_growth_mb_per_pass",
            "MiB",
            L,
            heap_growth,
            m.pass_heap_mb.len(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), Some(9.0));
        assert_eq!(quantile(&[5.0], 0.9), Some(5.0));
    }

    fn span(thread: u64, layer: Layer, op: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            layer,
            op,
            category: None,
            process: None,
            period: None,
            instance: None,
            thread,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = [
            span(1, Layer::Core, "period", 0, 100),
            span(1, Layer::Feddbms, "procedure_body", 10, 50),
            span(1, Layer::Relstore, "scan", 20, 20),
            span(1, Layer::Netsim, "transfer", 30, 1_000),
            // another thread inside the period's interval is not a child
            span(2, Layer::Xmlkit, "parse", 10, 40),
        ];
        let by = self_time_by_layer(&spans);
        assert_eq!(by[&Layer::Core], 50);
        assert_eq!(by[&Layer::Feddbms], 30);
        assert_eq!(by[&Layer::Relstore], 20);
        assert_eq!(by[&Layer::Xmlkit], 40);
        assert!(!by.contains_key(&Layer::Netsim));
    }
}
