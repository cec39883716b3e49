//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload fed_fig10|mtm_skew_pool --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a table of every metric (name, median, unit, sample count) and,
//! as the last line of standard output, one JSON object with the
//! registered end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`). Exits 1 when a correctness check fails, 2 on bad usage.

use dip_perfbench::metrics::{self, Class, Metric};
use dip_perfbench::workload::{self, Options, Workload};
use std::process::ExitCode;
use std::time::Duration;

/// Timed set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload fed_fig10|mtm_skew_pool --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn json_line(correct: bool, attempted: usize, failed: usize, shown: &[&Metric]) -> String {
    let body: Vec<String> = shown
        .iter()
        .map(|m| {
            let value = m
                .value
                .filter(|v| v.is_finite())
                .map_or("null".to_string(), |v| v.to_string());
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_table(w: Workload, all: &[Metric]) {
    println!("workload {}", w.name());
    for (class, title) in [(Class::EndToEnd, "end-to-end"), (Class::Layer, "per-layer")] {
        println!("  {title}:");
        for m in all.iter().filter(|m| m.class == class) {
            let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
            let mark = if m.registered { "" } else { "  (table only)" };
            println!(
                "    {:<28} {:>16} {:<6} n={}{mark}",
                m.name, value, m.unit, m.n
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(w) = Workload::parse(&args.workload) else {
        return usage(&format!("unknown workload {:?}", args.workload));
    };
    let opts = Options {
        budget: Duration::from_secs_f64(args.seconds),
        min_passes: 1,
        trace: args.trace,
        setups: SETUPS,
        plant: None,
    };
    let m = match workload::run(w, w.config(args.seed), &opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let all = metrics::metrics(&m);
    print_table(w, &all);
    for finding in &m.findings {
        println!("  shape: {finding}");
    }
    let want = if args.trace {
        Class::Layer
    } else {
        Class::EndToEnd
    };
    let shown: Vec<&Metric> = all
        .iter()
        .filter(|x| x.registered && x.class == want)
        .collect();
    let mut errors = m.errors.clone();
    for x in &shown {
        if !x.value.is_some_and(f64::is_finite) {
            errors.push(format!("metric {} was not measured", x.name));
        }
    }
    for e in &errors {
        eprintln!("perfbench: CORRECTNESS: {e}");
    }
    println!(
        "{}",
        json_line(errors.is_empty(), m.attempted(), m.failed(), &shown)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
