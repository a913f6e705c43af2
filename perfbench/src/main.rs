//! `charles-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per figure, a provenance line, and as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any output was wrong or any check failed, 2 when the
//! run could not be carried out (no result line then).

use charles_perfbench::bench::{run, Args, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".perfbench_out");
    let work = out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let spans = out.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    let result = run(&args, &work, &spans);
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &report.metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in &report.notes {
        match value {
            Some(v) => println!("{name:<28} {v:>14.4} {unit}"),
            None => println!(
                "{name:<28} {:>14} {unit} (too few samples beyond it)",
                "n/a"
            ),
        }
    }
    println!("{}", report.provenance);
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            eprintln!("perfbench: {} is not finite", m.name);
            return ExitCode::from(2);
        }
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
    match report.correct {
        true => ExitCode::SUCCESS,
        false => ExitCode::from(1),
    }
}
