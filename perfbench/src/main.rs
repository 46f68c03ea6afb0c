//! `armbar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]`
//!
//! Prints human-readable lines, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use std::process::ExitCode;

use armbar_perfbench::bench::{run, spans_tsv, Report, RunOpts};
use armbar_perfbench::deck::Workload;

struct Args {
    opts: RunOpts,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = RunOpts {
        workload: Workload::ManycoreBarrier,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Args { opts, spans })
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Full precision; JSON has no NaN or infinity, so those print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("armbar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(args.opts);
    println!("== {}", args.opts.workload.name());
    for n in &report.notes {
        println!("{n}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, spans_tsv(&report.spans)) {
            eprintln!("armbar-perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}
