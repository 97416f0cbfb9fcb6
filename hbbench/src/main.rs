//! Command line: `hb-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, or `hb-perfbench --list`.

use std::path::PathBuf;
use std::process::ExitCode;

use hb_perfbench::workloads::Params;
use hb_perfbench::{catalog, result_json, sys, trace};

const USAGE: &str = "usage: hb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       hb-perfbench --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                catalog::workload(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalog::listing());
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params::new(args.seed, args.seconds as f64, args.trace);
    let out = hb_perfbench::run(&args.workload, &params);

    for line in &out.report {
        println!("{line}");
    }
    // Repetitions repeat every check: print each once, with the first
    // failure's values if any, else the last values seen.
    let mut names: Vec<&str> = Vec::new();
    for check in out.ledger.checks() {
        if !names.contains(&check.name) {
            names.push(check.name);
        }
    }
    for name in names {
        let runs: Vec<_> = out
            .ledger
            .checks()
            .iter()
            .filter(|c| c.name == name)
            .collect();
        let failed = runs.iter().find(|c| !c.ok);
        let shown = failed.or(runs.last()).expect("at least one check");
        println!(
            "check {name:<50} {} x{}  ({})",
            if failed.is_some() { "FAILED" } else { "ok" },
            runs.len(),
            shown.detail
        );
    }
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.tsv", args.workload));
        match trace::write_tsv(&path, &out.spans) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(err) => eprintln!("could not write spans to {}: {err}", path.display()),
        }
    }
    let table = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    for metric in table {
        if let Some(value) = out.metrics.get(metric.name) {
            println!("metric {:<34} {:>16.4} {}", metric.name, value, metric.unit);
        }
    }
    println!(
        "meta {}",
        sys::meta_json(&args.workload, args.seed, args.seconds, args.trace)
    );
    println!("{}", result_json(&out, args.trace));
    ExitCode::SUCCESS
}
