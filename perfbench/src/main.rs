//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one provenance line and then, as the last line of standard
//! output, the result object: `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;

use perfbench::{run, Spec, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => {
                    return Err(format!(
                        "--seconds must be a whole number in 1..=600, got {value}"
                    ))
                }
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ycsb-a-zipf|ycsb-c-uniform|ycsb-e-scan> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = run(
        &Spec::standard(args.workload),
        args.seed,
        args.seconds as f64,
        args.trace,
    );
    let mut prov = obs::Json::obj();
    prov.set("provenance", outcome.provenance.clone());
    println!("{}", prov.render());
    println!("{}", outcome.result_json().render());
    ExitCode::SUCCESS
}
