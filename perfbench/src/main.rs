//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <hull_cold|pontryagin_cold|query_hot|ensemble>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <spans.jsonl>]
//! ```
//!
//! Prints a header echoing the workload and seed, one line per metric, and
//! as its last line the JSON result. Exits 0 when the benchmark ran (wrong
//! answers are reported in the result), 1 when it could not run, 2 on a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Config, Workload};

const USAGE: &str = "usage: perfbench --workload <hull_cold|pontryagin_cold|query_hot|ensemble> \
--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = |what: &str| format!("`{flag}` needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| number("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| number("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(number("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                });
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let missing = |name: &str| format!("missing `--{name}`");
    Ok(Config {
        trace_out,
        ..Config::new(
            workload.ok_or_else(|| missing("workload"))?,
            seed.ok_or_else(|| missing("seed"))?,
            seconds.ok_or_else(|| missing("seconds"))?,
            trace.ok_or_else(|| missing("trace"))?,
        )
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match perfbench::run(&config) {
        Ok(report) => {
            for line in report.metric_lines() {
                println!("{line}");
            }
            println!(
                "  attempted {} failed {} correct {}",
                report.attempted, report.failed, report.correct
            );
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot run `{}`: {e}", config.workload.name());
            ExitCode::FAILURE
        }
    }
}
