//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <pod-saturated|ctrl-restart>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is a closed loop: one thread calls the simulator, waits for it
//! to finish, and calls it again until `--seconds` have passed. With
//! `--trace 0` it prints every end-to-end metric; with `--trace 1` it runs
//! the traced pass and prints every per-layer metric. Either way the last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md for the workloads, the metrics, and the output checks.

mod alloc;
mod calib;
mod checks;
mod clock;
mod report;
mod shadow;
mod span;
mod stats;
mod traced;
mod untraced;
mod workload;

use report::Outcome;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
use workload::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(7),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pod-saturated|ctrl-restart> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result: Result<Outcome, String> = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        untraced::run(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(out) => {
            for line in &out.text {
                println!("{line}");
            }
            for p in &out.problems {
                println!("CHECK FAILED: {p}");
            }
            println!("{}", out.json());
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_registered_command_line() {
        let a = parse_args(&argv(
            "--workload pod-saturated --seed 11 --seconds 10 --trace 1",
        ));
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::PodSaturated,
                seed: 11,
                seconds: 10.0,
                trace: true,
            })
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload pod-saturated --trace 2",
            "--workload pod-saturated --seconds -1",
            "--workload pod-saturated --seed",
            "--workload pod-saturated --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
