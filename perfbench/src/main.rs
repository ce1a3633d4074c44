//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the report, then the one-line JSON result as the last line of
//! standard output. Exits non-zero on a failed run or a wrong candidate.

use magicrecs_perfbench::workload::Workload;
use magicrecs_perfbench::{run, Options};

const USAGE: &str = "usage: perfbench --workload <zipf_replicated|celebrity_serve|zipf_serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::ZipfServe,
        seed: 1,
        seconds: 10,
        trace: false,
        corrupt_one_candidate: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => opts.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.text);
            println!("{}", outcome.json);
            if !outcome.correct {
                eprintln!("perfbench: the run failed its checks; see the report");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e:?}");
            std::process::exit(1);
        }
    }
}
