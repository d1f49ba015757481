//! Host-time benchmark of the gpucmp pipeline.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign|kernel-build|serve-steady> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing recorded;
//! `--trace 1` is a separate run that times calls into each crate's
//! public functions and reports the per-layer metrics, the tracing
//! overhead, and a chrome trace under `perfbench/out/`. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod campaign;
mod kernel_build;
mod metrics;
mod recording;
mod serve;
mod spans;

use std::process::ExitCode;

/// Environment knobs that change what the program simulates or how; the
/// benchmark refuses to run under any of them.
const REFUSED_ENV: [&str; 4] = [
    "GPUCMP_SIM_THREADS",
    "GPUCMP_SIM_TIER",
    "GPUCMP_MEMCHECK",
    "GPUCMP_FAULT_SEED",
];

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Measured iterations at least, however short `seconds` is.
    pub min_iters: usize,
    /// Client operations an untraced serve run collects at least.
    pub min_samples: usize,
}

/// One step of the splitmix64 generator, from which the benchmark draws
/// its own seeded inputs: the campaign order and the served values.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one workload by name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<metrics::Outcome> {
    Some(match name {
        "campaign" => campaign::run(cfg),
        "kernel-build" => kernel_build::run(cfg),
        "serve-steady" => serve::run(cfg),
        _ => return None,
    })
}

fn parse_args(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (have: {})",
            metrics::WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            min_iters: 3,
            // enough for the median under the percentile rule
            min_samples: metrics::samples_for(50.0),
        },
    ))
}

fn main() -> ExitCode {
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: it changes what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run_workload(&workload, &cfg).expect("workload name was validated");
    metrics::conform(&mut outcome, &workload, cfg.trace);
    let malformed: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| !metrics::valid_name(&m.name) || !metrics::valid_unit(m.unit))
        .map(|m| format!("{} ({})", m.name, m.unit))
        .collect();
    outcome.check(malformed.is_empty(), || {
        format!("malformed metric names or units: {}", malformed.join(", "))
    });
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (w, cfg) = parse_args(&args(
            "--workload serve-steady --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "serve-steady");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 12.0, true));
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload campaign --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload campaign --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload campaign --seed")).is_err());
    }

    /// A minimal run of every workload, untraced and traced: it must be
    /// correct and report exactly the manifest's metrics.
    #[test]
    fn smoke_every_workload() {
        for &w in metrics::WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: 11,
                    seconds: 0.0,
                    trace,
                    min_iters: 1,
                    min_samples: 40,
                };
                let mut out = run_workload(w, &cfg).unwrap();
                metrics::conform(&mut out, w, trace);
                assert!(out.correct(), "{w} trace={trace}: {:?}", out.errors);
                assert!(out.attempted > 0, "{w}");
                assert!(!out.metrics.is_empty(), "{w}");
                let mut names = std::collections::HashSet::new();
                for m in &out.metrics {
                    assert!(metrics::valid_name(&m.name), "{w}: {}", m.name);
                    assert!(metrics::valid_unit(m.unit), "{w}: {}", m.unit);
                    assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
                    assert!(names.insert(m.name.clone()), "{w}: {} twice", m.name);
                }
                let want = if trace {
                    metrics::PER_LAYER.len()
                } else {
                    metrics::END_TO_END.len()
                };
                assert_eq!(names.len(), want, "{w}");
            }
        }
    }
}
