//! Command-line parsing for `bench`. Every malformed argument is an
//! error naming the valid choices; `main` exits 2 on it.

use crate::harness::RunOptions;
use crate::workloads::NAMES;
use crate::{DEFAULT_SECONDS, DEFAULT_SEED};

/// The usage text printed with every argument error.
pub fn usage() -> String {
    format!(
        "usage: bench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke]\n\
         workloads: {}",
        NAMES.join(", ")
    )
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload, one of [`NAMES`].
    pub workload: &'static str,
    /// How to run it.
    pub options: RunOptions,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message for a missing or unknown workload, an unparsable or
/// out-of-range value, a flag without its value, or an unknown flag.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut options = RunOptions {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(NAMES.iter().copied().find(|n| n == name).ok_or_else(|| {
                    format!("unknown workload '{name}' (valid: {})", NAMES.join(", "))
                })?);
            }
            "--seed" => {
                let text = value()?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed '{text}' is not an unsigned 64-bit integer"))?;
            }
            "--seconds" => {
                let text = value()?;
                options.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds '{text}' is not a positive number"))?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace '{other}' must be 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, options })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload allreduce --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "allreduce");
        assert_eq!(
            a.options,
            RunOptions {
                seed: 7,
                seconds: 12.0,
                trace: true,
                smoke: false
            }
        );
        let d = args("--workload cohost").unwrap();
        assert_eq!(d.options.seed, DEFAULT_SEED);
        assert_eq!(d.options.seconds, DEFAULT_SECONDS);
        assert!(!d.options.trace);
        assert!(args("--smoke --workload toolchain").unwrap().options.smoke);
    }

    #[test]
    fn rejects_bad_input_naming_the_valid_choices() {
        let unknown = args("--workload cohos").unwrap_err();
        assert!(
            unknown.contains("cohos") && NAMES.iter().all(|n| unknown.contains(n)),
            "{unknown}"
        );
        for bad in [
            "--workload cohost --seed -1",
            "--workload cohost --seed 4x",
            "--workload cohost --seed 18446744073709551616",
            "--workload cohost --seconds 0",
            "--workload cohost --seconds nan",
            "--workload cohost --trace 2",
            "--workload cohost --seed",
            "--workload cohost --verbose",
            "--seed 3",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
        assert!(usage().contains("fleet_day"));
    }
}
