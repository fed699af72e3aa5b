//! The one reproduction driver: runs rows of [`EXPERIMENTS`] by name.
//!
//! ```text
//! repro list
//! repro <name>... | all [--quick]
//! ```
//!
//! `--quick` selects the reduced scale (the default is the paper's, which
//! takes many minutes). Each experiment prints its tables; a gated scenario
//! also prints its `gate OK` / `gate FAIL` lines. Exit code 0 when
//! everything ran and every gate held, 1 on any `gate FAIL`, 2 — with the
//! usage on stderr and nothing run — on an unknown flag, an unknown
//! experiment name or an empty name list.

use std::process::ExitCode;

use tvq_bench::experiments::{self, Gate, Output, EXPERIMENTS};
use tvq_bench::Scale;

const USAGE: &str = "usage: repro list
       repro <name>... | all [--quick]
`repro list` prints the experiment names.";

/// A parsed command line; `Run` names are validated against the table.
#[derive(Debug, PartialEq)]
enum Command {
    List,
    Run {
        names: Vec<&'static str>,
        scale: Scale,
    },
}

/// Parses the arguments after the program name; `Err` is the message that
/// precedes the usage text (exit code 2).
fn parse(args: &[String]) -> Result<Command, String> {
    let (mut scale, mut names) = (Scale::Paper, Vec::new());
    for arg in args {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => names.push(name),
        }
    }
    let known = |name: &&str| match experiments::find(name) {
        Some(experiment) => Ok(experiment.name),
        None => Err(format!("unknown experiment `{name}`")),
    };
    let names = match names.as_slice() {
        [] => return Err("no experiment named".to_owned()),
        ["list"] if args.len() == 1 => return Ok(Command::List),
        ["all"] => EXPERIMENTS
            .iter()
            .map(|experiment| experiment.name)
            .collect(),
        _ if names.contains(&"list") || names.contains(&"all") => {
            return Err("`list` and `all` stand alone".to_owned())
        }
        _ => names.iter().map(known).collect::<Result<_, _>>()?,
    };
    Ok(Command::Run { names, scale })
}

/// The process exit code for a finished run: 1 when any gate failed.
fn exit_code(gates: &[Gate]) -> u8 {
    u8::from(gates.iter().any(|gate| !gate.ok))
}

fn listing() -> String {
    EXPERIMENTS
        .iter()
        .map(|experiment| {
            let gated = if experiment.has_gates() {
                " [gated]"
            } else {
                ""
            };
            format!("{:<11} {}{gated}\n", experiment.name, experiment.title)
        })
        .collect()
}

fn run(names: &[&str], scale: Scale) -> u8 {
    println!("Reproduction run at {scale:?} scale\n");
    let mut code = 0;
    for name in names {
        let experiment = experiments::find(name).expect("names were validated by `parse`");
        let Output { text, gates } = experiment.run(scale);
        print!("{text}");
        for gate in &gates {
            if gate.ok {
                println!("{}", gate.line());
            } else {
                eprintln!("{}", gate.line());
            }
        }
        code = code.max(exit_code(&gates));
        println!();
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::List) => {
            print!("{}", listing());
            ExitCode::SUCCESS
        }
        Ok(Command::Run { names, scale }) => ExitCode::from(run(&names, scale)),
        Err(message) => {
            eprintln!("repro: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|arg| (*arg).to_owned()).collect::<Vec<_>>())
    }

    fn run_of(names: &[&'static str], scale: Scale) -> Result<Command, String> {
        let names = names.to_vec();
        Ok(Command::Run { names, scale })
    }

    #[test]
    fn names_and_flags_parse_in_any_order() {
        assert_eq!(
            parse_strs(&["fig4", "--quick", "table6"]),
            run_of(&["fig4", "table6"], Scale::Quick)
        );
        assert_eq!(parse_strs(&["skew"]), run_of(&["skew"], Scale::Paper));
        let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(parse_strs(&["--quick", "all"]), run_of(&all, Scale::Quick));
        assert_eq!(parse_strs(&["list"]), Ok(Command::List));
    }

    #[test]
    fn typos_and_empty_selections_are_usage_errors() {
        for args in [
            &["--quik"][..],
            &["--json", "skew"],
            &["table6", "--gate"],
            &["fig11"],
            &["fig4", "all"],
            &["list", "--quick"],
            &["--quick"],
            &[],
        ] {
            assert!(parse_strs(args).is_err(), "{args:?} must be rejected");
        }
        let message = |args| parse_strs(args).unwrap_err();
        assert_eq!(message(&["--quik"]), "unknown flag `--quik`");
        assert_eq!(message(&["all", "--json"]), "unknown flag `--json`");
        assert_eq!(message(&["fig11"]), "unknown experiment `fig11`");
    }

    #[test]
    fn any_failed_gate_maps_to_exit_code_one() {
        let gate = |ok| Gate {
            ok,
            claim: "MFS/on: peak 9 <= 2 x first-epoch ceiling Some(1)".to_owned(),
        };
        assert_eq!(exit_code(&[]), 0);
        assert_eq!(exit_code(&[gate(true), gate(true)]), 0);
        assert_eq!(exit_code(&[gate(true), gate(false)]), 1);
        assert_eq!(
            gate(false).line(),
            "gate FAIL MFS/on: peak 9 <= 2 x first-epoch ceiling Some(1)"
        );
        assert!(gate(true).line().starts_with("gate OK   MFS/on"));
    }
}
