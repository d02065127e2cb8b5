//! `e2e-harness`: the in-process half of the end-to-end benchmark.
//!
//! `e2ebench/run.py` drives the built `kclique-cli` the way a user does
//! and calls this binary for the parts that need the libraries:
//!
//! * `gen`   — writes a preset graph as three raw measurement sources,
//!   plus the files the output checks compare against;
//! * `trace` — re-runs every batch stage in one process, making the
//!   same public calls the CLI verbs make, with a span around each;
//! * `load`  — the `serve` load generator and response checker.
//!
//! Each subcommand prints one JSON object on stdout.

mod gen;
mod load;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: bench::memprof::CountingAlloc = bench::memprof::CountingAlloc;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(sub) = args.next() else {
        eprintln!("usage: e2e-harness gen|trace|load --flag value ...");
        return ExitCode::from(2);
    };
    let result = Flags::parse(args).and_then(|flags| match sub.as_str() {
        "gen" => gen::run(&flags),
        "trace" => trace::run(&flags),
        "load" => load::run(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e-harness {sub}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: impl Iterator<Item = String>) -> Result<Flags, String> {
        let args: Vec<String> = args.collect();
        let mut map = HashMap::new();
        for pair in args.chunks(2) {
            match pair {
                [name, value] if name.starts_with("--") => {
                    map.insert(name[2..].to_owned(), value.clone());
                }
                _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
            }
        }
        Ok(Flags(map))
    }

    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.str(name)?.parse().map_err(|_| format!("bad --{name}"))
    }
}

/// The topology generator seed shared by every run. At paper scale the
/// percolation work differs several-fold between topology seeds, so the
/// graph stays fixed and `--seed` varies only what the program is
/// handed: AS numbers, record order, the split across sources and the
/// query stream. 42 is `kclique-cli generate`'s default seed.
pub const TOPOLOGY_SEED: u64 = 42;

/// The generator preset behind a workload.
pub fn preset(name: &str) -> Result<topology::ModelConfig, String> {
    match name {
        "tiny" => Ok(topology::ModelConfig::tiny(TOPOLOGY_SEED)),
        "medium" => Ok(topology::ModelConfig::medium(TOPOLOGY_SEED)),
        "full" => Ok(topology::ModelConfig::full_scale(TOPOLOGY_SEED)),
        other => Err(format!("unknown preset {other:?}")),
    }
}

/// A flat JSON object built field by field (the workspace carries no
/// serialisation dependency).
#[derive(Default)]
pub struct Json(String);

impl Json {
    pub fn num(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.sep();
        let _ = write!(self.0, "\"{key}\":{value}");
        self
    }

    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.0, "\"{key}\":{json}");
        self
    }

    fn sep(&mut self) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
