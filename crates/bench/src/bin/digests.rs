//! Output digests: recomputes the 64-bit FNV-1a digest
//! (`simnet::fnv1a`) of every deterministic output the repository prints
//! and checks it against `OUTPUT_DIGESTS.txt` at the repository root.
//!
//! ```text
//! cargo build --release --workspace --bins --examples
//! cargo run --release -p bench --bin digests [-- --write]
//! ```
//!
//! The outputs are CI's scenario fuzz (seeds 100000.., 300 cases,
//! strict), the schedule explorer (every scenario, 4 000 schedules,
//! strict), the five examples, and `timeline --scenario corpus`: its
//! stdout and its three exports. Each program runs from the build
//! directory this binary sits in, with a fresh working directory under
//! it (`digests-run/`), so the relative paths they print and write are
//! the same on every machine. Every digest that differs from the
//! committed file, and every output the file lacks or names in excess,
//! prints one line and the run exits non-zero. `--write` rewrites the
//! file instead: a change that moves an output on purpose does so in its
//! diff and names the move, as it would a pin.
//!
//! None of these outputs carries a host-dependent value: each is virtual
//! time, counts and text. `perf_snapshot` is left out, since its
//! `wall_secs` column is wall-clock time; its committed snapshot is gated
//! on its own.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use simnet::{fnv1a, FNV1A_BASIS};

/// The committed digests, at the repository root.
const DIGESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OUTPUT_DIGESTS.txt");

/// The explanation at the head of the committed file.
const HEADER: &str = "\
# 64-bit FNV-1a digests (simnet::fnv1a) of the repository's deterministic
# outputs, one per line: name, digest, length in bytes.
# `cargo run --release -p bench --bin digests` recomputes them and fails
# on any difference; `-- --write` rewrites this file.
";

/// Each program whose stdout is digested, by its path in the build
/// directory (also the name of its digest), with its arguments.
const PROGRAMS: &[(&str, &[&str])] = &[
    ("fuzz", &["--start", "100000", "--cases", "300", "--strict"]),
    (
        "explore",
        &["--scenario", "all", "--max-schedules", "4000", "--strict"],
    ),
    ("examples/sharded_log", &[]),
    ("examples/paper_tables", &[]),
    ("examples/byzantine_drill", &[]),
    ("examples/quickstart", &[]),
    ("examples/replicated_log", &[]),
    ("timeline", &["--scenario", "corpus", "--out", "timelines"]),
];

/// The files the programs write that are digested too, relative to the
/// working directory.
const FILES: &[&str] = &[
    "timelines/corpus.jsonl",
    "timelines/corpus.trace.json",
    "timelines/corpus.html",
];

/// One output's digest and length.
#[derive(Debug, PartialEq)]
struct Digest {
    name: String,
    fnv: u64,
    bytes: usize,
}

impl Digest {
    fn of(name: &str, output: &[u8]) -> Digest {
        Digest {
            name: name.to_string(),
            fnv: fnv1a(FNV1A_BASIS, output.iter().copied()),
            bytes: output.len(),
        }
    }
}

/// The committed file's text for `digests`.
fn render(digests: &[Digest]) -> String {
    let lines = digests
        .iter()
        .map(|d| format!("{:<28} {:016x} {:>8}\n", d.name, d.fnv, d.bytes));
    HEADER.to_string() + &lines.collect::<String>()
}

/// The digests `text` records, or the first line that is not one.
fn parse(text: &str) -> Result<Vec<Digest>, String> {
    let entries = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    entries
        .map(|line| {
            let mut fields = line.split_whitespace();
            let parsed = (|| {
                let name = fields.next()?.to_string();
                let fnv = u64::from_str_radix(fields.next()?, 16).ok()?;
                let bytes = fields.next()?.parse().ok()?;
                Some(Digest { name, fnv, bytes })
            })();
            parsed.ok_or_else(|| format!("not a digest line: {line:?}"))
        })
        .collect()
}

/// One line per difference between the committed digests and `now`.
fn differences(committed: &[Digest], now: &[Digest]) -> Vec<String> {
    let mut moved = Vec::new();
    for d in now {
        match committed.iter().find(|c| c.name == d.name) {
            Some(c) if c == d => {}
            Some(c) => moved.push(format!(
                "MOVED {}: was {:016x} ({} bytes) -> now {:016x} ({} bytes)",
                d.name, c.fnv, c.bytes, d.fnv, d.bytes
            )),
            None => moved.push(format!(
                "NEW {}: {:016x} ({} bytes)",
                d.name, d.fnv, d.bytes
            )),
        }
    }
    for c in committed {
        if !now.iter().any(|d| d.name == c.name) {
            moved.push(format!("GONE {}: was {:016x}", c.name, c.fnv));
        }
    }
    moved
}

/// Runs every program from `bin` in the fresh directory `work` and
/// digests its stdout and the files it wrote.
fn compute(bin: &Path, work: &Path) -> Result<Vec<Digest>, String> {
    let _ = fs::remove_dir_all(work);
    fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut digests = Vec::new();
    for &(name, args) in PROGRAMS {
        let path = bin.join(name);
        let out = Command::new(&path)
            .args(args)
            .current_dir(work)
            .output()
            .map_err(|e| {
                let build = "cargo build --release --workspace --bins --examples";
                format!("{}: {e} (build it first: {build})", path.display())
            })?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            return Err(format!("{name} exited with {}:\n{stderr}", out.status));
        }
        digests.push(Digest::of(name, &out.stdout));
    }
    for &file in FILES {
        let path = work.join(file);
        let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        digests.push(Digest::of(file, &bytes));
    }
    Ok(digests)
}

fn main() -> ExitCode {
    let write = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--write") => true,
        Some(other) => {
            eprintln!("unknown argument: {other} (the one option is --write)");
            return ExitCode::FAILURE;
        }
    };
    let exe = std::env::current_exe().expect("the running binary's path");
    let bin: PathBuf = exe.parent().expect("a build directory").to_path_buf();
    let now = match compute(&bin, &bin.join("digests-run")) {
        Ok(now) => now,
        Err(e) => {
            eprintln!("digests: {e}");
            return ExitCode::FAILURE;
        }
    };
    if write {
        if let Err(e) = fs::write(DIGESTS, render(&now)) {
            eprintln!("digests: {DIGESTS}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} digests to {DIGESTS}", now.len());
        return ExitCode::SUCCESS;
    }
    let committed = fs::read_to_string(DIGESTS).map_err(|e| e.to_string());
    let committed = match committed.and_then(|text| parse(&text)) {
        Ok(committed) => committed,
        Err(e) => {
            eprintln!("digests: {DIGESTS}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let moved = differences(&committed, &now);
    for line in &moved {
        println!("{line}");
    }
    if moved.is_empty() {
        println!("digests: all {} outputs match {DIGESTS}", now.len());
        ExitCode::SUCCESS
    } else {
        println!("digests: {} output(s) differ", moved.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs() -> Vec<Digest> {
        vec![
            Digest::of("fuzz", b"300 cases\nno violations\n"),
            Digest::of("examples/quickstart", b"all decided: true\n"),
        ]
    }

    /// The committed file reads back as what was written, so an
    /// unchanged tree passes.
    #[test]
    fn a_rendered_file_parses_back_to_its_digests() {
        let now = outputs();
        let committed = parse(&render(&now)).unwrap();
        assert_eq!(committed, now);
        assert_eq!(differences(&committed, &now), Vec::<String>::new());
    }

    /// One changed line of one output is one difference, named by that
    /// output; an output added or dropped is one too.
    #[test]
    fn one_changed_line_fails_the_check_under_its_output_s_name() {
        let committed = outputs();
        let mut now = outputs();
        now[1] = Digest::of("examples/quickstart", b"all decided: false\n");
        let moved = differences(&committed, &now);
        assert_eq!(moved.len(), 1);
        assert!(
            moved[0].starts_with("MOVED examples/quickstart: "),
            "{moved:?}"
        );
        now.pop();
        now.push(Digest::of("examples/other", b""));
        let moved = differences(&committed, &now);
        assert!(moved[0].starts_with("NEW examples/other"), "{moved:?}");
        assert!(
            moved[1].starts_with("GONE examples/quickstart"),
            "{moved:?}"
        );
        assert!(parse("fuzz zz 3").is_err());
    }
}
