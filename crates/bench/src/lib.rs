//! The BENCH snapshot's renderers and its regression gate.
//!
//! `perf_snapshot` builds its `BENCH_PR<n>.json` from the [`Row`] /
//! [`Section`] values below — the one place a BENCH row is written — and
//! gates it with [`gate`]. The crate's other binaries are the scenario
//! fuzzer, the schedule explorer and the timeline exporter, which all
//! write a traced run's exports through [`write_timeline`]. The paper's
//! own tables (E1–E7 of ARCHITECTURE.md's experiment index) are printed by
//! the `paper_tables` example.

use std::fmt::Write as _;
use std::path::Path;

use agreement::fuzz::TimelineArtifacts;

/// How a value prints in a snapshot. A BENCH value *is* its printed form:
/// the gate and the PR-to-PR diffs compare text, so a float's precision is
/// part of the value ([`Fixed`]).
pub trait Json {
    /// The value as JSON (also how table cells print it).
    fn json(&self) -> String;
}

/// A float printed with this many decimals.
#[derive(Clone, Copy, Debug)]
pub struct Fixed(pub f64, pub usize);

macro_rules! json {
    ($($ty:ty => |$v:ident| $text:expr;)*) => {$(
        impl Json for $ty {
            fn json(&self) -> String {
                let $v = self;
                $text
            }
        }
    )*};
}
json! {
    u64 => |n| n.to_string();
    usize => |n| n.to_string();
    bool => |b| b.to_string();
    &str => |s| format!("\"{s}\"");
    Fixed => |x| format!("{:.*}", x.1, x.0);
    Option<Fixed> => |x| x.map_or("null".to_string(), |x| x.json());
    Vec<u64> => |counts| format!("{counts:?}");
    Row => |row| row.to_json();
}

/// An ordered list of named values: one measured configuration (its first
/// field the `label` the gate keys on), or a section's summary. Renders as
/// one flat JSON object and as one line of an aligned text table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(String, String)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// A row whose first field is `"label": label`.
    pub fn labeled(label: &str) -> Row {
        Row::new().with("label", label)
    }

    /// The row with `key: value` appended.
    pub fn with(mut self, key: impl Into<String>, value: impl Json) -> Row {
        self.0.push((key.into(), value.json()));
        self
    }

    /// The row as one flat JSON object on one line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = (self.0.iter())
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!("{{ {} }}", fields.join(", "))
    }
}

/// `rows` as an aligned text table, two spaces in: a header of the first
/// row's keys, then one line per row (first column left-aligned, the rest
/// right-aligned). Columns that read zero in every row are left out: they
/// say the section does not exercise that counter.
pub fn text_table(rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut lines: Vec<Vec<String>> = vec![first.0.iter().map(|(key, _)| key.clone()).collect()];
    let cell = |(_, value): &(String, String)| value.trim_matches('"').to_string();
    lines.extend(rows.iter().map(|row| row.0.iter().map(cell).collect()));
    let column = |c: usize| lines.iter().filter_map(move |line| line.get(c));
    let shown = |&c: &usize| c == 0 || column(c).skip(1).any(|cell| cell.parse() != Ok(0.0));
    let mut out = String::new();
    for line in &lines {
        out.push(' ');
        for c in (0..line.len()).filter(shown) {
            let (cell, w) = (&line[c], column(c).map(String::len).max().unwrap_or(0));
            let _ = match c {
                0 => write!(out, " {cell:<w$}"),
                _ => write!(out, "  {cell:>w$}"),
            };
        }
        out.push('\n');
    }
    out
}

/// One section of a BENCH snapshot: what a `perf_snapshot` section
/// function returns after building its scenarios, measuring them and
/// asserting its headline.
#[derive(Clone, Debug, PartialEq)]
pub struct Section {
    /// The section's key in the snapshot.
    pub name: &'static str,
    /// Section-level values: workload sizes, headline ratios.
    pub summary: Row,
    /// The measured rows, as named lists.
    pub tables: Vec<(&'static str, Vec<Row>)>,
}

impl Section {
    /// The section for the console: name, one aligned table per row list,
    /// the summary.
    pub fn to_text(&self) -> String {
        let mut out = format!("\nperf_snapshot: {}\n", self.name);
        for (_, rows) in &self.tables {
            out.push_str(&text_table(rows));
        }
        for (key, value) in &self.summary.0 {
            let _ = writeln!(out, "  {key}: {value}");
        }
        out
    }

    /// The section as the body of its JSON object, one row per line.
    fn to_json(&self) -> String {
        let mut members: Vec<String> = (self.summary.0.iter())
            .map(|(key, value)| format!("    \"{key}\": {value}"))
            .collect();
        for (key, rows) in &self.tables {
            let rows: Vec<String> = (rows.iter())
                .map(|row| format!("      {}", row.to_json()))
                .collect();
            members.push(format!("    \"{key}\": [\n{}\n    ]", rows.join(",\n")));
        }
        format!("  \"{}\": {{\n{}\n  }}", self.name, members.join(",\n"))
    }
}

/// A whole `BENCH_PR<pr>.json`: the header the gate reads
/// (`workload_commands` decides comparability, `rustc` whether allocation
/// counts are), then every section.
pub fn snapshot_json(
    pr: u32,
    workload_commands: usize,
    rustc: &str,
    sections: &[Section],
) -> String {
    let sections: Vec<String> = sections.iter().map(Section::to_json).collect();
    format!(
        "{{\n  \"schema\": \"bench-snapshot-v2\",\n  \"pr\": {pr},\n  \
         \"workload_commands\": {workload_commands},\n  \"rustc\": {},\n{}\n}}\n",
        rustc.json(),
        sections.join(",\n")
    )
}

/// Writes one traced run's exports as `<dir>/<name>.jsonl`,
/// `<name>.trace.json` and `<name>.html`, creating `dir` first, and prints
/// each file written, then how many events were traced. Stops at the first
/// I/O error and returns it, naming the path.
pub fn write_timeline(dir: &Path, name: &str, art: &TimelineArtifacts) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    let stem = dir.join(name);
    for (ext, body) in [
        ("jsonl", &art.jsonl),
        ("trace.json", &art.chrome),
        ("html", &art.html),
    ] {
        let path = stem.with_extension(ext);
        std::fs::write(&path, body)
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        println!("  timeline: {}", path.display());
    }
    println!("  ({} events traced)", art.events);
    Ok(())
}

/// The per-PR perf regression gate: compares the snapshot a `perf_snapshot`
/// run just produced against the newest prior `BENCH_PR<k>.json` at the
/// repo root and reports any virtual-time or exact-count metric that
/// worsened beyond a threshold ([`gate::regressions`]), any count that rose at
/// all ([`gate::count_rises`]), any simulated count or virtual-time metric
/// that moved at all, either way ([`gate::exact_moves`]), and any label that
/// disappeared ([`gate::retired_labels`]).
///
/// The snapshots are this workspace's own generated JSON, so the extractor
/// is a purpose-built string scanner rather than a JSON parser (the
/// container has no serde); every measured object carries a unique
/// `"label"` and flat numeric fields.
pub mod gate {
    use std::path::{Path, PathBuf};

    /// Finds the newest `BENCH_PR<k>.json` with `k < current_pr` in `dir`.
    pub fn latest_prior_snapshot(dir: &Path, current_pr: u32) -> Option<(u32, PathBuf)> {
        let mut best: Option<(u32, PathBuf)> = None;
        for entry in std::fs::read_dir(dir).ok()?.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(k) = name
                .strip_prefix("BENCH_PR")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|num| num.parse::<u32>().ok())
            else {
                continue;
            };
            if k < current_pr && best.as_ref().is_none_or(|(b, _)| k > *b) {
                best = Some((k, entry.path()));
            }
        }
        best
    }

    /// Parses the number starting at `json[at..]` (optionally signed,
    /// decimal point allowed), ending at `,`, `}`, or whitespace.
    fn parse_number_at(json: &str, at: usize) -> Option<f64> {
        let rest = json[at..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// The value of the first `"field": <number>` at or after `from`.
    fn field_after(json: &str, from: usize, field: &str) -> Option<f64> {
        let needle = format!("\"{field}\":");
        let at = json[from..].find(&needle)? + from + needle.len();
        parse_number_at(json, at)
    }

    /// A top-level (first-occurrence) numeric field.
    pub fn top_field(json: &str, field: &str) -> Option<f64> {
        field_after(json, 0, field)
    }

    /// A top-level (first-occurrence) string field, unescaped only as far
    /// as snapshots need: a value holds no `"`.
    pub fn top_string<'a>(json: &'a str, field: &str) -> Option<&'a str> {
        let needle = format!("\"{field}\": \"");
        let at = json.find(&needle)? + needle.len();
        Some(&json[at..at + json[at..].find('"')?])
    }

    /// The value of `field` inside the measured object labeled `label`.
    /// The search is bounded at the object's closing `}` (measured objects
    /// are flat), so a label missing the field yields `None` rather than
    /// silently reading the next object's value.
    pub fn labeled_field(json: &str, label: &str, field: &str) -> Option<f64> {
        let needle = format!("\"label\": \"{label}\"");
        let at = json.find(&needle)? + needle.len();
        let end = at + json[at..].find('}')?;
        field_after(&json[..end], at, field)
    }

    /// Every `"label"` value appearing in a snapshot, in order.
    pub fn labels(json: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(hit) = json[from..].find("\"label\": \"") {
            let start = from + hit + "\"label\": \"".len();
            let Some(len) = json[start..].find('"') else {
                break;
            };
            out.push(json[start..start + len].to_string());
            from = start + len;
        }
        out
    }

    /// One detected regression.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Regression {
        /// The measured configuration that got worse.
        pub label: String,
        /// Which gated metric worsened.
        pub metric: &'static str,
        /// Prior value.
        pub prior: f64,
        /// Current value.
        pub current: f64,
        /// Fractional worsening (`0.25` = 25% worse).
        pub drop_frac: f64,
    }

    /// The gated metrics: `(field, higher_is_better)`. `committed_per_delay`
    /// and `delays_per_entry` are *virtual-time* quantities — deterministic
    /// per seed and identical on every machine — so any change there is a
    /// real schedule regression, never noise. `range_rows_per_cmd` (rows
    /// returned by range reads per committed command) is an exact count
    /// of the same kind: it moves only when a read starts fetching more.
    /// Nothing wall-clock is gated here: host time is the repository
    /// benchmark's job (`benchmark/`, calibrated reference seconds); a
    /// row's `wall_secs` is for diagnosis only.
    const GATED_METRICS: [(&str, bool); 3] = [
        ("committed_per_delay", true),
        ("delays_per_entry", false),
        ("range_rows_per_cmd", false),
    ];

    /// The exact counts: fields that repeat to the unit on every run of
    /// the same code, so a count may not rise at all — the 10 % tier of
    /// [`regressions`] let 7 extra allocations per row through. The first
    /// three are counted by the allocator, and compared only between
    /// snapshots built by the same compiler ([`count_rises`]).
    pub const EXACT_COUNTS: [&str; 6] = [
        "allocations",
        "allocs_per_cmd",
        "allocs_per_event",
        "events",
        "messages",
        "mem_ops",
    ];

    /// How many of [`EXACT_COUNTS`], from the front, the allocator counts.
    const ALLOCATION_COUNTS: usize = 3;

    /// The fields exact in both directions: the simulation's own counts
    /// and the [`GATED_METRICS`]. They repeat to the last digit on every
    /// machine and compiler, so a fall is as much a change as a rise — a
    /// memory operation that stops being issued lowers `mem_ops`, and a
    /// schedule that moves at all moves `committed_per_delay`. Allocation
    /// counts are not here: a change may lower them without saying so.
    pub const EXACT_BOTH_WAYS: [&str; 6] = [
        "events",
        "messages",
        "mem_ops",
        "committed_per_delay",
        "delays_per_entry",
        "range_rows_per_cmd",
    ];

    /// One exact field that moved.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Move {
        /// The measured configuration.
        pub label: String,
        /// Which field moved.
        pub field: &'static str,
        /// Prior value.
        pub prior: f64,
        /// Current value.
        pub current: f64,
    }

    /// Every `fields` value that `moved(prior, current)` flags, for every
    /// label both snapshots measure, except those `moved_ok` names as
    /// `label.field` (a change that moves a field on purpose says so);
    /// once per label and field, in prior-snapshot order.
    fn moves_of(
        prior: &str,
        current: &str,
        fields: &[&'static str],
        moved_ok: &[&str],
        moved: impl Fn(f64, f64) -> bool,
    ) -> Vec<Move> {
        let mut out = Vec::new();
        for label in labels(prior) {
            for &field in fields {
                let (Some(p), Some(c)) = (
                    labeled_field(prior, &label, field),
                    labeled_field(current, &label, field),
                ) else {
                    continue;
                };
                let named = moved_ok.contains(&format!("{label}.{field}").as_str());
                if moved(p, c)
                    && !named
                    && !out
                        .iter()
                        .any(|m: &Move| m.label == label && m.field == field)
                {
                    out.push(Move {
                        label: label.clone(),
                        field,
                        prior: p,
                        current: c,
                    });
                }
            }
        }
        out
    }

    /// Every [`EXACT_COUNTS`] field that is higher in `current` than in
    /// `prior`, except those `moved_ok` names. A fall never counts.
    /// Allocation counts are compared only when both snapshots' `rustc`
    /// headers are present and equal; the other counts always are.
    pub fn count_rises(prior: &str, current: &str, moved_ok: &[&str]) -> Vec<Move> {
        let same_rustc =
            top_string(prior, "rustc").is_some_and(|p| top_string(current, "rustc") == Some(p));
        let fields = if same_rustc {
            &EXACT_COUNTS[..]
        } else {
            &EXACT_COUNTS[ALLOCATION_COUNTS..]
        };
        moves_of(prior, current, fields, moved_ok, |p, c| c > p)
    }

    /// Every [`EXACT_BOTH_WAYS`] field that differs between `prior` and
    /// `current`, in either direction, except those `moved_ok` names: what
    /// `PERF_GATE=strict` fails on beside the one-sided tiers.
    pub fn exact_moves(prior: &str, current: &str, moved_ok: &[&str]) -> Vec<Move> {
        moves_of(prior, current, &EXACT_BOTH_WAYS, moved_ok, |p, c| c != p)
    }

    /// Labels present in `prior` but missing from `current`: measured
    /// configurations that silently lost regression coverage (renamed or
    /// dropped). [`regressions`] skips them by design — new benchmarks
    /// gate from their next PR on — so retirements must be surfaced
    /// separately: the snapshot gate warns on every one and, under
    /// `PERF_GATE=strict`, fails unless `PERF_GATE_RETIRED_OK` explicitly
    /// allowlists it. Deduplicated, in prior-snapshot order.
    pub fn retired_labels(prior: &str, current: &str) -> Vec<String> {
        let current_labels: std::collections::BTreeSet<String> =
            labels(current).into_iter().collect();
        let mut seen = std::collections::BTreeSet::new();
        labels(prior)
            .into_iter()
            .filter(|l| !current_labels.contains(l) && seen.insert(l.clone()))
            .collect()
    }

    /// Compares every gated metric for every label present in **both**
    /// snapshots; returns the configurations that worsened by more than
    /// `threshold` (e.g. `0.10`). Labels or fields only one side knows are
    /// skipped — new benchmarks gate from their next PR on; labels the
    /// prior snapshot knew but the current one dropped are reported by
    /// [`retired_labels`] so the gate can refuse to lose coverage
    /// silently.
    pub fn regressions(prior: &str, current: &str, threshold: f64) -> Vec<Regression> {
        let mut out = Vec::new();
        for label in labels(prior) {
            for (metric, higher_is_better) in GATED_METRICS {
                let Some(p) = labeled_field(prior, &label, metric) else {
                    continue;
                };
                let Some(c) = labeled_field(current, &label, metric) else {
                    continue;
                };
                if p <= 0.0 {
                    continue;
                }
                let drop_frac = if higher_is_better {
                    (p - c) / p
                } else {
                    (c - p) / p
                };
                if drop_frac > threshold {
                    out.push(Regression {
                        label: label.clone(),
                        metric,
                        prior: p,
                        current: c,
                        drop_frac,
                    });
                }
            }
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const PRIOR: &str = r#"{
  "workload_commands": 1000,
  "a": { "label": "cfg_one", "entries": 10, "committed_per_delay": 1000, "x": 1 },
  "b": { "label": "cfg_two", "committed_per_delay": 500.5 }
}"#;

        #[test]
        fn extracts_labeled_and_top_fields() {
            assert_eq!(top_field(PRIOR, "workload_commands"), Some(1000.0));
            assert_eq!(
                labeled_field(PRIOR, "cfg_one", "committed_per_delay"),
                Some(1000.0)
            );
            assert_eq!(
                labeled_field(PRIOR, "cfg_two", "committed_per_delay"),
                Some(500.5)
            );
            assert_eq!(
                labeled_field(PRIOR, "cfg_missing", "committed_per_delay"),
                None
            );
            assert_eq!(labels(PRIOR), vec!["cfg_one", "cfg_two"]);
        }

        #[test]
        fn missing_field_does_not_read_the_next_object() {
            // cfg_gap has no committed_per_delay; the scan must stop at its
            // closing brace instead of returning cfg_after's value.
            let json = r#"{
  "a": { "label": "cfg_gap", "entries": 10 },
  "b": { "label": "cfg_after", "committed_per_delay": 999 }
}"#;
            assert_eq!(labeled_field(json, "cfg_gap", "committed_per_delay"), None);
            assert_eq!(
                labeled_field(json, "cfg_after", "committed_per_delay"),
                Some(999.0)
            );
        }

        #[test]
        fn flags_only_drops_beyond_threshold() {
            let current = r#"{
  "a": { "label": "cfg_one", "committed_per_delay": 950 },
  "b": { "label": "cfg_two", "committed_per_delay": 200 },
  "c": { "label": "cfg_new", "committed_per_delay": 1 }
}"#;
            let regs = regressions(PRIOR, current, 0.10);
            // cfg_one dropped 5% (within threshold); cfg_new is unknown to
            // the prior snapshot; only cfg_two's 60% drop is flagged.
            assert_eq!(regs.len(), 1);
            assert_eq!(regs[0].label, "cfg_two");
            assert_eq!(regs[0].metric, "committed_per_delay");
            assert!((regs[0].drop_frac - 0.6004).abs() < 0.001);
        }

        #[test]
        fn lower_is_better_metrics_gate_in_the_right_direction() {
            let prior = r#"{ "a": { "label": "cfg", "delays_per_entry": 2.0 } }"#;
            // Fewer delays per entry is an improvement, never flagged.
            let faster = r#"{ "a": { "label": "cfg", "delays_per_entry": 0.25 } }"#;
            assert!(regressions(prior, faster, 0.10).is_empty());
            // More delays per entry is a (machine-independent) regression.
            let slower = r#"{ "a": { "label": "cfg", "delays_per_entry": 2.5 } }"#;
            let regs = regressions(prior, slower, 0.10);
            assert_eq!(regs.len(), 1);
            assert_eq!(regs[0].metric, "delays_per_entry");
            assert!((regs[0].drop_frac - 0.25).abs() < 1e-9);
        }

        #[test]
        fn improvements_never_flag() {
            let current = r#"{ "a": { "label": "cfg_one", "committed_per_delay": 5000 } }"#;
            assert!(regressions(PRIOR, current, 0.10).is_empty());
        }

        #[test]
        fn retired_labels_surface_lost_coverage() {
            // cfg_two vanished (renamed to cfg_2): regressions() is blind
            // to it, retired_labels() is not.
            let current = r#"{
  "a": { "label": "cfg_one", "committed_per_delay": 1000 },
  "b": { "label": "cfg_2", "committed_per_delay": 1 }
}"#;
            assert!(regressions(PRIOR, current, 0.10).is_empty());
            assert_eq!(retired_labels(PRIOR, current), vec!["cfg_two"]);
            // Nothing retired when every prior label is still measured.
            assert!(retired_labels(PRIOR, PRIOR).is_empty());
            // Duplicated prior labels report once.
            let dup = r#"{
  "a": { "label": "cfg_gone", "x": 1 },
  "b": { "label": "cfg_gone", "x": 2 }
}"#;
            assert_eq!(retired_labels(dup, "{}"), vec!["cfg_gone"]);
        }

        #[test]
        fn rendered_sections_are_what_the_gate_reads() {
            use crate::{snapshot_json, text_table, Fixed, Row, Section};
            let rows = vec![
                Row::labeled("cfg_one")
                    .with("entries", 10usize)
                    .with("committed_per_delay", Fixed(15.84, 3))
                    .with("peaks", vec![16u64, 9]),
                Row::labeled("cfg_two").with("delays_per_entry", Fixed(0.0631, 3)),
            ];
            assert_eq!(
                rows[0].to_json(),
                r#"{ "label": "cfg_one", "entries": 10, "committed_per_delay": 15.840, "peaks": [16, 9] }"#
            );
            let section = Section {
                name: "demo",
                summary: Row::new()
                    .with("total_commands", 10usize)
                    .with("ratio", Row::new().with("g4", Fixed(3.96, 3))),
                tables: vec![("configs", rows.clone())],
            };
            let json = snapshot_json(17, 1000, "rustc 1.95.0", std::slice::from_ref(&section));
            assert_eq!(top_field(&json, "workload_commands"), Some(1000.0));
            assert_eq!(labels(&json), vec!["cfg_one", "cfg_two"]);
            assert_eq!(
                labeled_field(&json, "cfg_one", "committed_per_delay"),
                Some(15.84)
            );
            // A field of the next row is not read into this one.
            assert_eq!(labeled_field(&json, "cfg_one", "delays_per_entry"), None);
            assert_eq!(
                labeled_field(&json, "cfg_two", "delays_per_entry"),
                Some(0.063)
            );
            assert!(json.contains(r#""ratio": { "g4": 3.960 }"#), "{json}");
            // The console table: header from the first row, columns aligned.
            assert_eq!(
                text_table(&rows[..1]),
                "  label    entries  committed_per_delay    peaks\n\
                 \x20 cfg_one       10               15.840  [16, 9]\n"
            );
            assert!(section.to_text().contains("perf_snapshot: demo"));
            assert!(section.to_text().contains("  total_commands: 10"));
        }

        /// A snapshot of one row under the `"rustc"` header given, if any.
        fn counted(rustc: Option<&str>, allocations: u64, events: u64) -> String {
            let header = rustc.map_or(String::new(), |r| format!("\"rustc\": \"{r}\",\n"));
            format!(
                "{{\n{header}\"a\": {{ \"label\": \"cfg\", \"allocations\": {allocations}, \
                 \"allocs_per_cmd\": {:.3}, \"events\": {events}, \"messages\": 9 }}\n}}",
                allocations as f64 / 1000.0
            )
        }

        #[test]
        fn one_more_allocation_fails_the_exact_tier() {
            let v = Some("rustc 1.95.0");
            let prior = counted(v, 148, 500);
            let rises = count_rises(&prior, &counted(v, 149, 500), &[]);
            let fields: Vec<&str> = rises.iter().map(|r| r.field).collect();
            assert_eq!(fields, ["allocations", "allocs_per_cmd"]);
            assert_eq!((rises[0].prior, rises[0].current), (148.0, 149.0));
            // The 10 % tier does not see it.
            assert!(regressions(&prior, &counted(v, 149, 500), 0.10).is_empty());
        }

        #[test]
        fn a_count_that_falls_or_holds_never_flags() {
            let v = Some("rustc 1.95.0");
            let prior = counted(v, 148, 500);
            assert!(count_rises(&prior, &prior, &[]).is_empty());
            assert!(count_rises(&prior, &counted(v, 20, 400), &[]).is_empty());
        }

        #[test]
        fn event_counts_rise_whatever_the_toolchain() {
            let prior = counted(Some("rustc 1.95.0"), 148, 500);
            for now in [Some("rustc 1.96.0"), None] {
                let rises = count_rises(&prior, &counted(now, 999, 501), &[]);
                let fields: Vec<&str> = rises.iter().map(|r| r.field).collect();
                assert_eq!(
                    fields,
                    ["events"],
                    "allocations need the same rustc: {now:?}"
                );
            }
            // A prior snapshot without a header compares no allocations.
            let rises = count_rises(&counted(None, 148, 500), &counted(None, 149, 500), &[]);
            assert!(rises.is_empty());
        }

        #[test]
        fn a_named_move_passes_and_only_that_one() {
            let v = Some("rustc 1.95.0");
            let (prior, now) = (counted(v, 148, 500), counted(v, 149, 501));
            let rises = count_rises(
                &prior,
                &now,
                &["cfg.allocations", "cfg.events", "other.allocs_per_cmd"],
            );
            let fields: Vec<&str> = rises.iter().map(|r| r.field).collect();
            assert_eq!(fields, ["allocs_per_cmd"]);
        }

        /// A snapshot of one row with every two-sided field, at the values
        /// given, beside 148 allocations.
        fn simulated(events: u64, mem_ops: u64, committed_per_delay: &str) -> String {
            format!(
                "{{\n\"rustc\": \"rustc 1.95.0\",\n\"a\": {{ \"label\": \"cfg\", \
                 \"allocations\": 148, \"events\": {events}, \"messages\": 9, \
                 \"mem_ops\": {mem_ops}, \"committed_per_delay\": {committed_per_delay}, \
                 \"delays_per_entry\": 0.631, \"range_rows_per_cmd\": 2.000 }}\n}}"
            )
        }

        #[test]
        fn a_simulated_count_that_falls_moves_the_two_sided_tier_only() {
            let prior = simulated(500, 300, "15.840");
            let fewer_ops = simulated(500, 299, "15.840");
            assert!(count_rises(&prior, &fewer_ops, &[]).is_empty());
            let moves = exact_moves(&prior, &fewer_ops, &[]);
            let fields: Vec<&str> = moves.iter().map(|m| m.field).collect();
            assert_eq!(fields, ["mem_ops"]);
            assert_eq!((moves[0].prior, moves[0].current), (300.0, 299.0));
            // A rise moves it too, and so do both together.
            let both = simulated(499, 301, "15.840");
            let fields: Vec<&str> = (exact_moves(&prior, &both, &[]).iter())
                .map(|m| m.field)
                .collect();
            assert_eq!(fields, ["events", "mem_ops"]);
            assert!(exact_moves(&prior, &prior, &[]).is_empty());
        }

        #[test]
        fn a_virtual_time_move_inside_the_ten_percent_tier_moves_the_two_sided_tier() {
            let prior = simulated(500, 300, "15.840");
            // Better by one part in 15 840, then worse by as much: the
            // 10 % tier sees neither, the two-sided tier both.
            for now in ["15.841", "15.839"] {
                let current = simulated(500, 300, now);
                assert!(regressions(&prior, &current, 0.10).is_empty());
                let moves = exact_moves(&prior, &current, &[]);
                let fields: Vec<&str> = moves.iter().map(|m| m.field).collect();
                assert_eq!(fields, ["committed_per_delay"], "{now}");
            }
        }

        #[test]
        fn allocation_counts_stay_one_sided_and_a_named_move_passes() {
            let prior = simulated(500, 300, "15.840");
            let fewer_allocs = prior.replace("\"allocations\": 148", "\"allocations\": 100");
            assert!(exact_moves(&prior, &fewer_allocs, &[]).is_empty());
            assert!(count_rises(&prior, &fewer_allocs, &[]).is_empty());
            let now = simulated(500, 299, "15.841");
            let moves = exact_moves(&prior, &now, &["cfg.mem_ops", "other.committed_per_delay"]);
            let fields: Vec<&str> = moves.iter().map(|m| m.field).collect();
            assert_eq!(fields, ["committed_per_delay"]);
        }

        #[test]
        fn the_rustc_header_reads_back() {
            let json = crate::snapshot_json(41, 1000, "rustc 1.95.0 (abc 2026-01-01)", &[]);
            assert_eq!(
                top_string(&json, "rustc"),
                Some("rustc 1.95.0 (abc 2026-01-01)")
            );
            assert_eq!(top_field(&json, "workload_commands"), Some(1000.0));
            assert_eq!(top_string(&json, "missing"), None);
        }

        #[test]
        fn finds_newest_prior_snapshot() {
            let dir = std::env::temp_dir().join(format!("gate_test_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("BENCH_PR1.json"), "{}").unwrap();
            std::fs::write(dir.join("BENCH_PR3.json"), "{}").unwrap();
            std::fs::write(dir.join("BENCH_PR9.json"), "{}").unwrap();
            std::fs::write(dir.join("BENCH_PRx.json"), "{}").unwrap();
            let (k, path) = latest_prior_snapshot(&dir, 9).unwrap();
            assert_eq!(k, 3);
            assert!(path.ends_with("BENCH_PR3.json"));
            assert!(latest_prior_snapshot(&dir, 1).is_none());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
