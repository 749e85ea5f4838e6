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
/// counts are) and the host's core count (which the partitioned kernel's
/// `wall_secs` depend on; a fact of the machine, so in the header, which
/// the gate does not compare), then every section.
pub fn snapshot_json(
    pr: u32,
    workload_commands: usize,
    rustc: &str,
    cores: usize,
    sections: &[Section],
) -> String {
    let sections: Vec<String> = sections.iter().map(Section::to_json).collect();
    format!(
        "{{\n  \"schema\": \"bench-snapshot-v2\",\n  \"pr\": {pr},\n  \
         \"workload_commands\": {workload_commands},\n  \"rustc\": {},\n  \
         \"available_parallelism\": {cores},\n{}\n}}\n",
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
/// repo root under one rule — every value the prior snapshot recorded,
/// in a labeled row or in a section's summary, comes back the same
/// ([`gate::moves`]).
///
/// The snapshots are this workspace's own generated JSON, read by a small
/// reader of its own (the workspace builds offline, without serde) that
/// keeps every scalar as written: a measured row is one object with a
/// unique `"label"`, and every other value is named by its path.
pub mod gate {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

    /// Never compared: one run's wall clock on a shared host, kept per row
    /// for diagnosis only. Host time is the repository benchmark's job
    /// (`benchmark/`, calibrated reference seconds).
    const WALL_CLOCK: &str = "wall_secs";

    /// Counted by the allocator, so another release of the standard
    /// library may move them: compared only between snapshots whose
    /// `"rustc"` headers are equal, and only a rise is a move — a change
    /// may lower them without saying so.
    const ALLOCATOR_COUNTS: [&str; 3] = ["allocations", "allocs_per_cmd", "allocs_per_event"];

    /// Finds the newest `BENCH_PR<k>.json` with `k < current_pr` in `dir`.
    pub fn latest_prior_snapshot(dir: &Path, current_pr: u32) -> Option<(u32, PathBuf)> {
        let snapshots = std::fs::read_dir(dir).ok()?.flatten().filter_map(|entry| {
            let name = entry.file_name();
            let k = name
                .to_str()?
                .strip_prefix("BENCH_PR")?
                .strip_suffix(".json")?;
            Some((k.parse::<u32>().ok()?, entry.path()))
        });
        snapshots
            .filter(|(k, _)| *k < current_pr)
            .max_by_key(|(k, _)| *k)
    }

    /// The value of the first `"field"` in `json`, as written (a string
    /// with its quotes): the snapshot header's fields come before any row.
    pub fn header<'a>(json: &'a str, field: &str) -> Option<&'a str> {
        let needle = format!("\"{field}\":");
        let at = json.find(&needle)? + needle.len();
        let mut reader = Reader {
            text: json,
            at: at + (json[at..].len() - json[at..].trim_start().len()),
        };
        match reader.node()? {
            Node::Written(value) => Some(value),
            Node::Object(_) | Node::Array(_) => None,
        }
    }

    /// A JSON value read from a snapshot. A scalar, or an array holding no
    /// object, is kept as written; the rest is read member by member.
    enum Node<'a> {
        Written(&'a str),
        Object(Vec<(&'a str, Node<'a>)>),
        Array(Vec<Node<'a>>),
    }

    /// Reads [`Node`]s from `text`, starting at byte `at`.
    struct Reader<'a> {
        text: &'a str,
        at: usize,
    }

    impl<'a> Reader<'a> {
        fn skip_space(&mut self) {
            let rest = &self.text[self.at..];
            self.at += rest.len() - rest.trim_start().len();
        }

        fn eat(&mut self, byte: u8) -> Option<()> {
            self.skip_space();
            (self.text.as_bytes().get(self.at) == Some(&byte)).then(|| self.at += 1)
        }

        /// The string at the cursor, without its quotes.
        fn string(&mut self) -> Option<&'a str> {
            self.eat(b'"')?;
            let from = self.at;
            let mut escaped = false;
            for (i, c) in self.text[from..].char_indices() {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => {
                        self.at = from + i + 1;
                        return Some(&self.text[from..from + i]);
                    }
                    _ => escaped = false,
                }
            }
            None
        }

        /// The value at the cursor; `None` if it is not one.
        fn node(&mut self) -> Option<Node<'a>> {
            self.skip_space();
            let from = self.at;
            match self.text.as_bytes().get(from)? {
                b'{' => {
                    self.at += 1;
                    let mut members = Vec::new();
                    if self.eat(b'}').is_some() {
                        return Some(Node::Object(members));
                    }
                    loop {
                        let key = self.string()?;
                        self.eat(b':')?;
                        members.push((key, self.node()?));
                        if self.eat(b',').is_none() {
                            self.eat(b'}')?;
                            return Some(Node::Object(members));
                        }
                    }
                }
                b'[' => {
                    self.at += 1;
                    let mut items = Vec::new();
                    if self.eat(b']').is_none() {
                        loop {
                            items.push(self.node()?);
                            if self.eat(b',').is_none() {
                                self.eat(b']')?;
                                break;
                            }
                        }
                    }
                    if items.iter().all(|n| matches!(n, Node::Written(_))) {
                        return Some(Node::Written(&self.text[from..self.at]));
                    }
                    Some(Node::Array(items))
                }
                b'"' => {
                    self.string()?;
                    Some(Node::Written(&self.text[from..self.at]))
                }
                _ => {
                    let rest = &self.text[from..];
                    let len = rest.find([',', '}', ']', '\n']).unwrap_or(rest.len());
                    self.at += len;
                    let value = rest[..len].trim_end();
                    (!value.is_empty()).then_some(Node::Written(value))
                }
            }
        }
    }

    /// A snapshot's measured values: group → (field → value as written).
    /// A group is a labeled row, under its label, or a section's summary,
    /// under the section's name, with nested fields named by their path
    /// (`ratio.g4`).
    type Rows = BTreeMap<String, BTreeMap<String, String>>;

    /// Every measured value of `json`, in one pass: each labeled row's
    /// fields under its label, and every other value under its path —
    /// `section.field`, or `section.field.member` inside an unlabeled
    /// object. The top level's own values are the snapshot's header (its
    /// schema, number, workload size and toolchain), which say what was
    /// measured, not what it measured. A label measured twice keeps its
    /// first row. `None` if `json` is not one JSON object.
    fn rows(json: &str) -> Option<Rows> {
        let mut reader = Reader { text: json, at: 0 };
        let Some(Node::Object(sections)) = reader.node() else {
            return None;
        };
        let mut out = Rows::new();
        for (name, node) in sections {
            if !matches!(node, Node::Written(_)) {
                collect(&node, name, "", &mut out);
            }
        }
        Some(out)
    }

    /// Adds `node`, found at `field` of `group`, to `out` (see [`rows`]).
    fn collect(node: &Node<'_>, group: &str, field: &str, out: &mut Rows) {
        let join = |key: &str| match field {
            "" => key.to_string(),
            _ => format!("{field}.{key}"),
        };
        match node {
            Node::Written(value) => {
                let fields = out.entry(group.to_string()).or_default();
                fields.entry(field.to_string()).or_insert(value.to_string());
            }
            Node::Object(members) => {
                let label = members.iter().find_map(|(key, node)| match node {
                    Node::Written(label) if *key == "label" => Some(label.trim_matches('"')),
                    _ => None,
                });
                match label {
                    Some(label) if !out.contains_key(label) => {
                        out.insert(label.to_string(), BTreeMap::new());
                        for (key, node) in members.iter().filter(|(key, _)| *key != "label") {
                            collect(node, label, key, out);
                        }
                    }
                    Some(_) => {} // measured twice: the first row stands
                    None => {
                        for (key, node) in members {
                            collect(node, group, &join(key), out);
                        }
                    }
                }
            }
            Node::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    collect(item, group, &join(&i.to_string()), out);
                }
            }
        }
    }

    /// Whether a prior value `was` of `field` came back as `now`: exactly,
    /// but for [`WALL_CLOCK`] and [`ALLOCATOR_COUNTS`].
    fn moved(field: &str, was: &str, now: Option<&str>, same_rustc: bool) -> bool {
        match now {
            _ if field == WALL_CLOCK => false,
            None => true,
            Some(now) if ALLOCATOR_COUNTS.contains(&field) => {
                same_rustc && now.parse::<f64>().ok() > was.parse::<f64>().ok()
            }
            Some(now) => was != now,
        }
    }

    /// Every value `prior` recorded — under a row's label or a section's
    /// name — that `current` does not bring back the same, and
    /// every prior label or section `current` lacks, in name and field
    /// order — one line each, `label.field: was -> now` (`now` is
    /// `missing` for a dropped field) or `label: label missing` — except
    /// those `moved_ok` names as `label.field`, or as a bare `label` for
    /// any move of that label (a section's name, for its summary). Labels
    /// and fields new in `current` gate from the next snapshot on. A
    /// prior snapshot that does not parse is one move, and a current one
    /// that does not parse has lost every label.
    pub fn moves(prior: &str, current: &str, moved_ok: &[&str]) -> Vec<String> {
        let rustc = header(prior, "rustc");
        let same_rustc = rustc.is_some() && header(current, "rustc") == rustc;
        let Some(was) = rows(prior) else {
            return vec!["prior snapshot: does not parse".to_string()];
        };
        let now = rows(current).unwrap_or_default();
        let mut out = Vec::new();
        for (label, fields) in was {
            if moved_ok.contains(&label.as_str()) {
                continue;
            }
            let Some(row) = now.get(&label) else {
                out.push(format!("{label}: label missing"));
                continue;
            };
            for (field, was) in fields {
                let is = row.get(&field).map(String::as_str);
                let named = moved_ok.contains(&format!("{label}.{field}").as_str());
                if moved(&field, &was, is, same_rustc) && !named {
                    let is = is.unwrap_or("missing");
                    out.push(format!("{label}.{field}: {was} -> {is}"));
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

        /// The names of `moves`, in order.
        fn names(moves: &[String]) -> Vec<&str> {
            (moves.iter())
                .map(|m| m.split(':').next().unwrap())
                .collect()
        }

        /// The names of the moves from `prior` to `current`, none named.
        fn names_moved(prior: &str, current: &str) -> Vec<String> {
            let moves = moves(prior, current, &[]);
            names(&moves).into_iter().map(str::to_string).collect()
        }

        #[test]
        fn extracts_labeled_and_top_fields() {
            assert_eq!(header(PRIOR, "workload_commands"), Some("1000"));
            assert_eq!(header(PRIOR, "missing"), None);
            let rows = rows(PRIOR).unwrap();
            assert_eq!(rows.keys().collect::<Vec<_>>(), ["cfg_one", "cfg_two"]);
            let one = &rows["cfg_one"];
            assert_eq!(one.len(), 3, "the label is the key, not a field");
            assert_eq!(one["committed_per_delay"], "1000");
            assert_eq!(one["x"], "1");
            assert_eq!(rows["cfg_two"]["committed_per_delay"], "500.5");
            // A label measured twice keeps its first row.
            let dup = r#"{ "a": { "label": "cfg", "x": 1 }, "b": { "label": "cfg", "x": 2 } }"#;
            assert_eq!(super::rows(dup).unwrap()["cfg"]["x"], "1");
        }

        #[test]
        fn missing_field_does_not_read_the_next_object() {
            // cfg_gap has no committed_per_delay; the reader must stop at its
            // closing brace instead of taking cfg_after's value.
            let json = r#"{
  "a": { "label": "cfg_gap", "entries": 10 },
  "b": { "label": "cfg_after", "committed_per_delay": 999 }
}"#;
            let rows = rows(json).unwrap();
            assert_eq!(rows["cfg_gap"].get("committed_per_delay"), None);
            assert_eq!(rows["cfg_after"]["committed_per_delay"], "999");
            // So a field cfg_gap used to record is missing, whatever follows.
            let prior = json.replace(
                "\"entries\": 10",
                "\"entries\": 10, \"committed_per_delay\": 999",
            );
            let moves = moves(&prior, json, &[]);
            assert_eq!(names(&moves), ["cfg_gap.committed_per_delay"]);
            assert_eq!(moves[0], "cfg_gap.committed_per_delay: 999 -> missing");
        }

        #[test]
        fn flags_every_move_however_small() {
            let current = r#"{
  "a": { "label": "cfg_one", "entries": 10, "committed_per_delay": 950, "x": 1 },
  "b": { "label": "cfg_two", "committed_per_delay": 500.4 },
  "c": { "label": "cfg_new", "committed_per_delay": 1 }
}"#;
            // 5 % and 0.02 % are moves; cfg_new gates from the next snapshot on.
            let moves = moves(PRIOR, current, &[]);
            assert_eq!(
                names(&moves),
                ["cfg_one.committed_per_delay", "cfg_two.committed_per_delay"]
            );
            assert_eq!(moves[1], "cfg_two.committed_per_delay: 500.5 -> 500.4");
            assert!(names_moved(PRIOR, PRIOR).is_empty());
        }

        #[test]
        fn moves_flag_in_either_direction() {
            let prior = r#"{ "a": { "label": "cfg", "delays_per_entry": 2.000 } }"#;
            for now in ["0.250", "2.500"] {
                let current = prior.replace("2.000", now);
                assert_eq!(
                    names_moved(prior, &current),
                    ["cfg.delays_per_entry"],
                    "{now}"
                );
            }
        }

        #[test]
        fn an_improvement_moves_too() {
            // Five times the commands per delay is a change the PR names.
            let current = PRIOR.replace(
                "\"committed_per_delay\": 1000",
                "\"committed_per_delay\": 5000",
            );
            assert_eq!(
                names_moved(PRIOR, &current),
                ["cfg_one.committed_per_delay"]
            );
            let allowed = moves(PRIOR, &current, &["cfg_one.committed_per_delay"]);
            assert!(allowed.is_empty());
        }

        #[test]
        fn retired_labels_surface_lost_coverage() {
            // cfg_two vanished (renamed to cfg_2): one move for the label,
            // none for its fields.
            let current = r#"{
  "a": { "label": "cfg_one", "entries": 10, "committed_per_delay": 1000, "x": 1 },
  "b": { "label": "cfg_2", "committed_per_delay": 500.5 }
}"#;
            let moves = moves(PRIOR, current, &[]);
            assert_eq!(names(&moves), ["cfg_two"]);
            assert_eq!(moves[0], "cfg_two: label missing");
            // A bare label names the retirement; a field of it does not.
            assert!(super::moves(PRIOR, current, &["cfg_two"]).is_empty());
            let field = super::moves(PRIOR, current, &["cfg_two.committed_per_delay"]);
            assert_eq!(names(&field), ["cfg_two"]);
            // A label measured twice retires once.
            let dup =
                r#"{ "a": { "label": "cfg_gone", "x": 1 }, "b": { "label": "cfg_gone", "x": 2 } }"#;
            assert_eq!(names_moved(dup, "{}"), ["cfg_gone"]);
        }

        #[test]
        fn a_bare_label_names_every_move_of_that_label() {
            let current = r#"{
  "a": { "label": "cfg_one", "entries": 11, "committed_per_delay": 999 },
  "b": { "label": "cfg_two", "committed_per_delay": 500.4 }
}"#;
            assert_eq!(
                names_moved(PRIOR, current),
                [
                    "cfg_one.committed_per_delay",
                    "cfg_one.entries",
                    "cfg_one.x",
                    "cfg_two.committed_per_delay"
                ]
            );
            // A moved value, a changed one and a dropped field, all of
            // cfg_one; cfg_two is not named.
            let moves = moves(PRIOR, current, &["cfg_one"]);
            assert_eq!(names(&moves), ["cfg_two.committed_per_delay"]);
            // A name is matched whole: no prefix of a label names it.
            let moves = super::moves(PRIOR, current, &["cfg", "cfg_one.x", "cfg_two.committed"]);
            assert_eq!(moves.len(), 3);
        }

        #[test]
        fn wall_secs_never_moves_the_gate() {
            let prior = r#"{ "a": { "label": "cfg", "wall_secs": 0.106809, "messages": 9 } }"#;
            let slower = prior.replace("0.106809", "3.000000");
            assert!(names_moved(prior, &slower).is_empty());
            let dropped = r#"{ "a": { "label": "cfg", "messages": 9 } }"#;
            assert!(names_moved(prior, dropped).is_empty());
        }

        #[test]
        fn booleans_null_and_arrays_compare_as_written() {
            let prior = r#"{
  "a": { "label": "cfg", "agreement": true, "first_decision_delays": null, "peaks": [16, 9], "config": "crash" }
}"#;
            assert!(names_moved(prior, prior).is_empty());
            let fields = &rows(prior).unwrap()["cfg"];
            assert_eq!(fields["peaks"], "[16, 9]");
            assert_eq!(fields["config"], "\"crash\"");
            for (was, now, name) in [
                ("true", "false", "cfg.agreement"),
                ("null", "2.0", "cfg.first_decision_delays"),
                ("[16, 9]", "[16, 10]", "cfg.peaks"),
                ("[16, 9]", "[16]", "cfg.peaks"),
                ("\"crash\"", "\"byzantine\"", "cfg.config"),
            ] {
                let current = prior.replace(was, now);
                let moves = moves(prior, &current, &[]);
                assert_eq!(names(&moves), [name], "{was} -> {now}");
                assert_eq!(moves[0], format!("{name}: {was} -> {now}"));
            }
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
            let json = snapshot_json(17, 1000, "rustc 1.95.0", 2, std::slice::from_ref(&section));
            assert_eq!(header(&json, "workload_commands"), Some("1000"));
            let read = super::rows(&json).unwrap();
            assert_eq!(
                read.keys().collect::<Vec<_>>(),
                ["cfg_one", "cfg_two", "demo"]
            );
            // The section's summary, by path; its rows are under their
            // labels, not in it.
            assert_eq!(read["demo"]["total_commands"], "10");
            assert_eq!(read["demo"]["ratio.g4"], "3.960");
            assert_eq!(read["demo"].len(), 2);
            assert_eq!(read["cfg_one"]["committed_per_delay"], "15.840");
            assert_eq!(read["cfg_one"]["peaks"], "[16, 9]");
            // A field of the next row is not read into this one.
            assert_eq!(read["cfg_one"].get("delays_per_entry"), None);
            assert_eq!(read["cfg_two"]["delays_per_entry"], "0.063");
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
                 \"allocs_per_cmd\": {:.3}, \"events_dispatched\": {events}, \"messages\": 9 }}\n}}",
                allocations as f64 / 1000.0
            )
        }

        #[test]
        fn one_more_allocation_fails_the_exact_tier() {
            let v = Some("rustc 1.95.0");
            let prior = counted(v, 148, 500);
            let moves = moves(&prior, &counted(v, 149, 500), &[]);
            assert_eq!(names(&moves), ["cfg.allocations", "cfg.allocs_per_cmd"]);
            assert_eq!(moves[0], "cfg.allocations: 148 -> 149");
        }

        #[test]
        fn a_count_that_falls_or_holds_never_flags() {
            // Of the allocator's counts; the simulation's move both ways.
            let v = Some("rustc 1.95.0");
            let prior = counted(v, 148, 500);
            assert!(names_moved(&prior, &prior).is_empty());
            assert!(names_moved(&prior, &counted(v, 20, 500)).is_empty());
        }

        #[test]
        fn event_counts_rise_whatever_the_toolchain() {
            let prior = counted(Some("rustc 1.95.0"), 148, 500);
            for now in [Some("rustc 1.96.0"), None] {
                assert_eq!(
                    names_moved(&prior, &counted(now, 999, 501)),
                    ["cfg.events_dispatched"],
                    "allocations need the same rustc: {now:?}"
                );
            }
            // A prior snapshot without a header compares no allocations.
            assert!(names_moved(&counted(None, 148, 500), &counted(None, 149, 500)).is_empty());
            // A dropped allocation field is missing whatever the toolchain.
            let dropped =
                counted(Some("rustc 1.96.0"), 148, 500).replace("\"allocations\": 148, ", "");
            assert_eq!(names_moved(&prior, &dropped), ["cfg.allocations"]);
        }

        #[test]
        fn a_named_move_passes_and_only_that_one() {
            let v = Some("rustc 1.95.0");
            let (prior, now) = (counted(v, 148, 500), counted(v, 149, 501));
            let moves = moves(
                &prior,
                &now,
                &[
                    "cfg.allocations",
                    "cfg.events_dispatched",
                    "other.allocs_per_cmd",
                ],
            );
            assert_eq!(names(&moves), ["cfg.allocs_per_cmd"]);
        }

        /// A snapshot of one row of simulated fields, at the values given,
        /// beside 148 allocations.
        fn simulated(events: u64, mem_ops: u64, committed_per_delay: &str) -> String {
            format!(
                "{{\n\"rustc\": \"rustc 1.95.0\",\n\"a\": {{ \"label\": \"cfg\", \
                 \"allocations\": 148, \"events_dispatched\": {events}, \"messages\": 9, \
                 \"mem_ops\": {mem_ops}, \"committed_per_delay\": {committed_per_delay}, \
                 \"delays_per_entry\": 0.631, \"range_rows_per_cmd\": 2.000 }}\n}}"
            )
        }

        #[test]
        fn a_simulated_count_that_falls_moves() {
            let prior = simulated(500, 300, "15.840");
            let moves = moves(&prior, &simulated(500, 299, "15.840"), &[]);
            assert_eq!(names(&moves), ["cfg.mem_ops"]);
            assert_eq!(moves[0], "cfg.mem_ops: 300 -> 299");
            // A rise moves it too, and so do both together.
            let both = simulated(499, 301, "15.840");
            assert_eq!(
                names_moved(&prior, &both),
                ["cfg.events_dispatched", "cfg.mem_ops"]
            );
        }

        #[test]
        fn a_virtual_time_move_inside_ten_percent_moves() {
            let prior = simulated(500, 300, "15.840");
            // Better by one part in 15 840, then worse by as much.
            for now in ["15.841", "15.839"] {
                let current = simulated(500, 300, now);
                assert_eq!(
                    names_moved(&prior, &current),
                    ["cfg.committed_per_delay"],
                    "{now}"
                );
            }
        }

        #[test]
        fn allocation_counts_stay_one_sided_and_a_named_move_passes() {
            let prior = simulated(500, 300, "15.840");
            let fewer_allocs = prior.replace("\"allocations\": 148", "\"allocations\": 100");
            assert!(names_moved(&prior, &fewer_allocs).is_empty());
            let now = simulated(500, 299, "15.841");
            let moves = moves(&prior, &now, &["cfg.mem_ops", "other.committed_per_delay"]);
            assert_eq!(names(&moves), ["cfg.committed_per_delay"]);
            // Another compiler may allocate more without moving the gate.
            let other = now.replace("1.95.0", "1.96.0").replace("148", "149");
            assert_eq!(
                names_moved(&prior, &other),
                ["cfg.committed_per_delay", "cfg.mem_ops"]
            );
        }

        #[test]
        fn the_rustc_header_reads_back() {
            let json = crate::snapshot_json(41, 1000, "rustc 1.95.0 (abc 2026-01-01)", 2, &[]);
            assert_eq!(
                header(&json, "rustc"),
                Some("\"rustc 1.95.0 (abc 2026-01-01)\"")
            );
            assert_eq!(header(&json, "workload_commands"), Some("1000"));
            assert_eq!(header(&json, "missing"), None);
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

        /// The repository root, where the committed snapshots live.
        fn root() -> PathBuf {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
        }

        #[test]
        fn the_exceptions_name_fields_of_the_newest_snapshot() {
            let (k, path) = latest_prior_snapshot(&root(), u32::MAX).expect("a BENCH_PR*.json");
            let rows = rows(&std::fs::read_to_string(path).unwrap()).unwrap();
            for field in std::iter::once(WALL_CLOCK).chain(ALLOCATOR_COUNTS) {
                let rows_with = rows.values().filter(|row| row.contains_key(field)).count();
                assert!(rows_with > 0, "no row of BENCH_PR{k}.json records {field}");
            }
        }

        #[test]
        fn the_event_count_of_a_committed_row_is_gated() {
            // The log and sharded rows write `events_dispatched`: a gate of
            // hand-listed fields that names `events` compares it nowhere.
            let prior = std::fs::read_to_string(root().join("BENCH_PR42.json")).unwrap();
            let (was, now) = (
                "\"events_dispatched\": 830012,",
                "\"events_dispatched\": 830013,",
            );
            assert!(prior.contains(was));
            let current = prior.replacen(was, now, 1);
            assert_eq!(
                moves(&prior, &current, &[]),
                ["optimized_kernel_batch1.events_dispatched: 830012 -> 830013"]
            );
        }

        /// No labeled field moved from PR 41 to PR 42. One section
        /// summary did, unseen while the gate read labeled rows alone: PR
        /// 42's paged store and per-sender rows lowered the allocation
        /// ratio of the 6 000- and the 1 500-command run.
        #[test]
        fn no_field_moved_from_bench_pr41_to_pr42() {
            let read = |k: u32| std::fs::read_to_string(root().join(format!("BENCH_PR{k}.json")));
            let (prior, current) = (read(41).unwrap(), read(42).unwrap());
            let groups = rows(&prior).unwrap();
            let summaries = groups
                .keys()
                .filter(|g| prior.contains(&format!("\"{g}\": {{")));
            assert_eq!(
                (groups.len(), summaries.count()),
                (76, 9),
                "67 rows, 9 summaries"
            );
            let ratio = "byz_log_scaling.allocs_per_cmd_6000_over_1500";
            assert_eq!(
                moves(&prior, &current, &[]),
                [format!("{ratio}: 0.844 -> 0.798")]
            );
            assert!(moves(&prior, &current, &[ratio]).is_empty());
        }

        /// A section summary is gated like a row's field, under its path:
        /// moving one by the last digit it is written with fails the gate,
        /// naming it (or the section, bare) passes it, and a summary
        /// dropped is missing.
        #[test]
        fn a_moved_section_summary_fails_the_gate() {
            let prior = std::fs::read_to_string(root().join("BENCH_PR45.json")).unwrap();
            let (was, now) = (
                "\"headline_w8_fast_gap_vs_crash\": 2.508",
                "\"headline_w8_fast_gap_vs_crash\": 2.509",
            );
            assert!(prior.contains(was));
            let current = prior.replacen(was, now, 1);
            let path = "byz_pipeline.headline_w8_fast_gap_vs_crash";
            assert_eq!(
                moves(&prior, &current, &[]),
                [format!("{path}: 2.508 -> 2.509")]
            );
            assert!(moves(&prior, &current, &[path]).is_empty());
            assert!(moves(&prior, &current, &["byz_pipeline"]).is_empty());
            // A nested summary, by its whole path.
            let nested = "\"service_p99\": 1.688";
            assert!(prior.contains(nested));
            let current = prior.replacen(nested, "\"service_p99\": 1.689", 1);
            assert_eq!(
                moves(&prior, &current, &[]),
                ["rebalance.hotset_auto_vs_static_hash.service_p99: 1.688 -> 1.689"]
            );
            let dropped = prior.replacen(&format!("{was},"), "", 1);
            assert_eq!(
                moves(&prior, &dropped, &[]),
                [format!("{path}: 2.508 -> missing")]
            );
            // The header says what was measured: a new PR number is no move.
            let renumbered = prior.replacen("\"pr\": 45", "\"pr\": 46", 1);
            assert!(moves(&prior, &renumbered, &[]).is_empty());
            assert_eq!(
                moves("{ \"a\": ", &prior, &[]),
                ["prior snapshot: does not parse"]
            );
        }
    }
}
