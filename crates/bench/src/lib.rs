//! Shared helpers for the benchmark harnesses.
//!
//! Each bench target regenerates one of the paper's tables/figures (see
//! DESIGN.md §4, experiments E1–E10): it *prints* the paper-style table
//! (virtual-time delay metrics, resilience outcomes, signature counts) and
//! registers Criterion wall-clock measurements for the simulation runs.

/// Prints a section header in the bench output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats an `Option<f64>` delay for table cells.
pub fn fmt_delay(d: Option<f64>) -> String {
    match d {
        Some(x) => format!("{x:.1}"),
        None => "-".to_string(),
    }
}

/// Formats a boolean for table cells.
pub fn tick(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// The per-PR perf regression gate: compares the snapshot a `perf_snapshot`
/// run just produced against the newest prior `BENCH_PR<k>.json` at the
/// repo root and reports any throughput drop beyond a threshold.
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

    /// The gated metrics: `(field, higher_is_better)`. `entries_per_sec`
    /// is wall-clock (noisy across machines; measured configs keep their
    /// best-of-N trial to compare noise floors). `committed_per_delay` and
    /// `delays_per_entry` are *virtual-time* quantities — deterministic
    /// per seed and identical on every machine — so any change there is a
    /// real schedule regression, never noise. `range_rows_per_cmd` (rows
    /// returned by range reads per committed command) is an exact count
    /// of the same kind: it moves only when a read starts fetching more.
    const GATED_METRICS: [(&str, bool); 4] = [
        ("entries_per_sec", true),
        ("committed_per_delay", true),
        ("delays_per_entry", false),
        ("range_rows_per_cmd", false),
    ];

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
  "a": { "label": "cfg_one", "entries": 10, "entries_per_sec": 1000, "x": 1 },
  "b": { "label": "cfg_two", "entries_per_sec": 500.5 }
}"#;

        #[test]
        fn extracts_labeled_and_top_fields() {
            assert_eq!(top_field(PRIOR, "workload_commands"), Some(1000.0));
            assert_eq!(
                labeled_field(PRIOR, "cfg_one", "entries_per_sec"),
                Some(1000.0)
            );
            assert_eq!(
                labeled_field(PRIOR, "cfg_two", "entries_per_sec"),
                Some(500.5)
            );
            assert_eq!(labeled_field(PRIOR, "cfg_missing", "entries_per_sec"), None);
            assert_eq!(labels(PRIOR), vec!["cfg_one", "cfg_two"]);
        }

        #[test]
        fn missing_field_does_not_read_the_next_object() {
            // cfg_gap has no entries_per_sec; the scan must stop at its
            // closing brace instead of returning cfg_after's value.
            let json = r#"{
  "a": { "label": "cfg_gap", "entries": 10 },
  "b": { "label": "cfg_after", "entries_per_sec": 999 }
}"#;
            assert_eq!(labeled_field(json, "cfg_gap", "entries_per_sec"), None);
            assert_eq!(
                labeled_field(json, "cfg_after", "entries_per_sec"),
                Some(999.0)
            );
        }

        #[test]
        fn flags_only_drops_beyond_threshold() {
            let current = r#"{
  "a": { "label": "cfg_one", "entries_per_sec": 950 },
  "b": { "label": "cfg_two", "entries_per_sec": 200 },
  "c": { "label": "cfg_new", "entries_per_sec": 1 }
}"#;
            let regs = regressions(PRIOR, current, 0.10);
            // cfg_one dropped 5% (within threshold); cfg_new is unknown to
            // the prior snapshot; only cfg_two's 60% drop is flagged.
            assert_eq!(regs.len(), 1);
            assert_eq!(regs[0].label, "cfg_two");
            assert_eq!(regs[0].metric, "entries_per_sec");
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
            let current = r#"{ "a": { "label": "cfg_one", "entries_per_sec": 5000 } }"#;
            assert!(regressions(PRIOR, current, 0.10).is_empty());
        }

        #[test]
        fn retired_labels_surface_lost_coverage() {
            // cfg_two vanished (renamed to cfg_2): regressions() is blind
            // to it, retired_labels() is not.
            let current = r#"{
  "a": { "label": "cfg_one", "entries_per_sec": 1000 },
  "b": { "label": "cfg_2", "entries_per_sec": 1 }
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
