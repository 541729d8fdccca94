//! A textual determinism lint over the workspace sources.
//!
//! The sweep's central guarantee is byte-identical output at any thread,
//! worker, or shard count. That guarantee is easy to break silently: one
//! iteration over a hash-keyed collection feeding a serialized stream, one
//! ambient clock read in a deterministic path, and the same campaign stops
//! reproducing. `sweep lint` scans the sources for the constructs that have
//! historically caused such breaks and fails CI on any unexplained use:
//!
//! * `hash-collections` — hash-keyed std collections. Their iteration order
//!   is arbitrary; any traversal that escapes into serialized output must
//!   go through a sorted or `BTreeMap`-backed path instead.
//! * `unstable-hasher` — the std hasher types. Their algorithm is
//!   explicitly unstable across toolchain releases, so hashes derived from
//!   them must never be compared across builds.
//! * `wall-clock` — ambient clock reads, which are only legitimate in the
//!   paths that *report* wall-clock time (the threaded backend, the
//!   service's wall-clock mode).
//! * `thread-id` — scheduling-dependent thread identity leaking into
//!   results.
//!
//! Deliberate uses are suppressed through an allowlist file: one
//! `rule path-suffix` pair per line, `#` comments, matching every finding
//! of `rule` in files whose path ends with `path-suffix`. The allowlist is
//! the audit trail — each entry documents *why* the use cannot reach
//! serialized output — so an entry that suppresses nothing is an error
//! too ([`stale_entries`]): deleting a use must not leave its audit entry
//! behind to silently cover a new one.
//!
//! The lint is textual, not type-aware: it cannot follow dataflow, so it
//! flags every mention and relies on the allowlist for precision. That
//! trade keeps it dependency-free and fast enough to run on every CI push.

use std::fmt;

// The lint's own pattern table would otherwise be its first finding; the
// split literals keep the scanner from seeing itself.
const HASH_MAP: &str = concat!("Hash", "Map");
const HASH_SET: &str = concat!("Hash", "Set");
const DEFAULT_HASHER: &str = concat!("Default", "Hasher");
const RANDOM_STATE: &str = concat!("Random", "State");
const SYSTEM_TIME_NOW: &str = concat!("System", "Time::now");
const INSTANT_NOW: &str = concat!("Instant", "::now");
const THREAD_ID: &str = concat!("Thread", "Id");
const CURRENT_ID: &str = concat!("thread::current()", ".id()");

/// Every rule the lint checks, with the substrings that trigger it.
fn rules() -> [(&'static str, [&'static str; 2]); 4] {
    [
        ("hash-collections", [HASH_MAP, HASH_SET]),
        ("unstable-hasher", [DEFAULT_HASHER, RANDOM_STATE]),
        ("wall-clock", [SYSTEM_TIME_NOW, INSTANT_NOW]),
        ("thread-id", [CURRENT_ID, THREAD_ID]),
    ]
}

/// One suppression: every finding of `rule` in files whose path ends with
/// `path_suffix` is allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule being suppressed (must name a real rule).
    pub rule: String,
    /// Path suffix the suppression applies to.
    pub path_suffix: String,
}

impl fmt::Display for AllowEntry {
    /// The entry as its allowlist line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.rule, self.path_suffix)
    }
}

/// One determinism-relevant construct found in a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Path of the file, as given to [`lint_source`].
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Name of the violated rule.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub text: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.text
        )
    }
}

/// Parses an allowlist file: one `rule path-suffix` pair per line, blank
/// lines and `#` comments ignored. Rejects unknown rule names — a typo in
/// the allowlist must not silently stop suppressing.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let known: Vec<&str> = rules().iter().map(|(rule, _)| *rule).collect();
    let mut entries = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((rule, suffix)) = line.split_once(char::is_whitespace) else {
            return Err(format!(
                "allowlist line {}: want `rule path-suffix`, got {line:?}",
                index + 1
            ));
        };
        if !known.contains(&rule) {
            return Err(format!(
                "allowlist line {}: unknown rule {rule:?} (want one of {})",
                index + 1,
                known.join(", ")
            ));
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path_suffix: suffix.trim().to_string(),
        });
    }
    Ok(entries)
}

/// The index of the first entry of `allow` suppressing `rule` in `path`.
fn allowed(allow: &[AllowEntry], rule: &str, path: &str) -> Option<usize> {
    allow
        .iter()
        .position(|entry| entry.rule == rule && path.ends_with(&entry.path_suffix))
}

/// Lints one source file. Returns the findings not covered by `allow` and,
/// for each entry of `allow`, the number of findings it suppressed (a
/// finding counts against the first entry matching it). Comment-only lines
/// are skipped — prose *about* a hash map is not a use of one.
pub fn lint_source(path: &str, source: &str, allow: &[AllowEntry]) -> (Vec<LintFinding>, Vec<u64>) {
    let mut findings = Vec::new();
    let mut suppressed = vec![0u64; allow.len()];
    for (index, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        for (rule, patterns) in rules() {
            if !patterns.iter().any(|pattern| trimmed.contains(pattern)) {
                continue;
            }
            match allowed(allow, rule, path) {
                Some(entry) => suppressed[entry] += 1,
                None => findings.push(LintFinding {
                    path: path.to_string(),
                    line: index + 1,
                    rule,
                    text: trimmed.trim_end().to_string(),
                }),
            }
        }
    }
    (findings, suppressed)
}

/// The entries of `allow` that suppressed nothing, given each entry's
/// suppression count summed over every scanned file.
pub fn stale_entries<'a>(allow: &'a [AllowEntry], suppressed: &[u64]) -> Vec<&'a AllowEntry> {
    allow
        .iter()
        .zip(suppressed)
        .filter(|(_, count)| **count == 0)
        .map(|(entry, _)| entry)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_each_rule_once_per_line() {
        let source = format!(
            "use std::collections::{HASH_MAP};\n\
             let h = {DEFAULT_HASHER}::new();\n\
             let t = {INSTANT_NOW}();\n\
             let id = std::{CURRENT_ID};\n\
             let fine = std::collections::BTreeMap::new();\n"
        );
        let (findings, suppressed) = lint_source("src/x.rs", &source, &[]);
        assert!(suppressed.is_empty());
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec![
                "hash-collections",
                "unstable-hasher",
                "wall-clock",
                "thread-id"
            ]
        );
        assert_eq!(findings[0].line, 1);
        assert!(findings[0]
            .to_string()
            .starts_with("src/x.rs:1: [hash-collections]"));
    }

    #[test]
    fn comments_about_hash_maps_are_not_findings() {
        let source = format!(
            "// a {HASH_MAP} would be wrong here\n\
             /// doc prose naming {DEFAULT_HASHER}\n\
             //! module prose naming {INSTANT_NOW}\n"
        );
        let (findings, _) = lint_source("src/x.rs", &source, &[]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allowlist_suppresses_by_rule_and_path_suffix() {
        let allow_text = "# seen-set: iteration order never escapes\n\
             hash-collections runtime/src/explore.rs\n\
             wall-clock src/lib.rs # threaded timing\n";
        let allow = parse_allowlist(allow_text).unwrap();
        assert_eq!(allow.len(), 2);
        let source = format!("use std::collections::{HASH_SET};\n");
        let (findings, suppressed) = lint_source("crates/runtime/src/explore.rs", &source, &allow);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, vec![1, 0]);
        // The suffix does not match a different file, and the rule does not
        // cover a different construct in the matching file.
        let (findings, _) = lint_source("crates/search/src/driver.rs", &source, &allow);
        assert_eq!(findings.len(), 1);
        let clock = format!("let t = {INSTANT_NOW}();\n");
        let (findings, _) = lint_source("crates/runtime/src/explore.rs", &clock, &allow);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn entries_that_suppress_nothing_are_stale() {
        let allow = parse_allowlist(
            "hash-collections runtime/src/explore.rs\n\
             unstable-hasher runtime/src/explore.rs\n\
             hash-collections runtime/src/parallel.rs\n",
        )
        .unwrap();
        let source = format!("use std::collections::{HASH_MAP};\n");
        // Per-entry counts add up over files; only the hasher entry, whose
        // use no scanned file still has, is stale.
        let mut total = vec![0u64; allow.len()];
        for path in [
            "crates/runtime/src/explore.rs",
            "crates/runtime/src/parallel.rs",
        ] {
            let (findings, suppressed) = lint_source(path, &source, &allow);
            assert!(findings.is_empty(), "{findings:?}");
            for (sum, count) in total.iter_mut().zip(suppressed) {
                *sum += count;
            }
        }
        assert_eq!(total, vec![1, 0, 1]);
        let stale = stale_entries(&allow, &total);
        assert_eq!(stale, vec![&allow[1]]);
        assert_eq!(
            stale[0].to_string(),
            "unstable-hasher runtime/src/explore.rs"
        );
    }

    #[test]
    fn allowlists_with_unknown_rules_or_shapes_are_rejected() {
        let err = parse_allowlist("ample-sets src/x.rs\n").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        let err = parse_allowlist("hash-collections\n").unwrap_err();
        assert!(err.contains("want `rule path-suffix`"), "{err}");
        assert!(parse_allowlist("# only comments\n\n").unwrap().is_empty());
    }
}
