//! The golden mixed-mode fixture: `golden/mixed.jsonl` holds one result
//! line per record shape the engine writes — scheduled, crash, threaded,
//! serial explore with symmetry applied and with symmetry fallen back,
//! parallel explore, serve, both adversary-search goals — and a line each
//! of the retired persistent-set and sleep-set modes; `golden/mixed.summary.txt`
//! is what `sweep summarize` printed for that file when it was committed.
//! Decoding and re-encoding must reproduce every line byte for byte, and
//! the summary must render the identical text.

use sa_sweep::{parse_jsonl, Summary, SweepRecord};

const RECORDS: &str = include_str!("golden/mixed.jsonl");
const SUMMARY: &str = include_str!("golden/mixed.summary.txt");

#[test]
fn every_record_shape_re_encodes_byte_for_byte() {
    for (lineno, line) in RECORDS.lines().enumerate() {
        let record =
            SweepRecord::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", lineno + 1));
        assert_eq!(record.to_json(), line, "line {} re-encodes", lineno + 1);
    }
}

#[test]
fn the_summary_renders_the_committed_text() {
    let records = parse_jsonl(RECORDS).expect("the fixture parses");
    assert_eq!(Summary::of(&records).render(), SUMMARY);
}
