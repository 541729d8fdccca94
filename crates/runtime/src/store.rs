//! The state store: self-describing segment files, which hold campaign
//! checkpoint journals, plus the compact in-memory structures the explorers
//! keep their seen-sets and breadth-first schedules in. No explorer writes a
//! file: over the resident budget they shed executors and rebuild them by
//! replay, and their seen-sets stay resident.
//!
//! # On-disk format
//!
//! Every file written by this module is a **segment**: a fixed 24-byte
//! header, a sequence of length-prefixed records, and (for sealed segments)
//! a checksummed trailer. The header is
//!
//! ```text
//! magic    8 bytes  b"SASEG01\n"
//! kind     1 byte   what the records mean (see [`SegmentKind`])
//! framing  1 byte   1 = sealed, 2 = journal
//! reserved 6 bytes  zero
//! tag      8 bytes  caller-chosen identity (LE u64); e.g. a spec fingerprint
//! ```
//!
//! **Sealed** segments are written once and finished with a trailer
//! (`record count` u64, FNV-1a checksum over every record's length prefix
//! and bytes, tail magic `b"SASEGEND"`); a reader rejects any file whose
//! trailer does not check out. No explorer writes them: they remain for
//! `perfbench`'s `store.segment_*` timings.
//!
//! **Journal** segments are append-only and crash-tolerant: each record is
//! `length` (u32 LE), `FNV-1a of the record bytes` (u64 LE), then the bytes,
//! and every append is flushed and synced. A reader stops at the first
//! record whose length or checksum does not check out — a torn tail from a
//! killed writer loses at most the record being written, never an earlier
//! one. Campaign checkpointing (`sweep run --checkpoint`) journals one
//! record per completed scenario on top of this framing.
//!
//! # In-memory structures
//!
//! * [`KeyTable`] — an open-addressed hash table holding bare 128-bit
//!   [`StateKey`]s at 16 bytes per slot (plus a 1-bit occupancy word), the
//!   compact seen-set representation. Its capacity is a pure function of
//!   how many keys were inserted, so the byte accounting it reports is
//!   deterministic at any worker count.
//! * [`ScheduleArena`] — frontier schedules delta-encoded against their
//!   parent: one `(parent, step)` node per retained state instead of a
//!   `Vec<ProcessId>` per frontier entry. Configurations themselves are
//!   never serialized: a schedule replayed from the initial executor *is*
//!   the configuration (the executor is deterministic), which is what lets
//!   a BFS entry shed its executor and keep only its arena node.

use crate::explore::StateKey;
use sa_model::ProcessId;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The 8-byte magic every segment file starts with.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SASEG01\n";
/// The 8-byte magic a sealed segment's trailer ends with.
pub const SEGMENT_TAIL_MAGIC: &[u8; 8] = b"SASEGEND";

const FRAMING_SEALED: u8 = 1;
const FRAMING_JOURNAL: u8 = 2;

/// What the records of a segment mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Frontier records (see [`encode_frontier_record`]).
    FrontierLevel,
    /// A campaign checkpoint journal (one completed scenario per record).
    CampaignJournal,
}

impl SegmentKind {
    /// The header's kind byte, part of the on-disk format: code 2 is retired
    /// and unused, and campaign journals keep 3 so that existing checkpoint
    /// journals still open.
    fn code(self) -> u8 {
        match self {
            SegmentKind::FrontierLevel => 1,
            SegmentKind::CampaignJournal => 3,
        }
    }
}

/// 64-bit FNV-1a over a byte slice — the checksum both framings use.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn write_header(out: &mut impl Write, kind: SegmentKind, framing: u8, tag: u64) -> io::Result<()> {
    out.write_all(SEGMENT_MAGIC)?;
    out.write_all(&[kind.code(), framing, 0, 0, 0, 0, 0, 0])?;
    out.write_all(&tag.to_le_bytes())?;
    Ok(())
}

fn read_header(input: &mut impl Read, kind: SegmentKind, framing: u8) -> io::Result<u64> {
    let mut header = [0u8; 24];
    input.read_exact(&mut header)?;
    if &header[..8] != SEGMENT_MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    if header[8] != kind.code() {
        return Err(corrupt("segment kind mismatch"));
    }
    if header[9] != framing {
        return Err(corrupt("segment framing mismatch"));
    }
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&header[16..24]);
    Ok(u64::from_le_bytes(tag))
}

fn corrupt(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Writes a sealed segment: records are appended, then [`SegmentWriter::finish`]
/// seals the file with a checksummed trailer. A file without a valid trailer
/// is rejected by [`read_segment`], so a crashed writer can never be mistaken
/// for a complete segment.
#[derive(Debug)]
pub struct SegmentWriter {
    out: BufWriter<File>,
    records: u64,
    checksum: u64,
}

impl SegmentWriter {
    /// Creates (truncating) a sealed segment at `path`.
    pub fn create(path: &Path, kind: SegmentKind, tag: u64) -> io::Result<SegmentWriter> {
        let mut out = BufWriter::new(File::create(path)?);
        write_header(&mut out, kind, FRAMING_SEALED, tag)?;
        Ok(SegmentWriter {
            out,
            records: 0,
            checksum: 0xcbf2_9ce4_8422_2325,
        })
    }

    /// Appends one length-prefixed record.
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let len = u32::try_from(record.len()).map_err(|_| corrupt("record too large"))?;
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(record)?;
        for &b in len.to_le_bytes().iter().chain(record) {
            self.checksum ^= b as u64;
            self.checksum = self.checksum.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.records += 1;
        Ok(())
    }

    /// Writes the trailer and flushes the file; the segment is now readable.
    pub fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.records.to_le_bytes())?;
        self.out.write_all(&self.checksum.to_le_bytes())?;
        self.out.write_all(SEGMENT_TAIL_MAGIC)?;
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }
}

/// Reads a sealed segment back, verifying header, record count, checksum and
/// tail magic. Returns the header tag and the records.
pub fn read_segment(path: &Path, kind: SegmentKind) -> io::Result<(u64, Vec<Vec<u8>>)> {
    let mut input = BufReader::new(File::open(path)?);
    let tag = read_header(&mut input, kind, FRAMING_SEALED)?;
    let mut body = Vec::new();
    input.read_to_end(&mut body)?;
    if body.len() < 24 {
        return Err(corrupt("sealed segment truncated before trailer"));
    }
    let trailer = body.split_off(body.len() - 24);
    if &trailer[16..24] != SEGMENT_TAIL_MAGIC {
        return Err(corrupt("bad segment tail magic"));
    }
    let declared_records = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
    let declared_checksum = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    if fnv1a64(&body) != declared_checksum {
        return Err(corrupt("sealed segment checksum mismatch"));
    }
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < body.len() {
        if body.len() - offset < 4 {
            return Err(corrupt("record length prefix truncated"));
        }
        let len =
            u32::from_le_bytes(body[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        offset += 4;
        if body.len() - offset < len {
            return Err(corrupt("record body truncated"));
        }
        records.push(body[offset..offset + len].to_vec());
        offset += len;
    }
    if records.len() as u64 != declared_records {
        return Err(corrupt("sealed segment record count mismatch"));
    }
    Ok((tag, records))
}

/// An append-only, crash-tolerant journal segment.
///
/// Open with [`Journal::open`], which replays the valid prefix (tolerating a
/// torn tail from a killed writer) and positions the writer after it; every
/// [`Journal::append`] is flushed and synced before it returns, so a record
/// that was appended is durable.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, validating the header
    /// against `kind` and `tag`, and returns the records of the valid
    /// prefix together with the positioned writer. A torn tail (partial
    /// record from a killed writer) is truncated away; a tag mismatch — a
    /// journal written for a *different* campaign — is an error.
    pub fn open(path: &Path, kind: SegmentKind, tag: u64) -> io::Result<(Vec<Vec<u8>>, Journal)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            write_header(&mut file, kind, FRAMING_JOURNAL, tag)?;
            file.sync_data()?;
            return Ok((Vec::new(), Journal { file }));
        }
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        if contents.len() < 24 {
            return Err(corrupt("journal truncated inside its header"));
        }
        let found_tag = read_header(&mut &contents[..24], kind, FRAMING_JOURNAL)?;
        if found_tag != tag {
            return Err(corrupt("journal tag mismatch: different campaign"));
        }
        let mut records = Vec::new();
        let mut valid = 24usize;
        loop {
            let rest = &contents[valid..];
            if rest.len() < 12 {
                break;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            let checksum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
            if rest.len() - 12 < len {
                break;
            }
            let body = &rest[12..12 + len];
            if fnv1a64(body) != checksum {
                break;
            }
            records.push(body.to_vec());
            valid += 12 + len;
        }
        // Drop the torn tail (if any) so subsequent appends extend a valid
        // prefix instead of interleaving with garbage.
        file.set_len(valid as u64)?;
        file.seek(SeekFrom::Start(valid as u64))?;
        Ok((records, Journal { file }))
    }

    /// Appends one record durably (flushed and synced before returning).
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let len = u32::try_from(record.len()).map_err(|_| corrupt("record too large"))?;
        let mut framed = Vec::with_capacity(12 + record.len());
        framed.extend_from_slice(&len.to_le_bytes());
        framed.extend_from_slice(&fnv1a64(record).to_le_bytes());
        framed.extend_from_slice(record);
        self.file.write_all(&framed)?;
        self.file.sync_data()
    }
}

/// An open-addressed hash table of bare 128-bit [`StateKey`]s: 16 bytes per
/// slot plus a one-bit occupancy word, versus the ~48 bytes per entry of a
/// `HashSet<StateKey>`. Keys are already uniform 128-bit hashes, so the
/// first half indexes directly (linear probing, power-of-two capacity).
///
/// Capacity grows by doubling when the table passes 3/4 load, so the
/// allocated size — and therefore the byte accounting the explorers report —
/// is a pure function of the number of keys inserted, never of insertion
/// order or worker count.
#[derive(Debug, Clone)]
pub struct KeyTable {
    slots: Vec<[u64; 2]>,
    occupied: Vec<u64>,
    len: usize,
}

const KEY_TABLE_MIN_CAPACITY: usize = 16;

impl Default for KeyTable {
    fn default() -> Self {
        KeyTable::new()
    }
}

impl KeyTable {
    /// An empty table at the minimum capacity.
    pub fn new() -> KeyTable {
        KeyTable {
            slots: vec![[0, 0]; KEY_TABLE_MIN_CAPACITY],
            occupied: vec![0; KEY_TABLE_MIN_CAPACITY.div_ceil(64)],
            len: 0,
        }
    }

    /// The number of keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no key is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_occupied(&self, slot: usize) -> bool {
        self.occupied[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn probe(&self, key: &StateKey) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let parts = key.parts();
        let mut slot = (parts[0] as usize) & mask;
        loop {
            if !self.is_occupied(slot) {
                return Err(slot);
            }
            if self.slots[slot] == parts {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// `true` if `key` is in the table.
    pub fn contains(&self, key: &StateKey) -> bool {
        self.probe(key).is_ok()
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&mut self, key: StateKey) -> bool {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        match self.probe(&key) {
            Ok(_) => false,
            Err(slot) => {
                self.slots[slot] = key.parts();
                self.occupied[slot / 64] |= 1 << (slot % 64);
                self.len += 1;
                true
            }
        }
    }

    fn grow(&mut self) {
        let capacity = self.slots.len() * 2;
        let old_slots = std::mem::replace(&mut self.slots, vec![[0, 0]; capacity]);
        let old_occupied = std::mem::replace(&mut self.occupied, vec![0; capacity.div_ceil(64)]);
        self.len = 0;
        for (slot, parts) in old_slots.into_iter().enumerate() {
            if old_occupied[slot / 64] & (1 << (slot % 64)) != 0 {
                self.insert(StateKey::from_parts(parts));
            }
        }
    }

    /// The bytes this table allocates right now — equal to
    /// [`KeyTable::bytes_for_len`] of its length, by construction.
    pub fn allocated_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<[u64; 2]>() + self.occupied.len() * 8) as u64
    }

    /// The bytes a table holding `len` keys allocates — a pure function of
    /// `len` (capacity doubles past 3/4 load from a fixed minimum), which is
    /// what keeps the explorers' byte accounting deterministic.
    pub fn bytes_for_len(len: u64) -> u64 {
        let mut capacity = KEY_TABLE_MIN_CAPACITY as u64;
        while (len + 1) * 4 > capacity * 3 {
            capacity *= 2;
        }
        capacity * std::mem::size_of::<[u64; 2]>() as u64 + capacity.div_ceil(64) * 8
    }
}

/// The root sentinel of a [`ScheduleArena`]: the empty schedule.
pub const SCHEDULE_ROOT: u32 = u32::MAX;

/// Frontier schedules delta-encoded against their parent: node `i` holds
/// `(parent, step)`, so a frontier entry references its whole schedule as
/// one `u32` and the arena stores each retained state's schedule in 8 bytes
/// — instead of a fresh `Vec<ProcessId>` per entry. Nodes are append-only
/// and committed single-threaded at the explorer's level barriers, so
/// workers can materialize schedules from a shared reference while the
/// arena is frozen.
#[derive(Debug, Clone, Default)]
pub struct ScheduleArena {
    nodes: Vec<(u32, u32)>,
}

impl ScheduleArena {
    /// An empty arena (only [`SCHEDULE_ROOT`] exists).
    pub fn new() -> ScheduleArena {
        ScheduleArena::default()
    }

    /// Commits the schedule `parent ++ [step]` and returns its node id.
    ///
    /// # Panics
    ///
    /// Panics with `schedule arena overflow` if the arena outgrows `u32`
    /// node ids (4 billion frontier entries is past any in-memory budget
    /// this explorer runs under) — or if a step's process index does: a
    /// pathological index must fail loudly here, not alias a small one
    /// after a silent `as u32` truncation.
    pub fn push(&mut self, parent: u32, step: ProcessId) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("schedule arena overflow");
        assert!(id != SCHEDULE_ROOT, "schedule arena overflow");
        let step = u32::try_from(step.index()).expect("schedule arena overflow");
        self.nodes.push((parent, step));
        id
    }

    /// The full schedule of `node`, root first.
    pub fn materialize(&self, node: u32) -> Vec<ProcessId> {
        let mut steps = Vec::new();
        let mut current = node;
        while current != SCHEDULE_ROOT {
            let (parent, step) = self.nodes[current as usize];
            steps.push(ProcessId(step as usize));
            current = parent;
        }
        steps.reverse();
        steps
    }
}

/// Bytes preceding the steps of a frontier record: orbit weight, sleep
/// mask, revisit flag + owed mask, backtrack mask, done mask, schedule
/// length.
const FRONTIER_RECORD_HEADER: usize = 8 + 8 + 1 + 8 + 8 + 8 + 4;

/// A frontier entry as serialized by [`encode_frontier_record`]. No
/// explorer uses this record: it is kept only for `perfbench`'s
/// `store.frontier_*` timings, until perfbench next changes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrontierRecord {
    /// The schedule reaching the entry's configuration.
    pub schedule: Vec<ProcessId>,
    /// The orbit-size lower bound of the configuration.
    pub orbit_lower: u64,
    /// A sleep mask (see [`mask_of`](crate::mask_of)).
    pub sleep: u64,
    /// `Some(owed)` for an owed-revisit entry of sleep-set state matching.
    pub expand: Option<u64>,
    /// A backtrack mask.
    pub backtrack: u64,
    /// A done mask.
    pub done: u64,
}

/// Encodes one spilled frontier record: the orbit-size lower bound, the
/// entry's sleep mask, its owed-revisit mask (flag byte then mask), the
/// backtrack and done masks, the schedule length, then the schedule's
/// steps as `u32`s.
///
/// # Panics
///
/// Panics with `schedule arena overflow` if a step's process index
/// outgrows the record's `u32` step width — the same contract as
/// [`ScheduleArena::push`], and for the same reason: silently truncating
/// would alias a pathological index with a small one.
pub fn encode_frontier_record(entry: &FrontierRecord) -> Vec<u8> {
    let mut record = Vec::with_capacity(FRONTIER_RECORD_HEADER + entry.schedule.len() * 4);
    record.extend_from_slice(&entry.orbit_lower.to_le_bytes());
    record.extend_from_slice(&entry.sleep.to_le_bytes());
    record.push(entry.expand.is_some() as u8);
    record.extend_from_slice(&entry.expand.unwrap_or(0).to_le_bytes());
    record.extend_from_slice(&entry.backtrack.to_le_bytes());
    record.extend_from_slice(&entry.done.to_le_bytes());
    record.extend_from_slice(&(entry.schedule.len() as u32).to_le_bytes());
    for step in &entry.schedule {
        let step = u32::try_from(step.index()).expect("schedule arena overflow");
        record.extend_from_slice(&step.to_le_bytes());
    }
    record
}

/// Decodes a record written by [`encode_frontier_record`].
///
/// Step indices are validated against the cell's `process_count` before a
/// `ProcessId` is built from them: the bytes come from disk, and a
/// corrupt-but-checksum-colliding (or hand-edited) segment must surface as
/// a clean `corrupt segment` error here instead of an out-of-range process
/// id that panics deep inside replay.
pub fn decode_frontier_record(record: &[u8], process_count: usize) -> io::Result<FrontierRecord> {
    if record.len() < FRONTIER_RECORD_HEADER {
        return Err(corrupt("corrupt segment: frontier record too short"));
    }
    let orbit_lower = u64::from_le_bytes(record[..8].try_into().expect("8 bytes"));
    let sleep = u64::from_le_bytes(record[8..16].try_into().expect("8 bytes"));
    let expand = match record[16] {
        0 => None,
        1 => Some(u64::from_le_bytes(
            record[17..25].try_into().expect("8 bytes"),
        )),
        _ => return Err(corrupt("corrupt segment: revisit flag out of range")),
    };
    let backtrack = u64::from_le_bytes(record[25..33].try_into().expect("8 bytes"));
    let done = u64::from_le_bytes(record[33..41].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(record[41..45].try_into().expect("4 bytes")) as usize;
    if record.len() != FRONTIER_RECORD_HEADER + len * 4 {
        return Err(corrupt("corrupt segment: frontier record length mismatch"));
    }
    let schedule = (0..len)
        .map(|i| {
            let at = FRONTIER_RECORD_HEADER + i * 4;
            let step = u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes")) as usize;
            if step >= process_count {
                return Err(corrupt("corrupt segment: schedule step out of range"));
            }
            Ok(ProcessId(step))
        })
        .collect::<io::Result<Vec<ProcessId>>>()?;
    Ok(FrontierRecord {
        schedule,
        orbit_lower,
        sleep,
        expand,
        backtrack,
        done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sa-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn sealed_segment_roundtrips_records_and_tag() {
        let path = temp_path("sealed-roundtrip.seg");
        let mut writer = SegmentWriter::create(&path, SegmentKind::FrontierLevel, 77).unwrap();
        let records: Vec<Vec<u8>> = vec![b"one".to_vec(), Vec::new(), vec![0u8; 300]];
        for record in &records {
            writer.append(record).unwrap();
        }
        writer.finish().unwrap();
        let (tag, read) = read_segment(&path, SegmentKind::FrontierLevel).unwrap();
        assert_eq!(tag, 77);
        assert_eq!(read, records);
    }

    #[test]
    fn sealed_segment_rejects_corruption_and_wrong_kind() {
        let path = temp_path("sealed-corrupt.seg");
        let mut writer = SegmentWriter::create(&path, SegmentKind::CampaignJournal, 0).unwrap();
        writer.append(b"payload").unwrap();
        writer.finish().unwrap();
        // Wrong kind.
        assert!(read_segment(&path, SegmentKind::FrontierLevel).is_err());
        // Flip a byte in the body: the checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[30] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_segment(&path, SegmentKind::CampaignJournal).is_err());
        // A writer that never finished (no trailer) is rejected too.
        let unfinished = temp_path("sealed-unfinished.seg");
        let mut writer =
            SegmentWriter::create(&unfinished, SegmentKind::CampaignJournal, 0).unwrap();
        writer.append(b"half").unwrap();
        drop(writer);
        assert!(read_segment(&unfinished, SegmentKind::CampaignJournal).is_err());
    }

    #[test]
    fn journal_appends_reopen_and_tolerate_torn_tails() {
        let path = temp_path("journal-torn.seg");
        let _ = std::fs::remove_file(&path);
        let (records, mut journal) = Journal::open(&path, SegmentKind::CampaignJournal, 9).unwrap();
        assert!(records.is_empty());
        journal.append(b"alpha").unwrap();
        journal.append(b"beta").unwrap();
        drop(journal);
        // Simulate a crash mid-append: a partial record at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        let (records, mut journal) = Journal::open(&path, SegmentKind::CampaignJournal, 9).unwrap();
        assert_eq!(records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        // Appending after recovery extends the valid prefix.
        journal.append(b"gamma").unwrap();
        drop(journal);
        let (records, _) = Journal::open(&path, SegmentKind::CampaignJournal, 9).unwrap();
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
        // A different tag is a different campaign: refuse to resume.
        assert!(Journal::open(&path, SegmentKind::CampaignJournal, 10).is_err());
    }

    #[test]
    fn journal_header_bytes_are_pinned() {
        // Existing `--checkpoint` directories must keep opening, so a fresh
        // campaign journal's header is a known answer: magic, kind 3,
        // framing 2, six reserved zeros, then the tag in LE order.
        let path = temp_path("journal-header.seg");
        let _ = std::fs::remove_file(&path);
        let (records, journal) =
            Journal::open(&path, SegmentKind::CampaignJournal, 0x0123_4567_89ab_cdef).unwrap();
        assert!(records.is_empty());
        drop(journal);
        let mut expected = b"SASEG01\n".to_vec();
        expected.extend_from_slice(&[3, 2, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01]);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
    }

    #[test]
    fn key_table_inserts_contains_and_grows_deterministically() {
        let mut table = KeyTable::new();
        // Start at 1: index 0 would map to the all-zero key, which the tail
        // of this test wants absent.
        let keys: Vec<StateKey> = (1..=1000u64)
            .map(|i| StateKey::from_parts([i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i]))
            .collect();
        for key in &keys {
            assert!(!table.contains(key));
            assert!(table.insert(*key));
            assert!(!table.insert(*key), "double insert must report existing");
            assert!(table.contains(key));
        }
        assert_eq!(table.len(), 1000);
        assert_eq!(table.allocated_bytes(), KeyTable::bytes_for_len(1000));
        // Every key survives the table's growth.
        assert!(keys.iter().all(|key| table.contains(key)));
        // The zero key is a valid key (occupancy is a bitset, not a
        // sentinel value).
        let zero = StateKey::from_parts([0, 0]);
        assert!(!table.contains(&zero));
        assert!(table.insert(zero));
        assert!(table.contains(&zero));
    }

    #[test]
    fn key_table_byte_accounting_is_a_function_of_len_only() {
        // Insert the same key set in two different orders: identical
        // allocation, as the determinism guarantee requires.
        let keys: Vec<StateKey> = (0..500u64)
            .map(|i| StateKey::from_parts([i.rotate_left(17) ^ 0xABCD, i]))
            .collect();
        let mut forward = KeyTable::new();
        let mut backward = KeyTable::new();
        for key in &keys {
            forward.insert(*key);
        }
        for key in keys.iter().rev() {
            backward.insert(*key);
        }
        assert_eq!(forward.allocated_bytes(), backward.allocated_bytes());
        assert!(KeyTable::bytes_for_len(500) >= 500 * 16);
    }

    #[test]
    fn schedule_arena_materializes_delta_encoded_chains() {
        let mut arena = ScheduleArena::new();
        assert_eq!(arena.materialize(SCHEDULE_ROOT), Vec::<ProcessId>::new());
        let a = arena.push(SCHEDULE_ROOT, ProcessId(2));
        let b = arena.push(a, ProcessId(0));
        let c = arena.push(b, ProcessId(1));
        let sibling = arena.push(a, ProcessId(3));
        assert_eq!(
            arena.materialize(c),
            vec![ProcessId(2), ProcessId(0), ProcessId(1)]
        );
        assert_eq!(arena.materialize(sibling), vec![ProcessId(2), ProcessId(3)]);
        assert_eq!(arena.materialize(c).len(), 3);
    }

    #[test]
    fn frontier_records_roundtrip() {
        let entry = FrontierRecord {
            schedule: vec![ProcessId(0), ProcessId(5), ProcessId(2)],
            orbit_lower: 42,
            sleep: 0b101,
            expand: Some(0b010),
            backtrack: 0b110,
            done: 0b100,
        };
        let record = encode_frontier_record(&entry);
        assert_eq!(decode_frontier_record(&record, 6).unwrap(), entry);
        let empty = FrontierRecord::default();
        assert_eq!(
            decode_frontier_record(&encode_frontier_record(&empty), 1).unwrap(),
            empty
        );
        assert!(decode_frontier_record(&record[..5], 6).is_err());
        let mut bad_flag = record.clone();
        bad_flag[16] = 7;
        assert!(decode_frontier_record(&bad_flag, 6).is_err());
    }

    #[test]
    fn doctored_segment_steps_fail_as_corrupt_not_panic() {
        // A sealed segment whose checksum is intact but whose step bytes
        // name a process the cell does not have: the decoder must refuse
        // with a clean `corrupt segment` io::Error instead of building an
        // out-of-range ProcessId that panics deep inside replay. The
        // pre-fix decoder did `ProcessId(step as usize)` on whatever the
        // disk said.
        let entry = FrontierRecord {
            schedule: vec![ProcessId(1), ProcessId(999)],
            orbit_lower: 1,
            ..FrontierRecord::default()
        };
        let path = temp_path("doctored-frontier");
        let mut writer = SegmentWriter::create(&path, SegmentKind::FrontierLevel, 0).unwrap();
        writer.append(&encode_frontier_record(&entry)).unwrap();
        writer.finish().unwrap();
        let (_tag, records) = read_segment(&path, SegmentKind::FrontierLevel).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(records.len(), 1);
        // A 1000-process cell accepts the record; a 3-process cell must not.
        assert!(decode_frontier_record(&records[0], 1000).is_ok());
        let err = decode_frontier_record(&records[0], 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("corrupt segment"),
            "unexpected error: {err}"
        );
    }
}
