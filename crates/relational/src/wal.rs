//! A file-backed commit log: the durable half of the storage layer.
//!
//! Every committed write batch ([`crate::storage::BatchCommit`]) can be
//! recorded as one [`LogRecord`] — the snapshot id the commit produced, the
//! source and table it landed in, and the raw rows. Replaying the records in
//! order through the normal validated insert path reproduces the exact store
//! (same rows, same snapshot ids, same extents), which is what
//! `core::Dataspace::open` does on recovery.
//!
//! ## On-disk format
//!
//! The log is a single append-only file:
//!
//! ```text
//! [8-byte magic "DSWAL\0\0\x01"]
//! [record]*
//!
//! record  := frame of [payload]
//! payload := [u64 LE snapshot id] [str source] [str table]
//!            [u32 LE row count] ([u32 LE column count] [value]*)*
//! ```
//!
//! `frame`, `str` and `value` are the shared byte layouts of [`iql::codec`]
//! (the wire protocol uses the same ones). Rows hold scalars only (the
//! schema type checker admits nothing else), so a record uses the five
//! scalar value tags 0x00–0x04: appending a tuple, bag, `Void` or `Any` is
//! refused, and a record holding one is as bad as a corrupt one. Recovery
//! reads records until the first torn or corrupt one — a partial
//! length/checksum/payload at the tail is the signature of a crash
//! mid-append — **truncates** the file back to the last whole record, and
//! reports how many bytes were dropped. A
//! corrupt record therefore never poisons the log: everything durably
//! committed before it survives.
//!
//! Durability is a knob: with `fsync` on, every append runs `File::sync_data`
//! before returning (a crash loses nothing acknowledged); with it off the OS
//! page cache decides (a crash may drop the newest suffix, but the truncating
//! recovery still yields a consistent prefix). [`CommitLog::compact`] rewrites
//! the log as one merged record per (source, table) — same replayed state,
//! bounded file size — via a temp file + atomic rename.

use crate::store::Row;
use iql::codec::{
    begin_frame, end_frame, frame_payload, get_str, get_u32, get_u64, get_values, put_str, put_u32,
    put_u64, put_values, CodecError, Cursor, FRAME_HEADER,
};
use iql::value::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::storage::SnapshotId;

/// The 8-byte file magic: identifies a dataspace commit log, format version 1.
const MAGIC: [u8; 8] = *b"DSWAL\0\0\x01";

/// One committed write batch, as recorded in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// The snapshot id the commit produced in its source database.
    pub snapshot: SnapshotId,
    /// The data source (member database) the batch landed in.
    pub source: String,
    /// The table the rows went into.
    pub table: String,
    /// The raw rows, exactly as passed to the insert.
    pub rows: Vec<Row>,
}

/// What [`CommitLog::open`] found on disk.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The log, positioned for appending.
    pub log: CommitLog,
    /// Every whole record, in append order — replay these through the insert
    /// path to reproduce the logged state.
    pub records: Vec<LogRecord>,
    /// Bytes dropped from a torn or corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

/// What [`CommitLog::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records in the log before compaction.
    pub records_before: usize,
    /// Records after: one per (source, table) pair with any rows.
    pub records_after: usize,
}

/// An append-only, checksummed commit log backed by one file.
#[derive(Debug)]
pub struct CommitLog {
    file: File,
    path: PathBuf,
    fsync: bool,
    appends: u64,
}

impl CommitLog {
    /// Open (or create) the log at `path`, validating every record and
    /// truncating a torn tail. With `fsync` set, every later append is
    /// `sync_data`'d before it returns.
    pub fn open(path: impl AsRef<Path>, fsync: bool) -> io::Result<RecoveredLog> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(&MAGIC)?;
            file.sync_data()?;
            return Ok(RecoveredLog {
                log: CommitLog {
                    file,
                    path,
                    fsync,
                    appends: 0,
                },
                records: Vec::new(),
                truncated_bytes: 0,
            });
        }
        let mut bytes = Vec::with_capacity(len as usize);
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a dataspace commit log (bad magic)", path.display()),
            ));
        }
        let mut records = Vec::new();
        let mut good_end = MAGIC.len();
        let mut cursor = MAGIC.len();
        // Read whole records until the first torn or corrupt one; everything
        // after that point is a crash artefact and gets truncated away.
        while let Some((record, next)) = read_record(&bytes, cursor) {
            records.push(record);
            good_end = next;
            cursor = next;
        }
        let truncated_bytes = (bytes.len() - good_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(good_end as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;
        Ok(RecoveredLog {
            log: CommitLog {
                file,
                path,
                fsync,
                appends: 0,
            },
            records,
            truncated_bytes,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether appends are fsync'd before returning.
    pub fn fsync(&self) -> bool {
        self.fsync
    }

    /// Records appended through this handle (recovery replays not included).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Append one committed batch to the log.
    pub fn append(&mut self, record: &LogRecord) -> io::Result<()> {
        if let Some(other) = record.rows.iter().flatten().find(|v| !is_scalar(v)) {
            // Unreachable through the insert path: the schema type checker
            // admits scalars only. Refuse rather than log an unstorable value.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("commit log cannot encode non-scalar value {other:?}"),
            ));
        }
        let mut framed = Vec::new();
        let start = begin_frame(&mut framed);
        put_u64(&mut framed, record.snapshot);
        put_str(&mut framed, &record.source);
        put_str(&mut framed, &record.table);
        put_u32(&mut framed, record.rows.len() as u32);
        for row in &record.rows {
            put_values(&mut framed, row);
        }
        end_frame(&mut framed, start);
        self.file.write_all(&framed)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.appends += 1;
        Ok(())
    }

    /// Read back every record currently in the log (the handle's append
    /// position is preserved).
    pub fn records(&mut self) -> io::Result<Vec<LogRecord>> {
        let end = self.file.stream_position()?;
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        self.file.seek(SeekFrom::Start(end))?;
        let mut records = Vec::new();
        let mut cursor = MAGIC.len();
        while let Some((record, next)) = read_record(&bytes, cursor) {
            records.push(record);
            cursor = next;
        }
        Ok(records)
    }

    /// Compact the log: merge its records into one record per (source, table)
    /// pair — first-appearance order, rows concatenated in append order,
    /// stamped with the group's latest snapshot id — and atomically replace
    /// the file (temp file + rename, both fsync'd). Tables are independent, so
    /// replaying the compacted log rebuilds the same store as the full
    /// history, just in fewer, bigger batches.
    pub fn compact(&mut self) -> io::Result<CompactionReport> {
        let records = self.records()?;
        let records_before = records.len();
        let mut merged: Vec<LogRecord> = Vec::new();
        for record in records {
            match merged
                .iter_mut()
                .find(|m| m.source == record.source && m.table == record.table)
            {
                Some(m) => {
                    m.rows.extend(record.rows);
                    m.snapshot = m.snapshot.max(record.snapshot);
                }
                None => merged.push(record),
            }
        }
        merged.retain(|m| !m.rows.is_empty());
        let tmp_path = self.path.with_extension("wal.tmp");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&MAGIC)?;
        let mut replacement = CommitLog {
            file: tmp,
            path: self.path.clone(),
            fsync: false,
            appends: 0,
        };
        for record in &merged {
            replacement.append(record)?;
        }
        replacement.file.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Swap the handle to the new file, positioned at its end for appends.
        replacement.file.seek(SeekFrom::End(0))?;
        self.file = replacement.file;
        Ok(CompactionReport {
            records_before,
            records_after: merged.len(),
        })
    }
}

/// The values a table row can hold: everything else has no storable type.
fn is_scalar(value: &Value) -> bool {
    matches!(
        value,
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
    )
}

/// Decode the record framed at `offset`. `None` means the tail from `offset`
/// on is not one whole, checksummed, well-formed record — i.e. the torn/corrupt
/// boundary recovery truncates at.
fn read_record(bytes: &[u8], offset: usize) -> Option<(LogRecord, usize)> {
    let payload = frame_payload(&bytes[offset..]).ok()??;
    let record = decode_payload(payload).ok()?;
    Some((record, offset + FRAME_HEADER + payload.len()))
}

fn decode_payload(payload: &[u8]) -> Result<LogRecord, CodecError> {
    let mut c = Cursor::new(payload);
    let snapshot = get_u64(&mut c)?;
    let source = get_str(&mut c)?;
    let table = get_str(&mut c)?;
    let row_count = get_u32(&mut c)? as usize;
    let mut rows = Vec::with_capacity(row_count.min(c.remaining()));
    for _ in 0..row_count {
        let row = get_values(&mut c)?;
        if !row.iter().all(is_scalar) {
            return Err(CodecError("a row holds a non-scalar value".into()));
        }
        rows.push(row);
    }
    // Trailing garbage inside a "valid" frame is corruption too.
    c.finish()?;
    Ok(LogRecord {
        snapshot,
        source,
        table,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per test (no tempfile crate in the offline build).
    fn temp_log(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dataspace-wal-{tag}-{}-{n}.wal",
            std::process::id()
        ))
    }

    fn record(snapshot: SnapshotId, table: &str, ids: &[i64]) -> LogRecord {
        LogRecord {
            snapshot,
            source: "pedro".into(),
            table: table.into(),
            rows: ids
                .iter()
                .map(|&i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("P{i}")),
                        if i % 2 == 0 {
                            Value::Null
                        } else {
                            Value::Float(i as f64 / 2.0)
                        },
                        Value::Bool(i % 3 == 0),
                    ]
                })
                .collect(),
        }
    }

    #[test]
    fn append_then_reopen_round_trips_every_record() {
        let path = temp_log("roundtrip");
        let records = vec![
            record(1, "protein", &[1, 2, 3]),
            record(2, "gene", &[10]),
            record(3, "protein", &[4]),
            LogRecord {
                snapshot: 4,
                source: "gpmdb".into(),
                table: "empty".into(),
                rows: vec![],
            },
        ];
        {
            let mut opened = CommitLog::open(&path, true).unwrap();
            assert!(opened.records.is_empty());
            for r in &records {
                opened.log.append(r).unwrap();
            }
            assert_eq!(opened.log.appends(), 4);
        }
        let reopened = CommitLog::open(&path, false).unwrap();
        assert_eq!(reopened.records, records);
        assert_eq!(reopened.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let path = temp_log("torn");
        {
            let mut opened = CommitLog::open(&path, false).unwrap();
            opened.log.append(&record(1, "protein", &[1])).unwrap();
            opened.log.append(&record(2, "protein", &[2])).unwrap();
        }
        // Simulate a crash mid-append: a frame header promising more payload
        // than was ever written.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&999u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"partial payload").unwrap();
        }
        let recovered = CommitLog::open(&path, false).unwrap();
        assert_eq!(recovered.records.len(), 2);
        assert_eq!(recovered.records[1].snapshot, 2);
        assert_eq!(recovered.truncated_bytes, 8 + 15);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_cuts_the_log_at_the_bad_record() {
        let path = temp_log("corrupt");
        {
            let mut opened = CommitLog::open(&path, false).unwrap();
            opened.log.append(&record(1, "protein", &[1])).unwrap();
            opened.log.append(&record(2, "protein", &[2])).unwrap();
            opened.log.append(&record(3, "protein", &[3])).unwrap();
        }
        // Flip one payload byte of the second record: it and everything after
        // it are dropped; the first record survives.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_end = {
            let len = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap())
                as usize;
            MAGIC.len() + 8 + len
        };
        bytes[first_end + 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = CommitLog::open(&path, false).unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.records[0].snapshot, 1);
        assert!(recovered.truncated_bytes > 0);
        // A third open finds the truncated log clean.
        let clean = CommitLog::open(&path, false).unwrap();
        assert_eq!(clean.records.len(), 1);
        assert_eq!(clean.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_continue_after_recovery() {
        let path = temp_log("resume");
        {
            let mut opened = CommitLog::open(&path, false).unwrap();
            opened.log.append(&record(1, "protein", &[1])).unwrap();
        }
        {
            let mut recovered = CommitLog::open(&path, false).unwrap();
            assert_eq!(recovered.records.len(), 1);
            recovered.log.append(&record(2, "protein", &[2])).unwrap();
        }
        let all = CommitLog::open(&path, false).unwrap();
        assert_eq!(
            all.records.iter().map(|r| r.snapshot).collect::<Vec<_>>(),
            vec![1, 2]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_merges_per_table_preserving_row_order() {
        let path = temp_log("compact");
        let mut opened = CommitLog::open(&path, false).unwrap();
        opened.log.append(&record(1, "protein", &[1, 2])).unwrap();
        opened.log.append(&record(2, "gene", &[10])).unwrap();
        opened.log.append(&record(3, "protein", &[3])).unwrap();
        let report = opened.log.compact().unwrap();
        assert_eq!(report.records_before, 3);
        assert_eq!(report.records_after, 2);
        let compacted = opened.log.records().unwrap();
        assert_eq!(compacted.len(), 2);
        assert_eq!(compacted[0].table, "protein");
        assert_eq!(compacted[0].snapshot, 3, "group keeps its latest snapshot");
        let ids: Vec<_> = compacted[0].rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(ids, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        // The compacted log keeps accepting appends and survives reopen.
        opened.log.append(&record(4, "protein", &[4])).unwrap();
        let reopened = CommitLog::open(&path, false).unwrap();
        assert_eq!(reopened.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_log_file_is_rejected() {
        let path = temp_log("badmagic");
        std::fs::write(&path, b"definitely not a commit log").unwrap();
        let err = CommitLog::open(&path, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
