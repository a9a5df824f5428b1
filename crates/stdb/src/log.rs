//! The durable, self-verifying write-ahead log under the transition store.
//!
//! # On-disk format
//!
//! A log is a directory of segment files named `wal-<seq:08>.log`. Every
//! segment starts with the 8-byte magic `CGWALv1\n`, followed by a run of
//! length-prefixed, checksummed record frames:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE polynomial, the zlib/ethernet one) over the
//! payload bytes only. The frame header doubles as a *content address*: an
//! intact record elsewhere in the log with the same `(len, crc)` pair can
//! supply the payload for a corrupt copy — that is what makes
//! [`scrub`]-with-repair possible for deduplicated stores, which naturally
//! contain redundant copies of hot records.
//!
//! # Recovery ladder (applied at [`Wal::open`] and by [`scrub`])
//!
//! 1. **Transient read fault** — a scan that surfaces any anomaly is
//!    retried once with a fresh read; anomalies that vanish on re-read are
//!    counted (`transient_read_faults`) and otherwise ignored.
//! 2. **Torn tail** — a frame in the *last* segment that runs past EOF (or
//!    an implausible header at the tail) is an uncommitted append cut short
//!    by a crash: the file is truncated back to the last whole frame and
//!    the dropped bytes are counted (`torn_tails`, `torn_tail_bytes`).
//!    Truncation is the only mutation recovery performs.
//! 3. **Corrupt record** — a whole frame whose payload fails its CRC is
//!    *quarantined, never silently skipped*: the frame bytes are copied to
//!    `quarantine/seg<seq>-off<offset>.rec`, the counters advance, and the
//!    scan resyncs at the frame's claimed end. `scrub --repair` later
//!    excises quarantined frames (replacing them from redundant copies
//!    where the content address matches).
//! 4. **Unparseable region** — trailing bytes of a *non-last* segment that
//!    do not frame (mid-file truncation, magic damage) are quarantined as
//!    one span.
//!
//! # Durability
//!
//! [`FsyncPolicy`] decides when `fsync` runs: `EveryRecord` gives
//! crash-durability per append, `EveryN` amortizes, `Never` leaves
//! durability to the OS (still torn-tail-safe on process crash, not on
//! power loss). Segment rotation always syncs the finished segment.

use std::fs;
use std::fs::{File, OpenOptions};
use std::io;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cg_core::chaos::{IoFaultInjector, IoFaultKind};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"CGWALv1\n";
/// Bytes of frame header preceding every payload.
pub const FRAME_HEADER: u64 = 8;

/// When the log calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never sync explicitly; the OS flushes on its own schedule.
    Never,
    /// Sync after every appended record (maximum durability).
    EveryRecord,
    /// Sync after every N appended records.
    EveryN(u32),
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one exceeds this.
    pub segment_bytes: u64,
    /// Reject (and treat as implausible during recovery) any record whose
    /// claimed length exceeds this.
    pub max_record_bytes: u64,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            segment_bytes: 8 << 20,
            max_record_bytes: 64 << 20,
            fsync: FsyncPolicy::EveryN(64),
        }
    }
}

/// What [`Wal::open`] found and did while recovering a log directory.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct RecoveryReport {
    /// Segments scanned.
    pub segments: u64,
    /// Intact records recovered (CRC verified).
    pub records: u64,
    /// Payload bytes of intact records.
    pub record_bytes: u64,
    /// Torn tails truncated (at most one, in the last segment).
    pub torn_tails: u64,
    /// Bytes dropped by torn-tail truncation.
    pub torn_tail_bytes: u64,
    /// Corrupt frames / unparseable spans copied to `quarantine/`.
    pub quarantined: u64,
    /// Bytes quarantined.
    pub quarantined_bytes: u64,
    /// Anomalies that disappeared on re-read (rung 1 of the ladder).
    pub transient_read_faults: u64,
    /// Stale segments deleted because a compaction manifest superseded
    /// them (a crash between manifest write and segment deletion).
    pub stale_segments_removed: u64,
}

/// What [`scrub`] found (and, with `repair`, fixed).
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ScrubReport {
    /// Segments scanned.
    pub segments: u64,
    /// Records whose CRC verified.
    pub records_ok: u64,
    /// Records whose CRC failed.
    pub records_corrupt: u64,
    /// Corrupt records rewritten from a redundant intact copy.
    pub repaired: u64,
    /// Corrupt frames excised to `quarantine/` (repair mode only).
    pub quarantined: u64,
    /// Torn tails found (truncated in repair mode).
    pub torn_tails: u64,
    /// Bytes in torn tails.
    pub torn_tail_bytes: u64,
    /// Anomalies healed by re-read.
    pub transient_read_faults: u64,
    /// Total payload bytes verified.
    pub bytes_verified: u64,
}

impl ScrubReport {
    /// True when every record verified and no tail was torn.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.records_corrupt == 0 && self.torn_tails == 0
    }
}

// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected), table-driven.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Segment file name for a sequence number.
#[must_use]
pub fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Lists segment files in `dir`, sorted by sequence number.
///
/// # Errors
/// Propagates directory-read failures.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_seq) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// The compaction manifest: the set of segments that survive a compaction.
/// Written atomically (temp file + rename); at open, segments with a
/// sequence number at or below the manifest's maximum that are *not*
/// listed are stale leftovers of an interrupted compaction and are
/// deleted. Segments numbered above the manifest's maximum were appended
/// after the compaction and are always live.
const MANIFEST: &str = "MANIFEST";

/// Atomically records `live` as the surviving segment set.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_manifest(dir: &Path, live: &[String]) -> io::Result<()> {
    let mut body = String::from("{\"live\":[");
    for (i, name) in live.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('"');
        body.push_str(name);
        body.push('"');
    }
    body.push_str("]}");
    let tmp = dir.join(format!("{MANIFEST}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(MANIFEST))
}

fn read_manifest(dir: &Path) -> Option<Vec<String>> {
    let text = fs::read_to_string(dir.join(MANIFEST)).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    let arr = v.get("live")?.as_array()?;
    let mut names = Vec::new();
    for item in arr {
        names.push(item.as_str()?.to_string());
    }
    Some(names)
}

/// One frame found by a segment scan.
struct ScanRecord {
    /// Byte offset of the frame header within the segment.
    offset: u64,
    /// Claimed CRC from the header.
    crc: u32,
    /// Payload bytes (claimed length; may fail the CRC).
    payload: Vec<u8>,
    /// Whether the payload's CRC matched the claim.
    ok: bool,
}

struct ScanOutcome {
    records: Vec<ScanRecord>,
    /// Offset just past the last whole frame (valid truncation point).
    parse_end: u64,
    /// Bytes in the file when scanned.
    file_len: u64,
    /// True when bytes past `parse_end` exist but do not frame.
    torn: bool,
    /// True when the magic header itself was damaged or missing.
    bad_magic: bool,
}

impl ScanOutcome {
    fn has_anomaly(&self) -> bool {
        self.torn || self.bad_magic || self.records.iter().any(|r| !r.ok)
    }
}

fn scan_bytes(bytes: &[u8], max_record_bytes: u64) -> ScanOutcome {
    let file_len = bytes.len() as u64;
    if file_len < SEGMENT_MAGIC.len() as u64 || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return ScanOutcome {
            records: Vec::new(),
            parse_end: 0,
            file_len,
            torn: file_len > 0,
            bad_magic: true,
        };
    }
    let mut records = Vec::new();
    let mut off = SEGMENT_MAGIC.len() as u64;
    let mut torn = false;
    while off < file_len {
        if off + FRAME_HEADER > file_len {
            torn = true;
            break;
        }
        let at = off as usize;
        let len = u64::from(u32::from_le_bytes([
            bytes[at],
            bytes[at + 1],
            bytes[at + 2],
            bytes[at + 3],
        ]));
        let crc = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        if len > max_record_bytes || off + FRAME_HEADER + len > file_len {
            // Implausible or incomplete frame: everything from here on is
            // either a torn append (last segment) or damage (mid-file).
            torn = true;
            break;
        }
        let start = at + FRAME_HEADER as usize;
        let payload = bytes[start..start + len as usize].to_vec();
        let ok = crc32(&payload) == crc;
        records.push(ScanRecord {
            offset: off,
            crc,
            payload,
            ok,
        });
        off += FRAME_HEADER + len;
    }
    ScanOutcome {
        records,
        parse_end: off.min(file_len),
        file_len,
        torn,
        bad_magic: false,
    }
}

fn read_with_faults(path: &Path, injector: Option<&IoFaultInjector>) -> io::Result<Vec<u8>> {
    let mut bytes = fs::read(path)?;
    if let Some(inj) = injector {
        match inj.fault_for_read() {
            Some(IoFaultKind::ShortRead) => {
                let keep = inj.fault_offset(bytes.len() as u64) as usize;
                bytes.truncate(keep);
            }
            Some(IoFaultKind::BitFlip) if !bytes.is_empty() => {
                let bit = inj.fault_offset(bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            _ => {}
        }
    }
    Ok(bytes)
}

/// Scans a segment, retrying once with a trusted (fault-free) re-read when
/// the first pass surfaces an anomaly — rung 1 of the recovery ladder.
/// Returns the outcome plus how many anomalies re-reading healed.
fn scan_segment(
    path: &Path,
    max_record_bytes: u64,
    injector: Option<&IoFaultInjector>,
) -> io::Result<(ScanOutcome, u64)> {
    let first = scan_bytes(&read_with_faults(path, injector)?, max_record_bytes);
    if !first.has_anomaly() {
        return Ok((first, 0));
    }
    let second = scan_bytes(&fs::read(path)?, max_record_bytes);
    let healed = u64::from(!second.has_anomaly() || second.parse_end > first.parse_end);
    Ok((second, healed))
}

fn quarantine_span(
    dir: &Path,
    seq: u64,
    offset: u64,
    bytes: &[u8],
    report_count: &mut u64,
    report_bytes: &mut u64,
) -> io::Result<()> {
    let qdir = dir.join("quarantine");
    fs::create_dir_all(&qdir)?;
    let name = qdir.join(format!("seg{seq:08}-off{offset}.rec"));
    if !name.exists() {
        fs::write(&name, bytes)?;
    }
    *report_count += 1;
    *report_bytes += bytes.len() as u64;
    Ok(())
}

/// An open, appendable write-ahead log.
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    file: File,
    seq: u64,
    offset: u64,
    unsynced: u32,
    injector: Option<IoFaultInjector>,
}

impl Wal {
    /// Opens (creating if needed) the log at `dir`, running recovery on
    /// every existing segment. Each intact record's payload is handed to
    /// `on_record` in log order; anomalies are truncated or quarantined
    /// per the recovery ladder and tallied in the returned report.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn open(
        dir: &Path,
        cfg: WalConfig,
        injector: Option<IoFaultInjector>,
        mut on_record: impl FnMut(&[u8]),
    ) -> io::Result<(Wal, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        // Honor an interrupted compaction: drop segments the manifest
        // superseded before the crash got around to deleting them.
        let mut segments = list_segments(dir)?;
        if let Some(live) = read_manifest(dir) {
            let max_live = live
                .iter()
                .filter_map(|n| parse_segment_seq(n))
                .max()
                .unwrap_or(0);
            segments.retain(|(seq, path)| {
                let name = segment_name(*seq);
                if *seq <= max_live && !live.contains(&name) {
                    if fs::remove_file(path).is_ok() {
                        report.stale_segments_removed += 1;
                    }
                    false
                } else {
                    true
                }
            });
        }

        let last_index = segments.len().saturating_sub(1);
        for (i, (seq, path)) in segments.iter().enumerate() {
            let is_last = i == last_index;
            let (outcome, healed) = scan_segment(path, cfg.max_record_bytes, injector.as_ref())?;
            report.segments += 1;
            report.transient_read_faults += healed;
            if outcome.bad_magic {
                // The segment header itself is damaged: preserve the bytes
                // and retire the file from the live set.
                let bytes = fs::read(path)?;
                quarantine_span(
                    dir,
                    *seq,
                    0,
                    &bytes,
                    &mut report.quarantined,
                    &mut report.quarantined_bytes,
                )?;
                if is_last {
                    // Reinitialize so appends can continue in place.
                    let mut f = File::create(path)?;
                    f.write_all(SEGMENT_MAGIC)?;
                    f.sync_all()?;
                }
                continue;
            }
            for rec in &outcome.records {
                if rec.ok {
                    report.records += 1;
                    report.record_bytes += rec.payload.len() as u64;
                    on_record(&rec.payload);
                } else {
                    let mut frame = Vec::with_capacity(FRAME_HEADER as usize + rec.payload.len());
                    frame.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
                    frame.extend_from_slice(&rec.crc.to_le_bytes());
                    frame.extend_from_slice(&rec.payload);
                    quarantine_span(
                        dir,
                        *seq,
                        rec.offset,
                        &frame,
                        &mut report.quarantined,
                        &mut report.quarantined_bytes,
                    )?;
                }
            }
            if outcome.torn {
                if is_last {
                    // Rung 2: an uncommitted append cut short — truncate.
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(outcome.parse_end)?;
                    f.sync_all()?;
                    report.torn_tails += 1;
                    report.torn_tail_bytes += outcome.file_len - outcome.parse_end;
                } else {
                    // Rung 4: mid-file damage — quarantine the span.
                    let bytes = fs::read(path)?;
                    let span = &bytes[outcome.parse_end.min(bytes.len() as u64) as usize..];
                    quarantine_span(
                        dir,
                        *seq,
                        outcome.parse_end,
                        span,
                        &mut report.quarantined,
                        &mut report.quarantined_bytes,
                    )?;
                }
            }
        }

        // Open (or create) the active segment: the highest sequence.
        let (seq, path) = match segments.last() {
            Some((seq, path)) => (*seq, path.clone()),
            None => {
                let seq = 1;
                let path = dir.join(segment_name(seq));
                let mut f = File::create(&path)?;
                f.write_all(SEGMENT_MAGIC)?;
                f.sync_all()?;
                (seq, path)
            }
        };
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        let offset = file.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                cfg,
                file,
                seq,
                offset,
                unsynced: 0,
                injector,
            },
            report,
        ))
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.seq += 1;
        let path = self.dir.join(segment_name(self.seq));
        let mut f = File::create(&path)?;
        f.write_all(SEGMENT_MAGIC)?;
        f.sync_all()?;
        self.file = OpenOptions::new().read(true).append(true).open(&path)?;
        self.offset = SEGMENT_MAGIC.len() as u64;
        self.unsynced = 0;
        Ok(())
    }

    /// Appends one record, returning the frame's byte size.
    ///
    /// # Errors
    /// * [`io::ErrorKind::InvalidInput`] — payload exceeds
    ///   `max_record_bytes`.
    /// * [`io::ErrorKind::Interrupted`] — a (chaos-injected) torn write
    ///   was detected and rolled back; the append may be retried.
    /// * [`io::ErrorKind::WriteZero`] — a (chaos-injected) `ENOSPC`; the
    ///   record was not written.
    /// * Anything else the filesystem reports.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if payload.len() as u64 > self.cfg.max_record_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record of {} bytes exceeds max_record_bytes", payload.len()),
            ));
        }
        let frame_len = FRAME_HEADER + payload.len() as u64;
        if self.offset > SEGMENT_MAGIC.len() as u64
            && self.offset + frame_len > self.cfg.segment_bytes
        {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(frame_len as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        if let Some(inj) = &self.injector {
            match inj.fault_for_write() {
                Some(IoFaultKind::Enospc) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "chaos: no space left on device",
                    ));
                }
                Some(IoFaultKind::TornWrite) => {
                    // Land a partial frame (what a crash mid-write leaves),
                    // detect it (a short write is observable), and roll the
                    // segment back to the frame start so a retry is clean.
                    let cut = (inj.fault_offset(frame_len) as usize).min(frame.len());
                    self.file.write_all(&frame[..cut])?;
                    self.file.sync_data()?;
                    self.file.set_len(self.offset)?;
                    self.file.seek(SeekFrom::End(0))?;
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "chaos: torn write rolled back",
                    ));
                }
                _ => {}
            }
        }

        self.file.write_all(&frame)?;
        self.offset += frame_len;
        match self.cfg.fsync {
            FsyncPolicy::Never => {}
            FsyncPolicy::EveryRecord => self.file.sync_data()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.file.sync_data()?;
                    self.unsynced = 0;
                }
            }
        }
        Ok(frame_len)
    }

    /// Forces everything appended so far to disk.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.file.sync_all()
    }
}

/// Total bytes across all segment files in `dir`.
///
/// # Errors
/// Propagates directory-read failures.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for (_, path) in list_segments(dir)? {
        total += fs::metadata(&path)?.len();
    }
    Ok(total)
}

/// Reads every intact record in `dir` in log order (no mutation, no
/// quarantine — a pure scan). Corrupt frames and torn tails are skipped
/// but counted in the returned `(corrupt, torn)` pair.
///
/// # Errors
/// Propagates I/O failures.
pub fn read_records(
    dir: &Path,
    cfg: &WalConfig,
    mut on_record: impl FnMut(&[u8]),
) -> io::Result<(u64, u64)> {
    let mut corrupt = 0;
    let mut torn = 0;
    for (_, path) in list_segments(dir)? {
        let outcome = scan_bytes(&fs::read(&path)?, cfg.max_record_bytes);
        for rec in &outcome.records {
            if rec.ok {
                on_record(&rec.payload);
            } else {
                corrupt += 1;
            }
        }
        if outcome.torn || outcome.bad_magic {
            torn += 1;
        }
    }
    Ok((corrupt, torn))
}

/// Verifies every checksum in the log; with `repair`, additionally
/// truncates torn tails, excises corrupt frames to `quarantine/`, and
/// rewrites any corrupt record whose `(len, crc)` content address matches
/// an intact copy elsewhere in the log. Repairs rewrite whole segments via
/// temp file + rename, so a crash mid-scrub never loses intact records.
///
/// Must not run concurrently with an appender on the same directory.
///
/// # Errors
/// Propagates I/O failures.
pub fn scrub(
    dir: &Path,
    cfg: &WalConfig,
    repair: bool,
    injector: Option<&IoFaultInjector>,
) -> io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let segments = list_segments(dir)?;
    if segments.is_empty() {
        return Ok(report);
    }

    // Pass 1: scan everything, indexing intact payloads by content
    // address so pass 2 can repair corrupt twins.
    let mut outcomes = Vec::new();
    let mut intact: std::collections::HashMap<(u32, u64), Vec<u8>> =
        std::collections::HashMap::new();
    for (seq, path) in &segments {
        let (outcome, healed) = scan_segment(path, cfg.max_record_bytes, injector)?;
        report.segments += 1;
        report.transient_read_faults += healed;
        for rec in &outcome.records {
            if rec.ok {
                report.records_ok += 1;
                report.bytes_verified += rec.payload.len() as u64;
                intact
                    .entry((rec.crc, rec.payload.len() as u64))
                    .or_insert_with(|| rec.payload.clone());
            } else {
                report.records_corrupt += 1;
            }
        }
        if outcome.torn || outcome.bad_magic {
            report.torn_tails += 1;
            report.torn_tail_bytes += outcome.file_len - outcome.parse_end;
        }
        outcomes.push((*seq, path.clone(), outcome));
    }
    if !repair {
        return Ok(report);
    }

    // Pass 2: rewrite damaged segments, repairing where the content
    // address has an intact twin and quarantining where it does not.
    for (seq, path, outcome) in &outcomes {
        if !outcome.has_anomaly() {
            continue;
        }
        let tmp = path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(SEGMENT_MAGIC)?;
            for rec in &outcome.records {
                let payload: &[u8] = if rec.ok {
                    &rec.payload
                } else if let Some(twin) = intact.get(&(rec.crc, rec.payload.len() as u64)) {
                    report.repaired += 1;
                    twin
                } else {
                    let mut frame = Vec::with_capacity(FRAME_HEADER as usize + rec.payload.len());
                    frame.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
                    frame.extend_from_slice(&rec.crc.to_le_bytes());
                    frame.extend_from_slice(&rec.payload);
                    let mut n = 0;
                    let mut b = 0;
                    quarantine_span(dir, *seq, rec.offset, &frame, &mut n, &mut b)?;
                    report.quarantined += n;
                    continue;
                };
                f.write_all(&(payload.len() as u32).to_le_bytes())?;
                f.write_all(&crc32(payload).to_le_bytes())?;
                f.write_all(payload)?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cg-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_recover_round_trip() {
        let dir = tmpdir("round-trip");
        let payloads: Vec<Vec<u8>> = (0u32..50)
            .map(|i| format!("record-{i}").into_bytes())
            .collect();
        {
            let (mut wal, rep) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
            assert_eq!(rep.records, 0);
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.flush().unwrap();
        }
        let mut seen = Vec::new();
        let (_, rep) =
            Wal::open(&dir, WalConfig::default(), None, |p| seen.push(p.to_vec())).unwrap();
        assert_eq!(rep.records, 50);
        assert_eq!(rep.torn_tails, 0);
        assert_eq!(rep.quarantined, 0);
        assert_eq!(seen, payloads);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_preserves_order() {
        let dir = tmpdir("rotation");
        let cfg = WalConfig {
            segment_bytes: 128,
            ..WalConfig::default()
        };
        {
            let (mut wal, _) = Wal::open(&dir, cfg, None, |_| {}).unwrap();
            for i in 0u32..40 {
                wal.append(format!("payload-{i:04}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
            assert!(wal.seq > 1, "should have rotated");
        }
        let mut seen = Vec::new();
        let (_, rep) = Wal::open(&dir, cfg, None, |p| seen.push(p.to_vec())).unwrap();
        assert!(rep.segments > 1);
        assert_eq!(seen.len(), 40);
        assert_eq!(seen[0], b"payload-0000");
        assert_eq!(seen[39], b"payload-0039");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_committed_prefix_survives() {
        let dir = tmpdir("torn-tail");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
            for i in 0u32..10 {
                wal.append(format!("rec-{i}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
        }
        // Simulate a crash mid-append: lop 3 bytes off the tail.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let mut seen = Vec::new();
        let (_, rep) =
            Wal::open(&dir, WalConfig::default(), None, |p| seen.push(p.to_vec())).unwrap();
        assert_eq!(rep.records, 9);
        assert_eq!(rep.torn_tails, 1);
        assert!(rep.torn_tail_bytes > 0);
        assert_eq!(seen.len(), 9);
        // A third open sees a clean log.
        let (_, rep) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
        assert_eq!(rep.records, 9);
        assert_eq!(rep.torn_tails, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_quarantined_not_skipped() {
        let dir = tmpdir("quarantine");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
            for i in 0u32..5 {
                wal.append(format!("record-number-{i}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
        }
        // Flip a payload byte in the middle of the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut seen = 0;
        let (_, rep) = Wal::open(&dir, WalConfig::default(), None, |_| seen += 1).unwrap();
        assert_eq!(rep.quarantined, 1);
        assert_eq!(rep.records + rep.quarantined, 5);
        assert_eq!(seen, rep.records);
        assert!(dir.join("quarantine").read_dir().unwrap().count() == 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_detects_and_repairs_from_redundant_copy() {
        let dir = tmpdir("scrub-repair");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
            // Two identical copies of the hot record, plus bystanders.
            wal.append(b"hot-record-payload").unwrap();
            wal.append(b"bystander-1").unwrap();
            wal.append(b"hot-record-payload").unwrap();
            wal.append(b"bystander-2").unwrap();
            wal.flush().unwrap();
        }
        // Corrupt the first copy's payload.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let off = SEGMENT_MAGIC.len() + FRAME_HEADER as usize + 2;
        bytes[off] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let rep = scrub(&dir, &WalConfig::default(), false, None).unwrap();
        assert_eq!(rep.records_corrupt, 1);
        assert_eq!(rep.records_ok, 3);
        assert!(!rep.is_clean());

        let rep = scrub(&dir, &WalConfig::default(), true, None).unwrap();
        assert_eq!(rep.repaired, 1);
        assert_eq!(rep.quarantined, 0);

        // Post-repair the log verifies clean with all four records.
        let rep = scrub(&dir, &WalConfig::default(), false, None).unwrap();
        assert!(rep.is_clean());
        assert_eq!(rep.records_ok, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_unrepairable_records() {
        let dir = tmpdir("scrub-excise");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
            wal.append(b"one-of-a-kind").unwrap();
            wal.append(b"also-unique!!").unwrap();
            wal.flush().unwrap();
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let off = SEGMENT_MAGIC.len() + FRAME_HEADER as usize + 1;
        bytes[off] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let rep = scrub(&dir, &WalConfig::default(), true, None).unwrap();
        assert_eq!(rep.records_corrupt, 1);
        assert_eq!(rep.repaired, 0);
        assert_eq!(rep.quarantined, 1);
        // The survivor still verifies; the corrupt frame is preserved.
        let rep = scrub(&dir, &WalConfig::default(), false, None).unwrap();
        assert!(rep.is_clean());
        assert_eq!(rep.records_ok, 1);
        assert_eq!(dir.join("quarantine").read_dir().unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_drops_stale_segments_at_open() {
        let dir = tmpdir("manifest");
        let cfg = WalConfig {
            segment_bytes: 64,
            ..WalConfig::default()
        };
        {
            let (mut wal, _) = Wal::open(&dir, cfg, None, |_| {}).unwrap();
            for i in 0u32..30 {
                wal.append(format!("row-{i:04}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Pretend a compaction kept only the last segment but crashed
        // before deleting the others.
        let keep = segment_name(segments.last().unwrap().0);
        write_manifest(&dir, &[keep]).unwrap();
        let (_, rep) = Wal::open(&dir, cfg, None, |_| {}).unwrap();
        assert_eq!(rep.stale_segments_removed as usize, segments.len() - 1);
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_write_rolls_back_and_enospc_is_typed() {
        let dir = tmpdir("chaos-write");
        let inj = cg_core::chaos::IoFaultPlan::seeded(11)
            .with_torn_write_prob(1.0)
            .with_max_faults(1)
            .injector();
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
        wal.injector = Some(inj);
        let err = wal.append(b"first-attempt-is-torn").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        // Budget spent: the retry succeeds, and recovery sees one record.
        wal.append(b"first-attempt-is-torn").unwrap();
        wal.flush().unwrap();
        drop(wal);
        let mut seen = 0;
        let (_, rep) = Wal::open(&dir, WalConfig::default(), None, |_| seen += 1).unwrap();
        assert_eq!((rep.records, seen), (1, 1));
        assert_eq!(rep.torn_tails, 0);

        let inj = cg_core::chaos::IoFaultPlan::seeded(12)
            .with_enospc_prob(1.0)
            .injector();
        let (mut wal, _) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
        wal.injector = Some(inj);
        let err = wal.append(b"no-room").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_faults_are_healed_by_reread() {
        let dir = tmpdir("transient-read");
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default(), None, |_| {}).unwrap();
            for i in 0u32..8 {
                wal.append(format!("stable-{i}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
        }
        let inj = cg_core::chaos::IoFaultPlan::seeded(5)
            .with_bit_flip_prob(1.0)
            .with_short_read_prob(0.0)
            .injector();
        let rep = scrub(&dir, &WalConfig::default(), false, Some(&inj)).unwrap();
        // Every anomaly the injector produced vanished on re-read.
        assert!(rep.is_clean(), "{rep:?}");
        assert_eq!(rep.records_ok, 8);
        assert!(rep.transient_read_faults >= 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
