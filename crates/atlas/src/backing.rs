//! Pluggable storage behind the atlas: a RAM vector for tests and
//! short-lived builds, and an append-only segment-file store for the
//! disk-resident corpus.
//!
//! The contract is deliberately line-oriented: a backing stores opaque
//! newline-free lines in append order and can replay or randomly access
//! them. Everything the atlas knows — the index, eval totals, the build
//! cursor — is *derived* from the line sequence, so two backings holding
//! the same lines are the same atlas. That derivability is what makes
//! interrupted builds resumable: the cursor is a function of the store,
//! not a sidecar that can drift from it.
//!
//! ## Disk layout
//!
//! ```text
//! atlas-dir/
//!   MANIFEST            {"format":1,"segments":2,"segment_records":100000}
//!   seg-00000.jsonl     one record per line, '\n'-terminated
//!   seg-00001.jsonl     … open (tail) segment
//! ```
//!
//! Segments are append-only and rotated at `segment_records` lines. A
//! crash can tear at most the final line of the final segment; on open,
//! [`DiskBacking`] drops an unterminated or unparsable tail line and
//! truncates the file so the next append lands cleanly ([torn-tail
//! rule]). A malformed line anywhere *else* is hard corruption and
//! refuses to load — serving garbage silently is the one failure mode
//! the atlas must not have.
//!
//! [torn-tail rule]: DiskBacking#torn-tail-recovery

use bncg_core::{jsonio, GameError};
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Line-oriented append store behind an [`crate::Atlas`].
///
/// Lines are opaque to the backing (no JSON awareness below the
/// torn-tail probe); ordering is append order; indices are dense from
/// zero. Implementations must make a flushed append durable and must
/// never reorder or rewrite lines other than dropping a torn tail at
/// open time.
pub trait MemoryBacking {
    /// Appends one line (without trailing newline; must not contain one).
    ///
    /// # Errors
    ///
    /// Propagates storage failures as [`GameError::Unsupported`].
    fn append_line(&mut self, line: &str) -> Result<(), GameError>;

    /// [`MemoryBacking::append_line`] taking the line by value, so a
    /// backing that keeps its lines in memory stores it without a copy.
    ///
    /// # Errors
    ///
    /// As [`MemoryBacking::append_line`].
    fn append_owned(&mut self, line: String) -> Result<(), GameError> {
        self.append_line(&line)
    }

    /// Streams every stored line, in append order, to `visit` as
    /// `(index, line)`. Callback-based so a disk-resident corpus is
    /// replayed without materializing it.
    ///
    /// # Errors
    ///
    /// Propagates storage failures as [`GameError::Unsupported`].
    fn for_each_line(&self, visit: &mut dyn FnMut(u64, &str)) -> Result<(), GameError>;

    /// Random access to the line at `index`.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] if `index` is out of range or the
    /// storage fails.
    fn read_line(&self, index: u64) -> Result<String, GameError>;

    /// Number of stored lines.
    fn len(&self) -> u64;

    /// Whether the backing holds no lines.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many torn tail lines were dropped when the backing was
    /// opened (0 for fresh or clean stores). The builder uses this to
    /// report that it re-derived work rather than silently serving a
    /// truncated corpus.
    fn dropped_tail(&self) -> u64 {
        0
    }

    /// Forces buffered appends to durable storage.
    ///
    /// # Errors
    ///
    /// Propagates storage failures as [`GameError::Unsupported`].
    fn flush(&mut self) -> Result<(), GameError>;
}

impl MemoryBacking for Box<dyn MemoryBacking + Send + Sync> {
    fn append_line(&mut self, line: &str) -> Result<(), GameError> {
        (**self).append_line(line)
    }

    fn append_owned(&mut self, line: String) -> Result<(), GameError> {
        (**self).append_owned(line)
    }

    fn for_each_line(&self, visit: &mut dyn FnMut(u64, &str)) -> Result<(), GameError> {
        (**self).for_each_line(visit)
    }

    fn read_line(&self, index: u64) -> Result<String, GameError> {
        (**self).read_line(index)
    }

    fn len(&self) -> u64 {
        (**self).len()
    }

    fn dropped_tail(&self) -> u64 {
        (**self).dropped_tail()
    }

    fn flush(&mut self) -> Result<(), GameError> {
        (**self).flush()
    }
}

fn io_err(context: &str, e: &std::io::Error) -> GameError {
    GameError::Unsupported {
        reason: format!("atlas backing: {context}: {e}"),
    }
}

/// In-memory backing: a plain `Vec<String>`. The reference
/// implementation for tests and for builds whose corpus will be
/// consumed immediately (e.g. the CI gate's n ≤ 8 grid).
#[derive(Debug, Default, Clone)]
pub struct RamBacking {
    lines: Vec<String>,
}

impl RamBacking {
    /// An empty RAM backing.
    #[must_use]
    pub fn new() -> Self {
        RamBacking::default()
    }
}

impl MemoryBacking for RamBacking {
    fn append_line(&mut self, line: &str) -> Result<(), GameError> {
        self.append_owned(line.to_string())
    }

    fn append_owned(&mut self, line: String) -> Result<(), GameError> {
        debug_assert!(!line.contains('\n'), "backing lines must be newline-free");
        self.lines.push(line);
        Ok(())
    }

    fn for_each_line(&self, visit: &mut dyn FnMut(u64, &str)) -> Result<(), GameError> {
        for (i, line) in self.lines.iter().enumerate() {
            visit(i as u64, line);
        }
        Ok(())
    }

    fn read_line(&self, index: u64) -> Result<String, GameError> {
        usize::try_from(index)
            .ok()
            .and_then(|i| self.lines.get(i))
            .cloned()
            .ok_or_else(|| GameError::Unsupported {
                reason: format!("atlas backing: line {index} out of range"),
            })
    }

    fn len(&self) -> u64 {
        self.lines.len() as u64
    }

    fn flush(&mut self) -> Result<(), GameError> {
        Ok(())
    }
}

/// Default segment rotation threshold: lines per `seg-*.jsonl` file.
pub(crate) const DEFAULT_SEGMENT_RECORDS: u64 = 100_000;

/// On-disk format version stamped into the `MANIFEST`.
const FORMAT_VERSION: u64 = 1;

/// One entry in the in-memory line index: where a line lives on disk.
#[derive(Debug, Clone, Copy)]
struct LineLoc {
    segment: u32,
    /// Byte offset of the line start within its segment file.
    offset: u64,
    /// Line length in bytes, excluding the trailing newline.
    len: u32,
}

/// Append-only segment-file backing.
///
/// # Torn-tail recovery
///
/// On open, only the **final** line of the **final** segment may be
/// damaged (appends are single-writer and `'\n'`-terminated). If that
/// line lacks its newline or is not a parsable flat-JSON object, it is
/// dropped and the file truncated to the last clean boundary; the
/// opener can observe this via [`MemoryBacking::dropped_tail`] and
/// re-derive the lost record. Damage anywhere else fails the open with
/// [`GameError::Unsupported`] — a mid-file tear cannot happen under the
/// append-only discipline, so it means external corruption.
#[derive(Debug)]
pub struct DiskBacking {
    dir: PathBuf,
    segment_records: u64,
    index: Vec<LineLoc>,
    /// Open append handle for the tail segment.
    tail: Option<File>,
    tail_segment: u32,
    dropped: u64,
}

impl DiskBacking {
    /// Opens (or creates) an atlas directory, replaying existing
    /// segments into the line index and applying torn-tail recovery.
    ///
    /// # Errors
    ///
    /// [`GameError::Unsupported`] on I/O failure, manifest mismatch, or
    /// mid-file corruption.
    pub fn open(dir: &Path) -> Result<Self, GameError> {
        DiskBacking::open_with_segment_records(dir, DEFAULT_SEGMENT_RECORDS)
    }

    /// [`DiskBacking::open`] with an explicit rotation threshold (tests
    /// use small segments to exercise rotation). An existing manifest's
    /// threshold wins over the argument.
    ///
    /// # Errors
    ///
    /// Same as [`DiskBacking::open`].
    pub fn open_with_segment_records(dir: &Path, segment_records: u64) -> Result<Self, GameError> {
        assert!(
            segment_records > 0,
            "segment rotation threshold must be positive"
        );
        fs::create_dir_all(dir).map_err(|e| io_err("create directory", &e))?;
        let manifest = dir.join("MANIFEST");
        let (segments, segment_records) = if manifest.exists() {
            let text = fs::read_to_string(&manifest).map_err(|e| io_err("read MANIFEST", &e))?;
            let format = jsonio::u64_field(&text, "format");
            if format != Some(FORMAT_VERSION) {
                return Err(GameError::Unsupported {
                    reason: format!(
                        "atlas backing: MANIFEST format {format:?} is not {FORMAT_VERSION}"
                    ),
                });
            }
            let segments =
                jsonio::u64_field(&text, "segments").ok_or_else(|| GameError::Unsupported {
                    reason: "atlas backing: MANIFEST is missing \"segments\"".to_string(),
                })?;
            let per = jsonio::u64_field(&text, "segment_records").ok_or_else(|| {
                GameError::Unsupported {
                    reason: "atlas backing: MANIFEST is missing \"segment_records\"".to_string(),
                }
            })?;
            (segments, per)
        } else {
            (0, segment_records)
        };

        let mut backing = DiskBacking {
            dir: dir.to_path_buf(),
            segment_records,
            index: Vec::new(),
            tail: None,
            tail_segment: 0,
            dropped: 0,
        };
        for seg in 0..segments {
            let seg = u32::try_from(seg).map_err(|_| GameError::Unsupported {
                reason: "atlas backing: segment count overflows u32".to_string(),
            })?;
            backing.load_segment(seg, seg + 1 == segments as u32)?;
        }
        backing.tail_segment = segments.saturating_sub(1) as u32;
        if segments == 0 {
            backing.write_manifest(1)?;
            backing.tail_segment = 0;
        }
        Ok(backing)
    }

    fn segment_path(&self, segment: u32) -> PathBuf {
        self.dir.join(format!("seg-{segment:05}.jsonl"))
    }

    fn write_manifest(&self, segments: u64) -> Result<(), GameError> {
        let tmp = self.dir.join("MANIFEST.tmp");
        let body = format!(
            "{{\"format\":{FORMAT_VERSION},\"segments\":{segments},\"segment_records\":{}}}\n",
            self.segment_records
        );
        fs::write(&tmp, body).map_err(|e| io_err("write MANIFEST.tmp", &e))?;
        fs::rename(&tmp, self.dir.join("MANIFEST")).map_err(|e| io_err("commit MANIFEST", &e))
    }

    /// Replays one segment file into the index. Only the tail segment is
    /// allowed (and repaired for) a torn final line.
    fn load_segment(&mut self, segment: u32, is_tail: bool) -> Result<(), GameError> {
        let path = self.segment_path(segment);
        if is_tail && !path.exists() {
            // A rotation (or fresh open) commits the manifest before the
            // first append creates the tail file; a missing tail is an
            // empty tail, not corruption.
            return Ok(());
        }
        let mut file =
            File::open(&path).map_err(|e| io_err(&format!("open {}", path.display()), &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err(&format!("read {}", path.display()), &e))?;

        let mut offset = 0u64;
        let mut clean_end = 0u64;
        while (offset as usize) < bytes.len() {
            let rest = &bytes[offset as usize..];
            let nl = rest.iter().position(|&b| b == b'\n');
            let (line_bytes, terminated) = match nl {
                Some(i) => (&rest[..i], true),
                None => (rest, false),
            };
            let line = std::str::from_utf8(line_bytes).ok();
            let parses = line.is_some_and(|l| {
                let l = l.trim();
                l.starts_with('{') && l.ends_with('}')
            });
            if !terminated || !parses {
                if is_tail {
                    // Torn tail: drop the damaged line, truncate to the
                    // last clean boundary, and report the repair.
                    drop(file);
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| io_err("reopen tail for truncate", &e))?;
                    f.set_len(clean_end)
                        .map_err(|e| io_err("truncate torn tail", &e))?;
                    f.sync_all()
                        .map_err(|e| io_err("sync truncated tail", &e))?;
                    self.dropped += 1;
                    return Ok(());
                }
                return Err(GameError::Unsupported {
                    reason: format!(
                        "atlas backing: {} is corrupt at byte {offset} (mid-file \
                         damage cannot be repaired)",
                        path.display()
                    ),
                });
            }
            let len = u32::try_from(line_bytes.len()).map_err(|_| GameError::Unsupported {
                reason: "atlas backing: line exceeds u32 bytes".to_string(),
            })?;
            self.index.push(LineLoc {
                segment,
                offset,
                len,
            });
            offset += u64::from(len) + 1;
            clean_end = offset;
        }
        Ok(())
    }

    /// Lines currently in the tail segment.
    fn tail_lines(&self) -> u64 {
        self.index
            .iter()
            .rev()
            .take_while(|loc| loc.segment == self.tail_segment)
            .count() as u64
    }

    fn open_tail(&mut self) -> Result<(), GameError> {
        if self.tail.is_none() {
            let path = self.segment_path(self.tail_segment);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err(&format!("open tail {}", path.display()), &e))?;
            self.tail = Some(file);
        }
        Ok(())
    }
}

impl MemoryBacking for DiskBacking {
    fn append_line(&mut self, line: &str) -> Result<(), GameError> {
        debug_assert!(!line.contains('\n'), "backing lines must be newline-free");
        if self.tail_lines() >= self.segment_records {
            self.flush()?;
            self.tail = None;
            self.tail_segment += 1;
            self.write_manifest(u64::from(self.tail_segment) + 1)?;
        }
        self.open_tail()?;
        let offset = self
            .tail
            .as_mut()
            .expect("tail opened above")
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek tail", &e))?;
        let file = self.tail.as_mut().expect("tail opened above");
        file.write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .map_err(|e| io_err("append line", &e))?;
        self.index.push(LineLoc {
            segment: self.tail_segment,
            offset,
            len: u32::try_from(line.len()).map_err(|_| GameError::Unsupported {
                reason: "atlas backing: line exceeds u32 bytes".to_string(),
            })?,
        });
        Ok(())
    }

    fn for_each_line(&self, visit: &mut dyn FnMut(u64, &str)) -> Result<(), GameError> {
        let mut idx = 0u64;
        let mut segment = 0u32;
        loop {
            let path = self.segment_path(segment);
            if !path.exists() {
                break;
            }
            let file =
                File::open(&path).map_err(|e| io_err(&format!("open {}", path.display()), &e))?;
            for line in BufReader::new(file).lines() {
                let line = line.map_err(|e| io_err("read line", &e))?;
                if idx >= self.len() {
                    break;
                }
                visit(idx, &line);
                idx += 1;
            }
            segment += 1;
        }
        Ok(())
    }

    fn read_line(&self, index: u64) -> Result<String, GameError> {
        let loc = usize::try_from(index)
            .ok()
            .and_then(|i| self.index.get(i))
            .ok_or_else(|| GameError::Unsupported {
                reason: format!("atlas backing: line {index} out of range"),
            })?;
        let path = self.segment_path(loc.segment);
        let mut file =
            File::open(&path).map_err(|e| io_err(&format!("open {}", path.display()), &e))?;
        file.seek(SeekFrom::Start(loc.offset))
            .map_err(|e| io_err("seek line", &e))?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact(&mut buf)
            .map_err(|e| io_err("read line bytes", &e))?;
        String::from_utf8(buf).map_err(|_| GameError::Unsupported {
            reason: format!("atlas backing: line {index} is not UTF-8"),
        })
    }

    fn len(&self) -> u64 {
        self.index.len() as u64
    }

    fn dropped_tail(&self) -> u64 {
        self.dropped
    }

    fn flush(&mut self) -> Result<(), GameError> {
        if let Some(file) = self.tail.as_mut() {
            file.sync_all().map_err(|e| io_err("sync tail", &e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bncg-atlas-backing-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_lines(count: usize) -> Vec<String> {
        (0..count)
            .map(|i| format!("{{\"key\":\"L{i}\",\"n\":{i},\"evals\":{}}}", i * 7))
            .collect()
    }

    fn collect(b: &dyn MemoryBacking) -> Vec<String> {
        let mut out = Vec::new();
        b.for_each_line(&mut |_, line| out.push(line.to_string()))
            .unwrap();
        out
    }

    #[test]
    fn ram_backing_stores_and_replays_in_order() {
        let mut b = RamBacking::new();
        let lines = sample_lines(5);
        for l in &lines {
            b.append_line(l).unwrap();
        }
        assert_eq!(b.len(), 5);
        assert_eq!(collect(&b), lines);
        assert_eq!(b.read_line(3).unwrap(), lines[3]);
        assert!(b.read_line(5).is_err());
    }

    #[test]
    fn disk_backing_round_trips_across_reopen_and_rotation() {
        let dir = temp_dir("rotate");
        let lines = sample_lines(11);
        {
            let mut b = DiskBacking::open_with_segment_records(&dir, 4).unwrap();
            for l in &lines {
                b.append_line(l).unwrap();
            }
            b.flush().unwrap();
            assert_eq!(b.len(), 11);
        }
        // 11 lines at 4 per segment → segments 0..=2 on disk.
        assert!(dir.join("seg-00002.jsonl").exists());
        let b = DiskBacking::open(&dir).unwrap();
        assert_eq!(b.len(), 11);
        assert_eq!(b.dropped_tail(), 0);
        assert_eq!(collect(&b), lines);
        for (i, l) in lines.iter().enumerate() {
            assert_eq!(&b.read_line(i as u64).unwrap(), l);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backing_drops_and_truncates_a_torn_tail() {
        let dir = temp_dir("torn");
        let lines = sample_lines(6);
        {
            let mut b = DiskBacking::open_with_segment_records(&dir, 4).unwrap();
            for l in &lines {
                b.append_line(l).unwrap();
            }
            b.flush().unwrap();
        }
        // Tear the last line of the tail segment mid-way.
        let tail = dir.join("seg-00001.jsonl");
        let text = fs::read_to_string(&tail).unwrap();
        fs::write(&tail, &text[..text.len() - 4]).unwrap();

        let mut b = DiskBacking::open(&dir).unwrap();
        assert_eq!(b.dropped_tail(), 1);
        assert_eq!(b.len(), 5);
        assert_eq!(collect(&b), lines[..5]);
        // The store accepts appends again and the re-derived line lands
        // exactly where the torn one was.
        b.append_line(&lines[5]).unwrap();
        b.flush().unwrap();
        drop(b);
        let b = DiskBacking::open(&dir).unwrap();
        assert_eq!(b.dropped_tail(), 0);
        assert_eq!(collect(&b), lines);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backing_refuses_mid_file_corruption() {
        let dir = temp_dir("midfile");
        {
            let mut b = DiskBacking::open_with_segment_records(&dir, 4).unwrap();
            for l in sample_lines(6) {
                b.append_line(&l).unwrap();
            }
            b.flush().unwrap();
        }
        // Damage the *first* (non-tail) segment: cut the closing brace
        // of its first line, so the line terminates but is not an object.
        let seg0 = dir.join("seg-00000.jsonl");
        let text = fs::read_to_string(&seg0).unwrap();
        fs::write(&seg0, text.replacen("}\n", "\n", 1)).unwrap();
        assert!(DiskBacking::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_survives_and_pins_the_rotation_threshold() {
        let dir = temp_dir("manifest");
        {
            let mut b = DiskBacking::open_with_segment_records(&dir, 3).unwrap();
            for l in sample_lines(4) {
                b.append_line(&l).unwrap();
            }
            b.flush().unwrap();
        }
        // Reopening with a different requested threshold keeps the
        // manifest's value — segment geometry is a property of the store.
        let mut b = DiskBacking::open_with_segment_records(&dir, 1000).unwrap();
        assert_eq!(b.segment_records, 3);
        for l in sample_lines(4) {
            b.append_line(&l).unwrap();
        }
        b.flush().unwrap();
        assert_eq!(b.len(), 8);
        assert!(dir.join("seg-00002.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
