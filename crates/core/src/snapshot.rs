//! The versioned, checksummed snapshot container (`DKSN`) — the durable
//! on-disk form of a D(k)-index and its data graph.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     b"DKSN"
//! version   u32 (= 1)
//! sections  u32 count, then per section:
//!             tag      [u8; 4]      (b"REQS" | b"GRPH" | b"INDX")
//!             len      u32          payload byte length
//!             crc      u32          CRC-32 of the payload
//!             payload  len bytes
//! ```
//!
//! Section payloads reuse the existing codecs: `GRPH` holds a `DKG1` graph
//! stream, `REQS` the requirements table, `INDX` the `DKI1`-style index
//! body. Unknown tags are skipped (forward compatibility).
//!
//! Two read modes:
//!
//! * [`read_snapshot`] — strict: any checksum or structural failure is a
//!   typed [`SnapshotError`]. Used where silent degradation is unacceptable.
//! * [`load_with_recovery`] — graceful: as long as the `GRPH` section is
//!   intact, a corrupt `INDX` (or failed invariant check) triggers a rebuild
//!   of the index from the data graph, and a corrupt `REQS` falls back to
//!   empty requirements; the [`Recovery`] report says exactly what happened.
//!   Only a damaged graph section is unrecoverable.
//!
//! The legacy un-checksummed `.dki` format (a bare `DKG1` stream + index)
//! remains readable through [`load_index_bytes`], which sniffs the magic.

use crate::bytes::Cursor;
use crate::crc32::crc32;
use crate::dk::construct::DkIndex;
use crate::requirements::Requirements;
use crate::store;
use dkindex_graph::io::ReadError;
use dkindex_graph::{DataGraph, LabeledGraph};
use dkindex_telemetry as telemetry;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// The snapshot container magic (`DKSN`); callers can sniff it to pick a
/// format-specific code path before parsing.
pub const MAGIC: &[u8; 4] = b"DKSN";
const VERSION: u32 = 1;
const TAG_REQS: [u8; 4] = *b"REQS";
const TAG_GRPH: [u8; 4] = *b"GRPH";
const TAG_INDX: [u8; 4] = *b"INDX";

/// Typed snapshot failure.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Wrong container magic — not a snapshot.
    BadMagic,
    /// The header declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The byte stream ends inside a header or section frame.
    Truncated {
        /// What was being read when the stream ended.
        what: String,
    },
    /// A section's payload does not match its stored CRC.
    SectionCrc {
        /// Four-character section tag.
        tag: [u8; 4],
    },
    /// A section's payload failed to parse or validate.
    Section {
        /// Four-character section tag.
        tag: [u8; 4],
        /// What was wrong.
        reason: String,
    },
    /// A required section is absent.
    MissingSection {
        /// Four-character section tag.
        tag: [u8; 4],
    },
    /// Bytes remain after the declared sections.
    TrailingBytes,
    /// Failure in the legacy (pre-snapshot) `.dki` codec.
    Legacy(ReadError),
}

fn tag_str(tag: &[u8; 4]) -> String {
    String::from_utf8_lossy(tag).into_owned()
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic, expected DKSN)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated { what } => write!(f, "snapshot truncated while reading {what}"),
            SnapshotError::SectionCrc { tag } => {
                write!(f, "checksum mismatch in section {}", tag_str(tag))
            }
            SnapshotError::Section { tag, reason } => {
                write!(f, "corrupt section {}: {reason}", tag_str(tag))
            }
            SnapshotError::MissingSection { tag } => {
                write!(f, "snapshot is missing its {} section", tag_str(tag))
            }
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after the last section"),
            SnapshotError::Legacy(e) => write!(f, "legacy index file: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// What [`load_with_recovery`] had to do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// The index graph was rebuilt from the data graph.
    pub rebuilt_index: bool,
    /// The requirements section was unreadable; empty requirements were used.
    pub lost_requirements: bool,
    /// One line per degradation, empty when the snapshot was intact.
    pub notes: Vec<String>,
}

impl Recovery {
    /// True when every section loaded cleanly.
    pub fn is_intact(&self) -> bool {
        self.notes.is_empty()
    }
}

/// Serialize `dk` + `data` as a snapshot container.
pub fn write_snapshot<W: Write>(dk: &DkIndex, data: &DataGraph, w: &mut W) -> io::Result<()> {
    let mut reqs_payload = Vec::new();
    store::write_requirements(dk.requirements(), &mut reqs_payload)?;
    let mut graph_payload = Vec::new();
    dkindex_graph::io::write_graph(data, &mut graph_payload)?;
    let mut index_payload = Vec::new();
    store::write_index(dk.index(), &mut index_payload)?;

    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&3u32.to_le_bytes())?;
    for (tag, payload) in [
        (TAG_REQS, &reqs_payload),
        (TAG_GRPH, &graph_payload),
        (TAG_INDX, &index_payload),
    ] {
        w.write_all(&tag)?;
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&crc32(payload).to_le_bytes())?;
        w.write_all(payload)?;
    }
    telemetry::metrics::STORE_SNAPSHOT_WRITES.incr();
    Ok(())
}

/// Snapshot bytes for `dk` + `data` (convenience over [`write_snapshot`]).
pub fn snapshot_bytes(dk: &DkIndex, data: &DataGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    // Threading io::Result through every caller would only launder an error
    // that cannot happen: Write for Vec<u8> has no I/O to fail.
    // analyze: allow(panic-path) — Write for Vec<u8> is infallible
    write_snapshot(dk, data, &mut bytes).expect("Vec<u8> writes are infallible");
    bytes
}

/// Write a snapshot to `path` atomically: temp file, `sync_all`, rename.
pub fn save_snapshot_file(dk: &DkIndex, data: &DataGraph, path: &Path) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        write_snapshot(dk, data, &mut file)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// One parsed section's state after framing + checksum validation.
enum SectionState {
    Missing,
    Corrupt(String),
    Ok(std::ops::Range<usize>),
}

struct Frames {
    reqs: SectionState,
    grph: SectionState,
    indx: SectionState,
    /// Set when the container framing itself broke mid-stream; sections
    /// parsed *before* the break are still usable for recovery.
    framing_error: Option<SnapshotError>,
}

/// Parse the container framing, validating each section's CRC. Never fails
/// outright: framing breaks are recorded so recovery can still use the
/// sections that parsed before the break.
fn parse_frames(bytes: &[u8]) -> Result<Frames, SnapshotError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.array4().ok_or_else(|| SnapshotError::Truncated {
        what: "header".to_string(),
    })?;
    if magic != *MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = cur.u32_le().ok_or_else(|| SnapshotError::Truncated {
        what: "header".to_string(),
    })?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let count = cur.u32_le().ok_or_else(|| SnapshotError::Truncated {
        what: "header".to_string(),
    })? as usize;

    let mut frames = Frames {
        reqs: SectionState::Missing,
        grph: SectionState::Missing,
        indx: SectionState::Missing,
        framing_error: None,
    };
    for _ in 0..count {
        let (Some(tag), Some(len), Some(stored_crc)) =
            (cur.array4(), cur.u32_le().map(|v| v as usize), cur.u32_le())
        else {
            frames.framing_error = Some(SnapshotError::Truncated {
                what: "section header".to_string(),
            });
            return Ok(frames);
        };
        let start = cur.offset();
        let Some(payload) = cur.take(len) else {
            frames.framing_error = Some(SnapshotError::Truncated {
                what: format!("section {} payload", tag_str(&tag)),
            });
            return Ok(frames);
        };
        let state = if crc32(payload) == stored_crc {
            SectionState::Ok(start..start + len)
        } else {
            telemetry::metrics::STORE_CRC_FAILURES.incr();
            SectionState::Corrupt("checksum mismatch".to_string())
        };
        match tag {
            TAG_REQS => frames.reqs = state,
            TAG_GRPH => frames.grph = state,
            TAG_INDX => frames.indx = state,
            _ => {} // unknown section: skip (forward compatibility)
        }
    }
    if cur.remaining() != 0 {
        frames.framing_error = Some(SnapshotError::TrailingBytes);
    }
    Ok(frames)
}

/// The payload of a validated section. The range came out of
/// [`parse_frames`] over this same buffer, so the lookup cannot miss; on
/// an (impossible) mismatch the empty slice makes the section parse fail
/// with a typed error instead of panicking.
fn section_bytes<'a>(bytes: &'a [u8], range: &std::ops::Range<usize>) -> &'a [u8] {
    bytes.get(range.clone()).unwrap_or(&[])
}

/// Strict load: every section must be present, checksum-clean and parse,
/// and the index must pass its invariant check against the graph.
pub fn read_snapshot(bytes: &[u8]) -> Result<(DkIndex, DataGraph), SnapshotError> {
    let frames = parse_frames(bytes)?;
    if let Some(e) = frames.framing_error {
        return Err(e);
    }
    let data = parse_graph(bytes, &frames.grph)?;
    let reqs = match &frames.reqs {
        SectionState::Ok(range) => {
            let mut cursor = section_bytes(bytes, range);
            store::read_requirements(&mut cursor).map_err(|e| {
                SnapshotError::Section { tag: TAG_REQS, reason: e.to_string() }
            })?
        }
        SectionState::Corrupt(reason) => {
            return Err(section_error(TAG_REQS, reason));
        }
        SectionState::Missing => return Err(SnapshotError::MissingSection { tag: TAG_REQS }),
    };
    let index = match &frames.indx {
        SectionState::Ok(range) => {
            let mut cursor = section_bytes(bytes, range);
            let index = store::read_index(&mut cursor, data.node_count()).map_err(|e| {
                SnapshotError::Section { tag: TAG_INDX, reason: e.to_string() }
            })?;
            if !cursor.is_empty() {
                return Err(SnapshotError::Section {
                    tag: TAG_INDX,
                    reason: "trailing bytes inside the section".to_string(),
                });
            }
            index.check_invariants(&data).map_err(|e| SnapshotError::Section {
                tag: TAG_INDX,
                reason: format!("fails invariants: {e}"),
            })?;
            index
        }
        SectionState::Corrupt(reason) => return Err(section_error(TAG_INDX, reason)),
        SectionState::Missing => return Err(SnapshotError::MissingSection { tag: TAG_INDX }),
    };
    telemetry::metrics::STORE_SNAPSHOT_LOADS.incr();
    Ok((DkIndex::from_parts(index, reqs), data))
}

fn section_error(tag: [u8; 4], reason: &str) -> SnapshotError {
    if reason == "checksum mismatch" {
        SnapshotError::SectionCrc { tag }
    } else {
        SnapshotError::Section { tag, reason: reason.to_string() }
    }
}

fn parse_graph(bytes: &[u8], state: &SectionState) -> Result<DataGraph, SnapshotError> {
    match state {
        SectionState::Ok(range) => {
            let mut cursor = section_bytes(bytes, range);
            dkindex_graph::io::read_graph(&mut cursor).map_err(|e| {
                SnapshotError::Section { tag: TAG_GRPH, reason: e.to_string() }
            })
        }
        SectionState::Corrupt(reason) => Err(section_error(TAG_GRPH, reason)),
        SectionState::Missing => Err(SnapshotError::MissingSection { tag: TAG_GRPH }),
    }
}

/// Graceful load: recover everything recoverable. The data graph section is
/// the ground truth — while it is intact, a damaged requirements section
/// degrades to empty requirements and a damaged (or invariant-violating)
/// index section is rebuilt from the graph. Returns a [`Recovery`] report
/// describing any degradation.
pub fn load_with_recovery(
    bytes: &[u8],
) -> Result<(DkIndex, DataGraph, Recovery), SnapshotError> {
    let frames = parse_frames(bytes)?;
    let data = parse_graph(bytes, &frames.grph)?;
    let mut recovery = Recovery::default();
    if let Some(e) = &frames.framing_error {
        recovery.notes.push(format!("container framing: {e}"));
    }

    let reqs = match &frames.reqs {
        SectionState::Ok(range) => match store::read_requirements(&mut section_bytes(bytes, range)) {
            Ok(reqs) => reqs,
            Err(e) => {
                recovery.lost_requirements = true;
                recovery.notes.push(format!("REQS unparseable ({e}); using empty requirements"));
                Requirements::new()
            }
        },
        SectionState::Corrupt(reason) => {
            recovery.lost_requirements = true;
            recovery.notes.push(format!("REQS {reason}; using empty requirements"));
            Requirements::new()
        }
        SectionState::Missing => {
            recovery.lost_requirements = true;
            recovery.notes.push("REQS section missing; using empty requirements".to_string());
            Requirements::new()
        }
    };

    let index = match &frames.indx {
        SectionState::Ok(range) => {
            let mut cursor = section_bytes(bytes, range);
            match store::read_index(&mut cursor, data.node_count()) {
                Ok(index) if cursor.is_empty() => {
                    match index.check_invariants(&data) {
                        Ok(()) => Some(index),
                        Err(e) => {
                            recovery.notes.push(format!("INDX fails invariants: {e}"));
                            None
                        }
                    }
                }
                Ok(_) => {
                    recovery.notes.push("INDX has trailing bytes".to_string());
                    None
                }
                Err(e) => {
                    recovery.notes.push(format!("INDX unparseable: {e}"));
                    None
                }
            }
        }
        SectionState::Corrupt(reason) => {
            recovery.notes.push(format!("INDX {reason}"));
            None
        }
        SectionState::Missing => {
            recovery.notes.push("INDX section missing".to_string());
            None
        }
    };

    let dk = match index {
        Some(index) => DkIndex::from_parts(index, reqs),
        None => {
            recovery.rebuilt_index = true;
            telemetry::metrics::AUDIT_REBUILDS.incr();
            DkIndex::build(&data, reqs)
        }
    };
    telemetry::metrics::STORE_SNAPSHOT_LOADS.incr();
    Ok((dk, data, recovery))
}

/// Which on-disk format a file turned out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// The checksummed `DKSN` container.
    Snapshot,
    /// The legacy bare `DKG1 + DKI1` stream.
    Legacy,
}

/// Load an index file of either format, sniffing the magic: `DKSN` →
/// strict snapshot read, `DKG1` → legacy [`store::load_dk`].
pub fn load_index_bytes(
    bytes: &[u8],
) -> Result<(DkIndex, DataGraph, SnapshotFormat), SnapshotError> {
    if bytes.starts_with(MAGIC) {
        let (dk, data) = read_snapshot(bytes)?;
        Ok((dk, data, SnapshotFormat::Snapshot))
    } else {
        let mut cursor = bytes;
        let (dk, data) = store::load_dk(&mut cursor).map_err(SnapshotError::Legacy)?;
        Ok((dk, data, SnapshotFormat::Legacy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_graph::IndexGraph;
    use dkindex_graph::EdgeKind;

    fn sample() -> (DataGraph, DkIndex) {
        let mut g = DataGraph::new();
        let d = g.add_labeled_node("director");
        let m = g.add_labeled_node("movie");
        let t = g.add_labeled_node("title");
        let a = g.add_labeled_node("actor");
        let r = g.root();
        g.add_edge(r, d, EdgeKind::Tree);
        g.add_edge(d, m, EdgeKind::Tree);
        g.add_edge(m, t, EdgeKind::Tree);
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, m, EdgeKind::Reference);
        let dk = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
        (g, dk)
    }

    /// Regression for the cursor-based framing rewrite: the container
    /// prefix is a durable format, so its exact bytes are pinned — magic,
    /// LE version 1, LE section count 3, then the first section's tag.
    #[test]
    fn container_framing_bytes_are_pinned() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        assert_eq!(bytes[..4], *b"DKSN");
        assert_eq!(bytes[4..8], 1u32.to_le_bytes());
        assert_eq!(bytes[8..12], 3u32.to_le_bytes());
        assert_eq!(bytes[12..16], *b"REQS");
    }

    /// A loaded index over a random graph with reference edges, and the
    /// graph it was loaded with.
    fn loaded_random() -> (DkIndex, DataGraph) {
        use dkindex_datagen::{random_graph, RandomGraphConfig};
        let g = random_graph(&RandomGraphConfig {
            nodes: 40,
            labels: 3,
            reference_edges: 12,
            seed: 13,
            ..RandomGraphConfig::default()
        });
        let dk = DkIndex::build(&g, Requirements::uniform(1));
        read_snapshot(&snapshot_bytes(&dk, &g)).unwrap()
    }

    /// `check_invariants` and strict loading both reject `index`, each
    /// with an error naming `kind`.
    fn assert_rejected(index: IndexGraph, dk: &DkIndex, data: &DataGraph, kind: &str) {
        let err = index.check_invariants(data).unwrap_err();
        assert!(err.contains(kind), "{err}");
        let doctored = DkIndex::from_parts(index, dk.requirements().clone());
        match read_snapshot(&snapshot_bytes(&doctored, data)) {
            Err(SnapshotError::Section { tag, reason }) => {
                assert_eq!(tag, TAG_INDX);
                assert!(reason.contains(kind), "{reason}");
            }
            other => panic!("strict load accepted a broken index: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn every_dropped_index_edge_is_rejected() {
        let (dk, data) = loaded_random();
        let mut payload = Vec::new();
        store::write_index(dk.index(), &mut payload).unwrap();
        // The payload ends with: u32 edge count, 8-byte edge records, u32 root.
        let edges = dk.index().edge_count();
        let start = payload.len() - 4 - 8 * edges;
        assert!(edges > 10);
        for skip in 0..edges {
            let mut doctored = payload[..start - 4].to_vec();
            doctored.extend_from_slice(&(edges as u32 - 1).to_le_bytes());
            doctored.extend_from_slice(&payload[start..start + 8 * skip]);
            doctored.extend_from_slice(&payload[start + 8 * (skip + 1)..]);
            let index = store::read_index(&mut doctored.as_slice(), data.node_count()).unwrap();
            assert_eq!(index.edge_count(), edges - 1);
            assert_rejected(index, &dk, &data, "missing index edge");
        }
    }

    #[test]
    fn every_unwitnessed_index_edge_is_rejected() {
        let (dk, data) = loaded_random();
        let index = dk.index();
        let mut checked = 0;
        for a in index.node_ids() {
            for b in index.node_ids() {
                if index.children_of(a).contains(&b) {
                    continue;
                }
                let mut doctored = index.clone();
                doctored.add_index_edge(a, b);
                assert_rejected(doctored, &dk, &data, "unwitnessed index edge");
                checked += 1;
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        let (back, g2) = read_snapshot(&bytes).unwrap();
        assert_eq!(back.requirements(), dk.requirements());
        assert_eq!(snapshot_bytes(&back, &g2), bytes);
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_recovered() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0xFF;
            // Strict mode must never accept a flipped snapshot verbatim.
            if let Ok((back, g2)) = read_snapshot(&copy) {
                assert_eq!(
                    snapshot_bytes(&back, &g2),
                    bytes,
                    "flip at {i} accepted but changed the index"
                );
            }
        }
    }

    #[test]
    fn recovery_rebuilds_from_intact_graph() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        // Corrupt one byte inside the INDX payload (last section).
        let mut copy = bytes.clone();
        let n = copy.len();
        copy[n - 3] ^= 0xFF;
        assert!(read_snapshot(&copy).is_err());
        let (recovered, g2, recovery) = load_with_recovery(&copy).unwrap();
        assert!(recovery.rebuilt_index, "{:?}", recovery.notes);
        assert!(!recovery.lost_requirements);
        recovered.index().check_invariants(&g2).unwrap();
        // The rebuild reuses the recovered requirements, so it reproduces
        // the original index exactly.
        assert_eq!(snapshot_bytes(&recovered, &g2), bytes);
    }

    #[test]
    fn recovery_fails_cleanly_when_graph_is_corrupt() {
        let (g, dk) = sample();
        let mut bytes = snapshot_bytes(&dk, &g);
        // The GRPH payload starts after REQS; find its DKG1 magic and break it.
        let pos = bytes
            .windows(4)
            .position(|w| w == b"DKG1")
            .expect("graph payload present");
        bytes[pos + 10] ^= 0xFF;
        assert!(matches!(
            load_with_recovery(&bytes),
            Err(SnapshotError::SectionCrc { tag }) if tag == TAG_GRPH
        ));
    }

    #[test]
    fn truncation_at_every_length_is_typed_or_recovered() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        for cut in 0..bytes.len() {
            // A typed error is the other legal outcome for any cut.
            if let Ok((recovered, g2, recovery)) = load_with_recovery(&bytes[..cut]) {
                // Only possible once GRPH is fully framed; result must
                // be a well-formed index.
                assert!(!recovery.is_intact(), "cut at {cut} claimed intact");
                recovered.index().check_invariants(&g2).unwrap();
            }
        }
    }

    #[test]
    fn legacy_files_still_load() {
        let (g, dk) = sample();
        let mut legacy = Vec::new();
        store::save_dk(&dk, &g, &mut legacy).unwrap();
        let (back, _, format) = load_index_bytes(&legacy).unwrap();
        assert_eq!(format, SnapshotFormat::Legacy);
        assert_eq!(back.size(), dk.size());

        let snap = snapshot_bytes(&dk, &g);
        let (_, _, format) = load_index_bytes(&snap).unwrap();
        assert_eq!(format, SnapshotFormat::Snapshot);
    }
}
