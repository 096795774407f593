//! Binary serialization for data graphs.
//!
//! Format `DKG1` (all integers little-endian):
//!
//! ```text
//! magic   b"DKG1"
//! labels  u32 count, then per label: u16 byte-length + UTF-8 bytes
//! nodes   u32 count, then per node: u32 label id
//! edges   u32 count, then per edge: u32 from, u32 to, u8 kind (0 tree, 1 ref)
//! ```
//!
//! The distinguished `ROOT`/`VALUE` labels are serialized like any other and
//! validated on load (they must be labels 0 and 1, and node 0 must be the
//! root). Reading is strict: trailing bytes, dangling ids or a malformed
//! header are errors, never silent truncation.
//!
//! The reader decodes node and edge records in bounded chunks (at most
//! 64 KiB staged at a time) and sizes every allocation from records it has
//! already read, never from a count field alone: a count corrupted to
//! `u32::MAX` fails on end of stream, not on allocation. Once all edge
//! records are in, it counts degrees, allocates each adjacency list once
//! at its exact size, and drops parallel edges in O(E) with a per-node
//! stamp, keeping the first occurrence in record order — the graph equals
//! the one built by folding the records through [`DataGraph::add_edge`].

use crate::graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use crate::label::{LabelId, LabelInterner};
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"DKG1";

/// Error while reading a serialized graph.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the byte stream.
    Corrupt(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "I/O error: {e}"),
            ReadError::Corrupt(msg) => write!(f, "corrupt graph file: {msg}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> ReadError {
    ReadError::Corrupt(msg.into())
}

/// Write a little-endian `u32` (exposed for dependent on-disk formats).
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Read a little-endian `u32`.
pub fn read_u32<R: Read>(r: &mut R) -> Result<u32, ReadError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Write a `u16`-length-prefixed UTF-8 string. Labels longer than
/// `u16::MAX` bytes (possible in adversarial XML input) are an
/// `InvalidInput` error, never a panic.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("label of {} bytes exceeds the format's u16 limit", s.len()),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(s.as_bytes())
}

/// Read a `u16`-length-prefixed UTF-8 string.
pub fn read_str<R: Read>(r: &mut R) -> Result<String, ReadError> {
    let mut len_buf = [0u8; 2];
    r.read_exact(&mut len_buf)?;
    let len = u16::from_le_bytes(len_buf) as usize;
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| corrupt("label is not UTF-8"))
}

/// Serialize `g` to `w`.
pub fn write_graph<W: Write>(g: &DataGraph, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, g.labels().len() as u32)?;
    for (_, name) in g.labels().iter() {
        write_str(w, name)?;
    }
    write_u32(w, g.node_count() as u32)?;
    for n in g.node_ids() {
        write_u32(w, g.label_of(n).index() as u32)?;
    }
    write_u32(w, g.edge_count() as u32)?;
    for &(from, to, kind) in g.edges() {
        write_u32(w, from.index() as u32)?;
        write_u32(w, to.index() as u32)?;
        w.write_all(&[match kind {
            EdgeKind::Tree => 0,
            EdgeKind::Reference => 1,
        }])?;
    }
    Ok(())
}

/// Deserialize a graph from `r`. The stream must be exhausted exactly.
pub fn read_graph<R: Read>(r: &mut R) -> Result<DataGraph, ReadError> {
    let g = read_graph_allow_trailing(r)?;
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(g),
        _ => Err(corrupt("trailing bytes after graph")),
    }
}

/// Deserialize a graph, leaving any bytes after the graph payload unread
/// (for container formats that append further sections).
pub fn read_graph_allow_trailing<R: Read>(r: &mut R) -> Result<DataGraph, ReadError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic (expected DKG1)"));
    }
    let label_count = read_u32(r)? as usize;
    if label_count < 2 {
        return Err(corrupt("label table must contain ROOT and VALUE"));
    }
    let mut interner = LabelInterner::new();
    for i in 0..label_count {
        let name = read_str(r)?;
        match i {
            0 if name != "ROOT" => return Err(corrupt("label 0 must be ROOT")),
            1 if name != "VALUE" => return Err(corrupt("label 1 must be VALUE")),
            _ => {}
        }
        let id = interner.intern(&name);
        if id.index() != i {
            return Err(corrupt(format!("duplicate label {name:?}")));
        }
    }
    let node_count = read_u32(r)? as usize;
    if node_count == 0 {
        return Err(corrupt("graph has no root node"));
    }
    let mut labels = Vec::new();
    read_records(r, node_count, 4, |record| {
        let label = le_u32(record, 0) as usize;
        let i = labels.len();
        if label >= label_count {
            return Err(corrupt(format!("node {i}: label id {label} out of range")));
        }
        if i == 0 && label != 0 {
            return Err(corrupt("node 0 must carry the ROOT label"));
        }
        labels.push(LabelId::from_index(label));
        Ok(())
    })?;
    let edge_count = read_u32(r)? as usize;
    let mut edges = Vec::new();
    read_records(r, edge_count, 9, |record| {
        let (from, to) = (le_u32(record, 0) as usize, le_u32(record, 4) as usize);
        if from >= node_count || to >= node_count {
            return Err(corrupt("edge endpoint out of range"));
        }
        let kind = match record[8] {
            0 => EdgeKind::Tree,
            1 => EdgeKind::Reference,
            other => return Err(corrupt(format!("unknown edge kind {other}"))),
        };
        edges.push((NodeId::from_index(from), NodeId::from_index(to), kind));
        Ok(())
    })?;
    let (children, parents) = adjacency(labels.len(), &mut edges);
    Ok(DataGraph::from_columns(
        interner, labels, children, parents, edges,
    ))
}

/// Upper bound on the bytes staged per [`read_records`] chunk.
const CHUNK_BYTES: usize = 64 * 1024;

/// Read `count` fixed-size records of `size` bytes in chunks of at most
/// [`CHUNK_BYTES`], handing each complete record to `decode` in stream
/// order. The staging buffer is bounded by the chunk, never by `count`, and
/// the caller's columns grow only by records `decode` has accepted: a count
/// corrupted upward fails with `UnexpectedEof` once the stream runs out,
/// after every complete record before that point was decoded (so a bad
/// record is still reported ahead of the truncation, as when reading one
/// record at a time). Reads never go past the last declared record.
fn read_records<R: Read>(
    r: &mut R,
    count: usize,
    size: usize,
    mut decode: impl FnMut(&[u8]) -> Result<(), ReadError>,
) -> Result<(), ReadError> {
    let per_chunk = CHUNK_BYTES / size;
    let mut buf = Vec::new();
    let mut remaining = count;
    while remaining > 0 {
        let want = remaining.min(per_chunk);
        buf.clear();
        (&mut *r).take((want * size) as u64).read_to_end(&mut buf)?;
        for record in buf.chunks_exact(size) {
            decode(record)?;
        }
        if buf.len() < want * size {
            return Err(ReadError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        remaining -= want;
    }
    Ok(())
}

/// The little-endian `u32` at `at` in a fixed-size record.
#[inline]
fn le_u32(record: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([record[at], record[at + 1], record[at + 2], record[at + 3]])
}

/// Children and parent lists of `n` nodes from the edge records, with
/// parallel edges dropped from `edges` in place. The first occurrence of
/// each `(from, to)` pair in record order is kept, and every list holds
/// its neighbours in record order, exactly as folding the records through
/// [`DataGraph::add_edge`] would. O(n + E): the records are grouped by
/// source with a counting sort, a per-node stamp marks each source's
/// repeated targets, and each list is allocated once at its final size.
/// Endpoints must already be checked to lie below `n`.
fn adjacency(
    n: usize,
    edges: &mut Vec<(NodeId, NodeId, EdgeKind)>,
) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
    // Record indices grouped by source, each group in record order.
    let mut start = vec![0u32; n + 1];
    for &(from, _, _) in edges.iter() {
        start[from.index() + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut order = vec![0u32; edges.len()];
    let mut fill = start.clone();
    for (i, &(from, _, _)) in edges.iter().enumerate() {
        order[fill[from.index()] as usize] = i as u32;
        fill[from.index()] += 1;
    }
    drop(fill);

    // `stamp[to] == from` while scanning `from`'s group marks a repeat.
    let mut stamp = vec![u32::MAX; n];
    let mut keep = vec![false; edges.len()];
    let mut in_degree = vec![0u32; n];
    let mut children = Vec::with_capacity(n);
    for from in 0..n {
        let group = &order[start[from] as usize..start[from + 1] as usize];
        let mut kept = 0;
        for &i in group {
            let to = edges[i as usize].1.index();
            if stamp[to] != from as u32 {
                stamp[to] = from as u32;
                keep[i as usize] = true;
                in_degree[to] += 1;
                kept += 1;
            }
        }
        let mut list = Vec::with_capacity(kept);
        list.extend(
            group
                .iter()
                .filter(|&&i| keep[i as usize])
                .map(|&i| edges[i as usize].1),
        );
        children.push(list);
    }
    drop((order, start, stamp));

    let mut parents: Vec<Vec<NodeId>> = in_degree
        .iter()
        .map(|&d| Vec::with_capacity(d as usize))
        .collect();
    let mut i = 0;
    edges.retain(|&(from, to, _)| {
        let kept = keep[i];
        i += 1;
        if kept {
            parents[to.index()].push(from);
        }
        kept
    });
    (children, parents)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataGraph {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(b, a, EdgeKind::Reference);
        g
    }

    fn round_trip(g: &DataGraph) -> DataGraph {
        let mut bytes = Vec::new();
        write_graph(g, &mut bytes).unwrap();
        read_graph(&mut bytes.as_slice()).unwrap()
    }

    #[test]
    fn graph_round_trips() {
        let g = sample();
        let back = round_trip(&g);
        assert_eq!(back.node_count(), g.node_count());
        assert!(back.edges().eq(g.edges()));
        for n in g.node_ids() {
            assert_eq!(back.label_name(n), g.label_name(n));
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = DataGraph::new();
        let back = round_trip(&g);
        assert_eq!(back.node_count(), 1);
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Vec::new();
        write_graph(&sample(), &mut bytes).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            read_graph(&mut bytes.as_slice()),
            Err(ReadError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut bytes = Vec::new();
        write_graph(&sample(), &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(read_graph(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Vec::new();
        write_graph(&sample(), &mut bytes).unwrap();
        bytes.push(0);
        assert!(matches!(
            read_graph(&mut bytes.as_slice()),
            Err(ReadError::Corrupt(msg)) if msg.contains("trailing")
        ));
    }

    #[test]
    fn allow_trailing_leaves_suffix_unread() {
        let mut bytes = Vec::new();
        write_graph(&sample(), &mut bytes).unwrap();
        bytes.extend_from_slice(b"suffix");
        let mut cursor = std::io::Cursor::new(&bytes);
        let g = read_graph_allow_trailing(&mut cursor).unwrap();
        assert_eq!(g.node_count(), 3);
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut cursor, &mut rest).unwrap();
        assert_eq!(rest, b"suffix");
    }

    /// A hand-encoded DKG1 stream over labels `ROOT, VALUE, a, b`: one
    /// node per entry of `labels`, then the raw edge records — parallel
    /// edges included, which `write_graph` never emits.
    fn encode(labels: &[u32], edges: &[(u32, u32, u8)]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        write_u32(&mut bytes, 4).unwrap();
        for name in ["ROOT", "VALUE", "a", "b"] {
            write_str(&mut bytes, name).unwrap();
        }
        write_u32(&mut bytes, labels.len() as u32).unwrap();
        for &l in labels {
            write_u32(&mut bytes, l).unwrap();
        }
        write_u32(&mut bytes, edges.len() as u32).unwrap();
        for &(from, to, kind) in edges {
            write_u32(&mut bytes, from).unwrap();
            write_u32(&mut bytes, to).unwrap();
            bytes.push(kind);
        }
        bytes
    }

    /// The graph the records describe, built one `add_edge` at a time.
    fn folded(labels: &[u32], edges: &[(u32, u32, u8)]) -> DataGraph {
        let mut g = DataGraph::new();
        for name in ["a", "b"] {
            g.intern(name);
        }
        for &l in &labels[1..] {
            g.add_node(LabelId::from_index(l as usize));
        }
        for &(from, to, kind) in edges {
            let kind = if kind == 0 {
                EdgeKind::Tree
            } else {
                EdgeKind::Reference
            };
            g.add_edge(NodeId(from), NodeId(to), kind);
        }
        g
    }

    fn assert_same_graph(decoded: &DataGraph, expected: &DataGraph) {
        assert_eq!(decoded.node_count(), expected.node_count());
        for n in expected.node_ids() {
            assert_eq!(
                decoded.children_of(n),
                expected.children_of(n),
                "children of {n:?}"
            );
            assert_eq!(
                decoded.parents_of(n),
                expected.parents_of(n),
                "parents of {n:?}"
            );
        }
        assert!(decoded.edges().eq(expected.edges()));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_graph(decoded, &mut a).unwrap();
        write_graph(expected, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_edges_decode_like_add_edge() {
        let labels = [0, 2, 3, 3, 2];
        // Repeats with a different kind keep the first record's kind; a
        // repeat after other edges keeps the first record's position.
        let edges = [
            (0, 1, 0),
            (1, 2, 0),
            (0, 1, 1),
            (1, 3, 0),
            (3, 2, 1),
            (1, 2, 1),
            (0, 4, 0),
            (4, 2, 1),
            (3, 2, 0),
            (2, 2, 1),
            (2, 2, 1),
        ];
        let decoded = read_graph(&mut encode(&labels, &edges).as_slice()).unwrap();
        assert_eq!(decoded.edge_count(), 7);
        assert_same_graph(&decoded, &folded(&labels, &edges));
    }

    #[test]
    fn random_multigraph_streams_decode_like_add_edge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..40u32);
            let labels: Vec<u32> = (0..n)
                .map(|i| if i == 0 { 0 } else { rng.gen_range(1..4) })
                .collect();
            // Few nodes and many records: most pairs repeat.
            let edges: Vec<(u32, u32, u8)> = (0..rng.gen_range(0..300))
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                        rng.gen_range(0..2),
                    )
                })
                .collect();
            let decoded = read_graph(&mut encode(&labels, &edges).as_slice()).unwrap();
            assert_same_graph(&decoded, &folded(&labels, &edges));
        }
    }

    #[test]
    fn bad_record_before_truncation_is_reported_first() {
        let mut bytes = encode(&[0, 2, 9], &[]);
        // Declare more nodes than the body holds: node 2's bad label id
        // is reported, not the end of stream.
        let at = bytes.len() - 4 * 3 - 4 - 4;
        bytes[at..at + 4].copy_from_slice(&100u32.to_le_bytes());
        bytes.truncate(bytes.len() - 4);
        assert!(matches!(
            read_graph(&mut bytes.as_slice()),
            Err(ReadError::Corrupt(msg)) if msg.contains("label id 9")
        ));
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let mut g = DataGraph::new();
        g.add_labeled_node("a");
        let mut bytes = Vec::new();
        write_graph(&g, &mut bytes).unwrap();
        // Append a fake edge count region by rebuilding manually is complex;
        // instead corrupt the stored edge count upward.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        assert!(read_graph(&mut bytes.as_slice()).is_err());
    }
}
