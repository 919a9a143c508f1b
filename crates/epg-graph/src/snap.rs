//! SNAP text format and the homogenizer's binary format.
//!
//! The paper standardizes on the Stanford Network Analysis Project format:
//! one edge per line, vertices separated by whitespace, lines beginning with
//! `#` are comments (§III-B, footnote 4). An optional third column is the
//! edge weight. The dataset homogenizer also writes a compact binary format
//! (one per engine preference) "to speed up file I/O whenever possible by
//! using the library designer's serialized data structure file formats".
//! Like GAP's `.sg` header, whose `directed` flag tells the reader how to
//! build, the binary header declares whether the list is its own transpose
//! ([`EdgeList::own_transpose`]), so a reader takes the graph's shape from
//! the file instead of scanning for it; SNAP text declares nothing.

use crate::{EdgeList, VertexId, Weight};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors arising while parsing graph files.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A data line was malformed; carries the 1-based line number and reason.
    Malformed {
        /// 1-based line number of the offending line (0 for headers).
        line: usize,
        /// Human-readable cause.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "malformed SNAP line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses SNAP text from any reader. Vertex ids may be sparse; they are kept
/// as-is and `num_vertices` is `max_id + 1`. Weighted and unweighted lines
/// must not be mixed.
pub fn parse_snap<R: Read>(reader: R) -> Result<EdgeList, ParseError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut weights: Vec<Weight> = Vec::new();
    let mut saw_weighted = None::<bool>;
    let mut max_id: u64 = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u: u64 = it
            .next()
            .unwrap()
            .parse()
            .map_err(|e| ParseError::Malformed { line: lineno, reason: format!("src: {e}") })?;
        let v: u64 = it
            .next()
            .ok_or_else(|| ParseError::Malformed { line: lineno, reason: "missing dst".into() })?
            .parse()
            .map_err(|e| ParseError::Malformed { line: lineno, reason: format!("dst: {e}") })?;
        let w = it.next();
        if it.next().is_some() {
            return Err(ParseError::Malformed { line: lineno, reason: "too many columns".into() });
        }
        let weighted = w.is_some();
        match saw_weighted {
            None => saw_weighted = Some(weighted),
            Some(prev) if prev != weighted => {
                return Err(ParseError::Malformed {
                    line: lineno,
                    reason: "mixed weighted and unweighted lines".into(),
                })
            }
            _ => {}
        }
        if let Some(w) = w {
            let w: Weight = w.parse().map_err(|e| ParseError::Malformed {
                line: lineno,
                reason: format!("weight: {e}"),
            })?;
            weights.push(w);
        }
        if u > VertexId::MAX as u64 - 1 || v > VertexId::MAX as u64 - 1 {
            return Err(ParseError::Malformed {
                line: lineno,
                reason: "vertex id too large".into(),
            });
        }
        max_id = max_id.max(u).max(v);
        edges.push((u as VertexId, v as VertexId));
    }
    let num_vertices = if edges.is_empty() { 0 } else { max_id as usize + 1 };
    Ok(EdgeList {
        num_vertices,
        edges,
        weights: if saw_weighted == Some(true) { Some(weights) } else { None },
        own_transpose: false,
    })
}

/// Parses a SNAP file from disk.
pub fn read_snap_file(path: &Path) -> Result<EdgeList, ParseError> {
    parse_snap(std::fs::File::open(path)?)
}

/// Serializes an edge list to SNAP text, with a comment header like the
/// SNAP repository files carry.
pub fn write_snap<W: Write>(el: &EdgeList, name: &str, out: W) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    writeln!(out, "# {name}")?;
    writeln!(out, "# Nodes: {} Edges: {}", el.num_vertices, el.num_edges())?;
    let mut buf = String::new();
    for (u, v, w) in el.iter() {
        buf.clear();
        if el.is_weighted() {
            let _ = writeln!(buf, "{u}\t{v}\t{w}");
        } else {
            let _ = writeln!(buf, "{u}\t{v}");
        }
        out.write_all(buf.as_bytes())?;
    }
    out.flush()
}

/// Writes a SNAP file to disk.
pub fn write_snap_file(el: &EdgeList, name: &str, path: &Path) -> io::Result<()> {
    write_snap(el, name, std::fs::File::create(path)?)
}

/// The binary format's magic. `EPGBIN01` files predate the flag byte's
/// [`EdgeList::own_transpose`] bit and are refused, not misread.
pub(crate) const BIN_MAGIC: &[u8; 8] = b"EPGBIN02";

/// Flag byte bit 0: the records carry weights.
const FLAG_WEIGHTED: u8 = 1;
/// Flag byte bit 1: the list is declared [`EdgeList::own_transpose`].
const FLAG_OWN_TRANSPOSE: u8 = 2;

/// The header's flag byte for `el`.
pub(crate) fn bin_flags(el: &EdgeList) -> u8 {
    (el.is_weighted() as u8 * FLAG_WEIGHTED) | (el.own_transpose as u8 * FLAG_OWN_TRANSPOSE)
}

/// Refuses any magic but [`BIN_MAGIC`] as `Malformed`.
pub(crate) fn check_bin_magic(magic: &[u8]) -> Result<(), ParseError> {
    if magic == BIN_MAGIC {
        return Ok(());
    }
    let reason = match magic {
        b"EPGBIN01" => "EPGBIN01 predates the own-transpose flag; write the file again",
        _ => "bad magic",
    };
    Err(ParseError::Malformed { line: 0, reason: reason.into() })
}

/// `(weighted, own_transpose)` of a header's flag byte; a byte with any
/// other bit set is `Malformed`.
pub(crate) fn read_bin_flags(flags: u8) -> Result<(bool, bool), ParseError> {
    if flags & !(FLAG_WEIGHTED | FLAG_OWN_TRANSPOSE) != 0 {
        let reason = format!("unknown flag bits {flags:#04x}");
        return Err(ParseError::Malformed { line: 0, reason });
    }
    Ok((flags & FLAG_WEIGHTED != 0, flags & FLAG_OWN_TRANSPOSE != 0))
}

/// Writes the homogenizer's compact binary format: the magic `EPGBIN02`,
/// vertex count and edge count (`u64`), one flag byte (bit 0 weighted, bit 1
/// [`EdgeList::own_transpose`], every other bit zero), then little-endian
/// `(u32, u32[, f32])` records.
pub fn write_binary<W: Write>(el: &EdgeList, out: W) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    out.write_all(BIN_MAGIC)?;
    out.write_all(&(el.num_vertices as u64).to_le_bytes())?;
    out.write_all(&(el.num_edges() as u64).to_le_bytes())?;
    out.write_all(&[bin_flags(el)])?;
    for (i, &(u, v)) in el.edges.iter().enumerate() {
        out.write_all(&u.to_le_bytes())?;
        out.write_all(&v.to_le_bytes())?;
        if el.is_weighted() {
            out.write_all(&el.weight(i).to_le_bytes())?;
        }
    }
    out.flush()
}

/// Reads the binary format written by [`write_binary`], declaration
/// included.
pub fn read_binary<R: Read>(reader: R) -> Result<EdgeList, ParseError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    check_bin_magic(&magic)?;
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n = u64::from_le_bytes(buf8) as usize;
    r.read_exact(&mut buf8)?;
    let m = u64::from_le_bytes(buf8) as usize;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let (weighted, own_transpose) = read_bin_flags(flag[0])?;
    let mut edges = Vec::with_capacity(m);
    let mut weights = weighted.then(|| Vec::with_capacity(m));
    let mut buf4 = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut buf4)?;
        let u = VertexId::from_le_bytes(buf4);
        r.read_exact(&mut buf4)?;
        let v = VertexId::from_le_bytes(buf4);
        edges.push((u, v));
        if let Some(ws) = weights.as_mut() {
            r.read_exact(&mut buf4)?;
            ws.push(Weight::from_le_bytes(buf4));
        }
    }
    Ok(EdgeList { num_vertices: n, edges, weights, own_transpose })
}

/// Reads a binary graph file from disk.
pub fn read_binary_file(path: &Path) -> Result<EdgeList, ParseError> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_comments_and_blank_lines() {
        let text = "# SNAP sample\n\n0 1\n1 2\n# trailing comment\n2 0\n";
        let el = parse_snap(text.as_bytes()).unwrap();
        assert_eq!(el.num_vertices, 3);
        assert_eq!(el.edges, vec![(0, 1), (1, 2), (2, 0)]);
        assert!(!el.is_weighted());
    }

    #[test]
    fn parse_weighted() {
        let text = "0 1 0.5\n1 2 1.25\n";
        let el = parse_snap(text.as_bytes()).unwrap();
        assert_eq!(el.weights, Some(vec![0.5, 1.25]));
    }

    #[test]
    fn parse_tabs_and_spaces() {
        let text = "0\t1\n 1  2 \n";
        let el = parse_snap(text.as_bytes()).unwrap();
        assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn sparse_ids_widen_vertex_count() {
        let el = parse_snap("5 9\n".as_bytes()).unwrap();
        assert_eq!(el.num_vertices, 10);
        assert_eq!(el.num_edges(), 1);
    }

    #[test]
    fn mixed_weighting_rejected() {
        let err = parse_snap("0 1\n1 2 0.5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 2, .. }));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_snap("0\n".as_bytes()).is_err());
        assert!(parse_snap("a b\n".as_bytes()).is_err());
        assert!(parse_snap("0 1 2 3\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let el = parse_snap("# nothing here\n".as_bytes()).unwrap();
        assert_eq!(el.num_vertices, 0);
        assert_eq!(el.num_edges(), 0);
    }

    #[test]
    fn snap_text_roundtrip() {
        let el = EdgeList::weighted(4, vec![(0, 3), (2, 1)], vec![0.25, 8.0]);
        let mut buf = Vec::new();
        write_snap(&el, "test", &mut buf).unwrap();
        let back = parse_snap(buf.as_slice()).unwrap();
        assert_eq!(back.edges, el.edges);
        assert_eq!(back.weights, el.weights);
    }

    #[test]
    fn binary_roundtrip_weighted_and_not() {
        for el in [
            EdgeList::new(3, vec![(0, 1), (1, 2)]),
            EdgeList::weighted(3, vec![(0, 1), (1, 2)], vec![1.5, -2.0]),
        ] {
            let mut buf = Vec::new();
            write_binary(&el, &mut buf).unwrap();
            let back = read_binary(buf.as_slice()).unwrap();
            assert_eq!(back, el);
        }
    }

    #[test]
    fn binary_bad_magic_rejected() {
        let err = read_binary(&b"NOTMAGIC\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { .. }));
    }

    #[test]
    fn binary_truncated_rejected() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(buf.as_slice()).is_err());
    }
}
