//! Parallel, zero-copy ingest.
//!
//! The paper measures the file-read phase separately from construction and
//! algorithm phases precisely because it dominates end-to-end time for
//! several systems (Fig. 4, Table I). The serial [`crate::snap::parse_snap`]
//! walks `reader.lines()`, allocating a `String` per edge on one core; this
//! module replaces it on the hot path with a chunked byte-range scanner:
//!
//! 1. read the whole file into one byte buffer,
//! 2. split the buffer at newline boundaries into per-thread chunks,
//! 3. scan each chunk in one pass (no per-line `String`, no UTF-8
//!    validation on the hot path): a fast path reads the line shape the
//!    writer emits, ids and an exactly rounded weight straight off the
//!    bytes, and hands any other line to a token scanner whose fallback is
//!    `str::parse`,
//! 4. stitch the per-chunk edge vectors with the pool's `exclusive_scan`
//!    into one [`EdgeList`].
//!
//! The writers go the other way on the pool: the binary codec fills
//! fixed-width records in parallel, and the SNAP text writer formats fixed
//! edge blocks in parallel and writes them in order.
//!
//! Error parity: the parallel parser reports the *same* [`ParseError`]
//! (reason string and 1-based physical line number) as the serial parser
//! for any malformed input, including the cross-chunk "mixed weighted and
//! unweighted lines" case — each chunk records its first data line's
//! weightedness and the stitch step replays the serial parser's check
//! order. The fast path never reports an error: a line it cannot take
//! whole, malformed or not, goes to the token scanner, so parity rests on
//! that scanner alone. The serial parser remains an independent
//! implementation so the differential proptests in `tests/proptests.rs`
//! are a real oracle.
//!
//! Known divergence (documented in DESIGN.md §9): on non-UTF-8 *input
//! bytes* the serial parser fails with `ParseError::Io` (from
//! `BufRead::lines`), while this scanner never validates UTF-8 and reports
//! the offending token as a `Malformed` parse error instead. All SNAP
//! files in the wild (and every generator output) are ASCII.

use crate::snap::ParseError;
use crate::{EdgeList, VertexId, Weight};
use epg_parallel::{DisjointWriter, Schedule, ThreadPool};
use std::io::{self, Write};
use std::path::Path;

/// ASCII whitespace as `str::split_whitespace` sees it (the `\n` terminator
/// is consumed by the line splitter before tokenization).
#[inline]
fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// Parses an unsigned decimal token. The fast path handles pure-digit
/// tokens without UTF-8 validation; unusual tokens (signs, overflow-length,
/// empty, junk) fall back to `str::parse` so the error *message* is
/// byte-identical to the serial parser's.
fn parse_u64_token(tok: &[u8]) -> Result<u64, String> {
    if !tok.is_empty() && tok.len() <= 19 && tok.iter().all(|b| b.is_ascii_digit()) {
        let mut x = 0u64;
        for &b in tok {
            x = x * 10 + (b - b'0') as u64;
        }
        return Ok(x);
    }
    match std::str::from_utf8(tok) {
        Ok(s) => s.parse::<u64>().map_err(|e| e.to_string()),
        // Serial hits an Io error before parsing non-UTF-8; see module docs.
        Err(_) => Err("invalid digit found in string".to_string()),
    }
}

/// Parses a float token via `str::parse`: the fallback for any weight the
/// exact fast path in [`fast_line`] declines, so std's grammar and error
/// strings stay the contract.
fn parse_f32_token(tok: &[u8]) -> Result<f32, String> {
    match std::str::from_utf8(tok) {
        Ok(s) => s.parse::<f32>().map_err(|e| e.to_string()),
        Err(_) => Err("invalid float literal".to_string()),
    }
}

/// `10^k` for `k <= 22`: every one is exact in `f64` (`5^22 < 2^53`).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Largest mantissa the fast float path accepts: every integer up to it is
/// exact in `f64`.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// Longest vertex id the fast path reads: nine digits never reach
/// `VertexId::MAX`, so no range check is needed.
const FAST_ID_DIGITS: usize = 9;

/// The digit at `bytes[p]`, if there is one.
#[inline]
fn digit_at(bytes: &[u8], p: usize) -> Option<u8> {
    bytes.get(p).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10)
}

/// A vertex id of 1 to [`FAST_ID_DIGITS`] digits at `p`, and the position
/// past it.
#[inline]
fn fast_id(bytes: &[u8], mut p: usize) -> Option<(VertexId, usize)> {
    let start = p;
    let mut x: VertexId = 0;
    while let Some(d) = digit_at(bytes, p) {
        if p - start == FAST_ID_DIGITS {
            return None;
        }
        x = x * 10 + d as VertexId;
        p += 1;
    }
    (p > start).then_some((x, p))
}

/// Skips a separator of one or more spaces or tabs at `p`.
#[inline]
fn skip_sep(bytes: &[u8], mut p: usize) -> Option<usize> {
    let start = p;
    while matches!(bytes.get(p), Some(b' ' | b'\t')) {
        p += 1;
    }
    (p > start).then_some(p)
}

/// A weight `digits[.digits]` at `p`, parsed exactly by Clinger's method:
/// with a mantissa `m <= 2^53` and `f <= 22` fraction digits, `m` and
/// `10^f` are exact `f64`s, so `q = m / 10^f` is the decimal value rounded
/// once to `f64`, and a nonzero `q` lies in `[1e-22, 2^53]`, inside the
/// normal `f32` range. Rounding `q` on to `f32` gives std's correctly
/// rounded result unless `q` sits exactly on an `f32` midpoint — the only
/// place a second rounding can differ from one — so that case and every
/// other shape decline (`None`) to [`parse_f32_token`].
#[inline]
fn fast_weight(bytes: &[u8], mut p: usize) -> Option<(Weight, usize)> {
    let start = p;
    let mut m = 0u64;
    while let Some(d) = digit_at(bytes, p) {
        m = m * 10 + d as u64;
        p += 1;
        if m > MAX_EXACT_MANTISSA {
            return None;
        }
    }
    if p == start {
        return None;
    }
    let mut frac = 0;
    if bytes.get(p) == Some(&b'.') {
        p += 1;
        let fstart = p;
        while let Some(d) = digit_at(bytes, p) {
            m = m * 10 + d as u64;
            p += 1;
            if m > MAX_EXACT_MANTISSA {
                return None;
            }
        }
        frac = p - fstart;
        if frac == 0 || frac >= POW10.len() {
            return None;
        }
    }
    if m == 0 {
        return Some((0.0, p));
    }
    let q = m as f64 / POW10[frac];
    // The low 29 of the 52 fraction bits are those an `f32` drops; exactly
    // their top bit set is a midpoint between two adjacent `f32`s.
    let midpoint = q.to_bits() & ((1 << 29) - 1) == 1 << 28;
    (!midpoint).then_some((q as Weight, p))
}

/// The one-pass fast path for the line shape [`crate::snap::write_snap`]
/// emits, `digits SEP digits [SEP decimal]` ending at `\n` or the chunk's
/// end (`SEP` is spaces or tabs), starting at `pos`. On success it records
/// the edge and returns the position past the line; any other shape — or a
/// line whose weightedness differs from the chunk's first, which is an
/// error — declines with `None` before recording anything, and the caller
/// hands the line to [`scan_line`].
#[inline]
fn fast_line(bytes: &[u8], pos: usize, out: &mut ChunkOut) -> Option<usize> {
    let (u, p) = fast_id(bytes, pos)?;
    let (v, mut p) = fast_id(bytes, skip_sep(bytes, p)?)?;
    let mut w = None;
    if !matches!(bytes.get(p), None | Some(b'\n')) {
        let (x, q) = fast_weight(bytes, skip_sep(bytes, p)?)?;
        if !matches!(bytes.get(q), None | Some(b'\n')) {
            return None;
        }
        (w, p) = (Some(x), q);
    }
    match out.first_flag {
        None => {
            out.first_flag = Some((out.nlines, w.is_some()));
            if w.is_some() {
                out.weights.reserve(out.edges.capacity());
            }
        }
        Some((_, prev)) if prev != w.is_some() => return None,
        _ => {}
    }
    out.weights.extend(w);
    out.max_id = out.max_id.max(u.max(v) as u64);
    out.edges.push((u, v));
    Some(p + 1)
}

/// What one chunk scan produced. Line numbers are 1-based *within the
/// chunk*; the stitch step turns them global via prefix sums of `nlines`.
#[derive(Default)]
struct ChunkOut {
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<Weight>,
    max_id: u64,
    /// Physical lines in the chunk (blank and comment lines included).
    nlines: usize,
    /// First *data* line in the chunk: (local line, is-weighted). Drives
    /// the cross-chunk mixed-weightedness check.
    first_flag: Option<(usize, bool)>,
    /// First in-chunk parse error; scanning stops producing edges there
    /// but keeps counting lines so later chunks stay globally numbered.
    defect: Option<(usize, String)>,
}

/// Scans one data line (already stripped of its `\n`). Mirrors the serial
/// parser's per-line check order exactly: src → missing/bad dst → too many
/// columns → mixed-weightedness → bad weight → oversized id.
fn scan_line(line: &[u8], lineno: usize, out: &mut ChunkOut) -> Result<(), String> {
    let mut pos = 0;
    let next_tok = |pos: &mut usize| -> Option<(usize, usize)> {
        while *pos < line.len() && is_ws(line[*pos]) {
            *pos += 1;
        }
        let start = *pos;
        while *pos < line.len() && !is_ws(line[*pos]) {
            *pos += 1;
        }
        (*pos > start).then_some((start, *pos))
    };
    let Some((s0, e0)) = next_tok(&mut pos) else {
        return Ok(()); // blank line
    };
    if line[s0] == b'#' {
        return Ok(()); // comment line
    }
    let u = parse_u64_token(&line[s0..e0]).map_err(|e| format!("src: {e}"))?;
    let (s1, e1) = next_tok(&mut pos).ok_or_else(|| "missing dst".to_string())?;
    let v = parse_u64_token(&line[s1..e1]).map_err(|e| format!("dst: {e}"))?;
    let wtok = next_tok(&mut pos);
    if next_tok(&mut pos).is_some() {
        return Err("too many columns".into());
    }
    let weighted = wtok.is_some();
    match out.first_flag {
        None => out.first_flag = Some((lineno, weighted)),
        Some((_, prev)) if prev != weighted => {
            return Err("mixed weighted and unweighted lines".into());
        }
        _ => {}
    }
    if let Some((sw, ew)) = wtok {
        let w = parse_f32_token(&line[sw..ew]).map_err(|e| format!("weight: {e}"))?;
        out.weights.push(w);
    }
    if u > VertexId::MAX as u64 - 1 || v > VertexId::MAX as u64 - 1 {
        return Err("vertex id too large".into());
    }
    out.max_id = out.max_id.max(u).max(v);
    out.edges.push((u as VertexId, v as VertexId));
    Ok(())
}

/// Scans one byte chunk in one pass: each line tries [`fast_line`] first,
/// and only a declined line is delimited and given to [`scan_line`]. After a
/// defect the scanner stops parsing but still counts the chunk's lines, so
/// every chunk reports its true physical line span.
fn scan_chunk(bytes: &[u8]) -> ChunkOut {
    let mut out = ChunkOut::default();
    // One edge per 12 bytes is an unweighted line of two five-digit ids;
    // longer lines over-reserve capacity that is never written, so never
    // resident, and shorter ones regrow.
    out.edges.reserve(bytes.len() / 12);
    let mut pos = 0;
    while pos < bytes.len() {
        out.nlines += 1;
        if let Some(next) = fast_line(bytes, pos, &mut out) {
            pos = next;
            continue;
        }
        let end = bytes[pos..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |k| pos + k);
        if let Err(reason) = scan_line(&bytes[pos..end], out.nlines, &mut out) {
            out.defect = Some((out.nlines, reason));
            // The lines after this one: one per newline, plus an
            // unterminated last line.
            let rest = bytes.get(end + 1..).unwrap_or_default();
            out.nlines += rest.iter().filter(|&&b| b == b'\n').count();
            out.nlines += usize::from(rest.last().is_some_and(|&b| b != b'\n'));
            return out;
        }
        pos = end + 1;
    }
    out
}

/// Chunk boundaries: `nchunks + 1` monotone byte offsets, each interior one
/// landing just past a newline so every chunk starts at a line head.
fn chunk_bounds(bytes: &[u8], nchunks: usize) -> Vec<usize> {
    let len = bytes.len();
    let mut bounds = Vec::with_capacity(nchunks + 1);
    bounds.push(0);
    for c in 1..nchunks {
        let target = c * len / nchunks;
        let mut pos = target.max(*bounds.last().unwrap());
        while pos < len && bytes[pos] != b'\n' {
            pos += 1;
        }
        pos = (pos + 1).min(len);
        if pos > *bounds.last().unwrap() && pos < len {
            bounds.push(pos);
        }
    }
    bounds.push(len);
    bounds
}

/// Parses SNAP text from a byte buffer using `nchunks` newline-aligned
/// chunks scanned in parallel. Exposed (rather than private) so the
/// differential proptests can force awkward chunk counts; use
/// [`parse_snap_parallel`] for a sensible default.
pub fn parse_snap_chunked(
    bytes: &[u8],
    pool: &ThreadPool,
    nchunks: usize,
) -> Result<EdgeList, ParseError> {
    let bounds = chunk_bounds(bytes, nchunks.max(1));
    let nchunks = bounds.len() - 1;
    let mut chunks: Vec<ChunkOut> = (0..nchunks).map(|_| ChunkOut::default()).collect();
    {
        let w = DisjointWriter::new(&mut chunks);
        pool.parallel_for(nchunks, Schedule::Dynamic { chunk: 1 }, |c| {
            let out = scan_chunk(&bytes[bounds[c]..bounds[c + 1]]);
            // SAFETY: each chunk index is handed to exactly one worker.
            unsafe { w.write(c, out) };
        });
    }

    // Error attribution, replaying the serial parser's order. Candidates of
    // chunk `c` all lie inside chunk `c`'s line span, so the first chunk
    // with any candidate owns the globally-first error. Within a chunk the
    // cross-chunk mixed-flag candidate sits at the first data line, which
    // is never later than the chunk's own defect; on a tie the mixed error
    // wins because the serial parser checks weightedness before parsing the
    // weight or range-checking ids on the same line.
    let mut line_offset = 0usize;
    let mut saw_weighted: Option<bool> = None;
    for ch in &chunks {
        let defect = ch.defect.as_ref().map(|(l, r)| (line_offset + l, r.clone()));
        let mixed = match (saw_weighted, ch.first_flag) {
            (Some(prev), Some((fl, w))) if w != prev => Some(line_offset + fl),
            _ => None,
        };
        if let Some(ml) = mixed {
            if defect.as_ref().is_none_or(|&(dl, _)| ml <= dl) {
                return Err(ParseError::Malformed {
                    line: ml,
                    reason: "mixed weighted and unweighted lines".into(),
                });
            }
        }
        if let Some((dl, reason)) = defect {
            return Err(ParseError::Malformed { line: dl, reason });
        }
        if saw_weighted.is_none() {
            saw_weighted = ch.first_flag.map(|(_, w)| w);
        }
        line_offset += ch.nlines;
    }

    // Stitch: exclusive scan over per-chunk edge counts gives each chunk
    // its destination offset; chunks then copy themselves in parallel.
    let mut counts: Vec<u64> = chunks.iter().map(|c| c.edges.len() as u64).collect();
    let total = pool.exclusive_scan(&mut counts) as usize;
    let weighted = saw_weighted == Some(true);
    let max_id = chunks.iter().map(|c| c.max_id).max().unwrap_or(0);
    let mut edges = vec![(0 as VertexId, 0 as VertexId); total];
    let mut weights = weighted.then(|| vec![0.0 as Weight; total]);
    {
        let ew = DisjointWriter::new(&mut edges);
        let ww = weights.as_mut().map(|w| DisjointWriter::new(w.as_mut_slice()));
        pool.parallel_for(chunks.len(), Schedule::Dynamic { chunk: 1 }, |c| {
            let base = counts[c] as usize;
            let ch = &chunks[c];
            // SAFETY: destination ranges [base, base+len) are disjoint by
            // construction of the exclusive scan.
            unsafe {
                ew.range_mut(base, base + ch.edges.len()).copy_from_slice(&ch.edges);
                if let Some(ww) = &ww {
                    ww.range_mut(base, base + ch.weights.len()).copy_from_slice(&ch.weights);
                }
            }
        });
    }
    let num_vertices = if edges.is_empty() { 0 } else { max_id as usize + 1 };
    Ok(EdgeList { num_vertices, edges, weights })
}

/// Parses SNAP text from a byte buffer in parallel. Chunk count scales with
/// the pool (oversubscribed 4x for dynamic balance) but chunks stay ≥ 64 KiB
/// so tiny inputs do not pay the fan-out overhead.
pub fn parse_snap_parallel(bytes: &[u8], pool: &ThreadPool) -> Result<EdgeList, ParseError> {
    let nchunks = (bytes.len() / (64 << 10)).clamp(1, pool.num_threads() * 4);
    parse_snap_chunked(bytes, pool, nchunks)
}

/// Reads and parses a SNAP file with the parallel scanner.
pub fn read_snap_file_parallel(path: &Path, pool: &ThreadPool) -> Result<EdgeList, ParseError> {
    let bytes = std::fs::read(path)?;
    parse_snap_parallel(&bytes, pool)
}

/// Edges per block of the parallel SNAP text writer: under a megabyte of
/// text each.
const TEXT_BLOCK_EDGES: usize = 1 << 15;

/// Appends `x` in decimal, as `{x}` formats it.
fn push_decimal(buf: &mut Vec<u8>, mut x: VertexId) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// The SNAP text lines of edges `lo..hi` into `buf`, each as
/// [`crate::snap::write_snap`] formats it (weights through std's `{}`).
fn format_snap_block(el: &EdgeList, lo: usize, hi: usize, buf: &mut Vec<u8>) {
    buf.clear();
    for (i, &(u, v)) in el.edges[lo..hi].iter().enumerate() {
        push_decimal(buf, u);
        buf.push(b'\t');
        push_decimal(buf, v);
        if let Some(ws) = &el.weights {
            // Writing into a `Vec` cannot fail.
            let _ = write!(buf, "\t{}", ws[lo + i]);
        }
        buf.push(b'\n');
    }
}

/// Writes SNAP text byte-identical to [`crate::snap::write_snap`],
/// formatted on the pool: the edges are cut into fixed blocks of
/// [`TEXT_BLOCK_EDGES`], a wave of two blocks per worker is formatted in
/// parallel, and the wave is written in order before the next one starts —
/// so a few blocks are in memory at a time, never the whole file.
fn write_snap_parallel<W: Write>(
    el: &EdgeList,
    name: &str,
    mut out: W,
    pool: &ThreadPool,
) -> io::Result<()> {
    let m = el.num_edges();
    let header = format!("# {name}\n# Nodes: {} Edges: {m}\n", el.num_vertices);
    out.write_all(header.as_bytes())?;
    let nblocks = m.div_ceil(TEXT_BLOCK_EDGES);
    let wave = (2 * pool.num_threads()).min(nblocks).max(1);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); wave];
    for first in (0..nblocks).step_by(wave) {
        let k = wave.min(nblocks - first);
        {
            let bw = DisjointWriter::new(&mut bufs[..k]);
            pool.parallel_for(k, Schedule::Dynamic { chunk: 1 }, |j| {
                let lo = (first + j) * TEXT_BLOCK_EDGES;
                // SAFETY: each block of the wave is handed to one worker.
                let slot = unsafe { bw.get_raw(j) };
                // Format into a local: the neighbouring buffers' headers
                // share a cache line with this one's length.
                let mut buf = std::mem::take(slot);
                format_snap_block(el, lo, (lo + TEXT_BLOCK_EDGES).min(m), &mut buf);
                *slot = buf;
            });
        }
        for buf in &bufs[..k] {
            out.write_all(buf)?;
        }
    }
    out.flush()
}

/// Writes a SNAP text file with `write_snap_parallel`.
pub fn write_snap_file_parallel(
    el: &EdgeList,
    name: &str,
    path: &Path,
    pool: &ThreadPool,
) -> io::Result<()> {
    write_snap_parallel(el, name, std::fs::File::create(path)?, pool)
}

const BIN_HEADER: usize = 8 + 8 + 8 + 1; // magic, nvertices, nedges, weighted

/// Encodes the homogenizer's binary format into one buffer, records filled
/// in parallel (fixed record stride makes every byte offset computable).
/// Byte-identical to [`crate::snap::write_binary`] output.
pub fn encode_binary_parallel(el: &EdgeList, pool: &ThreadPool) -> Vec<u8> {
    let m = el.num_edges();
    let rec = if el.is_weighted() { 12 } else { 8 };
    let mut buf = vec![0u8; BIN_HEADER + m * rec];
    buf[0..8].copy_from_slice(crate::snap::BIN_MAGIC);
    buf[8..16].copy_from_slice(&(el.num_vertices as u64).to_le_bytes());
    buf[16..24].copy_from_slice(&(m as u64).to_le_bytes());
    buf[24] = el.is_weighted() as u8;
    {
        let w = DisjointWriter::new(&mut buf[BIN_HEADER..]);
        pool.parallel_for_ranges(m, Schedule::Static { chunk: None }, |_t, lo, hi| {
            // SAFETY: record ranges map 1:1 to disjoint byte ranges.
            let dst = unsafe { w.range_mut(lo * rec, hi * rec) };
            for (k, i) in (lo..hi).enumerate() {
                let (u, v) = el.edges[i];
                let d = &mut dst[k * rec..(k + 1) * rec];
                d[0..4].copy_from_slice(&u.to_le_bytes());
                d[4..8].copy_from_slice(&v.to_le_bytes());
                if rec == 12 {
                    d[8..12].copy_from_slice(&el.weight(i).to_le_bytes());
                }
            }
        });
    }
    buf
}

/// Writes the binary format with parallel encoding and a single write.
pub fn write_binary_file_parallel(el: &EdgeList, path: &Path, pool: &ThreadPool) -> io::Result<()> {
    std::fs::write(path, encode_binary_parallel(el, pool))
}

/// Decodes the binary format from a byte buffer, records in parallel.
/// Same header checks and error classes as [`crate::snap::read_binary`]
/// (trailing bytes past the last record are ignored, as the serial reader
/// never reads them).
pub fn decode_binary_parallel(bytes: &[u8], pool: &ThreadPool) -> Result<EdgeList, ParseError> {
    let eof =
        || ParseError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated binary graph"));
    if bytes.len() < BIN_HEADER {
        return Err(eof());
    }
    if &bytes[0..8] != crate::snap::BIN_MAGIC {
        return Err(ParseError::Malformed { line: 0, reason: "bad magic".into() });
    }
    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let m = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let weighted = bytes[24] != 0;
    let rec = if weighted { 12 } else { 8 };
    let body = &bytes[BIN_HEADER..];
    if m.checked_mul(rec).is_none_or(|need| body.len() < need) {
        return Err(eof());
    }
    let mut edges = vec![(0 as VertexId, 0 as VertexId); m];
    let mut weights = weighted.then(|| vec![0.0 as Weight; m]);
    {
        let ew = DisjointWriter::new(&mut edges);
        let ww = weights.as_mut().map(|w| DisjointWriter::new(w.as_mut_slice()));
        pool.parallel_for_ranges(m, Schedule::Static { chunk: None }, |_t, lo, hi| {
            // SAFETY: ranges handed out by parallel_for_ranges are disjoint.
            unsafe {
                let es = ew.range_mut(lo, hi);
                for (k, i) in (lo..hi).enumerate() {
                    let r = &body[i * rec..];
                    es[k] = (
                        VertexId::from_le_bytes(r[0..4].try_into().unwrap()),
                        VertexId::from_le_bytes(r[4..8].try_into().unwrap()),
                    );
                }
                if let Some(ww) = &ww {
                    let ws = ww.range_mut(lo, hi);
                    for (k, i) in (lo..hi).enumerate() {
                        let r = &body[i * rec..];
                        ws[k] = Weight::from_le_bytes(r[8..12].try_into().unwrap());
                    }
                }
            }
        });
    }
    Ok(EdgeList { num_vertices: n, edges, weights })
}

/// Reads a binary graph file with the parallel decoder.
pub fn read_binary_file_parallel(path: &Path, pool: &ThreadPool) -> Result<EdgeList, ParseError> {
    let bytes = std::fs::read(path)?;
    decode_binary_parallel(&bytes, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{parse_snap, write_binary};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// Both parsers must agree on result or on (line, reason).
    fn assert_parity(text: &str, nchunks: usize) {
        let serial = parse_snap(text.as_bytes());
        let par = parse_snap_chunked(text.as_bytes(), &pool(), nchunks);
        match (serial, par) {
            (Ok(a), Ok(b)) => {
                let mut sa: Vec<_> = a
                    .edges
                    .iter()
                    .enumerate()
                    .map(|(i, &(u, v))| (u, v, a.weights.as_ref().map(|w| w[i].to_bits())))
                    .collect();
                let mut sb: Vec<_> = b
                    .edges
                    .iter()
                    .enumerate()
                    .map(|(i, &(u, v))| (u, v, b.weights.as_ref().map(|w| w[i].to_bits())))
                    .collect();
                sa.sort_unstable();
                sb.sort_unstable();
                assert_eq!(sa, sb, "edge multisets differ (nchunks={nchunks})\n{text:?}");
                assert_eq!(a.num_vertices, b.num_vertices);
            }
            (
                Err(ParseError::Malformed { line: la, reason: ra }),
                Err(ParseError::Malformed { line: lb, reason: rb }),
            ) => {
                assert_eq!((la, &ra), (lb, &rb), "errors differ (nchunks={nchunks})\n{text:?}");
            }
            (s, p) => panic!("outcome mismatch (nchunks={nchunks}) {text:?}: {s:?} vs {p:?}"),
        }
    }

    #[test]
    fn parity_on_clean_and_malformed_inputs() {
        let cases = [
            "0 1\n1 2\n2 0\n",
            "# header\n\n0 1\n\n# mid\n1 2\n",
            "0 1 0.5\n1 2 1.25\n",
            "0\t1\n 1  2 \n",
            "5 9\n",
            "",
            "# only comments\n\n",
            "0 1\n1 2 0.5\n",                 // mixed at line 2
            "0 1 1.0\n1 2\n",                 // mixed at line 2 (other order)
            "0 1\nx 2\n",                     // src error line 2
            "0 1\n2\n",                       // missing dst
            "0 1\n2 y\n",                     // dst error
            "0 1 2 3\n",                      // too many columns
            "0 1 zz\n", // weight error — but unweighted flag set first? no: first line
            "1 2 0.5\n3 4 xx\n", // weight error line 2
            "# c\n\n0 1\n\n\n9999999999 1\n", // id too large after blanks
            "0 1\r\n1 2\r\n", // CRLF
            "4294967295 0\n", // VertexId::MAX rejected
            "18446744073709551616 0\n", // u64 overflow
            "+3 4\n",   // sign accepted by std parse
            "0 1\n# c\n1 2 0.5\n", // mixed after comment: line 3
            // The fast path's edges, on either side:
            "0 1 \n",         // trailing separator: declined
            "0  \t 1\n",      // separator run: taken
            "1234567890 1\n", // ten-digit id: declined (nine are taken)
            "123456789 1\n",
            "0 1 0.5 \n",    // trailing separator after a weight: declined
            "0 1 0.5x\n",    // junk glued to a weight: declined
            "01 002 0.50\n", // leading zeros: taken
            "0 1 0.5",       // no final newline: taken
        ];
        for text in cases {
            for nchunks in [1, 2, 3, 5, 8] {
                assert_parity(text, nchunks);
            }
        }
    }

    /// Weight tokens at the edges of the fast path's grammar and range:
    /// every one parses to std's bits through both parsers, and the
    /// fast path takes exactly the ones it should.
    #[test]
    fn weight_tokens_parse_to_std_bits() {
        let mantissa25 = "1234567890123456789012345";
        let cases = [
            ("0.1", true),
            ("0.5", true),
            ("1", true),
            ("0.0", true),
            ("0.47623932", true),
            ("9007199254740992", true), // 2^53: the largest mantissa taken
            ("9007199254740993", false),
            ("0.0000000000000000000125", true), // 22 fraction digits
            ("0.00000000000000000001255", false),
            ("0.123456789012345678", false), // mantissa above 2^53
            (".5", false),
            ("5.", false),
            ("1e-45", false),
            ("1.17549435e-38", false),
            ("0.0000000000000000000001", true), // 1e-22: normal, 22 digits
            ("3.4028235e38", false),
            ("340282350000000000000000000000000000000", false),
            ("1E3", false),
            ("-0.0", false),
            ("+1", false),
            ("inf", false),
            ("NaN", false),
            (mantissa25, false),
            ("16777217", false), // an f32 midpoint: ties to even
            ("16777216", true),
        ];
        for (tok, fast) in cases {
            let want: f32 = tok.parse().unwrap();
            // A prefix read (`1` of `1e-45`) is a decline: the line's end
            // check follows.
            let got = fast_weight(tok.as_bytes(), 0).filter(|&(_, end)| end == tok.len());
            assert_eq!(got.is_some(), fast, "{tok}: fast path taken = {}", got.is_some());
            if let Some((w, _)) = got {
                assert_eq!(w.to_bits(), want.to_bits(), "{tok}");
            }
            let text = format!("0 1 {tok}\n2\t3\t{tok}\n");
            for nchunks in [1, 2] {
                let el = parse_snap_chunked(text.as_bytes(), &pool(), nchunks).unwrap();
                let bits: Vec<u32> = el.weights.unwrap().iter().map(|w| w.to_bits()).collect();
                assert_eq!(bits, [want.to_bits(); 2], "{tok} (nchunks={nchunks})");
                assert_parity(&text, nchunks);
            }
        }
    }

    #[test]
    fn f32_midpoint_declines_to_std_ties_to_even() {
        // 2^24 + 1 lies halfway between the f32s 2^24 and 2^24 + 2: its
        // f64 quotient is the midpoint itself, so the fast path must
        // decline, and std rounds to the even neighbour.
        assert_eq!(fast_weight(b"16777217", 0), None);
        assert_eq!(fast_weight(b"16777217.0", 0), None);
        let el = parse_snap_chunked(b"0 1 16777217\n", &pool(), 1).unwrap();
        assert_eq!(el.weights.unwrap()[0].to_bits(), 16_777_216f32.to_bits());
        // Off the midpoint the fast path keeps the value.
        assert_eq!(fast_weight(b"16777218", 0), Some((16_777_218.0, 8)));
    }

    #[test]
    fn cross_chunk_mixed_error_cites_first_mismatched_line() {
        // Force the weighted run into its own chunk: the error must cite
        // the first weighted line globally, not the chunk-local index.
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("{} {}\n", i, i + 1));
        }
        for i in 0..40 {
            text.push_str(&format!("{} {} 0.5\n", i, i + 1));
        }
        for nchunks in [2, 3, 4, 7] {
            assert_parity(&text, nchunks);
        }
        let err = parse_snap_chunked(text.as_bytes(), &pool(), 4).unwrap_err();
        match err {
            ParseError::Malformed { line, reason } => {
                assert_eq!(line, 41);
                assert_eq!(reason, "mixed weighted and unweighted lines");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn earliest_error_wins_across_chunks() {
        let mut text = String::new();
        for i in 0..30 {
            text.push_str(&format!("{} {}\n", i, i + 1));
        }
        text.insert_str(0, "0 bad\n"); // line 1 defect
        text.push_str("also bad\n"); // late defect
        for nchunks in [1, 2, 5] {
            assert_parity(&text, nchunks);
        }
    }

    #[test]
    fn chunk_bounds_are_newline_aligned_and_cover() {
        let text = b"aa\nbbbb\nc\n\ndddd\ne";
        for nchunks in 1..8 {
            let b = chunk_bounds(text, nchunks);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), text.len());
            assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
            for &cut in &b[1..b.len() - 1] {
                assert_eq!(text[cut - 1], b'\n', "cut {cut} not after newline");
            }
        }
    }

    #[test]
    fn text_writer_matches_serial_bytes_and_round_trips() {
        // Past two waves of blocks at every thread count, plus a ragged
        // tail; ten-digit ids and every finite f32 class take the line
        // parser's path on the way back.
        let m = 5 * TEXT_BLOCK_EDGES + 123;
        let edges: Vec<_> =
            (0..m as u32).map(|i| (i % 1000, i.wrapping_mul(2654435761) >> 1)).collect();
        let weights = (0..m as u32).map(|i| f32::from_bits(i.wrapping_mul(7919) % 0xff00_0000));
        let n = 1 + edges.iter().map(|&(u, v)| u.max(v) as usize).max().unwrap();
        for el in [
            EdgeList::weighted(n, edges.clone(), weights.filter(|w| w.is_finite()).collect()),
            EdgeList::new(n + 5, edges),
            EdgeList::new(0, vec![]),
            EdgeList::new(7, vec![]),
            EdgeList::weighted(3, vec![(2, 0)], vec![-0.0]),
        ] {
            let mut serial = Vec::new();
            crate::snap::write_snap(&el, "g", &mut serial).unwrap();
            for threads in [1, 2, 4] {
                let mut par = Vec::new();
                write_snap_parallel(&el, "g", &mut par, &ThreadPool::new(threads)).unwrap();
                assert!(par == serial, "{threads} threads, {} edges", el.num_edges());
            }
            // Text carries no vertex count: readers size the graph by id.
            let max_id = el.edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max();
            let fields = |g: &EdgeList| {
                let bits: Option<Vec<u32>> =
                    g.weights.as_ref().map(|w| w.iter().map(|w| w.to_bits()).collect());
                (g.num_vertices, g.edges.clone(), bits)
            };
            let want = (max_id.unwrap_or(0), el.edges.clone(), fields(&el).2);
            assert!(fields(&parse_snap(serial.as_slice()).unwrap()) == want);
            assert!(fields(&parse_snap_parallel(&serial, &pool()).unwrap()) == want);
        }
    }

    #[test]
    fn binary_encode_matches_serial_bytes() {
        let p = pool();
        for el in [
            EdgeList::new(3, vec![(0, 1), (1, 2)]),
            EdgeList::weighted(5, vec![(0, 4), (3, 1), (2, 2)], vec![0.5, -1.0, 8.25]),
            EdgeList::new(0, vec![]),
        ] {
            let mut serial = Vec::new();
            write_binary(&el, &mut serial).unwrap();
            assert_eq!(encode_binary_parallel(&el, &p), serial);
        }
    }

    #[test]
    fn binary_decode_roundtrip_and_errors() {
        let p = pool();
        let el = EdgeList::weighted(6, vec![(0, 5), (4, 1)], vec![2.0, 3.5]);
        let buf = encode_binary_parallel(&el, &p);
        assert_eq!(decode_binary_parallel(&buf, &p).unwrap(), el);
        assert!(matches!(
            decode_binary_parallel(b"NOTMAGIC\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0", &p),
            Err(ParseError::Malformed { .. })
        ));
        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - 3);
        assert!(matches!(decode_binary_parallel(&truncated, &p), Err(ParseError::Io(_))));
        assert!(matches!(decode_binary_parallel(&buf[..10], &p), Err(ParseError::Io(_))));
    }

    #[test]
    fn file_roundtrip_parallel() {
        let p = pool();
        let dir = std::env::temp_dir().join("epg-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.bin");
        let el = EdgeList::new(100, (0..500u32).map(|i| (i % 100, (i * 13 + 1) % 100)).collect());
        write_binary_file_parallel(&el, &path, &p).unwrap();
        assert_eq!(read_binary_file_parallel(&path, &p).unwrap(), el);
        std::fs::remove_file(&path).ok();
    }
}
