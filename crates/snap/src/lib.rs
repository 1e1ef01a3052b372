//! # rfd-snap — the snapshot container codec
//!
//! A tiny, dependency-free binary format for crash-safe simulation
//! snapshots. The container is deliberately dumb: it knows nothing
//! about BGP or the simulator, only about framing, fingerprints and
//! integrity:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"RFDSNAP1"
//! 8       4     format version (LE u32)
//! 12      8     config fingerprint (LE u64) — restore identity
//! 20      8     payload length (LE u64)
//! 28      n     payload (opaque to this crate)
//! 28+n    8     FNV-1a over bytes [0, 28+n) (LE u64)
//! ```
//!
//! Writers go through [`write_atomic`]: the file is assembled in a
//! sibling temp file and moved into place with an atomic rename, so a
//! process killed mid-write can never leave a half snapshot under the
//! final name. Readers ([`read_file`]) refuse anything whose magic,
//! version, length or trailing hash does not check out — a truncated
//! or bit-flipped file is an error, never a wrong payload.
//!
//! The payload itself is built with [`Encoder`] and walked with
//! [`Decoder`]: fixed-width little-endian integers, length-prefixed
//! byte strings, and nothing platform-dependent.
//!
//! As the one crate everything hashing depends on, it also holds the
//! workspace's two program-internal hash functions: byte-wise
//! [`fnv1a`] and the seedless [`MixHasher`] behind [`MixMap`]/[`MixSet`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The 8-byte container magic.
pub const MAGIC: [u8; 8] = *b"RFDSNAP1";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 5;

/// Size of everything before the payload.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `state`: the result of
/// an earlier [`fnv1a`] or `fnv1a_continue` call. This pair is the
/// workspace's only byte-wise FNV-1a; seeds, fingerprints, shard
/// assignment and firehose routing all hash through it.
#[inline]
pub fn fnv1a_continue(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a hash of a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Multiply-mix hasher for the hot paths' point-lookup maps (the path
/// table's cell index, the DES's delivery clamps and down-link set, a
/// firehose shard's key index). Their keys are small integers the
/// program made itself (node ids, path ids, packed peer/prefix
/// pairs), so SipHash's resistance to crafted keys buys
/// nothing and costs more than the lookup. No per-process seed;
/// a map under it that is iterated for output must still be sorted.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixHasher(u64);

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    /// The multiply leaves the entropy in the high bits; the table
    /// indexes with the low ones, so fold the halves together.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` under [`MixHasher`].
pub type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;
/// A `HashSet` under [`MixHasher`].
pub type MixSet<K> = HashSet<K, BuildHasherDefault<MixHasher>>;

/// A streaming fingerprint builder: feed it values, take the hash.
/// Used for config/topology fingerprints so every caller hashes fields
/// the same way.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// A fresh fingerprint at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Mixes raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0 = fnv1a_continue(self.0, bytes);
        self
    }

    /// Mixes a u64 in (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a string in, length-prefixed so `("ab","c")` and
    /// `("a","bc")` differ.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Why a snapshot could not be read or written.
#[derive(Debug)]
pub enum SnapError {
    /// Underlying filesystem error.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file is too short to be a snapshot (truncated write or not a
    /// snapshot at all).
    Truncated {
        /// The file involved.
        path: PathBuf,
        /// Bytes actually present.
        len: usize,
        /// Bytes the header + trailer require.
        need: usize,
    },
    /// The magic bytes do not match.
    BadMagic {
        /// The file involved.
        path: PathBuf,
    },
    /// The format version is not one this build reads.
    BadVersion {
        /// The file involved.
        path: PathBuf,
        /// Version found in the file.
        found: u32,
    },
    /// The trailing content hash does not match the bytes (bit flip,
    /// torn write that somehow kept the length intact, …).
    HashMismatch {
        /// The file involved.
        path: PathBuf,
        /// Hash recorded in the file.
        recorded: u64,
        /// Hash computed over the bytes.
        computed: u64,
    },
    /// The payload ended before a decode completed (internal
    /// inconsistency or hand-edited file).
    PayloadExhausted {
        /// What the decoder was reading.
        context: &'static str,
    },
    /// The payload holds a value its reader refuses: an id outside the
    /// table it indexes, a length past its type (hand-edited file).
    Invalid {
        /// What the decoder was reading.
        context: &'static str,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io { path, source } => {
                write!(f, "snapshot I/O error on {}: {source}", path.display())
            }
            SnapError::Truncated { path, len, need } => write!(
                f,
                "snapshot {} is truncated: {len} bytes, need at least {need}",
                path.display()
            ),
            SnapError::BadMagic { path } => {
                write!(f, "{} is not an rfd snapshot (bad magic)", path.display())
            }
            SnapError::BadVersion { path, found } => write!(
                f,
                "snapshot {} has format version {found}, this build reads {FORMAT_VERSION}",
                path.display()
            ),
            SnapError::HashMismatch {
                path,
                recorded,
                computed,
            } => write!(
                f,
                "snapshot {} is corrupt: content hash {computed:#018x} != recorded {recorded:#018x}",
                path.display()
            ),
            SnapError::PayloadExhausted { context } => {
                write!(f, "snapshot payload ended early while reading {context}")
            }
            SnapError::Invalid { context } => {
                write!(f, "snapshot payload holds an invalid {context}")
            }
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A decoded snapshot container: the fingerprint plus the opaque
/// payload.
#[derive(Debug, Clone)]
pub struct Container {
    /// Restore identity: hash of the full config + topology.
    pub config_fp: u64,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

fn io_err(path: &Path, source: std::io::Error) -> SnapError {
    SnapError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Assembles the container bytes for a payload.
pub fn container_bytes(config_fp: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&config_fp.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let hash = fnv1a(&out);
    out.extend_from_slice(&hash.to_le_bytes());
    out
}

/// Writes a snapshot container to `path` via a sibling temp file and an
/// atomic rename, so a kill mid-write never leaves a half snapshot
/// under the final name.
pub fn write_atomic(path: &Path, config_fp: u64, payload: &[u8]) -> Result<u64, SnapError> {
    let bytes = container_bytes(config_fp, payload);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir).map_err(|e| io_err(path, e))?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    file.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
    file.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(bytes.len() as u64)
}

/// Reads and fully validates a snapshot container: magic, version,
/// length (a header claiming more payload than the file holds, however
/// large, is [`SnapError::Truncated`]) and the trailing hash.
pub fn read_file(path: &Path) -> Result<Container, SnapError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let truncated = |need| SnapError::Truncated {
        path: path.to_path_buf(),
        len: bytes.len(),
        need,
    };
    if bytes.len() < HEADER_LEN + 8 {
        return Err(truncated(HEADER_LEN + 8));
    }
    if bytes[..8] != MAGIC {
        return Err(SnapError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapError::BadVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let config_fp = u64_at(12);
    // A length no file can reach saturates: no `Vec` is `usize::MAX`
    // bytes long.
    let need = usize::try_from(u64_at(20))
        .ok()
        .and_then(|len| len.checked_add(HEADER_LEN + 8))
        .unwrap_or(usize::MAX);
    if bytes.len() < need {
        return Err(truncated(need));
    }
    let end = need - 8;
    let recorded = u64_at(end);
    let computed = fnv1a(&bytes[..end]);
    if recorded != computed {
        return Err(SnapError::HashMismatch {
            path: path.to_path_buf(),
            recorded,
            computed,
        });
    }
    Ok(Container {
        config_fp,
        payload: bytes[HEADER_LEN..end].to_vec(),
    })
}

/// Builds a snapshot payload: fixed-width little-endian primitives and
/// length-prefixed sequences.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an f64 as its IEEE-754 bits (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes `Some`/`None` as a tag byte, then the value via `f`.
    pub fn option<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                f(self, v);
            }
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length prefix followed by each item via `f`.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Walks a snapshot payload written by [`Encoder`]. Every read is
/// bounds-checked; running off the end is a [`SnapError`], not a panic.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::PayloadExhausted { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a bool.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapError> {
        Ok(self.u8(context)? != 0)
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an f64 from its bits.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a usize (stored as u64).
    pub fn usize(&mut self, context: &'static str) -> Result<usize, SnapError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| SnapError::PayloadExhausted { context })
    }

    /// Reads an `Option` written by [`Encoder::option`].
    pub fn option<T>(
        &mut self,
        context: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.u8(context)? == 0 {
            Ok(None)
        } else {
            f(self).map(Some)
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapError> {
        let n = self.usize(context)?;
        self.take(n, context)
    }

    /// Reads a sequence written by [`Encoder::seq`].
    pub fn seq<T>(
        &mut self,
        context: &'static str,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usize(context)?;
        // Guard against absurd lengths from corrupt payloads: never
        // pre-reserve more than the remaining bytes could encode.
        let mut out = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.bool(true);
        enc.u32(0xdead_beef);
        enc.u64(u64::MAX - 3);
        enc.f64(-0.125);
        enc.option(Some(&42u32), |e, v| e.u32(*v));
        enc.option(None::<&u32>, |e, v| e.u32(*v));
        enc.bytes(b"hello");
        enc.seq(&[1u64, 2, 3], |e, v| e.u64(*v));
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8("a").unwrap(), 7);
        assert!(dec.bool("b").unwrap());
        assert_eq!(dec.u32("c").unwrap(), 0xdead_beef);
        assert_eq!(dec.u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(dec.f64("e").unwrap(), -0.125);
        assert_eq!(dec.option("f", |d| d.u32("f")).unwrap(), Some(42));
        assert_eq!(dec.option("g", |d| d.u32("g")).unwrap(), None);
        assert_eq!(dec.bytes("h").unwrap(), b"hello");
        assert_eq!(dec.seq("i", |d| d.u64("i")).unwrap(), vec![1, 2, 3]);
        assert!(dec.is_done());
    }

    #[test]
    fn decoder_errors_instead_of_panicking_on_short_input() {
        let mut dec = Decoder::new(&[1, 2]);
        assert!(matches!(
            dec.u64("field"),
            Err(SnapError::PayloadExhausted { context: "field" })
        ));
    }

    #[test]
    fn container_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!("rfd-snap-test-{}", std::process::id()));
        let path = dir.join("roundtrip.snap");
        let payload = b"the payload".to_vec();
        let len = write_atomic(&path, 0x11, &payload).unwrap();
        assert_eq!(len, fs::read(&path).unwrap().len() as u64);
        let c = read_file(&path).unwrap();
        assert_eq!(c.config_fp, 0x11);
        assert_eq!(c.payload, payload);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_is_refused() {
        let dir = std::env::temp_dir().join(format!("rfd-snap-trunc-{}", std::process::id()));
        let path = dir.join("t.snap");
        write_atomic(&path, 1, b"payload bytes here").unwrap();
        let full = fs::read(&path).unwrap();
        for cut in [0, 5, HEADER_LEN, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(read_file(&path), Err(SnapError::Truncated { .. })),
                "cut at {cut} must be refused"
            );
        }
        // A header claiming more payload than any file holds: the length
        // arithmetic must not overflow.
        for claimed in [u64::MAX, u64::MAX - HEADER_LEN as u64, 1 << 40] {
            let mut hostile = full.clone();
            hostile[20..28].copy_from_slice(&claimed.to_le_bytes());
            fs::write(&path, &hostile).unwrap();
            assert!(
                matches!(read_file(&path), Err(SnapError::Truncated { .. })),
                "a claimed payload of {claimed} bytes must be refused"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_is_refused() {
        let dir = std::env::temp_dir().join(format!("rfd-snap-flip-{}", std::process::id()));
        let path = dir.join("f.snap");
        write_atomic(&path, 1, b"sensitive state").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_LEN + 3;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_file(&path),
            Err(SnapError::HashMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_version_are_refused() {
        let dir = std::env::temp_dir().join(format!("rfd-snap-magic-{}", std::process::id()));
        let path = dir.join("m.snap");
        write_atomic(&path, 1, b"x").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_file(&path), Err(SnapError::BadMagic { .. })));
        let mut bytes = container_bytes(1, b"x");
        bytes[8] = 99; // version
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_file(&path),
            Err(SnapError::BadVersion { found: 99, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.str("ab").str("c");
        let mut b = Fingerprint::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }
}
