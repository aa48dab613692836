//! Hand-rolled binary codec for the durable-serving subsystem.
//!
//! The repository vendors only an API-subset `serde` shim (no `serde_json`,
//! no `bincode`), so the persistence layer (`dc-storage`) defines its own
//! wire format here, next to the types it serializes.  Design goals, in
//! order:
//!
//! 1. **Bit-exactness** — floating-point values round-trip through
//!    [`f64::to_bits`], so a decoded [`crate::Clustering`] / graph state is
//!    *bit-identical* to the encoded one.  This is what lets a recovered
//!    engine reproduce the exact decisions of a never-restarted one.
//! 2. **Corruption detection** — every durable artifact frames the encoded
//!    bytes with a [`crc32`] checksum (the framing itself lives in
//!    `dc-storage`; the polynomial and reference implementation live here so
//!    both the WAL and the snapshot file share one definition).
//! 3. **Versioning** — enums are tag-prefixed and containers are
//!    length-prefixed, and the outer file formats carry explicit version
//!    numbers, so the format can evolve without silently misreading old
//!    files.
//!
//! The encoding is deliberately simple: little-endian fixed-width integers,
//! `u64` length prefixes for containers and strings, one tag byte per enum
//! variant.  No varints, no back-references — the artifacts are small
//! (operation batches and engine snapshots) and decode speed matters more
//! than the last byte of density.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors raised while decoding a binary artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes that were needed to continue decoding.
        needed: usize,
        /// Bytes that remained in the input.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length prefix was implausibly large for the remaining input
    /// (protects against allocating gigabytes on a corrupt length).
    BadLength {
        /// The declared element count.
        declared: u64,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// The decoded value violates a structural invariant of its type
    /// (e.g. a clustering whose clusters are not disjoint).
    Invalid(String),
    /// Trailing bytes were left after the value was fully decoded.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remaining"
                )
            }
            CodecError::BadTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadLength {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} is implausible with {remaining} bytes remaining"
            ),
            CodecError::Invalid(msg) => write!(f, "decoded value is invalid: {msg}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decoded value"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected, `0xEDB88320`) over `bytes` — the checksum
/// guarding every WAL record and snapshot payload.  Table-free bitwise
/// implementation: the inputs are small and the definition stays auditable.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Append-only byte sink used by [`BinCodec::encode`].
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (the wire format is 64-bit everywhere).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` by its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with no length prefix (caller frames them).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over encoded bytes used by [`BinCodec::decode`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `u64` and convert it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadLength {
            declared: v,
            remaining: self.remaining(),
        })
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool; any byte other than 0 or 1 is rejected.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_length_prefix(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a `u64` element count and sanity-check it against the remaining
    /// input, assuming each element occupies at least `min_element_bytes`.
    /// Rejecting implausible counts up front keeps a corrupt length prefix
    /// from turning into a multi-gigabyte allocation.
    pub fn get_length_prefix(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let declared = self.get_u64()?;
        let remaining = self.remaining();
        let plausible = declared
            .checked_mul(min_element_bytes.max(1) as u64)
            .is_some_and(|total| total <= remaining as u64);
        if !plausible {
            return Err(CodecError::BadLength {
                declared,
                remaining,
            });
        }
        Ok(declared as usize)
    }
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A type with a stable binary wire representation.
///
/// Implementations must round-trip exactly: `decode(encode(x)) == x`
/// bit-for-bit, including `f64` payloads.  Decoding validates structural
/// invariants and never panics on corrupt input — every failure mode is a
/// [`CodecError`].
pub trait BinCodec: Sized {
    /// Append this value's encoding to the writer.
    fn encode(&self, w: &mut ByteWriter);

    /// Decode one value from the reader, advancing it past the value.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Encode into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decode from a slice, requiring that every byte is consumed.
    fn decode_exact(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Primitive / container impls
// ---------------------------------------------------------------------------

impl BinCodec for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl BinCodec for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_f64()
    }
}

impl BinCodec for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_usize()
    }
}

impl BinCodec for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_str()
    }
}

impl<T: BinCodec> BinCodec for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: BinCodec> BinCodec for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_length_prefix(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: BinCodec, B: BinCodec> BinCodec for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: BinCodec, B: BinCodec, C: BinCodec> BinCodec for (A, B, C) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<K: BinCodec + Ord, V: BinCodec> BinCodec for BTreeMap<K, V> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_length_prefix(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            if out.insert(k, v).is_some() {
                return Err(CodecError::Invalid("duplicate map key".into()));
            }
        }
        Ok(out)
    }
}

impl<T: BinCodec + Ord> BinCodec for BTreeSet<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_length_prefix(1)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            if !out.insert(T::decode(r)?) {
                return Err(CodecError::Invalid("duplicate set element".into()));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Cluster, ClusterId, Clustering, ObjectId, Operation, OperationBatch, Record, RecordBuilder,
        Snapshot,
    };

    fn oid(raw: u64) -> ObjectId {
        ObjectId::new(raw)
    }

    fn roundtrip<T: BinCodec + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.encode_to_vec();
        let decoded = T::decode_exact(&bytes).expect("decode");
        assert_eq!(&decoded, value);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u64);
        roundtrip(&u64::MAX);
        roundtrip(&String::from("hëllo wörld"));
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&(3u64, 0.25f64));
        // f64 round-trips preserve exact bits, including NaN payloads.
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = weird.encode_to_vec();
        let back = f64::decode_exact(&bytes).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_reject_duplicates() {
        // Two identical set elements on the wire.
        let mut w = ByteWriter::new();
        w.put_u64(2);
        w.put_u64(7);
        w.put_u64(7);
        assert!(matches!(
            BTreeSet::<u64>::decode_exact(w.as_slice()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn corrupt_lengths_are_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // declared length
        assert!(matches!(
            Vec::<u64>::decode_exact(w.as_slice()),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let rec = RecordBuilder::new()
            .text("title", "Efficient Dynamic Clustering")
            .text("venue", "EDBT")
            .number("year", 2022.0)
            .vector(vec![0.1, 0.2, f64::MIN_POSITIVE])
            .entity(7)
            .build();
        roundtrip(&rec);
        roundtrip(&Record::new());
        roundtrip(&Record::from_vector(vec![1.0, -0.0]));
    }

    #[test]
    fn operations_and_batches_roundtrip() {
        let rec = RecordBuilder::new().text("t", "x").build();
        roundtrip(&Operation::Add {
            id: oid(1),
            record: rec.clone(),
        });
        roundtrip(&Operation::Remove { id: oid(2) });
        roundtrip(&Operation::Update {
            id: oid(3),
            record: rec.clone(),
        });
        let batch = OperationBatch::from_ops(vec![
            Operation::Add {
                id: oid(1),
                record: rec.clone(),
            },
            Operation::Remove { id: oid(9) },
            Operation::Update {
                id: oid(1),
                record: rec,
            },
        ]);
        roundtrip(&batch);
        roundtrip(&OperationBatch::new());
        roundtrip(&Snapshot::new(4, batch));
    }

    #[test]
    fn clustering_roundtrips_with_id_watermark() {
        let mut c = Clustering::from_groups([vec![oid(1), oid(2)], vec![oid(3)]]).unwrap();
        let a = c.cluster_of(oid(1)).unwrap();
        let b = c.cluster_of(oid(3)).unwrap();
        c.merge(a, b).unwrap(); // advances the id generator past its clusters
        let bytes = c.encode_to_vec();
        let mut back = Clustering::decode_exact(&bytes).unwrap();
        assert!(c.delta(&back).is_unchanged());
        assert_eq!(back.cluster_ids(), c.cluster_ids());
        // The id generator watermark survives: the next allocated id matches.
        let ba = back.cluster_ids()[0];
        let oid_new = oid(99);
        back.create_cluster([oid_new]).unwrap();
        let mut original = c.clone();
        original.create_cluster([oid_new]).unwrap();
        assert_eq!(back.cluster_of(oid_new), original.cluster_of(oid_new));
        assert!(back.contains_cluster(ba));
    }

    #[test]
    fn clustering_decode_rejects_overlapping_clusters() {
        // Hand-craft a clustering whose two clusters share object 1.
        let mut w = ByteWriter::new();
        w.put_u64(10); // id watermark
        w.put_u64(2); // cluster count
        ClusterId::new(0).encode(&mut w);
        Cluster::from_members([oid(1)]).encode(&mut w);
        ClusterId::new(1).encode(&mut w);
        Cluster::from_members([oid(1), oid(2)]).encode(&mut w);
        assert!(matches!(
            Clustering::decode_exact(w.as_slice()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn clustering_decode_rejects_stale_id_watermark() {
        let mut w = ByteWriter::new();
        w.put_u64(0); // watermark below the stored cluster id
        w.put_u64(1);
        ClusterId::new(5).encode(&mut w);
        Cluster::from_members([oid(1)]).encode(&mut w);
        assert!(matches!(
            Clustering::decode_exact(w.as_slice()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn decode_exact_rejects_trailing_bytes() {
        let mut bytes = 7u64.encode_to_vec();
        bytes.push(0);
        assert!(matches!(
            u64::decode_exact(&bytes),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncated_input_is_detected() {
        // A truncated fixed-width value runs off the end of the input.
        let bytes = 7u64.encode_to_vec();
        assert!(matches!(
            u64::decode_exact(&bytes[..7]),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // A truncated length-prefixed value fails the plausibility check
        // before any byte of the payload is read.
        let bytes = String::from("hello").encode_to_vec();
        assert!(matches!(
            String::decode_exact(&bytes[..bytes.len() - 1]),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::BadTag {
            what: "Operation",
            tag: 9,
        };
        assert!(e.to_string().contains("Operation"));
        assert!(CodecError::BadUtf8.to_string().contains("UTF-8"));
    }
}
