//! Hand-rolled little-endian binary codec for snapshot persistence.
//!
//! The snapshot subsystem (see `uv_core::snapshot`) persists every structure
//! of a UV-diagram deployment — page stores, page lists, the adaptive grid,
//! reference tables — to a versioned on-disk format. It deliberately does
//! *not* go through the vendored `serde` shim: the on-disk layout is a
//! stability contract (magic, format version, per-section checksums), so
//! every byte is written and read explicitly by the [`Encode`] / [`Decode`]
//! traits below.
//!
//! Conventions:
//!
//! * every integer is little-endian; `usize` travels as `u64`;
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so `NaN`
//!   payloads and signed infinities round-trip bit-exactly — the update
//!   sensitivity bounds persist `f64::INFINITY` routinely;
//! * variable-size containers ([`Vec`], [`Option`]) carry an explicit length
//!   / presence prefix;
//! * decoding never panics on malformed input: a vector caps its up-front
//!   allocation and a section payload grows only as its bytes arrive, so a
//!   corrupted length prefix hits end-of-input instead of a huge
//!   allocation, and every invariant violation surfaces as
//!   [`std::io::ErrorKind::InvalidData`].
//!
//! Sections ([`write_section`] / [`read_section`]) frame independently
//! checksummed byte ranges: `tag (u8) | payload length (u64) | payload |
//! checksum (u64)`, the checksum being [`section_checksum`] of the payload.
//! A flipped payload bit is caught by the checksum, a wrong section order by
//! the tag, a truncated file by end-of-input — all before any payload is
//! interpreted. The checksum reads the payload a word at a time in four
//! independent lanes, so verifying a section runs at memory speed; the
//! byte-serial [`fnv64`] stays the configuration fingerprint of a snapshot
//! header.

use std::io::{self, Read, Write};

/// A type with an explicit, versioned binary representation.
///
/// The method is named `write_to` (not `encode`) so that types which also
/// implement the page-level [`crate::Record`] trait — fixed-size records
/// with `encode(&self, &mut Vec<u8>)` — keep both impls callable without
/// disambiguation (`Vec<u8>` is itself an [`io::Write`]).
pub trait Encode {
    /// Writes the binary representation of `self` to `w`.
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()>;
}

/// The inverse of [`Encode`].
pub trait Decode: Sized {
    /// Reads one value from `r`. Malformed input yields an
    /// [`io::ErrorKind::InvalidData`] or [`io::ErrorKind::UnexpectedEof`]
    /// error, never a panic.
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self>;
}

/// Builds the `InvalidData` error decoders report for violated invariants.
pub fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn read_exact_array<const N: usize, R: Read + ?Sized>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

impl Encode for u8 {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&[*self])
    }
}

impl Decode for u8 {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok(read_exact_array::<1, R>(r)?[0])
    }
}

impl Encode for u32 {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_le_bytes())
    }
}

impl Decode for u32 {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok(u32::from_le_bytes(read_exact_array::<4, R>(r)?))
    }
}

impl Encode for u64 {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_le_bytes())
    }
}

impl Decode for u64 {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok(u64::from_le_bytes(read_exact_array::<8, R>(r)?))
    }
}

impl Encode for usize {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        (*self as u64).write_to(w)
    }
}

impl Decode for usize {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        usize::try_from(u64::read_from(r)?).map_err(|_| corrupt("length exceeds usize"))
    }
}

impl Encode for f64 {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.to_bits().write_to(w)
    }
}

impl Decode for f64 {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok(f64::from_bits(u64::read_from(r)?))
    }
}

impl Encode for bool {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        u8::from(*self).write_to(w)
    }
}

impl Decode for bool {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        match u8::read_from(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("invalid bool byte {other}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.len().write_to(w)?;
        for item in self {
            item.write_to(w)?;
        }
        Ok(())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        let len = usize::read_from(r)?;
        // Cap the up-front allocation: a corrupted length prefix must run
        // into end-of-input, not an out-of-memory abort.
        let mut out = Vec::with_capacity(len.min(4_096));
        for _ in 0..len {
            out.push(T::read_from(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        match self {
            None => false.write_to(w),
            Some(v) => {
                true.write_to(w)?;
                v.write_to(w)
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok(if bool::read_from(r)? {
            Some(T::read_from(r)?)
        } else {
            None
        })
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        self.0.write_to(w)?;
        self.1.write_to(w)
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn read_from<R: Read + ?Sized>(r: &mut R) -> io::Result<Self> {
        Ok((A::read_from(r)?, B::read_from(r)?))
    }
}

/// FNV-1a's 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime (odd, so multiplying by it is a bijection).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64-bit hash, one byte per step — the configuration fingerprint of
/// a snapshot header. Not cryptographic.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Independent multiply chains of [`section_checksum`]: four keep the
/// multiplier busy where one chain would wait on each product.
const LANES: usize = 4;

/// The per-section checksum of the snapshot format (since version 8).
///
/// It runs FNV-1a's xor-multiply step over little-endian 8-byte words
/// instead of bytes, word `k` going to lane `k % 4`; a final partial word
/// is zero-padded. The four lanes and then the payload length are folded in
/// by the same step, and MurmurHash3's finaliser avalanches the result.
///
/// For a fixed word, each step is a bijection of the running state (an xor,
/// then a multiplication by an odd constant), and for a fixed state it is a
/// bijection of the word; so are the fold and the finaliser. Two payloads
/// of one length that differ only inside one word — any single bit flip
/// among them — therefore always get different checksums. Like [`fnv64`]
/// it detects accidental corruption (bit flips, truncation, concatenation
/// mistakes), not an adversary.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    let step = |state: u64, word: u64| (state ^ word).wrapping_mul(FNV_PRIME);
    let mut lanes = [FNV_OFFSET; LANES];
    let (blocks, tail) = bytes.as_chunks::<{ 8 * LANES }>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(tail.chunks(8)) {
        let mut padded = [0u8; 8];
        for (to, from) in padded.iter_mut().zip(word) {
            *to = *from;
        }
        *lane = step(*lane, u64::from_le_bytes(padded));
    }
    let folded = lanes.into_iter().fold(FNV_OFFSET, step);
    avalanche(step(folded, bytes.len() as u64))
}

/// MurmurHash3's 64-bit finaliser: xor-shifts and odd multipliers, each a
/// bijection, that spread every input bit over the whole output.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Writes one framed section: `tag | payload length | payload |
/// section_checksum`.
pub fn write_section<W: Write + ?Sized>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    tag.write_to(w)?;
    payload.len().write_to(w)?;
    w.write_all(payload)?;
    section_checksum(payload).write_to(w)
}

/// Reads one framed section, requiring `expected_tag` and a matching
/// checksum. Returns the verified payload bytes.
pub fn read_section<R: Read + ?Sized>(r: &mut R, expected_tag: u8) -> io::Result<Vec<u8>> {
    let tag = u8::read_from(r)?;
    if tag != expected_tag {
        return Err(corrupt(format!(
            "section tag mismatch: expected {expected_tag}, found {tag}"
        )));
    }
    let len = u64::read_from(r)?;
    let mut payload = Vec::new();
    r.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(corrupt(format!(
            "section {expected_tag} truncated: expected {len} bytes, found {}",
            payload.len()
        )));
    }
    let checksum = u64::read_from(r)?;
    if checksum != section_checksum(&payload) {
        return Err(corrupt(format!("section {expected_tag} checksum mismatch")));
    }
    Ok(payload)
}

/// Encodes a value into a fresh byte buffer (the payload of one section).
// Cannot fire: every encoder writes through `Write`, which a `Vec<u8>`
// implements without error.
#[allow(clippy::expect_used)]
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value
        .write_to(&mut buf)
        .expect("writing to a Vec<u8> cannot fail");
    buf
}

/// Decodes a value from a byte buffer, requiring every byte to be consumed.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> io::Result<T> {
    let mut cursor = bytes;
    let value = T::read_from(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after a complete value",
            cursor.len()
        )));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        7u8.write_to(&mut buf).unwrap();
        0xDEAD_BEEFu32.write_to(&mut buf).unwrap();
        u64::MAX.write_to(&mut buf).unwrap();
        123_456usize.write_to(&mut buf).unwrap();
        f64::INFINITY.write_to(&mut buf).unwrap();
        (-0.0f64).write_to(&mut buf).unwrap();
        true.write_to(&mut buf).unwrap();
        let mut r: &[u8] = &buf;
        assert_eq!(u8::read_from(&mut r).unwrap(), 7);
        assert_eq!(u32::read_from(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::read_from(&mut r).unwrap(), u64::MAX);
        assert_eq!(usize::read_from(&mut r).unwrap(), 123_456);
        assert_eq!(f64::read_from(&mut r).unwrap(), f64::INFINITY);
        assert_eq!(
            f64::read_from(&mut r).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert!(bool::read_from(&mut r).unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u32, 2.5f64), (3u32, f64::NEG_INFINITY)];
        let bytes = to_bytes(&v);
        let back: Vec<(u32, f64)> = from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], (1, 2.5));
        assert_eq!(back[1].1, f64::NEG_INFINITY);

        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&some)).unwrap(), some);
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&none)).unwrap(), none);
    }

    #[test]
    fn malformed_input_errors_without_panicking() {
        // Truncated integer.
        assert!(from_bytes::<u64>(&[1, 2, 3]).is_err());
        // Invalid bool discriminant.
        assert!(from_bytes::<bool>(&[7]).is_err());
        // Trailing garbage.
        let mut bytes = to_bytes(&5u32);
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
        // A huge vector length prefix must hit end-of-input, not allocate.
        let bytes = to_bytes(&u64::MAX);
        let err = from_bytes::<Vec<u8>>(&bytes).unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
        ));
    }

    /// `len` bytes of a fixed, irregular pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i * 151 + 29) as u8 ^ (i >> 3) as u8)
            .collect()
    }

    #[test]
    fn section_checksum_is_stable() {
        // The section checksum is part of the on-disk contract (format 8):
        // pin it on both sides of the word, lane-block and tail boundaries.
        let lengths = [0, 1, 8, 31, 32, 33, 100];
        let pinned: [u64; 7] = [
            0xdcfa_11f5_9cce_305a,
            0x15e8_3cc2_0f5a_3c8b,
            0x26b7_1647_fdbf_3dd9,
            0x6de5_d38a_fa6a_6264,
            0x9de5_18bd_8a8e_7202,
            0x1caf_86f2_1cda_d2b1,
            0x8b14_a5e7_7d27_475a,
        ];
        let actual = lengths.map(|len| section_checksum(&pattern(len)));
        assert_eq!(actual, pinned, "checksums of lengths {lengths:?}");
    }

    #[test]
    fn section_checksum_catches_every_single_bit_flip() {
        for len in 1..=72 {
            let payload = pattern(len);
            let clean = section_checksum(&payload);
            for bit in 0..8 * len {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(section_checksum(&flipped), clean, "length {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn sections_verify_tag_and_checksum() {
        let payload = b"uv-diagram".to_vec();
        let mut buf = Vec::new();
        write_section(&mut buf, 3, &payload).unwrap();
        let mut r: &[u8] = &buf;
        assert_eq!(read_section(&mut r, 3).unwrap(), payload);

        // Wrong expected tag.
        let mut r: &[u8] = &buf;
        assert!(read_section(&mut r, 4).is_err());

        // Flipped payload byte -> checksum mismatch.
        let mut flipped = buf.clone();
        flipped[10] ^= 0xA5;
        let mut r: &[u8] = &flipped;
        assert!(read_section(&mut r, 3).is_err());

        // Truncated section.
        let mut r: &[u8] = &buf[..buf.len() - 4];
        assert!(read_section(&mut r, 3).is_err());
    }

    #[test]
    fn fnv64_is_stable() {
        // The checksum is part of the on-disk contract: pin known values so
        // an accidental algorithm change fails loudly.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
