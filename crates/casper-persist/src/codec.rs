//! Little-endian byte encoding primitives shared by the checkpoint formats
//! and the WAL record format.
//!
//! [`ByteWriter`] appends fixed-width primitives and length-prefixed arrays
//! into a growable buffer; [`ByteReader`] mirrors it with bounds-checked
//! reads that surface [`StorageError::Corrupt`] instead of panicking — a
//! truncated or bit-flipped file must fail *typedly* (satellite requirement
//! of this subsystem). Array lengths are validated against the remaining
//! byte budget before any allocation, so a corrupt length prefix cannot
//! trigger a multi-gigabyte `Vec` reservation.

use crate::crc::crc32;
use casper_storage::StorageError;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Four bytes, little endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes, little endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// IEEE-754 bits of an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `u32` array with a length prefix.
    pub fn vec_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        self.u32s(v);
    }

    /// `u64` array with a length prefix.
    pub fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        self.u64s(v);
    }

    /// `u32` values with no length prefix (one run of an array whose
    /// prefix was written up front).
    pub fn u32s(&mut self, v: &[u32]) {
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// `u64` values with no length prefix.
    pub fn u64s(&mut self, v: &[u64]) {
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// `f64` array with a length prefix.
    pub fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed (format sanity check: trailing
    /// garbage in a section is corruption, not slack).
    pub fn finish(&self) -> Result<(), StorageError> {
        if self.remaining() != 0 {
            return Err(StorageError::corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::corrupt(format!(
                "truncated: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Four bytes, little endian.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Eight bytes, little endian.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u64` validated to fit in `usize` (counts, lengths).
    pub fn len_u64(&mut self) -> Result<usize, StorageError> {
        usize::try_from(self.u64()?).map_err(|_| StorageError::corrupt("length overflows usize"))
    }

    /// An `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed element count, validated so that `count * width`
    /// bytes actually remain.
    fn array_len(&mut self, width: usize) -> Result<usize, StorageError> {
        let n = self.len_u64()?;
        if n.checked_mul(width).is_none_or(|b| b > self.remaining()) {
            return Err(StorageError::corrupt(format!(
                "array of {n} x {width}B exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// `u32` array with a length prefix.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, StorageError> {
        let n = self.array_len(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// `u64` array with a length prefix.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, StorageError> {
        let n = self.array_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// `f64` array with a length prefix.
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, StorageError> {
        Ok(self.vec_u64()?.into_iter().map(f64::from_bits).collect())
    }
}

/// Wrap `body` in the framing every checksummed metadata file uses
/// (manifests, the archive index):
/// `magic | version:u32 | body_len:u64 | crc32(body):u32 | body`.
pub(crate) fn frame(magic: [u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
    let mut out = ByteWriter::new();
    out.buf.extend_from_slice(&magic);
    out.u32(version);
    out.u64(body.len() as u64);
    out.u32(crc32(body));
    out.buf.extend_from_slice(body);
    out.into_bytes()
}

/// Undo [`frame`]: the body is returned only after magic, `version`,
/// length and checksum all hold. `what` names the file kind in the error.
pub(crate) fn unframe<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    version: u32,
    what: &str,
) -> Result<&'a [u8], StorageError> {
    let mut header = ByteReader::new(bytes);
    let got_magic = header.take(4)?;
    if got_magic != magic {
        return Err(StorageError::corrupt(format!(
            "bad {what} magic {got_magic:02x?}"
        )));
    }
    let got_version = header.u32()?;
    if got_version != version {
        return Err(StorageError::corrupt(format!(
            "unsupported {what} version {got_version} (this build reads {version})"
        )));
    }
    let body_len = header.len_u64()?;
    let want_crc = header.u32()?;
    if header.remaining() != body_len {
        return Err(StorageError::corrupt(format!(
            "{what} body length {body_len} but {} bytes follow the header",
            header.remaining()
        )));
    }
    let body = &bytes[bytes.len() - body_len..];
    let got_crc = crc32(body);
    if got_crc != want_crc {
        return Err(StorageError::corrupt(format!(
            "{what} checksum mismatch: stored {want_crc:#010x}, computed {got_crc:#010x}"
        )));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(0.125);
        w.vec_u32(&[9, 8]);
        w.vec_u64(&[u64::MAX]);
        w.vec_f64(&[1.5, -0.0]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), 0.125);
        assert_eq!(r.vec_u32().unwrap(), vec![9, 8]);
        assert_eq!(r.vec_u64().unwrap(), vec![u64::MAX]);
        let f = r.vec_f64().unwrap();
        assert_eq!(f[0], 1.5);
        assert!(f[1] == 0.0 && f[1].is_sign_negative());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_corruption() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn absurd_length_prefix_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2); // claims ~9 EB of u64s follow
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.vec_u64(), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(StorageError::Corrupt { .. })));
    }
}
