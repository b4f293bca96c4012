//! A small deterministic binary wire format for metadata serialization.
//!
//! NEXUS metadata objects travel through AEAD, so serialization must be
//! byte-exact and self-delimiting. This module provides a tiny
//! writer/reader pair (little-endian, length-prefixed byte strings) used by
//! every metadata structure.

use crate::error::NexusError;
use crate::uuid::NexusUuid;

/// Serializes values into a growing byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates an empty writer with room for `capacity` bytes, for an
    /// encoding whose length is known and whose buffer the caller extends.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends raw bytes with no length prefix (fixed-size fields).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a u32-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.raw(v)
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends a UUID (16 raw bytes).
    pub fn uuid(&mut self, v: &NexusUuid) -> &mut Self {
        self.raw(&v.0)
    }
}

/// Deserializes values from a byte slice, tracking position.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> NexusError {
    NexusError::Malformed(format!("truncated while reading {what}"))
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all bytes were consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], NexusError> {
        if self.remaining() < n {
            return Err(truncated(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, NexusError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, NexusError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, NexusError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, NexusError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], NexusError> {
        self.take(n, "raw bytes")
    }

    /// Reads a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], NexusError> {
        Ok(self.take(N, "array")?.try_into().unwrap())
    }

    /// Reads a u32-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, NexusError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(truncated("byte string"));
        }
        Ok(self.take(len, "byte string")?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, NexusError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|_| NexusError::Malformed("invalid utf-8".into()))
    }

    /// Reads a UUID.
    pub fn uuid(&mut self) -> Result<NexusUuid, NexusError> {
        Ok(NexusUuid(self.array::<16>()?))
    }

    /// Asserts the buffer is fully consumed.
    pub fn finish(self) -> Result<(), NexusError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(NexusError::Malformed(format!("{} trailing bytes", self.remaining())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(65_500)
            .u32(4_000_000_000)
            .u64(u64::MAX - 1)
            .bytes(b"hello")
            .string("caf\u{e9}")
            .uuid(&NexusUuid([3u8; 16]));
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_500);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.string().unwrap(), "caf\u{e9}");
        assert_eq!(r.uuid().unwrap(), NexusUuid([3u8; 16]));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf[..4]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u32(1000); // claims 1000 bytes follow
        w.raw(b"xy");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn trailing_bytes_rejected_by_finish() {
        let mut w = Writer::new();
        w.u8(1).u8(2);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(r.string().is_err());
    }
}
