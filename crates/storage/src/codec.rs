//! A tiny self-describing binary codec.
//!
//! The format is deliberately simple: little-endian fixed-width integers and
//! floats, length-prefixed strings and vectors. Writing it by hand keeps the
//! storage substrate dependency-free; the [`Reader`] performs bounds checks
//! and reports truncation as a [`CodecError`] rather than panicking.

/// A malformed or truncated buffer: what the [`Reader`] expected and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt buffer: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether anything has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` (little-endian bits).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` (little-endian bits).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, xs: &[f32]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_f32(x);
        }
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, xs: &[u64]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_u64(x);
        }
    }
}

/// Bounds-checked binary reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of the buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "expected {n} more bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32`.
    pub fn get_f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError(format!("invalid utf-8: {e}")))
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, CodecError> {
        let len = self.get_u32()? as usize;
        let mut out = Vec::with_capacity(len.min(self.remaining() / 4 + 1));
        for _ in 0..len {
            out.push(self.get_f32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.get_u32()? as usize;
        let mut out = Vec::with_capacity(len.min(self.remaining() / 8 + 1));
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_str("hello world");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert_eq!(r.get_str().unwrap(), "hello world");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn round_trip_vectors() {
        let mut w = Writer::new();
        w.put_f32_slice(&[0.25, -1.0, 3.5]);
        w.put_u64_slice(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_f32_vec().unwrap(), vec![0.25, -1.0, 3.5]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn truncated_buffer_errors_instead_of_panicking() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.get_u64(), Err(CodecError(_))));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut w = Writer::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_str(), Err(CodecError(_))));
    }

    #[test]
    fn huge_declared_length_does_not_overallocate() {
        // A corrupt length prefix of u32::MAX must fail cleanly.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_f32_vec().is_err());
    }

    #[test]
    fn writer_capacity_and_len() {
        let mut w = Writer::with_capacity(16);
        assert!(w.is_empty());
        w.put_u32(1);
        assert_eq!(w.len(), 4);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn arbitrary_f32_vec_round_trips(xs in proptest::collection::vec(-1e6f32..1e6, 0..200)) {
                let mut w = Writer::new();
                w.put_f32_slice(&xs);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(r.get_f32_vec().unwrap(), xs);
            }

            #[test]
            fn arbitrary_strings_round_trip(s in "\\PC{0,64}") {
                let mut w = Writer::new();
                w.put_str(&s);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                prop_assert_eq!(r.get_str().unwrap(), s);
            }

            #[test]
            fn reader_never_panics_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                let mut r = Reader::new(&bytes);
                // Whatever happens, these must return Ok or Err, not panic.
                let _ = r.get_u32();
                let _ = r.get_str();
                let _ = r.get_f32_vec();
                let _ = r.get_u64();
            }
        }
    }
}
