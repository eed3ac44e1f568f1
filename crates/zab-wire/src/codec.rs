//! Explicit little-endian primitive encoding.
//!
//! All multi-byte integers on the wire and in the log are little-endian.
//! Variable-length byte strings are encoded as a `u32` length prefix followed
//! by the raw bytes. The traits extend `Vec<u8>` on the write side and, on
//! the read side, both `&[u8]` cursors and the refcounted [`BytesCursor`],
//! so encoding needs no intermediate buffers and decoding is bounds-checked
//! rather than panicking.
//!
//! The read side is where the zero-copy payload pipeline starts:
//! [`WireRead::get_bytes_wire`] returns [`Bytes`]. Decoding from a
//! [`BytesCursor`] (whose backing store is the refcounted receive buffer)
//! yields payloads that are *views* of that buffer — no copy — while
//! decoding from a plain `&[u8]` cursor pays one copy to take ownership.

use bytes::Bytes;
use std::error::Error;
use std::fmt;

/// Maximum length accepted for a length-prefixed byte string (16 MiB).
///
/// A corrupted or hostile length prefix must not cause an unbounded
/// allocation; anything above this limit is rejected as
/// [`WireError::LengthOverflow`].
pub const MAX_BYTES_LEN: usize = 16 * 1024 * 1024;

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated {
        /// How many bytes the decoder needed.
        needed: usize,
        /// How many bytes were available.
        available: usize,
    },
    /// A length prefix exceeded [`MAX_BYTES_LEN`].
    LengthOverflow {
        /// The length claimed by the prefix.
        claimed: usize,
    },
    /// A byte string that must be UTF-8 was not.
    InvalidUtf8,
    /// An enum discriminant had no corresponding variant.
    InvalidTag {
        /// The unrecognized discriminant.
        tag: u8,
        /// The type being decoded, for diagnostics.
        context: &'static str,
    },
    /// A sequence that must hold at least one element was empty.
    Empty {
        /// The type being decoded, for diagnostics.
        context: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "input truncated: needed {needed} bytes, had {available}")
            }
            WireError::LengthOverflow { claimed } => {
                write!(f, "length prefix {claimed} exceeds limit {MAX_BYTES_LEN}")
            }
            WireError::InvalidUtf8 => write!(f, "byte string is not valid utf-8"),
            WireError::InvalidTag { tag, context } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            WireError::Empty { context } => write!(f, "empty {context}"),
        }
    }
}

impl Error for WireError {}

/// Write-side primitive encoding, implemented for `Vec<u8>`.
///
/// Method names carry a `_wire` suffix to avoid colliding with the
/// `bytes::BufMut` vocabulary when both are in scope.
pub trait WireWrite {
    /// Appends a single byte.
    fn put_u8_wire(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le_wire(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le_wire(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le_wire(&mut self, v: u64);
    /// Appends a little-endian `i64`.
    fn put_i64_le_wire(&mut self, v: i64);
    /// Appends a `u32` length prefix followed by the bytes.
    fn put_bytes_wire(&mut self, v: &[u8]);
    /// Appends a string as a length-prefixed UTF-8 byte string.
    fn put_str_wire(&mut self, v: &str);
    /// Appends a boolean as one byte (0 or 1).
    fn put_bool_wire(&mut self, v: bool);
}

impl WireWrite for Vec<u8> {
    fn put_u8_wire(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16_le_wire(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le_wire(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le_wire(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_i64_le_wire(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_bytes_wire(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= MAX_BYTES_LEN, "encoding oversized byte string");
        self.put_u32_le_wire(v.len() as u32);
        self.extend_from_slice(v);
    }

    fn put_str_wire(&mut self, v: &str) {
        self.put_bytes_wire(v.as_bytes());
    }

    fn put_bool_wire(&mut self, v: bool) {
        self.push(v as u8);
    }
}

/// Read-side primitive decoding, implemented for `&[u8]` cursors and
/// [`BytesCursor`].
///
/// Each call consumes from the front of the cursor. All methods return
/// [`WireError::Truncated`] instead of panicking on short input, and a
/// failed read consumes nothing.
///
/// Byte strings come back as [`Bytes`]: from a [`BytesCursor`] that is a
/// zero-copy view of the cursor's backing buffer; from a `&[u8]` cursor it
/// is one owning copy (the caller holds only a borrow, so a copy is the
/// cheapest way to produce an owned value).
pub trait WireRead {
    /// Reads a single byte.
    fn get_u8_wire(&mut self) -> Result<u8, WireError>;
    /// Reads a little-endian `u16`.
    fn get_u16_le_wire(&mut self) -> Result<u16, WireError>;
    /// Reads a little-endian `u32`.
    fn get_u32_le_wire(&mut self) -> Result<u32, WireError>;
    /// Reads a little-endian `u64`.
    fn get_u64_le_wire(&mut self) -> Result<u64, WireError>;
    /// Reads a little-endian `i64`.
    fn get_i64_le_wire(&mut self) -> Result<i64, WireError>;
    /// Reads a `u32` length prefix and returns that many bytes.
    fn get_bytes_wire(&mut self) -> Result<Bytes, WireError>;
    /// Reads a length-prefixed UTF-8 string.
    fn get_str_wire(&mut self) -> Result<String, WireError> {
        let bytes = self.get_bytes_wire()?;
        String::from_utf8(bytes.into()).map_err(|_| WireError::InvalidUtf8)
    }
    /// Reads a boolean byte; any nonzero value is `true`.
    fn get_bool_wire(&mut self) -> Result<bool, WireError> {
        Ok(self.get_u8_wire()? != 0)
    }
    /// Bytes not yet consumed.
    fn remaining(&self) -> usize;
    /// True when the cursor is exhausted.
    fn wire_is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

impl WireRead for &[u8] {
    fn get_u8_wire(&mut self) -> Result<u8, WireError> {
        let (&b, rest) =
            self.split_first().ok_or(WireError::Truncated { needed: 1, available: 0 })?;
        *self = rest;
        Ok(b)
    }

    fn get_u16_le_wire(&mut self) -> Result<u16, WireError> {
        let bytes = take(self, 2)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    fn get_u32_le_wire(&mut self) -> Result<u32, WireError> {
        let bytes = take(self, 4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn get_u64_le_wire(&mut self) -> Result<u64, WireError> {
        let bytes = take(self, 8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(buf))
    }

    fn get_i64_le_wire(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64_le_wire()? as i64)
    }

    fn get_bytes_wire(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u32_le_wire()? as usize;
        if len > MAX_BYTES_LEN {
            return Err(WireError::LengthOverflow { claimed: len });
        }
        take(self, len).map(Bytes::copy_from_slice)
    }

    fn remaining(&self) -> usize {
        self.len()
    }
}

/// Splits `n` bytes off the front of the cursor.
fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if cursor.len() < n {
        return Err(WireError::Truncated { needed: n, available: cursor.len() });
    }
    let (head, rest) = cursor.split_at(n);
    *cursor = rest;
    Ok(head)
}

/// Consuming cursor over an owned, refcounted [`Bytes`] buffer.
///
/// The payoff over a `&[u8]` cursor is [`WireRead::get_bytes_wire`]: the
/// returned [`Bytes`] is a slice *view* of the backing buffer (refcount
/// bump, no copy). A frame received from the network is decoded once and
/// its payload flows to the log and to every follower without being
/// copied again.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use zab_wire::codec::{BytesCursor, WireRead, WireWrite};
///
/// let mut buf = Vec::new();
/// buf.put_u64_le_wire(7);
/// buf.put_bytes_wire(b"payload");
/// let mut cur = BytesCursor::new(Bytes::from(buf));
/// assert_eq!(cur.get_u64_le_wire().unwrap(), 7);
/// let payload = cur.get_bytes_wire().unwrap(); // zero-copy view
/// assert_eq!(payload, b"payload");
/// assert!(cur.wire_is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct BytesCursor {
    buf: Bytes,
    pos: usize,
}

impl BytesCursor {
    /// Wraps `buf` in a cursor positioned at its start.
    pub fn new(buf: Bytes) -> BytesCursor {
        BytesCursor { buf, pos: 0 }
    }

    /// The unconsumed tail as a zero-copy view.
    pub fn rest(&self) -> Bytes {
        self.buf.slice(self.pos..)
    }

    /// Reserves `n` bytes, returning the start offset of the reservation.
    fn advance(&mut self, n: usize) -> Result<usize, WireError> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(WireError::Truncated { needed: n, available });
        }
        let start = self.pos;
        self.pos += n;
        Ok(start)
    }

    /// Copies the next `N` bytes into an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let start = self.advance(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[start..start + N]);
        Ok(out)
    }
}

impl WireRead for BytesCursor {
    fn get_u8_wire(&mut self) -> Result<u8, WireError> {
        let start = self.advance(1)?;
        Ok(self.buf[start])
    }

    fn get_u16_le_wire(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    fn get_u32_le_wire(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn get_u64_le_wire(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn get_i64_le_wire(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64_le_wire()? as i64)
    }

    fn get_bytes_wire(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u32_le_wire()? as usize;
        if len > MAX_BYTES_LEN {
            return Err(WireError::LengthOverflow { claimed: len });
        }
        match self.advance(len) {
            Ok(start) => Ok(self.buf.slice(start..start + len)),
            Err(e) => {
                // Roll back the length prefix so a failed read is atomic.
                self.pos -= 4;
                Err(e)
            }
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut buf = Vec::new();
        buf.put_u8_wire(0xAB);
        buf.put_u16_le_wire(0xBEEF);
        buf.put_u32_le_wire(0xDEAD_BEEF);
        buf.put_u64_le_wire(u64::MAX - 7);
        buf.put_i64_le_wire(-42);
        buf.put_bytes_wire(b"payload");
        buf.put_str_wire("zab");
        buf.put_bool_wire(true);
        buf.put_bool_wire(false);

        let mut cur = buf.as_slice();
        assert_eq!(cur.get_u8_wire().unwrap(), 0xAB);
        assert_eq!(cur.get_u16_le_wire().unwrap(), 0xBEEF);
        assert_eq!(cur.get_u32_le_wire().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le_wire().unwrap(), u64::MAX - 7);
        assert_eq!(cur.get_i64_le_wire().unwrap(), -42);
        assert_eq!(cur.get_bytes_wire().unwrap(), b"payload");
        assert_eq!(cur.get_str_wire().unwrap(), "zab");
        assert!(cur.get_bool_wire().unwrap());
        assert!(!cur.get_bool_wire().unwrap());
        assert!(cur.is_empty());
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut cur: &[u8] = &[1, 2, 3];
        assert_eq!(cur.get_u64_le_wire(), Err(WireError::Truncated { needed: 8, available: 3 }));
        // A failed read must not consume input.
        assert_eq!(cur.len(), 3);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.put_u32_le_wire((MAX_BYTES_LEN + 1) as u32);
        let mut cur = buf.as_slice();
        assert_eq!(
            cur.get_bytes_wire(),
            Err(WireError::LengthOverflow { claimed: MAX_BYTES_LEN + 1 })
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        buf.put_bytes_wire(&[0xFF, 0xFE]);
        let mut cur = buf.as_slice();
        assert_eq!(cur.get_str_wire(), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn empty_byte_string_round_trips() {
        let mut buf = Vec::new();
        buf.put_bytes_wire(b"");
        let mut cur = buf.as_slice();
        assert_eq!(cur.get_bytes_wire().unwrap(), b"");
    }

    #[test]
    fn length_prefix_claiming_more_than_available_is_truncated() {
        let mut buf = Vec::new();
        buf.put_u32_le_wire(100);
        buf.extend_from_slice(&[0u8; 10]);
        let mut cur = buf.as_slice();
        assert_eq!(cur.get_bytes_wire(), Err(WireError::Truncated { needed: 100, available: 10 }));
    }
}
