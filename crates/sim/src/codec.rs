//! A small, checked byte codec for versioned snapshot formats.
//!
//! Checkpoint images (and any other on-disk artifacts) are serialized
//! through this module so every field is length-checked on the way out
//! and bounds-checked on the way back in: truncation, unknown tags and
//! out-of-range values surface as typed [`CodecError`]s instead of
//! panics, in the same spirit as the MPI layer's checked wire codec.
//!
//! The format is self-describing at the section level: a stream is a
//! sequence of `(u32 tag, u64 length, body)` frames, so a reader can
//! verify it is looking at the section it expects (and a future reader
//! could skip sections it does not understand).

use std::fmt;

/// Errors surfaced by the checked snapshot codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the field required.
    Truncated {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A tag byte/word did not match the expected value.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The tag the decoder expected.
        want: u64,
        /// The tag actually present.
        got: u64,
    },
    /// A decoded value does not fit the in-memory type it targets.
    Overflow {
        /// What was being decoded.
        context: &'static str,
        /// The value that did not fit.
        value: u64,
        /// Largest value the target type can carry.
        max: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated {
                context,
                needed,
                have,
            } => write!(f, "{context}: truncated ({have} bytes left, need {needed})"),
            CodecError::BadTag { context, want, got } => {
                write!(f, "{context}: bad tag {got:#x} (expected {want:#x})")
            }
            CodecError::Overflow {
                context,
                value,
                max,
            } => write!(f, "{context}: value {value} exceeds max {max}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer and returns the bytes written.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (lossless: the simulator only targets
    /// platforms where `usize` is at most 64 bits).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `i32` (two's-complement little-endian).
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends `Some`/`None` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes a tagged, length-prefixed section whose body is produced by
    /// `f`. The length is patched in after the body is written.
    pub fn section(&mut self, tag: u32, f: impl FnOnce(&mut Writer)) {
        self.u32(tag);
        let mark = self.buf.len();
        self.u64(0); // placeholder length
        f(self);
        let body_len = (self.buf.len() - mark - 8) as u64;
        self.buf[mark..mark + 8].copy_from_slice(&body_len.to_le_bytes());
    }
}

/// A bounds-checked little-endian byte reader over a borrowed slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                context,
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, CodecError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and converts it to `usize`, checking the platform
    /// width.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| CodecError::Overflow {
            context,
            value: v,
            max: usize::MAX as u64,
        })
    }

    /// Reads an `i32`.
    pub fn i32(&mut self, context: &'static str) -> Result<i32, CodecError> {
        let b = self.take(4, context)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a `bool`; any byte other than 0/1 is a [`CodecError::BadTag`].
    pub fn bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::BadTag {
                context,
                want: 1,
                got: u64::from(b),
            }),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, context: &'static str) -> Result<Vec<u8>, CodecError> {
        Ok(self.bytes_ref(context)?.to_vec())
    }

    /// Reads a length-prefixed byte string, borrowed from the input: a
    /// length that exceeds what remains is an error before anything is
    /// allocated.
    pub fn bytes_ref(&mut self, context: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.usize(context)?;
        self.take(len, context)
    }

    /// Reads the element count of a sequence whose records each occupy
    /// at least `min_record_bytes` of input, refusing a count the
    /// remaining input cannot hold. A decoder that sizes a collection by
    /// what this returns allocates in proportion to its input, whatever
    /// the image claims.
    pub fn count(
        &mut self,
        context: &'static str,
        min_record_bytes: usize,
    ) -> Result<usize, CodecError> {
        let n = self.usize(context)?;
        let needed = n.saturating_mul(min_record_bytes);
        if needed > self.remaining() {
            return Err(CodecError::Truncated {
                context,
                needed,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Reads a presence byte plus an optional `u64`.
    pub fn opt_u64(&mut self, context: &'static str) -> Result<Option<u64>, CodecError> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(context)?)),
            b => Err(CodecError::BadTag {
                context,
                want: 1,
                got: u64::from(b),
            }),
        }
    }

    /// Reads a section frame, checks its tag, and returns a sub-reader
    /// scoped to exactly the section body.
    pub fn section(&mut self, tag: u32, context: &'static str) -> Result<Reader<'a>, CodecError> {
        let got = self.u32(context)?;
        if got != tag {
            return Err(CodecError::BadTag {
                context,
                want: u64::from(tag),
                got: u64::from(got),
            });
        }
        let len = self.usize(context)?;
        Ok(Reader::new(self.take(len, context)?))
    }

    /// Asserts every byte was consumed; trailing garbage is a
    /// [`CodecError::Truncated`]-style report in reverse.
    pub fn done(&self, context: &'static str) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::BadTag {
                context,
                want: 0,
                got: self.remaining() as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(1 << 40);
        w.usize(42);
        w.i32(-9);
        w.f64(-0.125);
        w.bool(true);
        w.bool(false);
        w.bytes(b"hello");
        w.opt_u64(Some(5));
        w.opt_u64(None);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 513);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.usize("e").unwrap(), 42);
        assert_eq!(r.i32("f").unwrap(), -9);
        assert_eq!(r.f64("g").unwrap(), -0.125);
        assert!(r.bool("h").unwrap());
        assert!(!r.bool("i").unwrap());
        assert_eq!(r.bytes("j").unwrap(), b"hello");
        assert_eq!(r.opt_u64("k").unwrap(), Some(5));
        assert_eq!(r.opt_u64("l").unwrap(), None);
        r.done("end").unwrap();
    }

    #[test]
    fn sections_nest_and_check_tags() {
        let mut w = Writer::new();
        w.section(0xAA, |w| {
            w.u32(1);
            w.section(0xBB, |w| w.u64(2));
        });
        w.u8(9);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let mut s = r.section(0xAA, "outer").unwrap();
        assert_eq!(s.u32("x").unwrap(), 1);
        let mut inner = s.section(0xBB, "inner").unwrap();
        assert_eq!(inner.u64("y").unwrap(), 2);
        inner.done("inner").unwrap();
        s.done("outer").unwrap();
        assert_eq!(r.u8("tail").unwrap(), 9);
        r.done("end").unwrap();
    }

    #[test]
    fn wrong_section_tag_is_an_error() {
        let mut w = Writer::new();
        w.section(1, |w| w.u8(0));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.section(2, "s"),
            Err(CodecError::BadTag {
                want: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes[..3]);
        assert!(matches!(
            r.u64("field"),
            Err(CodecError::Truncated {
                needed: 8,
                have: 3,
                ..
            })
        ));
    }

    #[test]
    fn count_is_held_against_the_remaining_input() {
        let mut w = Writer::new();
        w.usize(3);
        w.u32(1);
        w.u32(2);
        w.u32(3);
        let bytes = w.finish();
        assert_eq!(Reader::new(&bytes).count("n", 4).unwrap(), 3);
        // Three records of five bytes do not fit in the twelve that remain.
        assert!(matches!(
            Reader::new(&bytes).count("n", 5),
            Err(CodecError::Truncated {
                needed: 15,
                have: 12,
                ..
            })
        ));
        // A count whose byte size overflows is refused, not wrapped.
        let huge = u64::MAX.to_le_bytes();
        assert!(matches!(
            Reader::new(&huge).count("n", 28),
            Err(CodecError::Truncated { .. } | CodecError::Overflow { .. })
        ));
    }

    #[test]
    fn bad_bool_is_an_error() {
        let mut r = Reader::new(&[7]);
        assert!(matches!(r.bool("flag"), Err(CodecError::BadTag { .. })));
    }

    #[test]
    fn trailing_bytes_fail_done() {
        let r = Reader::new(&[1, 2, 3]);
        assert!(r.done("end").is_err());
    }

    #[test]
    fn errors_render() {
        let e = CodecError::Truncated {
            context: "qp.msn",
            needed: 8,
            have: 2,
        };
        assert!(e.to_string().contains("qp.msn"));
        assert!(CodecError::BadTag {
            context: "s",
            want: 1,
            got: 2
        }
        .to_string()
        .contains("0x2"));
        assert!(CodecError::Overflow {
            context: "s",
            value: 10,
            max: 5
        }
        .to_string()
        .contains("10"));
    }
}
