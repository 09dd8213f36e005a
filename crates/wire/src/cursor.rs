//! Bounds-checked big-endian reads and writes for hand-written codecs of
//! runtime state (the AGW checkpoint and the types it carries).
//!
//! A [`Reader`] walks a byte slice front to back. Every read checks the
//! remaining length first (via [`need`]) and returns
//! [`WireError::Truncated`] instead of panicking, so a decoder on a
//! serving path never indexes past the end of a buffer. Strings carry a
//! `u16` length prefix, options a `0`/`1` tag byte and booleans one byte;
//! any other tag is a [`WireError::BadValue`].

use crate::error::{need, WireError};
use bytes::BufMut;

/// Write a string as `[u16 len][utf-8 bytes]`. Strings here are
/// identifiers (gateway ids, rule names), far below 64 KiB.
pub fn put_str(out: &mut impl BufMut, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string too long for a u16 prefix");
    out.put_u16(s.len() as u16);
    out.put_slice(s.as_bytes());
}

/// Write a boolean as one byte, `0` or `1`.
pub fn put_bool(out: &mut impl BufMut, v: bool) {
    out.put_u8(v as u8);
}

/// Write an option as a `0`/`1` tag byte followed by the value, if any.
pub fn put_opt<B: BufMut, T>(out: &mut B, v: &Option<T>, put: impl FnOnce(&mut B, &T)) {
    match v {
        None => out.put_u8(0),
        Some(x) => {
            out.put_u8(1);
            put(out, x);
        }
    }
}

/// Read cursor over an encoded buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        need(self.buf, n)?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_be_bytes(self.array()?))
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// An `f64` written as its IEEE-754 bits (`put_u64(x.to_bits())`).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadValue {
                field: "bool",
                value: v as u64,
            }),
        }
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadValue {
            field: "utf8",
            value: len as u64,
        })
    }

    /// An option written by [`put_opt`].
    pub fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            v => Err(WireError::BadValue {
                field: "option tag",
                value: v as u64,
            }),
        }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// End of a top-level decode: trailing bytes are an error.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadLength {
                declared: 0,
                actual: self.buf.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_strict_reads() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u64(u64::MAX - 1);
        out.put_u64(0.25f64.to_bits());
        put_str(&mut out, "gold-tier");
        put_bool(&mut out, true);
        put_opt(&mut out, &Some(9u32), |b, v| b.put_u32(*v));
        put_opt(&mut out, &None::<u32>, |b, v| b.put_u32(*v));
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64(), Ok(0.25));
        assert_eq!(r.str().as_deref(), Ok("gold-tier"));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.opt(|r| r.u32()), Ok(Some(9)));
        assert_eq!(r.opt(|r| r.u32()), Ok(None));
        assert!(r.finish().is_ok());

        assert!(Reader::new(&[0, 5, b'a']).str().is_err(), "truncated string");
        assert!(Reader::new(&[0, 1, 0xFF]).str().is_err(), "not utf-8");
        assert!(Reader::new(&[2]).bool().is_err(), "bad bool");
        assert!(Reader::new(&[2, 0]).opt(|r| r.u8()).is_err(), "bad option tag");
        assert!(Reader::new(&[1, 2]).finish().is_err(), "trailing bytes");
    }
}
