#![allow(clippy::all)]
//! Offline stand-in for the `bytes` crate: a cheaply cloneable,
//! sliceable, immutable byte buffer.
//!
//! Matches the upstream `Bytes` semantics the workspace relies on —
//! shared ownership via `Arc`, zero-copy `slice`, deref to `[u8]` — for
//! the PDU payloads threaded through the RLC/PDCP/MAC codecs. As upstream,
//! `From<Vec<u8>>` takes the vector's buffer without copying it, and
//! `Bytes::new()` / `from_static` borrow static storage without
//! allocating.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, Index, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of shared bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

/// Where the bytes live: borrowed static storage, or a vector taken over
/// whole and shared by reference count.
#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// Creates an empty buffer (no allocation).
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Creates a buffer borrowing a static byte slice (no copy).
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes { data: Storage::Static(bytes), start: 0, end: bytes.len() }
    }

    /// Creates a buffer that copies `data` exactly once; clones and
    /// slices share it from then on.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_vec(data.to_vec())
    }

    /// Takes over `v`'s buffer: the only allocation is the reference
    /// count.
    fn from_vec(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Storage::Shared(Arc::new(v)), start: 0, end }
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view without copying the underlying storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, matching upstream.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of range for {}", self.len());
        Bytes { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Storage::Static(s) => &s[self.start..self.end],
            Storage::Shared(v) => &v[self.start..self.end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(b: &'static [u8; N]) -> Bytes {
        Bytes::from_static(b)
    }
}

impl<I: std::slice::SliceIndex<[u8]>> Index<I> for Bytes {
    type Output = I::Output;
    fn index(&self, i: I) -> &I::Output {
        &self.as_slice()[i]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    /// Upstream prints `b"..."`-style escapes; keep that for readable
    /// test failures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                0x20..=0x7E => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage_and_bounds_check() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let tail = s.slice(2..);
        assert_eq!(&tail[..], &[4]);
        assert_eq!(b.slice(..), b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        Bytes::from(vec![1u8]).slice(0..5);
    }

    #[test]
    fn from_vec_takes_the_buffer_without_copying() {
        let v = vec![7u8; 32];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(4..).as_ptr(), ptr.wrapping_add(4));
        assert_eq!(b.clone().as_ptr(), ptr);
    }

    #[test]
    fn static_storage_is_borrowed() {
        static DATA: [u8; 3] = [1, 2, 3];
        assert_eq!(Bytes::from_static(&DATA).as_ptr(), DATA.as_ptr());
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
    }

    #[test]
    fn equality_and_debug() {
        let a = Bytes::from_static(b"ab\"\x01");
        assert_eq!(a, Bytes::from(vec![b'a', b'b', b'"', 1]));
        assert_eq!(format!("{a:?}"), "b\"ab\\\"\\x01\"");
    }
}
