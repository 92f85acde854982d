//! Byte-comparable variable-length keys and the key-codec boundary.
//!
//! The paper evaluates with fixed 8-byte keys, and the whole reproduction
//! was pinned to `type Key = u64` until this module. The generalisation
//! follows the classic B-tree recipe: keys are **byte strings compared
//! lexicographically**, and any typed key is mapped into that space by an
//! *order-preserving encoding* ([`KeyCodec`]). For `u64` the encoding is
//! big-endian bytes ([`U64Key`]), which compares byte-wise exactly like the
//! integers compare numerically — so the u64 fast paths keep their current
//! layout and cost, and the byte-key paths are a strict superset.
//!
//! Two helpers service the node layouts built on top:
//!
//! * [`key_head`] — the first four key bytes as a big-endian `u32`
//!   (zero-padded), an order-consistent fixed-width digest stored inline in
//!   slot arrays and inner separators for cheap first-round comparisons
//!   (full bytes are consulted only on head ties).
//! * [`lcp`] — longest-common-prefix length, used by the variable-length
//!   leaf to prefix-truncate stored keys against its fence keys.

use crate::Key;

/// Maximum encoded key length in bytes. Bounding keys keeps [`KeyBuf`]
/// inline (no allocation on any hot path) and gives the variable-length
/// leaf layout a worst-case record size to budget splits against.
pub const MAX_KEY_LEN: usize = 64;

/// A borrowed byte-comparable key: plain bytes, compared lexicographically.
/// Alias rather than newtype so call sites can pass `b"..."` literals,
/// `Vec<u8>` slices, and [`KeyBuf::as_slice`] interchangeably.
pub type KeyRef<'a> = &'a [u8];

/// An owned, inline, byte-comparable key of at most [`MAX_KEY_LEN`] bytes.
///
/// `Copy` and allocation-free: 65 bytes on the stack. Ordering, equality
/// and hashing all delegate to the byte-slice view, so a `KeyBuf` and the
/// `KeyRef` it came from always agree.
#[derive(Clone, Copy)]
pub struct KeyBuf {
    len: u8,
    bytes: [u8; MAX_KEY_LEN],
}

impl KeyBuf {
    /// The empty key — the minimum of the byte-string order.
    pub const MIN: KeyBuf = KeyBuf {
        len: 0,
        bytes: [0; MAX_KEY_LEN],
    };

    /// Copies `bytes` into an owned key.
    ///
    /// # Panics
    /// If `bytes` is longer than [`MAX_KEY_LEN`].
    #[inline]
    pub fn from_slice(bytes: &[u8]) -> KeyBuf {
        assert!(
            bytes.len() <= MAX_KEY_LEN,
            "key length {} exceeds MAX_KEY_LEN {MAX_KEY_LEN}",
            bytes.len()
        );
        let mut buf = [0u8; MAX_KEY_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        KeyBuf {
            len: bytes.len() as u8,
            bytes: buf,
        }
    }

    /// The key's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty (minimum) key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest key strictly greater than `self` within the bounded
    /// key space, or `None` if `self` is the maximum key (all `0xFF` at
    /// full length). Used by range scans to restart *after* a leaf's fence
    /// key, the byte-string analogue of the u64 scan's `fence + 1`.
    pub fn successor(&self) -> Option<KeyBuf> {
        let mut next = *self;
        if next.len() < MAX_KEY_LEN {
            // Appending a zero byte yields the immediate successor.
            next.bytes[next.len as usize] = 0;
            next.len += 1;
            return Some(next);
        }
        // At full length: strip trailing 0xFF bytes, then increment. The
        // resulting shorter-or-bumped string is the least upper bound of
        // everything that fits in MAX_KEY_LEN bytes.
        let mut l = next.len as usize;
        while l > 0 && next.bytes[l - 1] == 0xFF {
            next.bytes[l - 1] = 0;
            l -= 1;
        }
        if l == 0 {
            return None;
        }
        next.bytes[l - 1] += 1;
        next.len = l as u8;
        Some(next)
    }
}

impl Default for KeyBuf {
    fn default() -> Self {
        KeyBuf::MIN
    }
}

impl PartialEq for KeyBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for KeyBuf {}

impl PartialOrd for KeyBuf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyBuf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for KeyBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl std::fmt::Debug for KeyBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyBuf({:02x?})", self.as_slice())
    }
}

impl AsRef<[u8]> for KeyBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

// Sound because equality, ordering and hashing all delegate to the slice.
impl std::borrow::Borrow<[u8]> for KeyBuf {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for KeyBuf {
    fn from(bytes: &[u8]) -> Self {
        KeyBuf::from_slice(bytes)
    }
}

/// An order-preserving encoding between a typed key and byte-comparable
/// bytes: `a <= b` ⇔ `encode(a) <= encode(b)` lexicographically.
///
/// The codec is the boundary that lets every u64-facing API ride on the
/// byte-key machinery without a layout or perf change: typed call sites
/// encode at the edge, the tree below speaks only bytes.
pub trait KeyCodec {
    /// Encodes `key` into its byte-comparable form.
    fn encode(key: Key) -> KeyBuf;

    /// Decodes `bytes` back to the typed key, if `bytes` is a valid
    /// encoding (for [`U64Key`]: exactly 8 bytes).
    fn decode(bytes: &[u8]) -> Option<Key>;
}

/// The `u64` codec: 8 big-endian bytes. Big-endian is what makes the
/// encoding order-preserving — the most significant byte compares first.
pub struct U64Key;

impl KeyCodec for U64Key {
    #[inline]
    fn encode(key: Key) -> KeyBuf {
        KeyBuf {
            len: 8,
            bytes: {
                let mut b = [0u8; MAX_KEY_LEN];
                b[..8].copy_from_slice(&key.to_be_bytes());
                b
            },
        }
    }

    #[inline]
    fn decode(bytes: &[u8]) -> Option<Key> {
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(u64::from_be_bytes(arr))
    }
}

/// The first four bytes of `key` as a big-endian `u32`, zero-padded on the
/// right for shorter keys.
///
/// Heads are *order-consistent*: `key_head(a) < key_head(b)` implies
/// `a < b`, so a comparison can be decided by heads alone whenever they
/// differ. Equal heads decide nothing (`"abcd"` vs `"abcde"`, or any two
/// short keys padded to the same word) — those ties fall back to full key
/// bytes, and the zero-padding is safe precisely because the fallback
/// re-compares from scratch rather than trusting the pad.
#[inline]
pub fn key_head(key: &[u8]) -> u32 {
    let mut h = [0u8; 4];
    let n = key.len().min(4);
    h[..n].copy_from_slice(&key[..n]);
    u32::from_be_bytes(h)
}

/// Length of the longest common prefix of `a` and `b`.
#[inline]
pub fn lcp(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_codec_is_order_preserving_and_roundtrips() {
        let samples = [0u64, 1, 2, 255, 256, 1 << 32, u64::MAX - 1, u64::MAX];
        for &a in &samples {
            assert_eq!(U64Key::decode(U64Key::encode(a).as_slice()), Some(a));
            for &b in &samples {
                assert_eq!(
                    a.cmp(&b),
                    U64Key::encode(a).as_slice().cmp(U64Key::encode(b).as_slice()),
                    "{a} vs {b}"
                );
            }
        }
        assert_eq!(U64Key::decode(b"short"), None);
        assert_eq!(U64Key::decode(b"nine..bytes"), None);
    }

    #[test]
    fn heads_are_order_consistent() {
        let keys: [&[u8]; 8] = [
            b"", b"a", b"ab", b"abc", b"abcd", b"abcde", b"abd", b"b",
        ];
        for a in keys {
            for b in keys {
                let (ha, hb) = (key_head(a), key_head(b));
                if ha < hb {
                    assert!(a < b, "{a:?} {b:?}");
                }
                if a <= b {
                    assert!(ha <= hb, "{a:?} {b:?}");
                }
            }
        }
        // u64 encoding's head is the top 32 bits.
        let k = 0xDEAD_BEEF_0123_4567u64;
        assert_eq!(key_head(U64Key::encode(k).as_slice()), 0xDEAD_BEEF);
    }

    #[test]
    fn keybuf_orders_like_slices_and_successor_is_tight() {
        let a = KeyBuf::from_slice(b"abc");
        let b = KeyBuf::from_slice(b"abcd");
        assert!(a < b);
        assert!(KeyBuf::MIN < a);
        assert_eq!(a.as_slice(), b"abc");

        let s = a.successor().unwrap();
        assert!(a < s);
        assert!(s < b, "successor must not skip over an extension");

        let full = KeyBuf::from_slice(&[0xFFu8; MAX_KEY_LEN]);
        assert_eq!(full.successor(), None);

        let mut almost = [0x41u8; MAX_KEY_LEN];
        almost[MAX_KEY_LEN - 1] = 0xFF;
        let k = KeyBuf::from_slice(&almost);
        let s = k.successor().unwrap();
        assert!(k < s);
        assert_eq!(s.len(), MAX_KEY_LEN - 1);
    }

    #[test]
    fn lcp_counts_shared_prefix() {
        assert_eq!(lcp(b"abcx", b"abcy"), 3);
        assert_eq!(lcp(b"abc", b"abc"), 3);
        assert_eq!(lcp(b"abc", b"abcdef"), 3);
        assert_eq!(lcp(b"", b"abc"), 0);
        assert_eq!(lcp(b"x", b"y"), 0);
    }
}
