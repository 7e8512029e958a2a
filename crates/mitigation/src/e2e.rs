//! End-to-end checksummed storage with scrubbing.
//!
//! §6: "Many of our applications already checked for SDCs; this checking
//! can also detect CEEs, at minimal extra cost. For example, the Colossus
//! file system protects the write path with end-to-end checksums."
//! Combined with §3's "scrub storage to detect corruption-at-rest", this
//! module is the storage-shaped mitigation: a put/get store where every
//! blob carries a CRC-32C computed at the *client* (the end of the
//! end-to-end argument [20]), verified on read and by a background
//! scrubber.

use mercurial_corpus::crc::{crc_bitwise, POLY_CRC32C};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No such key.
    NotFound,
    /// The blob's checksum did not verify on read.
    CorruptOnRead {
        /// Stored CRC.
        expected: u32,
        /// CRC of the bytes actually returned.
        got: u32,
    },
    /// The write path corrupted data before it was persisted (caught by
    /// the post-write verify).
    CorruptOnWrite,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound => f.write_str("key not found"),
            StoreError::CorruptOnRead { expected, got } => {
                write!(
                    f,
                    "corrupt on read: expected {expected:#010x}, got {got:#010x}"
                )
            }
            StoreError::CorruptOnWrite => f.write_str("write path corrupted the payload"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A scrub pass report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Blobs examined.
    pub scanned: u64,
    /// Blobs whose checksum failed.
    pub corrupt: u64,
}

fn crc32c(data: &[u8]) -> u32 {
    crc_bitwise(POLY_CRC32C, data)
}

struct Entry {
    data: Arc<[u8]>,
    crc: u32,
}

/// A put/get blob store with client-side end-to-end checksums.
///
/// The write path is pluggable (`write_path` transforms the payload on its
/// way to the medium) so tests and experiments can interpose a defective
/// copy engine — exactly the §1 scenario where a low-level library change
/// routed copies through a defective unit.
#[derive(Default)]
pub struct ChecksummedStore {
    entries: BTreeMap<String, Entry>,
}

impl ChecksummedStore {
    /// Creates an empty store.
    pub fn new() -> ChecksummedStore {
        ChecksummedStore::default()
    }

    /// Number of blobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores a blob through a (possibly defective) write path, verifying
    /// the persisted bytes against the client-computed checksum before
    /// acknowledging.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptOnWrite`] if the write path mangled
    /// the payload; nothing is persisted in that case.
    pub fn put_via<F>(
        &mut self,
        key: impl Into<String>,
        data: &[u8],
        mut write_path: F,
    ) -> Result<(), StoreError>
    where
        F: FnMut(&[u8]) -> Vec<u8>,
    {
        let crc = crc32c(data); // end-to-end: computed before the copy
        let persisted = write_path(data);
        if crc32c(&persisted) != crc {
            return Err(StoreError::CorruptOnWrite);
        }
        self.entries.insert(
            key.into(),
            Entry {
                data: persisted.into(),
                crc,
            },
        );
        Ok(())
    }

    /// Stores a blob through the identity write path.
    pub fn put(&mut self, key: impl Into<String>, data: &[u8]) -> Result<(), StoreError> {
        self.put_via(key, data, |d| d.to_vec())
    }

    /// Reads a blob, verifying its checksum.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] or [`StoreError::CorruptOnRead`].
    pub fn get(&self, key: &str) -> Result<Arc<[u8]>, StoreError> {
        let entry = self.entries.get(key).ok_or(StoreError::NotFound)?;
        let got = crc32c(&entry.data);
        if got != entry.crc {
            return Err(StoreError::CorruptOnRead {
                expected: entry.crc,
                got,
            });
        }
        Ok(entry.data.clone())
    }

    /// Corrupts a stored blob in place (test/experiment hook: bit `bit` of
    /// byte `byte` flips, as a defective medium or copy engine would).
    ///
    /// Returns `false` if the key does not exist or the byte is out of
    /// range.
    pub fn corrupt_at_rest(&mut self, key: &str, byte: usize, bit: u8) -> bool {
        if let Some(entry) = self.entries.get_mut(key) {
            let mut data = entry.data.to_vec();
            if byte < data.len() {
                data[byte] ^= 1 << (bit & 7);
                entry.data = data.into();
                return true;
            }
        }
        false
    }

    /// Scrubs every blob (§3's "scrub storage to detect
    /// corruption-at-rest"), returning counts. Corrupt blobs stay in place
    /// for forensic inspection; callers repair from replicas.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for entry in self.entries.values() {
            report.scanned += 1;
            if crc32c(&entry.data) != entry.crc {
                report.corrupt += 1;
            }
        }
        report
    }

    /// Keys whose blobs currently fail verification.
    pub fn corrupt_keys(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(_, e)| crc32c(&e.data) != e.crc)
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut store = ChecksummedStore::new();
        store.put("a", b"hello").unwrap();
        assert_eq!(store.get("a").unwrap().as_ref(), b"hello");
        assert_eq!(store.get("missing"), Err(StoreError::NotFound));
    }

    #[test]
    fn defective_write_path_is_refused_before_persisting() {
        // §1's incident shape: the write path's copy corrupts. The
        // end-to-end check catches it at write time, so no corrupt data is
        // ever acknowledged.
        let mut store = ChecksummedStore::new();
        let err = store
            .put_via("k", b"important data", |d| {
                let mut v = d.to_vec();
                v[2] ^= 0x08; // stuck bit in the copy engine
                v
            })
            .unwrap_err();
        assert_eq!(err, StoreError::CorruptOnWrite);
        assert!(store.is_empty());
    }

    #[test]
    fn corruption_at_rest_caught_on_read_and_by_scrub() {
        let mut store = ChecksummedStore::new();
        store.put("x", b"precious bytes").unwrap();
        store.put("y", b"also precious").unwrap();
        assert!(store.corrupt_at_rest("x", 3, 5));
        match store.get("x") {
            Err(StoreError::CorruptOnRead { .. }) => {}
            other => panic!("expected corrupt-on-read, got {other:?}"),
        }
        // The untouched blob still reads fine.
        assert!(store.get("y").is_ok());
        let report = store.scrub();
        assert_eq!(
            report,
            ScrubReport {
                scanned: 2,
                corrupt: 1
            }
        );
        assert_eq!(store.corrupt_keys(), vec!["x"]);
    }

    #[test]
    fn corrupt_at_rest_bounds_checked() {
        let mut store = ChecksummedStore::new();
        store.put("x", b"ab").unwrap();
        assert!(!store.corrupt_at_rest("x", 99, 0));
        assert!(!store.corrupt_at_rest("nope", 0, 0));
    }

    #[test]
    fn scrub_clean_store() {
        let mut store = ChecksummedStore::new();
        for i in 0..10 {
            store
                .put(format!("k{i}"), format!("payload {i}").as_bytes())
                .unwrap();
        }
        let report = store.scrub();
        assert_eq!(
            report,
            ScrubReport {
                scanned: 10,
                corrupt: 0
            }
        );
    }
}
