//! # sag-wal — crash-safe durability substrate for the SAG service
//!
//! The audit game's signaling guarantee is a *commitment*: once the service
//! acknowledged a [`PushAlert`](WalRecord::PushAlert) decision, forgetting it
//! on restart silently breaks the promise the auditor made to the attacker.
//! This crate supplies the machinery the service layer uses to never forget:
//!
//! * [`WalRecord`] — the per-tenant log records (`OpenDay` / `PushAlert` /
//!   `FinishDay` / `HistoryDay`), encoded as length-prefixed, CRC-framed
//!   entries in an append-only log. Torn writes and truncated tails are
//!   recognised and the incomplete final record is discarded on replay;
//!   corruption *before* the tail is a hard [`WalError`].
//! * [`Snapshot`] — a periodic full copy of a tenant's rolling history plus
//!   the service's session-id counter, written atomically (temp + rename)
//!   so the WAL can be truncated.
//! * [`WalFs`] — the storage seam: [`DirFs`] appends to real files (with
//!   optional fsync), [`MemFs`] keeps everything in shared memory for fast
//!   tests, and [`FailpointFs`] wraps any of them to kill a scripted write
//!   after a scripted byte offset — the deterministic fault-injection
//!   harness behind the crash-at-every-alert-index property tests.
//!
//! The crate is deliberately mechanism-only: it knows how to frame, scan,
//! snapshot and fail, but not what the records *mean*. Interpretation —
//! logging before acknowledging, replaying a snapshot + WAL tail back into
//! bitwise-identical open sessions — lives in `sag-service`
//! (`ServiceBuilder::recover_from`).
//!
//! ## On-disk format
//!
//! ```text
//! wal file   := header frame*
//! header     := magic:u32 ("SAGW") version:u16 tenant_len:u16 tenant_utf8
//! frame      := len:u32 crc:u32 payload[len]        (crc = CRC-32/IEEE of payload)
//! snap file  := magic:u32 ("SAGS") version:u16 tenant_len:u16 tenant_utf8
//!               next_session:u64 num_days:u32 day{num_days} crc:u32
//! ```
//!
//! All integers are little-endian; `day` reuses `sag_sim::binary::encode_day`.

#![forbid(unsafe_code)]

pub mod error;
pub mod fs;
pub mod record;
pub mod snapshot;

pub use error::WalError;
pub use fs::{DirFs, FailpointFs, MemFs, WalFs};
pub use record::{
    decode_wal_header, encode_wal_header, read_wal, WalRecord, WalScan, MAX_RECORD, WAL_MAGIC,
    WAL_VERSION,
};
pub use snapshot::{Snapshot, SNAPSHOT_MAGIC};

/// Result alias for fallible WAL operations.
pub type Result<T> = std::result::Result<T, WalError>;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) slicing-by-16 tables,
/// built at compile time. `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets [`crc32`] fold 16 input bytes per step with 16
/// independent lookups. Hand-rolled because the workspace vendors its own
/// dependency surface.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) checksum of `data`, slicing by 16 bytes: the same value
/// as the byte-at-a-time loop, about five times faster on large frames.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let head = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        // Byte `i` of the chunk is followed by `15 − i` more bytes.
        crc = head
            .to_le_bytes()
            .iter()
            .chain(&chunk[4..])
            .enumerate()
            .fold(0, |acc, (i, &byte)| {
                acc ^ CRC_TABLES[15 - i][usize::from(byte)]
            });
    }
    !chunks.remainder().iter().fold(crc, |crc, &byte| {
        (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
    })
}

/// Map a tenant name to a filesystem-safe stem: alphanumerics, `-` and `_`
/// pass through; every other byte becomes `%XX`. Injective, so two distinct
/// tenant names can never collide on one file.
#[must_use]
pub fn sanitize_tenant(tenant: &str) -> String {
    let mut out = String::with_capacity(tenant.len());
    for byte in tenant.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(byte as char),
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

/// Best-effort inverse of [`sanitize_tenant`], for naming the culprit in
/// errors about files no registered tenant owns. Undecodable escapes pass
/// through verbatim.
#[must_use]
pub fn unsanitize_tenant(stem: &str) -> String {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(hex) = stem.get(i + 1..i + 3) {
                if let Ok(byte) = u8::from_str_radix(hex, 16) {
                    out.push(byte);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The WAL file name for a tenant.
#[must_use]
pub fn wal_file_name(tenant: &str) -> String {
    format!("{}.wal", sanitize_tenant(tenant))
}

/// The snapshot file name for a tenant.
#[must_use]
pub fn snapshot_file_name(tenant: &str) -> String {
    format!("{}.snap", sanitize_tenant(tenant))
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The byte-at-a-time CRC the sliced one must reproduce bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &byte| {
            (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
        })
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lengths straddle every chunk remainder, and slicing at a
        /// random offset starts the 16-byte steps unaligned.
        #[test]
        fn sliced_crc32_equals_the_bytewise_oracle(
            data in collection::vec(0u16..256, 0..600usize),
            start in 0usize..40,
        ) {
            let bytes: Vec<u8> = data.iter().map(|&b| b as u8).collect();
            let tail = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }
    }

    #[test]
    fn sanitize_is_injective_and_invertible_on_odd_names() {
        for name in ["plain", "has space", "slash/../..", "per%cent", "ünïcode"] {
            let stem = sanitize_tenant(name);
            assert!(
                stem.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "{stem}"
            );
            assert_eq!(unsanitize_tenant(&stem), name);
        }
        assert_ne!(sanitize_tenant("a b"), sanitize_tenant("a_b"));
        assert_eq!(wal_file_name("a b"), "a%20b.wal");
        assert_eq!(snapshot_file_name("x"), "x.snap");
    }
}
