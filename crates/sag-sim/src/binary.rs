//! Compact binary encoding of alert logs.
//!
//! Real deployments retain months of alert history. This module provides a
//! fixed-width binary codec (9 bytes per alert plus a small header per day)
//! built on [`bytes`], used for archiving synthetic datasets and for fast
//! reload in long experiment sweeps.
//!
//! ## Format
//!
//! ```text
//! DayLog   := magic:u32 ("SAG1") day:u32 count:u32 Alert{count}
//! Alert    := seconds:u32 type:u16 flags:u8 (bit 0 = is_attack) reserved:u16
//! AlertLog := num_days:u32 DayLog{num_days}
//! ```
//!
//! All integers are little-endian. Person references are intentionally not
//! serialised: the audit game only consumes `(time, type, is_attack)`.

use crate::alert::{Alert, AlertTypeId};
use crate::log::{AlertLog, DayLog};
use crate::time::TimeOfDay;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic number identifying a serialized day log.
const MAGIC: u32 = 0x5341_4731; // "SAG1"

/// Errors produced while decoding a binary alert log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The day-log header does not start with the expected magic number.
    BadMagic(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "binary alert log is truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad magic number {m:#x} in alert log"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode one day of alerts.
#[must_use]
pub fn encode_day(day: &DayLog) -> Bytes {
    let mut buf = BytesMut::with_capacity(12 + day.len() * 9);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(day.day());
    buf.put_u32_le(day.len() as u32);
    for alert in day.alerts() {
        buf.put_u32_le(alert.time.seconds());
        buf.put_u16_le(alert.type_id.0);
        buf.put_u8(u8::from(alert.is_attack));
        buf.put_u16_le(0); // reserved
    }
    buf.freeze()
}

/// Decode one day of alerts from the front of `buf`, advancing it.
///
/// # Errors
///
/// Returns [`DecodeError`] when the buffer is malformed.
pub fn decode_day(buf: &mut impl Buf) -> Result<DayLog, DecodeError> {
    if buf.remaining() < 12 {
        return Err(DecodeError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let day = buf.get_u32_le();
    let count = buf.get_u32_le() as usize;
    if buf.remaining() < count * 9 {
        return Err(DecodeError::Truncated);
    }
    let mut alerts = Vec::with_capacity(count);
    for _ in 0..count {
        let seconds = buf.get_u32_le();
        let type_id = buf.get_u16_le();
        let flags = buf.get_u8();
        let _reserved = buf.get_u16_le();
        alerts.push(Alert {
            day,
            time: TimeOfDay::from_seconds(seconds),
            type_id: AlertTypeId(type_id),
            employee: None,
            patient: None,
            is_attack: flags & 1 != 0,
        });
    }
    Ok(DayLog::new(day, alerts))
}

/// Encode a multi-day log.
#[must_use]
pub fn encode_log(log: &AlertLog) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + log.total_alerts() * 9 + log.num_days() * 12);
    buf.put_u32_le(log.num_days() as u32);
    for day in log.days() {
        buf.extend_from_slice(&encode_day(day));
    }
    buf.freeze()
}

/// Decode a multi-day log.
///
/// # Errors
///
/// Returns [`DecodeError`] when the buffer is malformed.
pub fn decode_log(mut buf: impl Buf) -> Result<AlertLog, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let num_days = buf.get_u32_le() as usize;
    let mut days = Vec::with_capacity(num_days);
    for _ in 0..num_days {
        days.push(decode_day(&mut buf)?);
    }
    Ok(AlertLog::new(days))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{StreamConfig, StreamGenerator};

    fn sample_day() -> DayLog {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(3));
        gen.generate_day(5)
    }

    #[test]
    fn day_round_trips() {
        let day = sample_day();
        let encoded = encode_day(&day);
        let decoded = decode_day(&mut encoded.clone()).unwrap();
        assert_eq!(decoded.day(), day.day());
        assert_eq!(decoded.len(), day.len());
        for (a, b) in day.alerts().iter().zip(decoded.alerts()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.type_id, b.type_id);
            assert_eq!(a.is_attack, b.is_attack);
        }
    }

    #[test]
    fn log_round_trips_and_is_compact() {
        let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(9));
        let log = AlertLog::new(gen.generate_days(5));
        let encoded = encode_log(&log);
        // 9 bytes per alert plus headers: far below the ~80 bytes/alert of
        // JSON-lines.
        assert!(encoded.len() <= 4 + log.num_days() * 12 + log.total_alerts() * 9);
        let decoded = decode_log(encoded).unwrap();
        assert_eq!(decoded.num_days(), log.num_days());
        assert_eq!(decoded.total_alerts(), log.total_alerts());
    }

    #[test]
    fn attack_flag_survives_round_trip() {
        let mut day = sample_day();
        day.insert(Alert::attack(
            5,
            TimeOfDay::from_hms(23, 0, 0),
            AlertTypeId(6),
        ));
        let decoded = decode_day(&mut encode_day(&day)).unwrap();
        assert_eq!(decoded.alerts().iter().filter(|a| a.is_attack).count(), 1);
        let attack = decoded.alerts().iter().find(|a| a.is_attack).unwrap();
        assert_eq!(attack.type_id, AlertTypeId(6));
        assert_eq!(attack.time, TimeOfDay::from_hms(23, 0, 0));
    }

    #[test]
    fn truncated_and_corrupt_buffers_are_rejected() {
        let day = sample_day();
        let encoded = encode_day(&day);
        // Truncate mid-alert.
        let truncated = encoded.slice(0..encoded.len() - 3);
        assert_eq!(
            decode_day(&mut truncated.clone()),
            Err(DecodeError::Truncated)
        );
        // Corrupt the magic.
        let mut corrupt = BytesMut::from(&encoded[..]);
        corrupt[0] = 0xFF;
        assert!(matches!(
            decode_day(&mut corrupt.freeze()),
            Err(DecodeError::BadMagic(_))
        ));
        // Empty buffer.
        assert_eq!(decode_log(Bytes::new()), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_error_messages_are_informative() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadMagic(0xdead).to_string().contains("magic"));
    }
}
