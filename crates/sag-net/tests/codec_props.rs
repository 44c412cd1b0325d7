//! Property tests of the wire codec: every request/reply variant
//! round-trips bitwise, and no mutation of the bytes — truncation,
//! corruption, oversizing — can make the decoder panic or accept garbage.

use proptest::prelude::*;
use sag_core::sse::{SseSolveStats, SseTotals};
use sag_core::{AlertOutcome, CycleResult, SignalingScheme};
use sag_net::codec::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
    CodecError, NetError, Reply, WireError, MAX_FRAME,
};
use sag_service::{Request, Response, SessionId, TenantId};
use sag_sim::{Alert, AlertTypeId, TimeOfDay};

/// Finite `f64`s across sign and magnitude (bitwise round-trip holds for
/// any bits; finiteness keeps `==` comparisons meaningful).
fn arb_f64() -> impl Strategy<Value = f64> {
    (any::<u32>(), any::<bool>()).prop_map(|(m, neg)| {
        let v = f64::from(m) / 97.0;
        if neg {
            -v
        } else {
            v
        }
    })
}

fn arb_name() -> impl Strategy<Value = String> {
    collection::vec(0u8..26, 0..12)
        .prop_map(|v| v.iter().map(|c| char::from(b'a' + c)).collect::<String>())
}

fn arb_alert() -> impl Strategy<Value = Alert> {
    (0u32..3650, 0u32..86_400, any::<u32>(), any::<bool>()).prop_map(
        |(day, seconds, type_raw, is_attack)| Alert {
            day,
            time: TimeOfDay::from_seconds(seconds),
            type_id: AlertTypeId(type_raw as u16),
            employee: None,
            patient: None,
            is_attack,
        },
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..3,
        arb_name(),
        (any::<bool>(), any::<bool>(), 0u32..10_000, arb_f64()),
        any::<u64>(),
        arb_alert(),
    )
        .prop_map(
            |(kind, tenant, (has_day, has_budget, day, budget), session, alert)| match kind {
                0 => Request::OpenDay {
                    tenant: TenantId::from(tenant.as_str()),
                    budget: has_budget.then_some(budget),
                    day: has_day.then_some(day),
                },
                1 => Request::PushAlert {
                    session: SessionId::from_raw(session),
                    alert,
                },
                _ => Request::FinishDay {
                    session: SessionId::from_raw(session),
                },
            },
        )
}

fn arb_stats() -> impl Strategy<Value = SseSolveStats> {
    (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(lp_solves, pivots, fast_path)| {
        SseSolveStats {
            lp_solves,
            pivots,
            fast_path,
        }
    })
}

fn arb_outcome() -> impl Strategy<Value = AlertOutcome> {
    (
        (0u32..1_000_000, 0u32..3650, 0u32..86_400, any::<u32>()),
        (arb_f64(), arb_f64(), arb_f64(), arb_f64(), arb_f64()),
        (arb_f64(), arb_f64(), arb_f64(), arb_f64()),
        (any::<bool>(), any::<bool>(), arb_f64(), arb_f64()),
        (any::<u32>(), arb_f64(), arb_f64()),
        arb_stats(),
    )
        .prop_map(
            |(
                (index, day, seconds, type_raw),
                (ossp_utility, online_sse_utility, offline_sse_utility, ossp_att, online_att),
                (p1, q1, p0, q0),
                (ossp_deterred, ossp_applied, coverage_ossp, coverage_online),
                (best_raw, budget_after_ossp, budget_after_online),
                sse_stats,
            )| AlertOutcome {
                index: index as usize,
                day,
                time: TimeOfDay::from_seconds(seconds),
                type_id: AlertTypeId(type_raw as u16),
                ossp_utility,
                online_sse_utility,
                offline_sse_utility,
                ossp_attacker_utility: ossp_att,
                online_attacker_utility: online_att,
                ossp_scheme: SignalingScheme { p1, q1, p0, q0 },
                ossp_deterred,
                ossp_applied,
                coverage_ossp,
                coverage_online,
                best_response: AlertTypeId(best_raw as u16),
                budget_after_ossp,
                budget_after_online,
                sse_stats,
            },
        )
}

fn arb_result() -> impl Strategy<Value = CycleResult> {
    (
        0u32..3650,
        collection::vec(arb_outcome(), 0..5),
        (arb_f64(), arb_f64()),
        collection::vec(arb_f64(), 0..8),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), arb_f64()),
    )
        .prop_map(
            |(day, outcomes, (auditor, attacker), offline_coverage, totals, tail)| {
                let (pruned, eps_skipped, eps_loss) = tail;
                CycleResult {
                    day,
                    outcomes,
                    offline_auditor_utility: auditor,
                    offline_attacker_utility: attacker,
                    offline_coverage,
                    sse_totals: SseTotals {
                        solves: totals.0,
                        lp_solves: totals.1,
                        warm_attempts: totals.2,
                        warm_hits: totals.3,
                        pivots: totals.4,
                        fast_path_solves: totals.5,
                        pruned_lps: pruned,
                        eps_skipped_lps: eps_skipped,
                    },
                    certified_eps_loss: eps_loss,
                }
            },
        )
}

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    (0u8..7, arb_name(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(code, text, a, b, c)| match code {
            0 => WireError::UnknownTenant(text),
            1 => WireError::UnknownSession(a),
            2 => WireError::Overloaded {
                tenant: text,
                pending: b,
                limit: c,
            },
            3 => WireError::Engine(text),
            4 => WireError::Wal(text),
            5 => WireError::Stale {
                request_id: a,
                last_applied: b,
            },
            _ => WireError::BadRequest(text),
        },
    )
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        0u8..4,
        any::<u64>(),
        arb_name(),
        arb_outcome(),
        arb_result(),
        arb_wire_error(),
    )
        .prop_map(|(kind, session, tenant, outcome, result, error)| {
            let session = SessionId::from_raw(session);
            match kind {
                0 => Ok(Response::DayOpened {
                    session,
                    tenant: TenantId::from(tenant.as_str()),
                }),
                1 => Ok(Response::Decision { session, outcome }),
                2 => Ok(Response::DayClosed {
                    session,
                    tenant: TenantId::from(tenant.as_str()),
                    result,
                }),
                _ => Err(error),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn requests_round_trip_bitwise(id in any::<u64>(), tenant in arb_name(), request in arb_request()) {
        let tenant = TenantId::from(tenant.as_str());
        let bytes = encode_request(id, &tenant, &request);
        prop_assert_eq!(decode_request(&bytes).unwrap(), (id, tenant, request));
    }

    #[test]
    fn replies_round_trip_bitwise(id in any::<u64>(), reply in arb_reply()) {
        let bytes = encode_reply(id, &reply);
        prop_assert_eq!(decode_reply(&bytes).unwrap(), (id, reply));
    }

    #[test]
    fn truncated_payloads_are_structured_errors(id in any::<u64>(), reply in arb_reply(), frac in 0.0f64..1.0) {
        // Every strict prefix of a valid payload must fail cleanly — a
        // decode that "succeeds" on a prefix would mean two messages share
        // an encoding, and a panic would mean a hostile peer can kill the
        // server. Check one random cut (plus the ends) per case.
        let bytes = encode_reply(id, &reply);
        for cut in [0, (bytes.len() as f64 * frac) as usize, bytes.len().saturating_sub(1)] {
            if cut >= bytes.len() {
                continue;
            }
            match decode_reply(&bytes[..cut]) {
                Err(_) => {}
                Ok(decoded) => panic!("prefix of {} bytes decoded as {decoded:?}", cut),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected(id in any::<u64>(), tenant in arb_name(), request in arb_request(), extra in 1usize..16) {
        let mut bytes = encode_request(id, &TenantId::from(tenant.as_str()), &request).to_vec();
        bytes.extend(std::iter::repeat_n(0u8, extra));
        prop_assert_eq!(decode_request(&bytes), Err(CodecError::TrailingBytes(extra)));
    }

    #[test]
    fn payload_bitflips_never_pass_the_frame_crc(id in any::<u64>(), request in arb_request(), flip in any::<u32>()) {
        let payload = encode_request(id, &TenantId::from("prop"), &request);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Flip one bit inside the payload (offset >= 8 skips the header):
        // CRC32 detects all single-bit errors, so this must never decode.
        let byte = 8 + (flip as usize / 8) % payload.len().max(1);
        let bit = flip % 8;
        wire[byte] ^= 1 << bit;
        match read_frame(&mut wire.as_slice()) {
            Err(NetError::Codec(CodecError::Corrupt { .. })) => {}
            other => panic!("bit flip at {byte}:{bit} gave {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_structured_errors(id in any::<u64>(), request in arb_request(), frac in 0.0f64..1.0) {
        let payload = encode_request(id, &TenantId::from("prop"), &request);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let cut = 1 + (frac * (wire.len() - 1) as f64) as usize;
        match read_frame(&mut wire[..cut.min(wire.len() - 1)].as_ref()) {
            Err(NetError::Codec(CodecError::Truncated)) => {}
            other => panic!("cut at {cut} gave {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_rejected(len in 0u64..u32::MAX as u64) {
        let len = (MAX_FRAME as u64 + 1 + len).min(u32::MAX as u64) as u32;
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut wire.as_slice()) {
            Err(NetError::Codec(CodecError::Oversized { len: got })) => {
                prop_assert_eq!(got, len as usize);
            }
            other => panic!("oversized len {len} gave {other:?}"),
        }
    }

    #[test]
    fn unknown_discriminants_are_structured_errors(id in any::<u64>(), kind in 5u8..255, body in collection::vec(any::<u32>(), 0..4)) {
        // Requests carry `id:u64 | tenant:str | kind:u8 | ...`; replies carry
        // `id:u64 | kind:u8 | ...`. Build each envelope prefix so the decoder
        // reaches the unknown discriminant rather than failing earlier.
        let mut request_bytes = id.to_le_bytes().to_vec();
        request_bytes.extend_from_slice(&0u16.to_le_bytes()); // empty tenant
        request_bytes.push(kind);
        request_bytes.extend(body.iter().flat_map(|v| v.to_le_bytes()));
        prop_assert_eq!(decode_request(&request_bytes), Err(CodecError::UnknownKind(kind)));

        let mut reply_bytes = id.to_le_bytes().to_vec();
        reply_bytes.push(kind);
        reply_bytes.extend(body.iter().flat_map(|v| v.to_le_bytes()));
        match decode_reply(&reply_bytes) {
            Err(CodecError::UnknownKind(k)) => prop_assert_eq!(k, kind),
            other => panic!("reply kind {kind} gave {other:?}"),
        }
    }
}
