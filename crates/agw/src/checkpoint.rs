//! AGW runtime-state checkpointing (§3.3).
//!
//! The checkpoint holds runtime state only: what no other component owns
//! and the AGW cannot rebuild — the session table, the IP leases, and the
//! bootstrap certificate. Configuration is not in it. The subscriber
//! database is desired state that the orchestrator owns and pushes
//! (§3.2), so a backup instance takes its config replica from orc8r and
//! its runtime state from the uploaded checkpoint
//! ([`crate::AgwActor::restore`]). State derivable from the rest (the
//! pool's free set, the session indexes) is rebuilt on decode, not
//! shipped. Mid-procedure MME state is *not* checkpointed — it is
//! ephemeral and recoverable ("a UE can simply reconnect", §3.4).
//!
//! The encoding is binary and big-endian, in the idiom of `magma-wire`:
//!
//! ```text
//! [u16 len][agw_id][u64 taken_at_us][opt u64 cert][sessions][pool]
//! ```
//!
//! Each type writes and reads its own part next to its definition
//! (`SessionManager::encode`, `IpPool::encode`, `PolicyRule::encode`,
//! …). [`encode`] works from borrowed live state, so taking a checkpoint
//! copies no table. The orchestrator stores the bytes as an opaque blob
//! and never decodes them; only failover calls [`AgwCheckpoint::decode`].

use crate::mobilityd::IpPool;
use crate::sessiond::SessionManager;
use bytes::{BufMut, Bytes, BytesMut};
use magma_sim::SimTime;
use magma_wire::cursor::{put_opt, put_str, Reader};
use magma_wire::WireError;

/// A decoded AGW runtime checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct AgwCheckpoint {
    pub agw_id: String,
    /// Simulated time the checkpoint was taken (microseconds).
    pub taken_at_us: u64,
    pub sessions: SessionManager,
    pub pool: IpPool,
    /// Bootstrap certificate, so the restored instance keeps checking in.
    pub cert: Option<u64>,
}

/// Encode a checkpoint from the live state.
pub fn encode(
    agw_id: &str,
    taken_at: SimTime,
    sessions: &SessionManager,
    pool: &IpPool,
    cert: Option<u64>,
) -> Bytes {
    let mut out = BytesMut::with_capacity(64 + 128 * sessions.len() + 12 * pool.in_use());
    put_str(&mut out, agw_id);
    out.put_u64(taken_at.as_micros());
    put_opt(&mut out, &cert, |b, c| b.put_u64(*c));
    sessions.encode(&mut out);
    pool.encode(&mut out);
    out.freeze()
}

impl AgwCheckpoint {
    /// Decode [`encode`]'s output. Truncated input, trailing bytes, and
    /// any inconsistency the session table or pool decoder rejects are
    /// errors.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let cp = AgwCheckpoint {
            agw_id: r.str()?,
            taken_at_us: r.u64()?,
            cert: r.opt(|r| r.u64())?,
            sessions: SessionManager::decode(&mut r)?,
            pool: IpPool::decode(&mut r)?,
        };
        r.finish()?;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_policy::{PolicyRule, RateLimit, TieredPolicy, UsageTracking};
    use magma_sim::SimDuration;
    use magma_wire::{Imsi, Teid, UeIp};

    /// Two sessions covering every optional part: a tiered rule with
    /// its runtime state, and an online rule with a credit bucket.
    fn sample() -> (SessionManager, IpPool) {
        let mut sessions = SessionManager::new();
        let mut pool = IpPool::new(0x0A000002, 100);
        let tiered = PolicyRule::tiered(
            "tier",
            TieredPolicy {
                normal: RateLimit {
                    dl_kbps: 10_000,
                    ul_kbps: 5_000,
                },
                cap_bytes: 1000,
                window: SimDuration::from_secs(3600),
                throttled: RateLimit {
                    dl_kbps: 100,
                    ul_kbps: 100,
                },
                penalty: SimDuration::from_secs(60),
            },
        );
        let mut online = PolicyRule::rate_limited("prepaid", 2_000, 1_000);
        online.tracking = UsageTracking::Online;
        for (n, rule) in [(1, tiered), (2, online)] {
            let imsi = Imsi::new(310, 26, n);
            let ip = pool.allocate(imsi).unwrap();
            let ul = sessions.alloc_teid();
            let id = sessions.create(
                imsi,
                crate::sessiond::AccessTech::Lte,
                ip,
                ul,
                Teid(700 + n as u32),
                rule,
                SimTime::from_secs(3),
            );
            sessions.set_credit(id, 5_000, false);
            sessions.on_usage(id, SimTime::from_secs(4), 1_500, 1_500);
        }
        pool.allocate(Imsi::new(310, 26, 3));
        (sessions, pool)
    }

    #[test]
    fn checkpoint_serializes_and_restores() {
        let (sessions, pool) = sample();
        let bytes = encode("agw-1", SimTime::from_secs(3), &sessions, &pool, Some(1000));
        let back = AgwCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back.agw_id, "agw-1");
        assert_eq!(back.taken_at_us, 3_000_000);
        assert_eq!(back.cert, Some(1000));
        assert_eq!(back.sessions, sessions);
        assert_eq!(back.pool, pool);
        assert_eq!(back.sessions.len(), 2);
        assert!(back.sessions.iter().all(|s| s.credit.is_some()));
        assert!(back.sessions.iter().any(|s| s.tiered.is_some()));
        assert_eq!(back.pool.in_use(), 3);
        assert_eq!(back.pool.available(), 97);
        assert_eq!(back.pool.lookup(Imsi::new(310, 26, 3)), Some(UeIp(0x0A000004)));
    }

    #[test]
    fn every_prefix_and_any_extension_is_rejected() {
        let (sessions, pool) = sample();
        let bytes = encode("agw-1", SimTime::from_secs(3), &sessions, &pool, None);
        for cut in 0..bytes.len() {
            assert!(
                AgwCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} of {} bytes decoded",
                bytes.len()
            );
        }
        for extra in [0u8, 1, 0xFF] {
            let mut longer = bytes.to_vec();
            longer.push(extra);
            assert!(AgwCheckpoint::decode(&longer).is_err(), "trailing {extra:#x}");
        }
    }
}
