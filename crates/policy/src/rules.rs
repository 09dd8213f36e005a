//! Policy rules, including the paper's canonical tiered example:
//!
//! > "rate limit customer C to X Mbps until they have sent Y GB in
//! > interval t₁, then limit to Z Mbps for interval t₂."  (§2.2)
//!
//! Rules are declarative; the AGW's `pipelined` compiles the *currently
//! effective* limits into data-plane meters, and `sessiond` re-evaluates
//! effective limits as usage accumulates.

use crate::qos::Qci;
use bytes::BufMut;
use magma_sim::{SimDuration, SimTime};
use magma_wire::cursor::{put_opt, put_str, Reader};
use magma_wire::WireError;
use serde::{Deserialize, Serialize};

/// How usage under a rule is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UsageTracking {
    /// No tracking (e.g., the AccessParks "unrestricted" policy).
    None,
    /// Metered locally, reported to the orchestrator (offline/postpaid).
    Offline,
    /// Online credit control via the OCS (prepaid quotas).
    Online,
}

/// A flat rate limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateLimit {
    pub dl_kbps: u32,
    pub ul_kbps: u32,
}

impl UsageTracking {
    pub fn encode(&self, out: &mut impl BufMut) {
        out.put_u8(match self {
            UsageTracking::None => 0,
            UsageTracking::Offline => 1,
            UsageTracking::Online => 2,
        });
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(UsageTracking::None),
            1 => Ok(UsageTracking::Offline),
            2 => Ok(UsageTracking::Online),
            v => Err(WireError::BadValue {
                field: "usage tracking",
                value: v as u64,
            }),
        }
    }
}

impl RateLimit {
    pub fn encode(&self, out: &mut impl BufMut) {
        out.put_u32(self.dl_kbps);
        out.put_u32(self.ul_kbps);
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RateLimit {
            dl_kbps: r.u32()?,
            ul_kbps: r.u32()?,
        })
    }
}

/// A tiered rate policy: full speed until a usage cap inside a rolling
/// window, then throttled for a penalty interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TieredPolicy {
    /// Phase-1 limit (X Mbps).
    pub normal: RateLimit,
    /// Usage cap (Y bytes) within `window`.
    pub cap_bytes: u64,
    /// Measurement window (t₁).
    pub window: SimDuration,
    /// Throttled limit (Z Mbps).
    pub throttled: RateLimit,
    /// Throttle duration (t₂).
    pub penalty: SimDuration,
}

impl TieredPolicy {
    pub fn encode(&self, out: &mut impl BufMut) {
        self.normal.encode(out);
        out.put_u64(self.cap_bytes);
        out.put_u64(self.window.0);
        self.throttled.encode(out);
        out.put_u64(self.penalty.0);
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TieredPolicy {
            normal: RateLimit::decode(r)?,
            cap_bytes: r.u64()?,
            window: SimDuration(r.u64()?),
            throttled: RateLimit::decode(r)?,
            penalty: SimDuration(r.u64()?),
        })
    }
}

/// A complete policy rule, the unit pushed from orchestrator to AGWs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Stable rule name (e.g., `"gold-tier"`).
    pub id: String,
    /// Higher wins when multiple rules match a subscriber.
    pub priority: u16,
    pub qci: Qci,
    pub tracking: UsageTracking,
    pub limit: Option<RateLimit>,
    pub tiered: Option<TieredPolicy>,
}

impl PolicyRule {
    /// Unrestricted best-effort rule (AccessParks deployment, §4.3.1).
    pub fn unrestricted(id: &str) -> Self {
        PolicyRule {
            id: id.to_string(),
            priority: 1,
            qci: Qci::Default,
            tracking: UsageTracking::None,
            limit: None,
            tiered: None,
        }
    }

    /// Flat rate limit.
    pub fn rate_limited(id: &str, dl_kbps: u32, ul_kbps: u32) -> Self {
        PolicyRule {
            id: id.to_string(),
            priority: 10,
            qci: Qci::Default,
            tracking: UsageTracking::Offline,
            limit: Some(RateLimit { dl_kbps, ul_kbps }),
            tiered: None,
        }
    }

    /// The paper's tiered example.
    pub fn tiered(id: &str, policy: TieredPolicy) -> Self {
        PolicyRule {
            id: id.to_string(),
            priority: 10,
            qci: Qci::Default,
            tracking: UsageTracking::Offline,
            limit: None,
            tiered: Some(policy),
        }
    }
}

impl PolicyRule {
    /// Binary form carried in the AGW checkpoint (each session holds its
    /// effective rule).
    pub fn encode(&self, out: &mut impl BufMut) {
        put_str(out, &self.id);
        out.put_u16(self.priority);
        out.put_u8(self.qci.value());
        self.tracking.encode(out);
        put_opt(out, &self.limit, |b, l| l.encode(b));
        put_opt(out, &self.tiered, |b, t| t.encode(b));
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PolicyRule {
            id: r.str()?,
            priority: r.u16()?,
            qci: Qci::from_value(r.u8()?)?,
            tracking: UsageTracking::decode(r)?,
            limit: r.opt(RateLimit::decode)?,
            tiered: r.opt(TieredPolicy::decode)?,
        })
    }
}

/// Runtime evaluation state for a tiered policy on one subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredState {
    policy: TieredPolicy,
    window_start: SimTime,
    window_bytes: u64,
    throttled_until: Option<SimTime>,
}

impl TieredState {
    pub fn new(policy: TieredPolicy, now: SimTime) -> Self {
        TieredState {
            policy,
            window_start: now,
            window_bytes: 0,
            throttled_until: None,
        }
    }

    /// Record usage and return the limit now in effect. The caller
    /// reprograms meters when the returned limit changes.
    pub fn on_usage(&mut self, now: SimTime, bytes: u64) -> RateLimit {
        // Penalty expiry resets the measurement window.
        if let Some(until) = self.throttled_until {
            if now >= until {
                self.throttled_until = None;
                self.window_start = now;
                self.window_bytes = 0;
            }
        }
        // Window roll-over.
        if now.since(self.window_start) >= self.policy.window {
            self.window_start = now;
            self.window_bytes = 0;
        }
        self.window_bytes += bytes;
        // Cap breach starts a penalty.
        if self.throttled_until.is_none() && self.window_bytes > self.policy.cap_bytes {
            self.throttled_until = Some(now + self.policy.penalty);
        }
        self.effective(now)
    }

    /// Limit in effect at `now` without recording usage.
    pub fn effective(&self, now: SimTime) -> RateLimit {
        match self.throttled_until {
            Some(until) if now < until => self.policy.throttled,
            _ => self.policy.normal,
        }
    }

    pub fn is_throttled(&self, now: SimTime) -> bool {
        matches!(self.throttled_until, Some(until) if now < until)
    }

    pub fn window_usage(&self) -> u64 {
        self.window_bytes
    }

    /// Binary form carried in the AGW checkpoint.
    pub fn encode(&self, out: &mut impl BufMut) {
        self.policy.encode(out);
        out.put_u64(self.window_start.0);
        out.put_u64(self.window_bytes);
        put_opt(out, &self.throttled_until, |b, t| b.put_u64(t.0));
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TieredState {
            policy: TieredPolicy::decode(r)?,
            window_start: SimTime(r.u64()?),
            window_bytes: r.u64()?,
            throttled_until: r.opt(|r| r.u64().map(SimTime))?,
        })
    }
}

/// Pick the effective rule for a subscriber from a candidate set
/// (highest priority wins; ties broken by rule id for determinism).
pub fn select_rule(rules: &[PolicyRule]) -> Option<&PolicyRule> {
    rules
        .iter()
        .max_by(|a, b| a.priority.cmp(&b.priority).then(b.id.cmp(&a.id)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> TieredPolicy {
        TieredPolicy {
            normal: RateLimit {
                dl_kbps: 10_000,
                ul_kbps: 2_000,
            },
            cap_bytes: 1_000_000, // 1 MB
            window: SimDuration::from_secs(3600),
            throttled: RateLimit {
                dl_kbps: 500,
                ul_kbps: 500,
            },
            penalty: SimDuration::from_secs(600),
        }
    }

    #[test]
    fn under_cap_stays_normal() {
        let mut st = TieredState::new(policy(), SimTime::ZERO);
        let lim = st.on_usage(SimTime::from_secs(10), 500_000);
        assert_eq!(lim.dl_kbps, 10_000);
        assert!(!st.is_throttled(SimTime::from_secs(10)));
    }

    #[test]
    fn breach_throttles_for_penalty_then_recovers() {
        let mut st = TieredState::new(policy(), SimTime::ZERO);
        st.on_usage(SimTime::from_secs(10), 600_000);
        let lim = st.on_usage(SimTime::from_secs(20), 600_000); // total 1.2MB > 1MB
        assert_eq!(lim.dl_kbps, 500, "throttled after cap breach");
        assert!(st.is_throttled(SimTime::from_secs(21)));
        // Still throttled within the penalty window.
        assert_eq!(st.effective(SimTime::from_secs(619)).dl_kbps, 500);
        // Penalty over at t=20+600.
        assert_eq!(st.effective(SimTime::from_secs(621)).dl_kbps, 10_000);
        // And usage resets on the next report.
        let lim = st.on_usage(SimTime::from_secs(700), 1000);
        assert_eq!(lim.dl_kbps, 10_000);
        assert_eq!(st.window_usage(), 1000);
    }

    #[test]
    fn window_rollover_resets_usage() {
        let mut st = TieredState::new(policy(), SimTime::ZERO);
        st.on_usage(SimTime::from_secs(10), 900_000);
        // One hour later the window rolls; the same usage doesn't breach.
        let lim = st.on_usage(SimTime::from_secs(3700), 900_000);
        assert_eq!(lim.dl_kbps, 10_000);
        assert_eq!(st.window_usage(), 900_000);
    }

    #[test]
    fn select_rule_prefers_priority_then_id() {
        let rules = vec![
            PolicyRule::unrestricted("base"),
            PolicyRule::rate_limited("silver", 5_000, 1_000),
            PolicyRule::rate_limited("gold", 5_000, 1_000),
        ];
        // silver and gold tie at priority 10; "gold" < "silver"
        // lexicographically so gold wins deterministically.
        assert_eq!(select_rule(&rules).unwrap().id, "gold");
        assert!(select_rule(&[]).is_none());
    }

    #[test]
    fn constructors_have_expected_tracking() {
        assert_eq!(
            PolicyRule::unrestricted("x").tracking,
            UsageTracking::None
        );
        assert_eq!(
            PolicyRule::rate_limited("x", 1, 1).tracking,
            UsageTracking::Offline
        );
    }
}
