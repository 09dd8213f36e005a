//! Online charging (OCS) model — volume-based billing with quotas.
//!
//! §3.4: the OCS tracks a user's balance and authorizes small quotas of
//! data to Magma; whether a user *has* a quota is configuration state,
//! while the amount remaining is runtime state local to the serving AGW.
//! A malicious user moving between AGWs can double-spend at most one
//! quota per AGW — a bound this module makes explicit and the ablation
//! benchmark measures.

use bytes::BufMut;
use magma_wire::cursor::{put_bool, Reader};
use magma_wire::{Imsi, WireError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Server-side account state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Account {
    pub balance_bytes: u64,
    /// Bytes handed out in not-yet-reconciled quotas.
    pub reserved_bytes: u64,
}

/// Outcome of a credit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CreditAnswer {
    /// A quota was granted; `is_final` means the balance is exhausted
    /// after this quota.
    Granted { bytes: u64, is_final: bool },
    /// No balance left (or unknown subscriber).
    Denied,
}

/// The online charging server: tracks balances, grants quotas, reconciles
/// actual usage reported by AGWs.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct OcsServer {
    accounts: BTreeMap<Imsi, Account>,
    /// Quota handed out per grant.
    pub quota_bytes: u64,
    pub grants_issued: u64,
    pub denials: u64,
}

impl OcsServer {
    pub fn new(quota_bytes: u64) -> Self {
        OcsServer {
            accounts: BTreeMap::new(),
            quota_bytes,
            grants_issued: 0,
            denials: 0,
        }
    }

    pub fn provision(&mut self, imsi: Imsi, balance_bytes: u64) {
        self.accounts.insert(
            imsi,
            Account {
                balance_bytes,
                reserved_bytes: 0,
            },
        );
    }

    pub fn balance(&self, imsi: Imsi) -> Option<&Account> {
        self.accounts.get(&imsi)
    }

    /// An AGW (via sessiond) requests a quota for a session.
    pub fn request_credit(&mut self, imsi: Imsi) -> CreditAnswer {
        let Some(acct) = self.accounts.get_mut(&imsi) else {
            self.denials += 1;
            return CreditAnswer::Denied;
        };
        let available = acct.balance_bytes.saturating_sub(acct.reserved_bytes);
        if available == 0 {
            self.denials += 1;
            return CreditAnswer::Denied;
        }
        let grant = self.quota_bytes.min(available);
        acct.reserved_bytes += grant;
        self.grants_issued += 1;
        CreditAnswer::Granted {
            bytes: grant,
            is_final: grant == available,
        }
    }

    /// An AGW reports actual usage against an earlier grant (on quota
    /// exhaustion, session end, or periodic reconciliation).
    pub fn report_usage(&mut self, imsi: Imsi, used_bytes: u64, released_quota: u64) {
        if let Some(acct) = self.accounts.get_mut(&imsi) {
            // Deduct what was actually used; release the reservation.
            acct.balance_bytes = acct.balance_bytes.saturating_sub(used_bytes);
            acct.reserved_bytes = acct.reserved_bytes.saturating_sub(released_quota);
        }
    }

    /// Upper bound on bytes an adversary could consume beyond their
    /// balance by racing quota grants across `n_agws` AGWs (§3.4: "the
    /// maximum amount of double-spend permitted is capped as a business
    /// decision by the quota size").
    pub fn double_spend_bound(&self, n_agws: u64) -> u64 {
        self.quota_bytes * n_agws.saturating_sub(1)
    }
}

/// Client-side (AGW sessiond) credit state for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCredit {
    pub granted: u64,
    pub used: u64,
    /// Request a refill when remaining falls below this fraction.
    pub refill_fraction: f64,
    /// No more quota will be granted (balance exhausted).
    pub is_final: bool,
}

impl SessionCredit {
    pub fn new(granted: u64, is_final: bool) -> Self {
        SessionCredit {
            granted,
            used: 0,
            refill_fraction: 0.2,
            is_final,
        }
    }

    pub fn remaining(&self) -> u64 {
        self.granted.saturating_sub(self.used)
    }

    /// Record usage; returns bytes actually chargeable (clamped at the
    /// grant — beyond it the session must block).
    pub fn consume(&mut self, bytes: u64) -> u64 {
        let allowed = bytes.min(self.remaining());
        self.used += allowed;
        allowed
    }

    /// Should the AGW request another quota now?
    pub fn needs_refill(&self) -> bool {
        !self.is_final
            && (self.remaining() as f64) < self.granted as f64 * self.refill_fraction
    }

    /// Is the session out of credit entirely?
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Absorb a refill grant.
    pub fn refill(&mut self, bytes: u64, is_final: bool) {
        self.granted += bytes;
        self.is_final = is_final;
    }

    /// Binary form carried in the AGW checkpoint.
    pub fn encode(&self, out: &mut impl BufMut) {
        out.put_u64(self.granted);
        out.put_u64(self.used);
        out.put_u64(self.refill_fraction.to_bits());
        put_bool(out, self.is_final);
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SessionCredit {
            granted: r.u64()?,
            used: r.u64()?,
            refill_fraction: r.f64()?,
            is_final: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi() -> Imsi {
        Imsi::new(310, 26, 1)
    }

    #[test]
    fn grants_until_balance_exhausted() {
        let mut ocs = OcsServer::new(1_000_000); // 1 MB quotas
        ocs.provision(imsi(), 2_500_000); // 2.5 MB balance
        assert_eq!(
            ocs.request_credit(imsi()),
            CreditAnswer::Granted {
                bytes: 1_000_000,
                is_final: false
            }
        );
        assert_eq!(
            ocs.request_credit(imsi()),
            CreditAnswer::Granted {
                bytes: 1_000_000,
                is_final: false
            }
        );
        // Last 0.5 MB, marked final.
        assert_eq!(
            ocs.request_credit(imsi()),
            CreditAnswer::Granted {
                bytes: 500_000,
                is_final: true
            }
        );
        assert_eq!(ocs.request_credit(imsi()), CreditAnswer::Denied);
    }

    #[test]
    fn unknown_subscriber_denied() {
        let mut ocs = OcsServer::new(1_000_000);
        assert_eq!(ocs.request_credit(imsi()), CreditAnswer::Denied);
        assert_eq!(ocs.denials, 1);
    }

    #[test]
    fn usage_reporting_reconciles_balance() {
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 2_000_000);
        let CreditAnswer::Granted { bytes, .. } = ocs.request_credit(imsi()) else {
            panic!()
        };
        // Session used only 300 kB of the 1 MB quota.
        ocs.report_usage(imsi(), 300_000, bytes);
        let acct = ocs.balance(imsi()).unwrap();
        assert_eq!(acct.balance_bytes, 1_700_000);
        assert_eq!(acct.reserved_bytes, 0);
    }

    #[test]
    fn session_credit_thresholds() {
        let mut c = SessionCredit::new(1_000_000, false);
        assert!(!c.needs_refill());
        assert_eq!(c.consume(850_000), 850_000);
        assert!(c.needs_refill(), "below 20% remaining");
        assert!(!c.exhausted());
        // Over-consumption clamps.
        assert_eq!(c.consume(500_000), 150_000);
        assert!(c.exhausted());
        c.refill(1_000_000, true);
        assert_eq!(c.remaining(), 1_000_000);
        assert!(!c.needs_refill(), "final grant never refills");
    }

    #[test]
    fn double_spend_bound_is_quota_times_extra_agws() {
        let ocs = OcsServer::new(1_000_000);
        assert_eq!(ocs.double_spend_bound(1), 0);
        assert_eq!(ocs.double_spend_bound(4), 3_000_000);
    }

    #[test]
    fn concurrent_reservations_cap_total_outstanding() {
        // The server-side reservation is what bounds double spend when a
        // user attaches at many AGWs at once.
        let mut ocs = OcsServer::new(1_000_000);
        ocs.provision(imsi(), 3_000_000);
        let mut granted = 0;
        // Simulate 10 AGWs racing for quotas without reporting usage.
        for _ in 0..10 {
            if let CreditAnswer::Granted { bytes, .. } = ocs.request_credit(imsi()) {
                granted += bytes;
            }
        }
        assert_eq!(granted, 3_000_000, "outstanding grants never exceed balance");
    }
}
