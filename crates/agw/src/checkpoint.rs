//! AGW runtime-state checkpointing (§3.3).
//!
//! The checkpoint holds runtime state only: what no other component owns
//! and the AGW cannot rebuild — the session table, the IP leases, and the
//! bootstrap certificate. Configuration is not in it. The subscriber
//! database is desired state that the orchestrator owns and pushes
//! (§3.2), so a backup instance takes its config replica from orc8r and
//! its runtime state from the uploaded checkpoint
//! ([`crate::AgwActor::restore`]). State derivable from the rest (the
//! pool's free set, the session indexes) is rebuilt on deserialize, not
//! shipped. Mid-procedure MME state is *not* checkpointed — it is
//! ephemeral and recoverable ("a UE can simply reconnect", §3.4).

use crate::mobilityd::IpPool;
use crate::sessiond::SessionManager;
use serde::{Deserialize, Serialize};

/// A complete serializable AGW runtime checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgwCheckpoint {
    pub agw_id: String,
    /// Simulated time the checkpoint was taken (microseconds).
    pub taken_at_us: u64,
    pub sessions: SessionManager,
    pub pool: IpPool,
    /// Bootstrap certificate, so the restored instance keeps checking in.
    pub cert: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_policy::PolicyRule;
    use magma_sim::SimTime;
    use magma_wire::{Imsi, Teid, UeIp};

    #[test]
    fn checkpoint_serializes_and_restores() {
        let mut sessions = SessionManager::new();
        let ul = sessions.alloc_teid();
        sessions.create(
            Imsi::new(310, 26, 1),
            crate::sessiond::AccessTech::Lte,
            UeIp(0x0A000002),
            ul,
            Teid(700),
            PolicyRule::unrestricted("default"),
            SimTime::from_secs(3),
        );
        let mut pool = IpPool::new(0x0A000002, 100);
        pool.allocate(Imsi::new(310, 26, 1));

        let cp = AgwCheckpoint {
            agw_id: "agw-1".into(),
            taken_at_us: 3_000_000,
            sessions,
            pool,
            cert: Some(1000),
        };
        let json = serde_json::to_value(&cp).unwrap();
        assert!(json.get("db").is_none(), "config is not runtime state");
        assert!(json["pool"].get("free").is_none(), "free set is derived");
        let back: AgwCheckpoint = serde_json::from_value(json).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.sessions.len(), 1);
        assert_eq!(back.pool.in_use(), 1);
        assert_eq!(back.pool.available(), 99);
    }
}
