//! Property tests on the session manager and IP pool: index consistency,
//! TEID uniqueness, pool conservation, and checkpoint restore-equivalence
//! under arbitrary allocate/release/attach/detach/usage interleavings.

use magma_agw::{checkpoint, AccessTech, AgwCheckpoint, IpPool, SessionManager};
use magma_policy::{PolicyRule, RateLimit, TieredPolicy, UsageTracking};
use magma_sim::{SimDuration, SimTime};
use magma_wire::{Imsi, Teid};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    /// Lease an address without a session (an attach still in flight).
    Allocate(u64),
    /// Return a lease that has no session (an attach that failed).
    Release(u64),
    /// Lease an address and create the session on it.
    Attach(u64),
    /// Delete the session and return its lease.
    Detach(u64),
    Usage(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..30).prop_map(Op::Allocate),
        (1u64..30).prop_map(Op::Release),
        (1u64..30).prop_map(Op::Attach),
        (1u64..30).prop_map(Op::Detach),
        ((1u64..30), (0u64..1_000_000)).prop_map(|(n, b)| Op::Usage(n, b)),
    ]
}

/// The rule and access technology a subscriber attaches with, varied by
/// IMSI so the checkpoint carries every optional session part: tiered
/// state, an online credit bucket, and a flat limit.
fn attach_profile(n: u64) -> (PolicyRule, AccessTech) {
    match n % 3 {
        0 => (PolicyRule::unrestricted("default"), AccessTech::Lte),
        1 => (
            PolicyRule::tiered(
                "tier",
                TieredPolicy {
                    normal: RateLimit {
                        dl_kbps: 10_000,
                        ul_kbps: 10_000,
                    },
                    cap_bytes: 1_500_000,
                    window: SimDuration::from_secs(20),
                    throttled: RateLimit {
                        dl_kbps: 100,
                        ul_kbps: 100,
                    },
                    penalty: SimDuration::from_secs(5),
                },
            ),
            AccessTech::Nr5g,
        ),
        _ => {
            let mut rule = PolicyRule::rate_limited("prepaid", 2_000, 1_000);
            rule.tracking = UsageTracking::Online;
            (rule, AccessTech::Wifi)
        }
    }
}

/// Pool smaller than the IMSI space, so exhaustion is reachable.
const POOL_BASE: u32 = 0x0A00_0002;
const POOL_SIZE: u32 = 24;

/// `allocated ∪ free` is exactly the pool range, with no overlap.
fn pool_conserved(pool: &IpPool) {
    let leased: Vec<u32> = pool.leases().map(|(_, ip)| ip.0).collect();
    let free: Vec<u32> = pool.free_addrs().map(|ip| ip.0).collect();
    let mut all = BTreeSet::new();
    for a in leased.iter().chain(&free) {
        prop_assert!(
            all.insert(*a),
            "address {a:#x} both leased and free, or leased twice"
        );
    }
    prop_assert_eq!(all, pool.range().collect::<BTreeSet<u32>>());
    prop_assert_eq!(pool.in_use(), leased.len());
    prop_assert_eq!(pool.available(), free.len());
}

proptest! {
    #[test]
    fn indexes_stay_consistent(
        ops in proptest::collection::vec(arb_op(), 1..120),
        cuts in proptest::collection::vec(any::<usize>(), 8),
    ) {
        let mut m = SessionManager::new();
        let mut pool = IpPool::new(POOL_BASE, POOL_SIZE);
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            match op {
                Op::Allocate(n) => {
                    pool.allocate(Imsi::new(310, 26, n));
                }
                Op::Release(n) => {
                    let imsi = Imsi::new(310, 26, n);
                    if m.by_imsi(imsi).is_none() {
                        pool.release(imsi);
                    }
                }
                Op::Attach(n) => {
                    let imsi = Imsi::new(310, 26, n);
                    if let Some(ip) = pool.allocate(imsi) {
                        let ul = m.alloc_teid();
                        let (rule, tech) = attach_profile(n);
                        let online = rule.tracking == UsageTracking::Online;
                        let id = m.create(imsi, tech, ip, ul, Teid(0), rule, now);
                        if online {
                            m.set_credit(id, 2_000_000, n % 2 == 0);
                        }
                    }
                }
                Op::Detach(n) => {
                    let imsi = Imsi::new(310, 26, n);
                    let id = m.by_imsi(imsi).map(|s| s.id);
                    if let Some(id) = id {
                        m.remove(id);
                        pool.release(imsi);
                    }
                }
                Op::Usage(n, b) => {
                    let id = m.by_imsi(Imsi::new(310, 26, n)).map(|s| s.id);
                    if let Some(id) = id {
                        m.on_usage(id, now, b, b);
                    }
                }
            }
            // Invariants after every step:
            // 1. At most one session per IMSI; TEIDs unique; indexes agree.
            let mut imsis = BTreeSet::new();
            let mut teids = BTreeSet::new();
            for s in m.iter() {
                prop_assert!(imsis.insert(s.imsi), "duplicate session for {}", s.imsi);
                prop_assert!(teids.insert(s.ul_teid), "duplicate UL TEID");
                prop_assert_eq!(m.by_imsi(s.imsi).map(|x| x.id), Some(s.id));
                prop_assert_eq!(m.by_ul_teid(s.ul_teid).map(|x| x.id), Some(s.id));
                prop_assert_eq!(pool.lookup(s.imsi), Some(s.ue_ip), "session holds its lease");
            }
            // 2. Conservation of lifecycle counters.
            prop_assert_eq!(
                m.attaches - m.detaches,
                m.len() as u64,
                "created − removed == live"
            );
            // 3. Pool conservation.
            pool_conserved(&pool);
        }
        // 4. Checkpoint restore-equivalence: the binary form (no free
        // set, no indexes) restores the live pool and session table.
        let bytes = checkpoint::encode("agw-1", SimTime::from_secs(t), &m, &pool, Some(1000));
        let mut back = AgwCheckpoint::decode(&bytes).unwrap();
        prop_assert_eq!(&back.sessions, &m);
        prop_assert_eq!(&back.pool, &pool);
        prop_assert_eq!((back.agw_id.as_str(), back.taken_at_us, back.cert), ("agw-1", t * 1_000_000, Some(1000)));
        // 5. Truncated or extended encodings are rejected, never a panic.
        for cut in cuts {
            prop_assert!(AgwCheckpoint::decode(&bytes[..cut % bytes.len()]).is_err());
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        prop_assert!(AgwCheckpoint::decode(&longer).is_err());
        pool_conserved(&back.pool);
        let mut teids = BTreeSet::new();
        for s in back.sessions.iter() {
            prop_assert!(teids.insert(s.ul_teid), "restored UL TEIDs unique");
            prop_assert_eq!(back.sessions.by_ul_teid(s.ul_teid).map(|x| x.id), Some(s.id));
        }
        // Lowest-free order survives: the next lease is the same address.
        let mut live = pool;
        let next = Imsi::new(310, 26, 999);
        let want = live.allocate(next);
        prop_assert_eq!(back.pool.allocate(next), want);
    }
}
