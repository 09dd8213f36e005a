//! mobilityd — UE IP address management.
//!
//! Each AGW owns a disjoint IP block (configuration state from the
//! orchestrator); allocation itself is runtime state local to the AGW
//! (§3.2), which is why attach works headless.

use magma_wire::{Imsi, UeIp};
use serde::{Deserialize, Error, Serialize, Value};
use serde_json::json;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Allocation pool for one AGW.
///
/// The serialized form is `base`, `size` and the leases only: the free
/// set is their complement within the range, rebuilt on deserialize.
#[derive(Debug, Clone, PartialEq)]
pub struct IpPool {
    base: u32,
    size: u32,
    allocated: BTreeMap<Imsi, UeIp>,
    free: BTreeSet<u32>,
}

impl IpPool {
    /// `base` is the first address (host order), e.g. `0x0A_00_00_02` for
    /// 10.0.0.2.
    pub fn new(base: u32, size: u32) -> Self {
        IpPool {
            base,
            size,
            allocated: BTreeMap::new(),
            free: (0..size).collect(),
        }
    }

    /// Allocate (or return the existing lease for) `imsi`.
    pub fn allocate(&mut self, imsi: Imsi) -> Option<UeIp> {
        if let Some(ip) = self.allocated.get(&imsi) {
            return Some(*ip);
        }
        let idx = *self.free.iter().next()?;
        self.free.remove(&idx);
        let ip = UeIp(self.base + idx);
        self.allocated.insert(imsi, ip);
        Some(ip)
    }

    pub fn release(&mut self, imsi: Imsi) {
        if let Some(ip) = self.allocated.remove(&imsi) {
            self.free.insert(ip.0 - self.base);
        }
    }

    pub fn lookup(&self, imsi: Imsi) -> Option<UeIp> {
        self.allocated.get(&imsi).copied()
    }

    pub fn in_use(&self) -> usize {
        self.allocated.len()
    }

    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// The pool's address range (host order).
    pub fn range(&self) -> Range<u32> {
        self.base..self.base + self.size
    }

    /// Current leases, in IMSI order.
    pub fn leases(&self) -> impl Iterator<Item = (Imsi, UeIp)> + '_ {
        self.allocated.iter().map(|(imsi, ip)| (*imsi, *ip))
    }

    /// Unleased addresses, lowest first (the order `allocate` takes them).
    pub fn free_addrs(&self) -> impl Iterator<Item = UeIp> + '_ {
        self.free.iter().map(|idx| UeIp(self.base + idx))
    }
}

impl Serialize for IpPool {
    fn to_json(&self) -> Value {
        json!({"base": self.base, "size": self.size, "allocated": self.allocated})
    }
}

impl Deserialize for IpPool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| Error::msg(format!("missing field `{key}` in IpPool")))
        };
        let base = u32::from_json(field("base")?)?;
        let size = u32::from_json(field("size")?)?;
        if base.checked_add(size).is_none() {
            return Err(Error::msg("pool range overflows the address space"));
        }
        let allocated = BTreeMap::<Imsi, UeIp>::from_json(field("allocated")?)?;
        let mut free: BTreeSet<u32> = (0..size).collect();
        for ip in allocated.values() {
            let idx = ip.0.wrapping_sub(base);
            if !free.remove(&idx) {
                return Err(Error::msg(format!(
                    "lease {ip:?} is outside the pool or leased twice"
                )));
            }
        }
        Ok(IpPool {
            base,
            size,
            allocated,
            free,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi(n: u64) -> Imsi {
        Imsi::new(310, 26, n)
    }

    #[test]
    fn allocate_is_stable_per_imsi() {
        let mut p = IpPool::new(0x0A000002, 10);
        let a = p.allocate(imsi(1)).unwrap();
        let b = p.allocate(imsi(1)).unwrap();
        assert_eq!(a, b, "same IMSI keeps its lease");
        assert_eq!(p.in_use(), 1);
    }

    #[test]
    fn pool_exhaustion_and_release() {
        let mut p = IpPool::new(100, 2);
        assert!(p.allocate(imsi(1)).is_some());
        assert!(p.allocate(imsi(2)).is_some());
        assert!(p.allocate(imsi(3)).is_none(), "pool exhausted");
        p.release(imsi(1));
        let ip = p.allocate(imsi(3)).unwrap();
        assert_eq!(ip, UeIp(100), "lowest freed address reused");
    }

    #[test]
    fn distinct_imsis_distinct_ips() {
        let mut p = IpPool::new(0, 100);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            assert!(seen.insert(p.allocate(imsi(i)).unwrap()));
        }
    }

    #[test]
    fn decode_rebuilds_free_and_rejects_bad_leases() {
        let mut p = IpPool::new(100, 4);
        p.allocate(imsi(1));
        p.allocate(imsi(2));
        p.release(imsi(1));
        let back: IpPool = serde_json::from_value(serde_json::to_value(&p).unwrap()).unwrap();
        assert_eq!(back, p);
        let bad = |v: Value| serde_json::from_value::<IpPool>(v).is_err();
        let (a, b) = (imsi(1).0.to_string(), imsi(2).0.to_string());
        assert!(
            bad(json!({"base": 100, "size": 4, "allocated": {a.clone(): 104}})),
            "outside"
        );
        assert!(
            bad(json!({"base": 100, "size": 4, "allocated": {a: 101, b: 101}})),
            "twice"
        );
        assert!(
            bad(json!({"base": u32::MAX, "size": 4, "allocated": {}})),
            "overflow"
        );
    }

    #[test]
    fn release_unknown_is_noop() {
        let mut p = IpPool::new(0, 2);
        p.release(imsi(9));
        assert_eq!(p.available(), 2);
    }
}
