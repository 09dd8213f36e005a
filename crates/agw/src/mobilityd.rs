//! mobilityd — UE IP address management.
//!
//! Each AGW owns a disjoint IP block (configuration state from the
//! orchestrator); allocation itself is runtime state local to the AGW
//! (§3.2), which is why attach works headless.

use bytes::BufMut;
use magma_wire::cursor::Reader;
use magma_wire::{Imsi, UeIp, WireError};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Allocation pool for one AGW.
///
/// The encoded form is `base`, `size` and the leases only: the free set
/// is their complement within the range, rebuilt on decode.
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

    /// Binary form carried in the AGW checkpoint:
    /// `[u32 base][u32 size][u32 n][(u64 imsi, u32 ip) × n]`.
    pub fn encode(&self, out: &mut impl BufMut) {
        out.put_u32(self.base);
        out.put_u32(self.size);
        out.put_u32(self.allocated.len() as u32);
        for (imsi, ip) in &self.allocated {
            out.put_u64(imsi.0);
            out.put_u32(ip.0);
        }
    }

    /// Decode [`encode`](Self::encode)'s form and rebuild the free set.
    /// A range that overflows the address space, a lease outside the
    /// range, and an address or IMSI leased twice are errors.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let base = r.u32()?;
        let size = r.u32()?;
        if base.checked_add(size).is_none() {
            return Err(WireError::BadValue {
                field: "pool range overflows the address space",
                value: base as u64 + size as u64,
            });
        }
        let mut pool = IpPool::new(base, size);
        for _ in 0..r.u32()? {
            let (imsi, ip) = (Imsi(r.u64()?), UeIp(r.u32()?));
            let idx = ip.0.wrapping_sub(base);
            if !pool.free.remove(&idx) || pool.allocated.insert(imsi, ip).is_some() {
                return Err(WireError::BadValue {
                    field: "lease outside the pool or leased twice",
                    value: ip.0 as u64,
                });
            }
        }
        Ok(pool)
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
        let mut out = Vec::new();
        p.encode(&mut out);
        let back = IpPool::decode(&mut Reader::new(&out)).unwrap();
        assert_eq!(back, p);
        let decode = |base: u32, size: u32, leases: &[(u64, u32)]| {
            let mut out = Vec::new();
            out.put_u32(base);
            out.put_u32(size);
            out.put_u32(leases.len() as u32);
            for &(imsi, ip) in leases {
                out.put_u64(imsi);
                out.put_u32(ip);
            }
            IpPool::decode(&mut Reader::new(&out))
        };
        let (a, b) = (imsi(1).0, imsi(2).0);
        assert!(decode(100, 4, &[(a, 101), (b, 103)]).is_ok(), "valid");
        assert!(decode(100, 4, &[(a, 104)]).is_err(), "outside above");
        assert!(decode(100, 4, &[(a, 99)]).is_err(), "outside below");
        assert!(decode(100, 4, &[(a, 101), (b, 101)]).is_err(), "address twice");
        assert!(decode(100, 4, &[(a, 101), (a, 102)]).is_err(), "IMSI twice");
        assert!(decode(u32::MAX, 4, &[]).is_err(), "overflow");
    }

    #[test]
    fn release_unknown_is_noop() {
        let mut p = IpPool::new(0, 2);
        p.release(imsi(9));
        assert_eq!(p.available(), 2);
    }
}
