//! The pin-down cache (Tezuka et al. \[10\] in the paper): memoizes memory
//! registrations keyed by buffer identity so repeated rendezvous transfers
//! from/to the same application buffer pay the pinning cost once.
//!
//! Registration on the real hardware costs tens of microseconds (syscall,
//! page pinning, HCA translation-table update); the cache turns the steady
//! state of iterative applications into pure zero-copy.

use ibfabric::{Access, Fabric, MrId, NodeId};
use ibsim::codec::{CodecError, Reader, Writer};
use ibsim::stats::Counter;
use ibsim::SimDuration;
use std::collections::BTreeMap;

/// Logical identity of a registered region. The real cache keys on virtual
/// addresses; the simulation must not — host allocator addresses vary
/// run-to-run (ASLR, allocation interleaving), and keying on them makes
/// hit/miss patterns, and therefore virtual time, host-dependent. Callers
/// instead derive `slot` from simulation-visible identity (peer rank +
/// size class), which models the same steady state — an iterative
/// application's repeated transfers pin once — deterministically. Ordered
/// so the cache can live in a `BTreeMap` (deterministic iteration, and a
/// deterministic LRU tie-break in eviction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufKey {
    /// Logical slot identity (never a host address).
    pub slot: usize,
    /// Region capacity in bytes.
    pub len: usize,
}

#[derive(Debug)]
struct Entry {
    mr: MrId,
    len: usize,
    last_use: u64,
}

/// What a restore calls a cache entry it refuses (`ckpt::node_region`).
const REFUSALS: [&str; 3] = [
    "regcache entry mr",
    "regcache entry mr (another node's region)",
    "regcache entry len",
];

/// Pinned bytes every rank's cache may hold (64 MiB).
pub(crate) const REGCACHE_CAPACITY: usize = 64 << 20;

/// An LRU pin-down cache for one node.
#[derive(Debug)]
pub struct RegCache {
    node: NodeId,
    capacity_bytes: usize,
    used_bytes: usize,
    entries: BTreeMap<BufKey, Entry>,
    tick: u64,
    /// Registrations avoided.
    pub hits: Counter,
    /// Registrations performed.
    pub misses: Counter,
    /// Entries evicted to stay under capacity.
    pub evictions: Counter,
}

impl RegCache {
    /// Creates a cache for buffers on `node` holding at most
    /// `capacity_bytes` of pinned memory.
    pub fn new(node: NodeId, capacity_bytes: usize) -> Self {
        RegCache {
            node,
            capacity_bytes,
            used_bytes: 0,
            entries: BTreeMap::new(),
            tick: 0,
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// Bytes of pinned memory currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Returns a registered region of at least `len` bytes for `key`,
    /// registering (and charging `cost`) on a miss. The returned duration
    /// is the process time the caller must charge.
    pub fn acquire(&mut self, fabric: &mut Fabric, key: BufKey, len: usize) -> (MrId, SimDuration) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            if e.len >= len {
                e.last_use = self.tick;
                self.hits.incr();
                return (e.mr, SimDuration::ZERO);
            }
            // Registered region too small (buffer grew): drop and re-pin.
            let stale_len = e.len;
            self.entries.remove(&key);
            self.used_bytes -= stale_len;
        }
        self.misses.incr();
        let cost = fabric.params().reg_cost(len);
        let mr = fabric.register(self.node, len, Access::FULL);
        self.used_bytes += len;
        self.entries.insert(
            key,
            Entry {
                mr,
                len,
                last_use: self.tick,
            },
        );
        self.evict_to_capacity();
        (mr, cost)
    }

    /// Serializes the cache's dynamic state (entries, LRU clock,
    /// counters) for a checkpoint. The node and capacity are
    /// configuration the restoring caller supplies again via
    /// [`RegCache::new`]; the cached [`MrId`]s stay valid because a
    /// restore replays every registration made after bootstrap, evicted
    /// entries' included, in its original order.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.used_bytes as u64);
        w.u64(self.tick);
        w.u64(self.hits.get());
        w.u64(self.misses.get());
        w.u64(self.evictions.get());
        w.u64(self.entries.len() as u64);
        for (k, e) in &self.entries {
            w.u64(k.slot as u64);
            w.u64(k.len as u64);
            w.u32(e.mr.as_raw());
            w.u64(e.len as u64);
            w.u64(e.last_use);
        }
    }

    /// Restores the dynamic state captured by [`RegCache::encode`] into a
    /// freshly constructed cache. The image is input: every entry must
    /// name a region `fabric` (already restored) holds on this cache's
    /// node, no longer than that region, and the entries must add up to
    /// the recorded `used_bytes` — or eviction underflows and the first
    /// cache hit hands the protocol memory that is not there.
    pub fn restore(&mut self, r: &mut Reader<'_>, fabric: &Fabric) -> Result<(), CodecError> {
        self.used_bytes = r.usize("regcache used_bytes")?;
        self.tick = r.u64("regcache tick")?;
        self.hits = r.u64("regcache hits")?.into();
        self.misses = r.u64("regcache misses")?.into();
        self.evictions = r.u64("regcache evictions")?.into();
        let n = r.count("regcache entry count", 8 + 8 + 4 + 8 + 8)?;
        self.entries.clear();
        let mut sum = 0usize;
        for _ in 0..n {
            let key = BufKey {
                slot: r.usize("regcache key slot")?,
                len: r.usize("regcache key len")?,
            };
            let raw = r.u32("regcache entry mr")?;
            let len = r.usize("regcache entry len")?;
            let mr = crate::ckpt::node_region(fabric, self.node, raw, len, REFUSALS)?;
            sum = sum.saturating_add(len);
            let last_use = r.u64("regcache entry last_use")?;
            self.entries.insert(key, Entry { mr, len, last_use });
        }
        if sum != self.used_bytes {
            return Err(CodecError::Overflow {
                context: "regcache used_bytes (not the sum of its entries)",
                value: self.used_bytes as u64,
                max: sum as u64,
            });
        }
        Ok(())
    }

    fn evict_to_capacity(&mut self) {
        while self.used_bytes > self.capacity_bytes && self.entries.len() > 1 {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(e) = self.entries.remove(&victim) {
                self.used_bytes -= e.len;
                self.evictions.incr();
            }
            // The MR itself stays allocated in the simulator (deregistration
            // is free of structural effect); only the cache forgets it.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::FabricParams;

    fn fabric_and_node() -> (Fabric, NodeId) {
        let mut f = Fabric::new(FabricParams::mt23108());
        let n = f.add_node();
        (f, n)
    }

    #[test]
    fn second_acquire_is_free() {
        let (mut f, n) = fabric_and_node();
        let mut cache = RegCache::new(n, 1 << 20);
        let key = BufKey {
            slot: 0x1000,
            len: 8192,
        };
        let (mr1, cost1) = cache.acquire(&mut f, key, 8192);
        assert!(cost1 > SimDuration::ZERO);
        let (mr2, cost2) = cache.acquire(&mut f, key, 8192);
        assert_eq!(mr1, mr2);
        assert_eq!(cost2, SimDuration::ZERO);
        assert_eq!(cache.hits.get(), 1);
        assert_eq!(cache.misses.get(), 1);
    }

    #[test]
    fn grown_buffer_repins() {
        let (mut f, n) = fabric_and_node();
        let mut cache = RegCache::new(n, 1 << 20);
        let key = BufKey {
            slot: 0x1000,
            len: 4096,
        };
        let (mr1, _) = cache.acquire(&mut f, key, 4096);
        let (mr2, cost2) = cache.acquire(&mut f, key, 16384);
        assert_ne!(mr1, mr2);
        assert!(cost2 > SimDuration::ZERO);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let (mut f, n) = fabric_and_node();
        let mut cache = RegCache::new(n, 10_000);
        for i in 0..5usize {
            let key = BufKey {
                slot: 0x1000 * (i + 1),
                len: 4096,
            };
            let _ = cache.acquire(&mut f, key, 4096);
        }
        assert!(
            cache.used_bytes() <= 10_000 + 4096,
            "capacity respected modulo one entry"
        );
        assert!(cache.evictions.get() >= 2);
        // Oldest entry got evicted: re-acquiring it misses again.
        let key0 = BufKey {
            slot: 0x1000,
            len: 4096,
        };
        let before = cache.misses.get();
        let _ = cache.acquire(&mut f, key0, 4096);
        assert_eq!(cache.misses.get(), before + 1);
    }
}
