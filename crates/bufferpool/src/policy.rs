//! Eviction policies: the replacement discipline of one
//! [`BufferManager`](crate::BufferManager) shard.
//!
//! A policy only orders *slots* (small dense integers handed out by the
//! shard); residency, byte accounting, and pin counts stay in the
//! shard. Three classic disciplines are provided:
//!
//! * [`Lru`] — strict least-recently-used; one shard of it is the
//!   per-device warm cache of the paper's §6.2 experiments.
//! * [`Clock`] — second-chance FIFO: a reference bit per slot buys each
//!   re-referenced page one extra trip around the ring.
//! * [`TwoQ`] — the *simplified* 2Q of Johnson & Shasha (VLDB '94): a
//!   probationary FIFO absorbs single-touch pages (scans), a protected
//!   LRU keeps re-referenced ones. Eviction drains the probationary
//!   queue while it holds more than [`TwoQ::KIN_PERCENT`] of resident
//!   slots, else the protected LRU tail.
//!
//! All three are fully deterministic: a fixed access sequence produces
//! a fixed eviction order, which the golden tests pin exactly.

use std::collections::VecDeque;

/// The replacement discipline of one shard.
///
/// Contract: the shard calls [`on_admit`](EvictionPolicy::on_admit)
/// when a page enters a slot, [`on_hit`](EvictionPolicy::on_hit) when
/// a resident slot is referenced again, and
/// [`on_remove`](EvictionPolicy::on_remove) when the shard itself
/// removes a slot (`clear`, per-pool eviction).
/// [`victim`](EvictionPolicy::victim) both *chooses* the next victim
/// among unpinned slots and removes it from the policy's own
/// bookkeeping — the shard then frees the frame.
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;

    /// A page was admitted into `slot`.
    fn on_admit(&mut self, slot: usize);

    /// The resident page in `slot` was referenced again.
    fn on_hit(&mut self, slot: usize);

    /// The page in `slot` was removed by the shard (not via
    /// [`EvictionPolicy::victim`]).
    fn on_remove(&mut self, slot: usize);

    /// Choose and dequeue the next victim. `pinned(slot)` reports
    /// whether a slot is currently pinned and must be skipped; returns
    /// `None` when every resident slot is pinned (the shard then
    /// overcommits rather than deadlock).
    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize>;
}

/// Which [`EvictionPolicy`] a [`BufferManager`](crate::BufferManager)
/// runs — the sweep axis of the `memory_budget` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Strict least-recently-used.
    Lru,
    /// Second-chance FIFO (clock).
    Clock,
    /// Simplified 2Q (probationary FIFO + protected LRU).
    TwoQ,
}

impl PolicyKind {
    /// All policies in presentation order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Clock, PolicyKind::TwoQ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Clock => "clock",
            PolicyKind::TwoQ => "2q",
        }
    }

    /// Instantiate a fresh policy of this kind.
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Clock => Box::new(Clock::new()),
            PolicyKind::TwoQ => Box::new(TwoQ::new()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const NIL: usize = usize::MAX;

/// An intrusive doubly-linked recency list over slot ids — the shared
/// substrate of [`Lru`] and [`TwoQ`]'s protected queue. Slot-indexed
/// (slots are dense), O(1) link/unlink, no per-op allocation.
#[derive(Debug, Default)]
struct RecencyList {
    prev: Vec<usize>,
    next: Vec<usize>,
    linked: Vec<bool>,
    head: usize, // MRU
    tail: usize, // LRU
    len: usize,
}

impl RecencyList {
    fn new() -> Self {
        Self {
            prev: Vec::new(),
            next: Vec::new(),
            linked: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.linked.len() {
            self.prev.resize(slot + 1, NIL);
            self.next.resize(slot + 1, NIL);
            self.linked.resize(slot + 1, false);
        }
    }

    fn contains(&self, slot: usize) -> bool {
        slot < self.linked.len() && self.linked[slot]
    }

    fn push_front(&mut self, slot: usize) {
        self.ensure(slot);
        debug_assert!(!self.linked[slot]);
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.linked[slot] = true;
        self.len += 1;
    }

    fn unlink(&mut self, slot: usize) {
        debug_assert!(self.contains(slot));
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.linked[slot] = false;
        self.len -= 1;
    }

    fn touch(&mut self, slot: usize) {
        self.unlink(slot);
        self.push_front(slot);
    }

    /// The least-recent slot for which `keep` is false, unlinked.
    fn pop_lru(&mut self, skip: &dyn Fn(usize) -> bool) -> Option<usize> {
        let mut s = self.tail;
        while s != NIL {
            if !skip(s) {
                self.unlink(s);
                return Some(s);
            }
            s = self.prev[s];
        }
        None
    }
}

/// Strict least-recently-used replacement.
#[derive(Debug)]
pub struct Lru {
    list: RecencyList,
}

impl Lru {
    /// A fresh, empty LRU order.
    pub fn new() -> Self {
        Self {
            list: RecencyList::new(),
        }
    }
}

impl Default for Lru {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_admit(&mut self, slot: usize) {
        self.list.push_front(slot);
    }

    fn on_hit(&mut self, slot: usize) {
        self.list.touch(slot);
    }

    fn on_remove(&mut self, slot: usize) {
        self.list.unlink(slot);
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        self.list.pop_lru(pinned)
    }
}

/// Second-chance FIFO ("clock"): pages queue in admission order; a hit
/// sets the slot's reference bit, which buys the page one requeue when
/// the hand reaches it.
#[derive(Debug)]
pub struct Clock {
    ring: VecDeque<usize>,
    referenced: Vec<bool>,
}

impl Clock {
    /// A fresh, empty clock ring.
    pub fn new() -> Self {
        Self {
            ring: VecDeque::new(),
            referenced: Vec::new(),
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.referenced.len() {
            self.referenced.resize(slot + 1, false);
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for Clock {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_admit(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = false;
        self.ring.push_back(slot);
    }

    fn on_hit(&mut self, slot: usize) {
        self.ensure(slot);
        self.referenced[slot] = true;
    }

    fn on_remove(&mut self, slot: usize) {
        self.ring.retain(|&s| s != slot);
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        // Two full sweeps suffice: the first clears every unpinned
        // slot's reference bit, the second must find an unreferenced,
        // unpinned slot — unless everything is pinned. Pinned slots
        // are skipped with their bit intact (the hand passes over a
        // pinned frame without spending its second chance).
        for _ in 0..2 * self.ring.len() {
            let slot = self.ring.pop_front()?;
            if pinned(slot) {
                self.ring.push_back(slot);
            } else if self.referenced[slot] {
                self.referenced[slot] = false;
                self.ring.push_back(slot);
            } else {
                return Some(slot);
            }
        }
        None
    }
}

/// Simplified 2Q: first-touch pages enter a probationary FIFO; a
/// second touch promotes to a protected LRU. Eviction drains the
/// probationary queue while it holds more than
/// [`TwoQ::KIN_PERCENT`] % of resident slots (or the protected queue
/// is empty), else the protected LRU tail — so one sequential scan
/// cannot flush the hot set.
#[derive(Debug)]
pub struct TwoQ {
    probation: VecDeque<usize>,
    protected: RecencyList,
    in_probation: Vec<bool>,
}

impl TwoQ {
    /// Probationary share of resident slots above which eviction
    /// prefers the probationary queue (the 2Q paper's `Kin`, as a
    /// percentage).
    pub const KIN_PERCENT: usize = 25;

    /// A fresh, empty 2Q state.
    pub fn new() -> Self {
        Self {
            probation: VecDeque::new(),
            protected: RecencyList::new(),
            in_probation: Vec::new(),
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.in_probation.len() {
            self.in_probation.resize(slot + 1, false);
        }
    }

    fn resident(&self) -> usize {
        self.probation.len() + self.protected.len
    }

    /// Pop the first unpinned probationary slot, preserving FIFO order
    /// of the skipped (pinned) ones.
    fn pop_probation(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        for i in 0..self.probation.len() {
            if !pinned(self.probation[i]) {
                let slot = self.probation.remove(i).expect("index in range");
                self.in_probation[slot] = false;
                return Some(slot);
            }
        }
        None
    }
}

impl Default for TwoQ {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for TwoQ {
    fn name(&self) -> &'static str {
        "2q"
    }

    fn on_admit(&mut self, slot: usize) {
        self.ensure(slot);
        self.in_probation[slot] = true;
        self.probation.push_back(slot);
    }

    fn on_hit(&mut self, slot: usize) {
        self.ensure(slot);
        if self.in_probation[slot] {
            self.in_probation[slot] = false;
            self.probation.retain(|&s| s != slot);
            self.protected.push_front(slot);
        } else {
            self.protected.touch(slot);
        }
    }

    fn on_remove(&mut self, slot: usize) {
        if slot < self.in_probation.len() && self.in_probation[slot] {
            self.in_probation[slot] = false;
            self.probation.retain(|&s| s != slot);
        } else {
            self.protected.unlink(slot);
        }
    }

    fn victim(&mut self, pinned: &dyn Fn(usize) -> bool) -> Option<usize> {
        let over_kin = self.probation.len() * 100 > self.resident() * Self::KIN_PERCENT;
        if !self.probation.is_empty() && (over_kin || self.protected.len == 0) {
            if let Some(slot) = self.pop_probation(pinned) {
                return Some(slot);
            }
            return self.protected.pop_lru(pinned);
        }
        self.protected
            .pop_lru(pinned)
            .or_else(|| self.pop_probation(pinned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpinned(_: usize) -> bool {
        false
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut p = Lru::new();
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_hit(0); // order (MRU..LRU): 0 2 1
        assert_eq!(p.victim(&unpinned), Some(1));
        assert_eq!(p.victim(&unpinned), Some(2));
        assert_eq!(p.victim(&unpinned), Some(0));
        assert_eq!(p.victim(&unpinned), None);
    }

    #[test]
    fn lru_victim_skips_pinned() {
        let mut p = Lru::new();
        p.on_admit(0);
        p.on_admit(1);
        assert_eq!(p.victim(&|s| s == 0), Some(1));
        assert_eq!(p.victim(&|s| s == 0), None, "only pinned slots remain");
    }

    #[test]
    fn clock_gives_referenced_slots_a_second_chance() {
        let mut p = Clock::new();
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_hit(0);
        // Hand: 0 is referenced -> cleared + requeued; 1 is the victim.
        assert_eq!(p.victim(&unpinned), Some(1));
        // Ring now 2, 0 (both unreferenced).
        assert_eq!(p.victim(&unpinned), Some(2));
        assert_eq!(p.victim(&unpinned), Some(0));
        assert_eq!(p.victim(&unpinned), None);
    }

    #[test]
    fn clock_skips_pinned_without_spending_their_second_chance() {
        let mut p = Clock::new();
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_hit(0); // 0 is referenced and will be pinned
        assert_eq!(p.victim(&|s| s == 0), Some(1), "hand passes pinned 0");
        // Unpinned now: 0 must still own its reference bit, so 2 (and
        // not 0) is the next victim once the bit buys its lap.
        assert_eq!(p.victim(&|_| false), Some(2));
        assert_eq!(p.victim(&|_| false), Some(0));
    }

    #[test]
    fn clock_all_pinned_returns_none() {
        let mut p = Clock::new();
        p.on_admit(0);
        p.on_admit(1);
        assert_eq!(p.victim(&|_| true), None);
        assert_eq!(p.victim(&|_| false), Some(0), "ring order survives");
    }

    #[test]
    fn twoq_promotes_on_second_touch_and_drains_probation_first() {
        let mut p = TwoQ::new();
        for s in 0..4 {
            p.on_admit(s);
        }
        p.on_hit(0); // 0 promoted to protected
                     // Probation 1,2,3 (75% of 4 resident > 25%): FIFO order.
        assert_eq!(p.victim(&unpinned), Some(1));
        assert_eq!(p.victim(&unpinned), Some(2));
        // 1 probationary of 2 resident (50%) still over Kin.
        assert_eq!(p.victim(&unpinned), Some(3));
        // Only protected remains.
        assert_eq!(p.victim(&unpinned), Some(0));
        assert_eq!(p.victim(&unpinned), None);
    }

    #[test]
    fn twoq_protects_hot_set_from_scan() {
        let mut p = TwoQ::new();
        p.on_admit(0);
        p.on_hit(0); // hot, protected
        for s in 1..=8 {
            p.on_admit(s); // a scan of single-touch pages
        }
        for expect in 1..=8 {
            assert_eq!(p.victim(&unpinned), Some(expect), "scan pages go first");
        }
        assert_eq!(p.victim(&unpinned), Some(0), "hot page outlives the scan");
    }

    #[test]
    fn policies_survive_explicit_removal() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            p.on_admit(0);
            p.on_admit(1);
            p.on_admit(2);
            p.on_hit(1);
            p.on_remove(1);
            p.on_remove(0);
            assert_eq!(p.victim(&unpinned), Some(2), "{}", kind);
            assert_eq!(p.victim(&unpinned), None, "{}", kind);
        }
    }

    #[test]
    fn kind_labels_and_builders_agree() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
    }
}
