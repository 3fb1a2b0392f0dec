//! Differential test of the bitmask issue queue against a scan-based
//! reference model.
//!
//! `ScanQueue` below is the queue as it was before the position bitmasks:
//! every operation walks the slots rank by rank, and the toggled mode maps
//! ranks with a modular wrap. Random sequences of tagged inserts,
//! broadcasts, issues, compaction ticks, toggles, evictions and
//! snapshot/restore round trips drive both queues in lockstep; after every
//! step the slots, occupancy, ready order, insert admission and every
//! activity counter must agree exactly.

use powerbalance_uarch::{EntryState, IqActivity, IqEntry, IqMode, IssueQueue};
use proptest::prelude::*;

/// The scan-based reference queue.
struct ScanQueue {
    slots: Vec<Option<IqEntry>>,
    mode: IqMode,
    replay_window: u32,
    occupancy: usize,
}

impl ScanQueue {
    fn new(size: usize, replay_window: u32) -> Self {
        ScanQueue { slots: vec![None; size], mode: IqMode::Normal, replay_window, occupancy: 0 }
    }

    fn position_of_rank(&self, rank: usize) -> usize {
        let s = self.slots.len();
        match self.mode {
            IqMode::Normal => rank,
            IqMode::Toggled => (s / 2 + rank) % s,
        }
    }

    fn half_of(&self, position: usize) -> usize {
        usize::from(position >= self.slots.len() / 2)
    }

    fn can_insert(&self) -> bool {
        let s = self.slots.len();
        if self.occupancy == s {
            return false;
        }
        match (0..s).rev().find(|&r| self.slots[self.position_of_rank(r)].is_some()) {
            Some(last) => last + 1 < s,
            None => true,
        }
    }

    fn insert(&mut self, entry: IqEntry, activity: &mut IqActivity) -> bool {
        let s = self.slots.len();
        if self.occupancy == s {
            return false;
        }
        let mut insert_rank = 0;
        for rank in (0..s).rev() {
            if self.slots[self.position_of_rank(rank)].is_some() {
                insert_rank = rank + 1;
                break;
            }
        }
        if insert_rank >= s {
            return false;
        }
        let pos = self.position_of_rank(insert_rank);
        self.slots[pos] = Some(entry);
        self.occupancy += 1;
        activity.inserts += 1;
        activity.payload_accesses += 1;
        true
    }

    fn ready_at_rank(&self, rank: usize) -> Option<usize> {
        if rank >= self.slots.len() {
            return None;
        }
        let pos = self.position_of_rank(rank);
        match &self.slots[pos] {
            Some(e) if e.is_ready() => Some(pos),
            _ => None,
        }
    }

    fn ready_positions(&self) -> Vec<usize> {
        (0..self.slots.len()).filter_map(|rank| self.ready_at_rank(rank)).collect()
    }

    fn mark_issued(&mut self, position: usize, activity: &mut IqActivity) {
        let entry = self.slots[position].as_mut().expect("mark_issued on empty slot");
        assert!(entry.is_ready(), "mark_issued on non-ready entry");
        entry.state = EntryState::Issued { age: 0 };
        activity.payload_accesses += 1;
        activity.selects += 1;
    }

    fn broadcast(&mut self, rob_id: u32, activity: &mut IqActivity) {
        activity.broadcasts += 1;
        for slot in self.slots.iter_mut().flatten() {
            if slot.src1_tag == Some(rob_id) {
                slot.src1_ready = true;
                slot.src1_tag = None;
            }
            if slot.src2_tag == Some(rob_id) {
                slot.src2_ready = true;
                slot.src2_tag = None;
            }
        }
    }

    fn tick(&mut self, max_compact: usize, activity: &mut IqActivity) {
        activity.gating_cycles += 1;
        if self.occupancy == 0 {
            return;
        }
        for slot in self.slots.iter_mut().flatten() {
            if let EntryState::Issued { age } = slot.state {
                if age + 1 >= self.replay_window {
                    slot.state = EntryState::Invalid;
                } else {
                    slot.state = EntryState::Issued { age: age + 1 };
                }
            }
        }
        let s = self.slots.len();
        let Some(last_occ) = (0..s).rev().find(|&r| self.slots[self.position_of_rank(r)].is_some())
        else {
            return;
        };
        let mut gap = 0usize;
        let mut removed = 0usize;
        let mut wrapped = false;
        for rank in 0..=last_occ {
            let pos = self.position_of_rank(rank);
            let is_invalid =
                matches!(self.slots[pos], Some(IqEntry { state: EntryState::Invalid, .. }));
            if self.slots[pos].is_none() {
                gap += 1;
                continue;
            }
            if is_invalid && removed < max_compact {
                self.slots[pos] = None;
                self.occupancy -= 1;
                removed += 1;
                gap += 1;
                activity.counter_entries[self.half_of(pos)] += 1;
                continue;
            }
            let shift = gap.min(max_compact);
            if shift == 0 {
                continue;
            }
            let dest = self.position_of_rank(rank - shift);
            if dest > pos {
                if wrapped {
                    break;
                }
                wrapped = true;
            }
            let entry = self.slots[pos].take().expect("checked occupied");
            assert!(self.slots[dest].is_none(), "simultaneous moves cannot collide");
            self.slots[dest] = Some(entry);
            let from_half = self.half_of(pos);
            activity.compact_moves[from_half] += 1;
            activity.mux_selects[from_half] += 1;
            activity.counter_entries[from_half] += 1;
            if dest > pos {
                activity.long_moves[self.half_of(dest)] += 1;
            }
        }
    }

    fn evict(&mut self, rob_id: u32) {
        for slot in &mut self.slots {
            if matches!(slot, Some(e) if e.rob_id == rob_id) {
                *slot = None;
                self.occupancy -= 1;
            }
        }
    }
}

/// One step applied to both queues. Tag and victim offsets count back from
/// the newest dispatched instruction, so they usually name one in flight.
#[derive(Debug, Clone)]
enum Step {
    /// Dispatch with up to two producer tags (offset 8 and up = no tag).
    Insert {
        tag1: u32,
        tag2: u32,
        is_mem: bool,
        needs_fp_mul: bool,
    },
    Broadcast(u32),
    IssueNth(usize),
    /// Issue ready entries head first, stopping after `n` (a select loop).
    IssueHead(usize),
    Tick(usize),
    Toggle,
    Evict(u32),
    /// Snapshot the queue and continue on a fresh restored copy.
    Restore,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0u32..12, 0u32..12, any::<bool>(), any::<bool>()).prop_map(
            |(tag1, tag2, is_mem, needs_fp_mul)| Step::Insert { tag1, tag2, is_mem, needs_fp_mul }
        ),
        4 => (0u32..10).prop_map(Step::Broadcast),
        2 => (0usize..64).prop_map(Step::IssueNth),
        2 => (1usize..7).prop_map(Step::IssueHead),
        5 => (0usize..=6).prop_map(Step::Tick),
        1 => Just(Step::Toggle),
        1 => (0u32..16).prop_map(Step::Evict),
        1 => Just(Step::Restore),
    ]
}

const SIZES: [usize; 5] = [4, 6, 8, 32, 64];

fn tag(next_id: u32, offset: u32) -> Option<u32> {
    (offset < 8).then(|| next_id.wrapping_sub(1 + offset))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bitmask queue is observably identical to the scan-based model
    /// after every step of any operation sequence.
    #[test]
    fn bitmask_queue_matches_scan_reference(
        size_index in 0usize..SIZES.len(),
        replay_window in 0u32..=3,
        steps in prop::collection::vec(step_strategy(), 1..400),
    ) {
        let size = SIZES[size_index];
        let mut iq = IssueQueue::new(size);
        iq.set_replay_window(replay_window);
        let mut oracle = ScanQueue::new(size, replay_window);
        let (mut act, mut oracle_act) = (IqActivity::default(), IqActivity::default());
        let mut next_id = 0u32;

        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Insert { tag1, tag2, is_mem, needs_fp_mul } => {
                    let (src1_tag, src2_tag) = (tag(next_id, tag1), tag(next_id, tag2));
                    let entry = IqEntry {
                        rob_id: next_id,
                        state: EntryState::Waiting,
                        src1_ready: src1_tag.is_none(),
                        src2_ready: src2_tag.is_none(),
                        src1_tag,
                        src2_tag,
                        is_mem,
                        needs_fp_mul,
                    };
                    let inserted = iq.insert(entry, &mut act);
                    prop_assert_eq!(inserted, oracle.insert(entry, &mut oracle_act), "step {}", i);
                    if inserted {
                        next_id += 1;
                    }
                }
                Step::Broadcast(offset) => {
                    let rob_id = next_id.wrapping_sub(1 + offset);
                    iq.broadcast(rob_id, &mut act);
                    oracle.broadcast(rob_id, &mut oracle_act);
                }
                Step::IssueNth(n) => {
                    let ready = oracle.ready_positions();
                    if !ready.is_empty() {
                        let pos = ready[n % ready.len()];
                        iq.mark_issued(pos, &mut act);
                        oracle.mark_issued(pos, &mut oracle_act);
                    }
                }
                Step::IssueHead(n) => {
                    // Mark while iterating, as the select loops do.
                    for pos in iq.ready_positions().take(n) {
                        iq.mark_issued(pos, &mut act);
                    }
                    for pos in oracle.ready_positions().into_iter().take(n) {
                        oracle.mark_issued(pos, &mut oracle_act);
                    }
                }
                Step::Tick(max_compact) => {
                    iq.tick(max_compact, &mut act);
                    oracle.tick(max_compact, &mut oracle_act);
                }
                Step::Toggle => {
                    let mode = iq.mode().flipped();
                    iq.set_mode(mode);
                    oracle.mode = mode;
                }
                Step::Evict(offset) => {
                    let rob_id = next_id.wrapping_sub(1 + offset);
                    iq.evict(rob_id);
                    oracle.evict(rob_id);
                }
                Step::Restore => {
                    let mut fresh = IssueQueue::new(size);
                    fresh.restore(&iq.snapshot()).expect("same capacity");
                    iq = fresh;
                }
            }

            prop_assert_eq!(&iq.snapshot().slots, &oracle.slots, "slots after step {}", i);
            prop_assert_eq!(iq.occupancy(), oracle.occupancy, "occupancy after step {}", i);
            prop_assert_eq!(
                iq.ready_positions().collect::<Vec<_>>(),
                oracle.ready_positions(),
                "ready order after step {}",
                i
            );
            prop_assert_eq!(iq.ready_positions().count(), oracle.ready_positions().len());
            prop_assert_eq!(iq.can_insert(), oracle.can_insert(), "can_insert after step {}", i);
            prop_assert_eq!(act, oracle_act, "activity after step {}", i);
        }
    }
}
