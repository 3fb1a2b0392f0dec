//! The compacting issue queue (paper §2.1).
//!
//! Entries live at fixed *physical* positions; priority is encoded by
//! position relative to the head. In the conventional mode the head (oldest,
//! highest-priority instruction) sits at physical position 0 and the tail
//! grows upward. When an instruction issues its entry is marked invalid a
//! replay-safe couple of cycles later, and the compaction logic then shifts
//! every younger entry down — which is why tail-region entries move on
//! almost every issue while head-region entries rarely move. That asymmetric
//! movement is the power-density asymmetry the paper exploits.
//!
//! In the *toggled* mode (activity toggling, §2.1.1) the head moves to the
//! middle of the queue: priority order becomes physical positions
//! `S/2..S, 0..S/2`, and compaction wraps from the bottom of the queue to
//! the topmost entries over dedicated long wires (charged separately, per
//! Table 3's "Long Compaction" row).

use crate::activity::IqActivity;
use crate::config::IqMode;
use serde::{Deserialize, Serialize};

/// State of an occupied issue-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryState {
    /// Waiting for operands (or for a functional unit).
    Waiting,
    /// Issued `age` cycles ago; still held for load-replay safety.
    Issued {
        /// Cycles since issue.
        age: u32,
    },
    /// Issued and past the replay window; compactable.
    Invalid,
}

/// One occupied issue-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IqEntry {
    /// Active-list index of the instruction.
    pub rob_id: u32,
    /// Entry state.
    pub state: EntryState,
    /// First operand availability.
    pub src1_ready: bool,
    /// Second operand availability.
    pub src2_ready: bool,
    /// Producer tag (active-list index) for operand 1, if in flight.
    pub src1_tag: Option<u32>,
    /// Producer tag for operand 2, if in flight.
    pub src2_tag: Option<u32>,
    /// Memory op (needs a data-cache port to issue).
    pub is_mem: bool,
    /// Must issue to the FP multiplier rather than an FP adder.
    pub needs_fp_mul: bool,
}

impl IqEntry {
    /// `true` when the entry is waiting with all operands available.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state == EntryState::Waiting && self.src1_ready && self.src2_ready
    }
}

/// Serializable state of an [`IssueQueue`], captured by
/// [`IssueQueue::snapshot`] and reapplied with [`IssueQueue::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IqState {
    /// Slot contents by physical position (`None` = empty).
    pub slots: Vec<Option<IqEntry>>,
    /// Head/tail mode at capture time.
    pub mode: IqMode,
    /// Load-replay safety window.
    pub replay_window: u32,
}

/// Widest queue the position bitmasks can mirror: one `u64` bit per slot.
pub const MAX_IQ_SIZE: usize = 64;

/// A compacting issue queue with physical entry positions.
///
/// Beside the slots the queue keeps four bitmasks over physical positions
/// (occupied, ready, issued and tag-pending), so insert, select, wakeup and
/// compaction visit only the slots that can matter. Priority order is a
/// view of a mask: the identity in the conventional mode and a swap of the
/// two halves in the toggled mode.
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{IqMode, IssueQueue, IqEntry, EntryState};
/// use powerbalance_uarch::IqActivity;
///
/// let mut iq = IssueQueue::new(32);
/// let mut activity = IqActivity::default();
/// assert!(iq.insert(IqEntry {
///     rob_id: 0,
///     state: EntryState::Waiting,
///     src1_ready: true,
///     src2_ready: true,
///     src1_tag: None,
///     src2_tag: None,
///     is_mem: false,
///     needs_fp_mul: false,
/// }, &mut activity));
/// assert_eq!(iq.occupancy(), 1);
/// let ready: Vec<_> = iq.ready_positions().collect();
/// assert_eq!(ready.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IssueQueue {
    slots: Vec<Option<IqEntry>>,
    mode: IqMode,
    replay_window: u32,
    /// Occupied slots.
    occupied: u64,
    /// Slots whose entry [`is_ready`](IqEntry::is_ready).
    ready: u64,
    /// Slots whose entry is in [`EntryState::Issued`].
    issued: u64,
    /// Slots whose entry still waits on a producer tag.
    pending: u64,
}

/// Positions of ready entries in priority order (head first), returned by
/// [`IssueQueue::ready_positions`].
///
/// The iterator holds a copy of the ready mask and borrows nothing, so a
/// select loop can [`mark_issued`](IssueQueue::mark_issued) as it walks:
/// issuing an entry never changes any *other* entry's readiness within a
/// cycle.
#[derive(Debug, Clone, Copy)]
pub struct ReadyPositions {
    /// Ready ranks not yet visited (bit `r` = priority rank `r`).
    ranks: u64,
    /// Half the queue size when the queue is toggled, else 0.
    swap: usize,
}

impl Iterator for ReadyPositions {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.ranks == 0 {
            return None;
        }
        let rank = self.ranks.trailing_zeros() as usize;
        self.ranks &= self.ranks - 1;
        Some(swap_halves(rank, self.swap))
    }

    fn count(self) -> usize {
        self.ranks.count_ones() as usize
    }
}

/// Maps a rank to its position (or back) when the head sits `half` slots up
/// a queue of `2 * half` entries; `half == 0` is the identity.
#[inline]
fn swap_halves(index: usize, half: usize) -> usize {
    if index < half {
        index + half
    } else {
        index - half
    }
}

impl IssueQueue {
    /// Creates an empty queue with `size` entries in the conventional mode.
    ///
    /// # Panics
    ///
    /// Panics if `size` is odd, below 4 (the two halves must be equal) or
    /// above [`MAX_IQ_SIZE`].
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(
            (4..=MAX_IQ_SIZE).contains(&size) && size.is_multiple_of(2),
            "queue size must be an even number in 4..={MAX_IQ_SIZE}"
        );
        IssueQueue {
            slots: vec![None; size],
            mode: IqMode::Normal,
            replay_window: 2,
            occupied: 0,
            ready: 0,
            issued: 0,
            pending: 0,
        }
    }

    /// Sets the load-replay safety window (cycles between issue and the
    /// entry becoming compactable).
    pub fn set_replay_window(&mut self, cycles: u32) {
        self.replay_window = cycles;
    }

    /// Queue capacity.
    #[must_use]
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Occupied entries (valid + not-yet-compacted invalid).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Current head/tail mode.
    #[must_use]
    pub fn mode(&self) -> IqMode {
        self.mode
    }

    /// Switches the head/tail configuration.
    ///
    /// Entries do **not** move: only the priority encoding and compaction
    /// direction change, exactly as in the paper (transiently, older
    /// instructions may have lower priority than newer ones until they
    /// drain).
    pub fn set_mode(&mut self, mode: IqMode) {
        self.mode = mode;
    }

    /// How far the head sits from physical position 0: half the queue in
    /// the toggled mode, else 0.
    #[inline]
    fn swap(&self) -> usize {
        match self.mode {
            IqMode::Normal => 0,
            IqMode::Toggled => self.slots.len() / 2,
        }
    }

    /// A physical-position mask in priority order (bit `r` = rank `r`). In
    /// the toggled mode that swaps the two halves, which is its own inverse.
    #[inline]
    fn rank_view(&self, mask: u64) -> u64 {
        match self.swap() {
            0 => mask,
            half => (mask >> half) | ((mask & ((1 << half) - 1)) << half),
        }
    }

    /// Physical position of priority rank `rank` under the current mode.
    ///
    /// Ranks are only meaningful below [`size`](IssueQueue::size); in the
    /// toggled mode a larger rank would alias a smaller one, so
    /// out-of-range ranks are rejected outright.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size()`.
    #[must_use]
    pub fn position_of_rank(&self, rank: usize) -> usize {
        let s = self.slots.len();
        debug_assert!(rank < s, "rank {rank} out of range for queue of size {s}");
        swap_halves(rank, self.swap())
    }

    /// Physical half (0 = bottom, 1 = top) of a physical position.
    #[must_use]
    pub fn half_of(&self, position: usize) -> usize {
        usize::from(position >= self.slots.len() / 2)
    }

    /// Re-derives the four mask bits of `position` from its slot.
    fn sync(&mut self, position: usize) {
        let bit = 1u64 << position;
        self.occupied &= !bit;
        self.ready &= !bit;
        self.issued &= !bit;
        self.pending &= !bit;
        if let Some(e) = &self.slots[position] {
            self.occupied |= bit;
            if e.is_ready() {
                self.ready |= bit;
            }
            if matches!(e.state, EntryState::Issued { .. }) {
                self.issued |= bit;
            }
            if e.src1_tag.is_some() || e.src2_tag.is_some() {
                self.pending |= bit;
            }
        }
    }

    /// Whether [`insert`](IssueQueue::insert) would currently succeed.
    #[must_use]
    pub fn can_insert(&self) -> bool {
        // Dispatch appends after the last occupied rank, so it succeeds
        // exactly when the lowest-priority slot is free.
        self.occupied & (1 << self.position_of_rank(self.slots.len() - 1)) == 0
    }

    /// Inserts a new entry at the tail (lowest-priority free slot).
    ///
    /// Returns `false` if the queue cannot accept the entry (the slot after
    /// the last occupied one, in priority order, is taken or the queue is
    /// full). Charges the payload-RAM write.
    pub fn insert(&mut self, entry: IqEntry, activity: &mut IqActivity) -> bool {
        // One past the last occupied rank. When that runs off the
        // lowest-priority end, dispatch must wait for compaction even
        // though holes may exist below.
        let insert_rank = (u64::BITS - self.rank_view(self.occupied).leading_zeros()) as usize;
        if insert_rank >= self.slots.len() {
            return false;
        }
        let pos = self.position_of_rank(insert_rank);
        debug_assert!(self.slots[pos].is_none());
        self.slots[pos] = Some(entry);
        self.sync(pos);
        activity.inserts += 1;
        activity.payload_accesses += 1; // payload RAM write
        true
    }

    /// Positions of ready entries in priority order (head first).
    ///
    /// This is the select loop's building block: the iterator walks a copy
    /// of the ready mask, so the issue stages interleave
    /// [`mark_issued`](IssueQueue::mark_issued) with the walk.
    #[must_use]
    pub fn ready_positions(&self) -> ReadyPositions {
        ReadyPositions { ranks: self.rank_view(self.ready), swap: self.swap() }
    }

    /// Entry at a physical position.
    #[must_use]
    pub fn entry(&self, position: usize) -> Option<&IqEntry> {
        self.slots[position].as_ref()
    }

    /// Marks the entry at `position` as issued. Charges the payload-RAM
    /// read and the select-tree grant.
    ///
    /// # Panics
    ///
    /// Panics if the position holds no ready entry.
    pub fn mark_issued(&mut self, position: usize, activity: &mut IqActivity) {
        let entry = self.slots[position].as_mut().expect("mark_issued on empty slot");
        assert!(entry.is_ready(), "mark_issued on non-ready entry");
        entry.state = EntryState::Issued { age: 0 };
        self.sync(position);
        activity.payload_accesses += 1; // payload RAM read
        activity.selects += 1;
    }

    /// Broadcasts a completed producer's tag; wakes matching operands.
    ///
    /// Charges one tag-broadcast event (the wires run the whole queue, so
    /// the power model splits it across both halves). Only slots still
    /// waiting on some tag can match, so only those are visited.
    pub fn broadcast(&mut self, rob_id: u32, activity: &mut IqActivity) {
        activity.broadcasts += 1;
        let mut waiting = self.pending;
        while waiting != 0 {
            let pos = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let slot = self.slots[pos].as_mut().expect("tag-pending slot is occupied");
            let mut woke = false;
            if slot.src1_tag == Some(rob_id) {
                slot.src1_ready = true;
                slot.src1_tag = None;
                woke = true;
            }
            if slot.src2_tag == Some(rob_id) {
                slot.src2_ready = true;
                slot.src2_tag = None;
                woke = true;
            }
            if woke {
                self.sync(pos);
            }
        }
    }

    /// Moves the four mask bits of `from` to the empty slot `to`.
    fn move_bits(&mut self, from: usize, to: usize) {
        for mask in [&mut self.occupied, &mut self.ready, &mut self.issued, &mut self.pending] {
            let bit = (*mask >> from) & 1;
            *mask = (*mask & !(1 << from)) | (bit << to);
        }
    }

    /// One clock tick: ages issued entries into the invalid (compactable)
    /// state and performs one compaction step (up to `max_compact` invalid
    /// or empty positions squeezed out).
    ///
    /// Energy accounting per paper §2.1 and Table 3:
    /// * each moved entry charges its entry-to-entry data wires and its mux
    ///   select wires, attributed to the physical half the entry moved from;
    /// * a move that wraps around the queue ends (toggled mode only)
    ///   additionally charges the long-compaction wires;
    /// * on any compacting cycle the invalids-counter stages scan all
    ///   occupied entries (charged per entry, by half);
    /// * the clock-gating control logic runs every cycle regardless.
    pub fn tick(&mut self, max_compact: usize, activity: &mut IqActivity) {
        activity.gating_cycles += 1;
        if self.occupied == 0 {
            // Nothing to age or compact; an empty queue only clocks its
            // gating control.
            return;
        }

        // Age issued entries toward invalidation.
        let mut issued = self.issued;
        while issued != 0 {
            let pos = issued.trailing_zeros() as usize;
            issued &= issued - 1;
            let slot = self.slots[pos].as_mut().expect("issued slot is occupied");
            let EntryState::Issued { age } = slot.state else {
                unreachable!("the issued mask mirrors the slots")
            };
            if age + 1 >= self.replay_window {
                slot.state = EntryState::Invalid;
                self.issued &= !(1 << pos);
            } else {
                slot.state = EntryState::Issued { age: age + 1 };
            }
        }

        // Compaction: walk the occupied priority ranks from the head up.
        // Invalid entries are removed (up to `max_compact` per cycle — the
        // removal bandwidth of the compaction logic); empty ranks below an
        // entry, such as holes left behind by a mode toggle, count as gaps
        // directly. Every entry then shifts down by the number of gaps
        // below it, capped at `max_compact` positions (the reach of the
        // entry-to-entry wires). All moves are simultaneous: a move only
        // lands on a rank already walked, so gaps vacated by this cycle's
        // moves do not cascade within the cycle.
        let mut ranks = self.rank_view(self.occupied);
        let mut next_rank = 0usize;
        let mut gap = 0usize;
        let mut removed = 0usize;
        let mut wrapped = false;
        while ranks != 0 {
            let rank = ranks.trailing_zeros() as usize;
            ranks &= ranks - 1;
            gap += rank - next_rank; // empty ranks since the previous entry
            next_rank = rank + 1;
            let pos = self.position_of_rank(rank);
            let is_invalid =
                matches!(self.slots[pos], Some(IqEntry { state: EntryState::Invalid, .. }));
            if is_invalid && removed < max_compact {
                self.slots[pos] = None;
                self.sync(pos);
                removed += 1;
                gap += 1;
                // The removed entry's invalids-counter stages clocked.
                activity.counter_entries[self.half_of(pos)] += 1;
                continue;
            }
            let shift = gap.min(max_compact);
            if shift == 0 {
                continue;
            }
            let dest = self.position_of_rank(rank - shift);
            // The wrap-around long wires form a single bus: at most one
            // entry crosses the queue ends per cycle. Once used, compaction
            // stops at the boundary for this cycle.
            if dest > pos {
                if wrapped {
                    break;
                }
                wrapped = true;
            }
            debug_assert!(self.slots[dest].is_none(), "simultaneous moves cannot collide");
            self.slots[dest] = self.slots[pos].take();
            self.move_bits(pos, dest);
            let from_half = self.half_of(pos);
            activity.compact_moves[from_half] += 1;
            activity.mux_selects[from_half] += 1;
            // An entry with invalids below it also clocks its invalids
            // counter stages; entries with none below are clock gated
            // (the paper's per-entry gating optimization).
            activity.counter_entries[from_half] += 1;
            // Wrap over the queue ends = long compaction wires (physically
            // moving upward while logically moving down).
            if dest > pos {
                activity.long_moves[self.half_of(dest)] += 1;
            }
        }
    }

    /// Captures the queue's full state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> IqState {
        IqState { slots: self.slots.clone(), mode: self.mode, replay_window: self.replay_window }
    }

    /// Restores state captured by [`snapshot`](IssueQueue::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if the captured slot count does not match this
    /// queue's capacity (i.e. the snapshot was taken under a different
    /// configuration).
    pub fn restore(&mut self, state: &IqState) -> Result<(), String> {
        if state.slots.len() != self.slots.len() {
            return Err(format!(
                "issue-queue snapshot has {} slots, queue has {}",
                state.slots.len(),
                self.slots.len()
            ));
        }
        self.slots.clone_from(&state.slots);
        self.mode = state.mode;
        self.replay_window = state.replay_window;
        for pos in 0..self.slots.len() {
            self.sync(pos);
        }
        Ok(())
    }

    /// Removes every trace of instruction `rob_id` (used only by tests and
    /// draining; normal entries leave via compaction).
    pub fn evict(&mut self, rob_id: u32) {
        for pos in 0..self.slots.len() {
            if matches!(self.slots[pos], Some(e) if e.rob_id == rob_id) {
                self.slots[pos] = None;
                self.sync(pos);
            }
        }
    }

    /// Positions (physical) of all occupied slots, for inspection.
    pub fn occupied_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(move |&p| self.slots[p].is_some())
    }

    /// Snapshot of all occupied entries (diagnostics).
    pub fn entries(&self) -> impl Iterator<Item = (usize, &IqEntry)> + '_ {
        self.slots.iter().enumerate().filter_map(|(p, slot)| slot.as_ref().map(|e| (p, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rob_id: u32) -> IqEntry {
        IqEntry {
            rob_id,
            state: EntryState::Waiting,
            src1_ready: true,
            src2_ready: true,
            src1_tag: None,
            src2_tag: None,
            is_mem: false,
            needs_fp_mul: false,
        }
    }

    fn waiting_on(rob_id: u32, tag: u32) -> IqEntry {
        IqEntry { src1_ready: false, src1_tag: Some(tag), ..entry(rob_id) }
    }

    #[test]
    fn insert_fills_from_head_in_normal_mode() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![0, 1, 2]);
        assert_eq!(act.inserts, 3);
        assert_eq!(act.payload_accesses, 3);
    }

    #[test]
    fn insert_fills_from_middle_in_toggled_mode() {
        let mut iq = IssueQueue::new(8);
        iq.set_mode(IqMode::Toggled);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![4, 5, 6], "head is at the middle");
    }

    #[test]
    fn queue_rejects_when_full() {
        let mut iq = IssueQueue::new(4);
        let mut act = IqActivity::default();
        for i in 0..4 {
            assert!(iq.insert(entry(i), &mut act));
        }
        assert!(!iq.insert(entry(99), &mut act));
        assert_eq!(iq.occupancy(), 4);
    }

    #[test]
    fn ready_priority_order_follows_mode() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..4 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let order: Vec<u32> =
            iq.ready_positions().map(|p| iq.entry(p).expect("occupied").rob_id).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "oldest first");
    }

    #[test]
    fn issue_then_invalidate_then_compact() {
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(2);
        let mut act = IqActivity::default();
        for i in 0..4 {
            assert!(iq.insert(entry(i), &mut act));
        }
        // Issue the head entry (position 0).
        iq.mark_issued(0, &mut act);
        // Two ticks to pass the replay window, then one more compacts.
        iq.tick(6, &mut act); // age 0 -> 1... reaches window: Invalid
        iq.tick(6, &mut act); // compaction removes it, shifting 3 entries
        assert_eq!(iq.occupancy(), 3);
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![0, 1, 2]);
        // All three younger entries moved down one slot.
        assert_eq!(act.compact_moves[0], 3);
        assert_eq!(act.long_moves, [0, 0], "no wraps in normal mode");
    }

    #[test]
    fn tail_entries_move_more_than_head_entries() {
        // The paper's central asymmetry: issue instructions from the head
        // repeatedly while the tail stays populated; tail-half entries rack
        // up movement, head-half entries do not.
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        let mut next_id = 0u32;
        for _ in 0..8 {
            assert!(iq.insert(entry(next_id), &mut act));
            next_id += 1;
        }
        act = IqActivity::default();
        for i in 0..60usize {
            // Issue a pseudo-uniformly chosen ready entry: entries above the
            // issued one move, entries below stay put — so tail-half entries
            // move on (almost) every issue, head-half entries rarely.
            let ready: Vec<usize> = iq.ready_positions().collect();
            let pick = ready[(i * 7 + 3) % ready.len()];
            iq.mark_issued(pick, &mut act);
            iq.tick(6, &mut act);
            iq.tick(6, &mut act);
            let _ = iq.insert(entry(next_id), &mut act);
            next_id += 1;
        }
        assert!(
            act.compact_moves[1] > 2 * act.compact_moves[0],
            "tail half should move far more: {:?}",
            act.compact_moves
        );
    }

    #[test]
    fn toggled_mode_wraps_with_long_wires() {
        let mut iq = IssueQueue::new(8);
        iq.set_mode(IqMode::Toggled);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        // Fill past the wrap point: head at 4, entries at 4,5,6,7,0,1.
        for i in 0..6 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![0, 1, 4, 5, 6, 7]);
        act = IqActivity::default();
        // Issue the head (physical 4); the entry at physical 0 must wrap to
        // physical 7 during compaction.
        iq.mark_issued(4, &mut act);
        iq.tick(6, &mut act);
        iq.tick(6, &mut act);
        assert!(act.long_moves[1] >= 1, "wrap should charge long wires: {act:?}");
    }

    #[test]
    fn broadcast_wakes_matching_tags() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        assert!(iq.insert(waiting_on(1, 77), &mut act));
        assert!(iq.insert(waiting_on(2, 88), &mut act));
        assert_eq!(iq.ready_positions().count(), 0);
        iq.broadcast(77, &mut act);
        assert_eq!(iq.ready_positions().count(), 1);
        iq.broadcast(88, &mut act);
        assert_eq!(iq.ready_positions().count(), 2);
        assert_eq!(act.broadcasts, 2);
    }

    #[test]
    fn compaction_bandwidth_is_bounded() {
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        for i in 0..6 {
            assert!(iq.insert(entry(i), &mut act));
        }
        // Issue 4 entries at once.
        for pos in [0, 1, 2, 3] {
            iq.mark_issued(pos, &mut act);
        }
        iq.tick(2, &mut act); // invalidates; compaction limited to 2/cycle
        assert_eq!(iq.occupancy(), 4, "only 2 removed in the first cycle");
        iq.tick(2, &mut act);
        assert_eq!(iq.occupancy(), 2, "remaining invalids removed next cycle");
        iq.tick(2, &mut act);
        assert_eq!(iq.occupancy(), 2, "valid entries stay");
    }

    #[test]
    fn mode_change_does_not_move_entries() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        let before: Vec<usize> = iq.occupied_positions().collect();
        iq.set_mode(IqMode::Toggled);
        let after: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(before, after, "toggle must not physically move entries");
        // But priority order now favors the top half; the old entries at
        // the bottom are now lowest priority (transient misordering).
        let first_ready = iq.ready_positions().next().expect("entries are ready");
        assert_eq!(first_ready, 0, "still the only occupied region");
    }

    #[test]
    fn entries_migrate_after_toggle() {
        // After a toggle, old entries in the bottom half migrate toward the
        // new head (middle) as compaction squeezes the holes below them.
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for i in 0..2 {
            assert!(iq.insert(entry(i), &mut act));
        }
        iq.set_mode(IqMode::Toggled);
        for _ in 0..8 {
            iq.tick(6, &mut act);
        }
        let occupied: Vec<usize> = iq.occupied_positions().collect();
        assert_eq!(occupied, vec![4, 5], "entries migrated to the new head region");
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut iq = IssueQueue::new(8);
        iq.set_mode(IqMode::Toggled);
        iq.set_replay_window(3);
        let mut act = IqActivity::default();
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        iq.mark_issued(4, &mut act);
        let state = iq.snapshot();

        let mut other = IssueQueue::new(8);
        other.restore(&state).expect("same capacity");
        assert_eq!(other.occupancy(), iq.occupancy());
        assert_eq!(other.mode(), iq.mode());
        assert_eq!(other.snapshot(), state);

        let mut wrong = IssueQueue::new(16);
        assert!(wrong.restore(&state).is_err(), "capacity mismatch must fail");
    }

    #[test]
    fn evict_racing_compaction_keeps_occupancy_consistent() {
        // An eviction landing between invalidation and the compaction pass
        // must not double-free the slot or corrupt the occupancy counter.
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        let mut act = IqActivity::default();
        for i in 0..5 {
            assert!(iq.insert(entry(i), &mut act));
        }
        // Issue the head; one tick later its entry is Invalid but not yet
        // compacted away (bandwidth 0 this cycle keeps it in place).
        iq.mark_issued(0, &mut act);
        iq.tick(0, &mut act);
        assert!(matches!(iq.entry(0), Some(e) if e.state == EntryState::Invalid));
        // Evict a *different* entry mid-flight, then let compaction run.
        iq.evict(3);
        assert_eq!(iq.occupancy(), 4);
        iq.tick(6, &mut act);
        assert_eq!(iq.occupancy(), 3, "invalid head removed, eviction not re-counted");
        assert_eq!(iq.occupancy(), iq.occupied_positions().count());
        let ids: Vec<u32> = iq.occupied_positions().map(|p| iq.entry(p).unwrap().rob_id).collect();
        assert_eq!(ids, vec![1, 2, 4], "survivors keep age order after the race");

        // Evicting the already-invalid entry before compaction sees it must
        // also stay consistent (the slot is freed exactly once).
        let mut iq = IssueQueue::new(8);
        iq.set_replay_window(1);
        for i in 0..3 {
            assert!(iq.insert(entry(i), &mut act));
        }
        iq.mark_issued(0, &mut act);
        iq.tick(0, &mut act); // now Invalid, still resident
        iq.evict(0);
        assert_eq!(iq.occupancy(), 2);
        iq.tick(6, &mut act);
        assert_eq!(iq.occupancy(), 2, "compaction must not remove it a second time");
        assert_eq!(iq.occupancy(), iq.occupied_positions().count());
    }

    #[test]
    fn half_of_midpoint_is_stable_across_mode_toggles() {
        // `half_of` reports *physical* halves: the boundary sits between
        // positions S/2 - 1 and S/2 and must not move when the priority
        // encoding toggles (the power model attributes energy to physical
        // wires, not logical ranks).
        let mut iq = IssueQueue::new(8);
        assert_eq!(iq.half_of(3), 0, "last bottom-half position");
        assert_eq!(iq.half_of(4), 1, "first top-half position");
        iq.set_mode(IqMode::Toggled);
        assert_eq!(iq.half_of(3), 0, "toggling must not move the physical boundary");
        assert_eq!(iq.half_of(4), 1);
        // In toggled mode the midpoint position is the *head* (rank 0).
        assert_eq!(iq.position_of_rank(0), 4);
        assert_eq!(iq.half_of(iq.position_of_rank(0)), 1);
        iq.set_mode(IqMode::Normal);
        assert_eq!(iq.position_of_rank(0), 0);
        assert_eq!(iq.half_of(iq.position_of_rank(0)), 0);
    }

    #[test]
    fn gating_runs_every_cycle() {
        let mut iq = IssueQueue::new(8);
        let mut act = IqActivity::default();
        for _ in 0..5 {
            iq.tick(6, &mut act);
        }
        assert_eq!(act.gating_cycles, 5);
    }
}
