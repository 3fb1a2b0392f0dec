//! Property-based tests on the issue queue and core invariants.

use powerbalance_uarch::{Cache, CacheConfig, EntryState, IqActivity, IqEntry, IqMode, IssueQueue};
use proptest::prelude::*;

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

/// A random queue operation.
#[derive(Debug, Clone)]
enum Op {
    Insert,
    IssueNth(usize),
    Tick,
    Toggle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Insert),
        3 => (0usize..32).prop_map(Op::IssueNth),
        3 => Just(Op::Tick),
        1 => Just(Op::Toggle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any interleaving of inserts, issues, compaction ticks, and
    /// mode toggles: occupancy tracks the slot array, no instruction is
    /// duplicated or lost while waiting, and every inserted instruction
    /// eventually drains once issued.
    #[test]
    fn queue_survives_arbitrary_operation_sequences(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut iq = IssueQueue::new(32);
        let mut act = IqActivity::default();
        let mut next_id = 0u32;
        let mut live: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut mode = IqMode::Normal;

        for op in ops {
            match op {
                Op::Insert => {
                    if iq.can_insert() {
                        prop_assert!(iq.insert(entry(next_id), &mut act));
                        live.insert(next_id);
                        next_id += 1;
                    }
                }
                Op::IssueNth(n) => {
                    let ready: Vec<usize> = iq.ready_positions().collect();
                    if !ready.is_empty() {
                        let pos = ready[n % ready.len()];
                        let id = iq.entry(pos).expect("ready slot occupied").rob_id;
                        iq.mark_issued(pos, &mut act);
                        live.remove(&id);
                    }
                }
                Op::Tick => iq.tick(6, &mut act),
                Op::Toggle => {
                    mode = mode.flipped();
                    iq.set_mode(mode);
                }
            }

            // Invariants after every step.
            let occupied: Vec<u32> = iq
                .occupied_positions()
                .map(|p| iq.entry(p).expect("occupied").rob_id)
                .collect();
            prop_assert_eq!(occupied.len(), iq.occupancy(), "occupancy mismatch");
            let unique: std::collections::HashSet<u32> = occupied.iter().copied().collect();
            prop_assert_eq!(unique.len(), occupied.len(), "duplicated entry");
            // Every still-waiting instruction is present exactly once.
            for id in &live {
                prop_assert!(unique.contains(id), "lost waiting instruction {id}");
            }
        }

        // Drain: with no further inserts, issuing everything and ticking
        // must empty the queue.
        for _ in 0..200 {
            let head = iq.ready_positions().next();
            if let Some(pos) = head {
                iq.mark_issued(pos, &mut act);
            }
            iq.tick(6, &mut act);
            if iq.occupancy() == 0 {
                break;
            }
        }
        prop_assert_eq!(iq.occupancy(), 0, "queue failed to drain");
    }

    /// Compaction never teleports entries upward in priority: after any
    /// single tick, the priority rank of every surviving entry is <= its
    /// rank before the tick.
    #[test]
    fn compaction_is_monotone(occupancy in 1usize..32, issues in prop::collection::vec(0usize..32, 0..6)) {
        let mut iq = IssueQueue::new(32);
        let mut act = IqActivity::default();
        for i in 0..occupancy {
            prop_assert!(iq.insert(entry(i as u32), &mut act));
        }
        for n in issues {
            let ready: Vec<usize> = iq.ready_positions().collect();
            if !ready.is_empty() {
                iq.mark_issued(ready[n % ready.len()], &mut act);
            }
        }
        let rank_of = |iq: &IssueQueue, id: u32| -> Option<usize> {
            iq.occupied_positions()
                .filter(|&p| {
                    !matches!(iq.entry(p).expect("occupied").state, EntryState::Invalid)
                })
                .position(|p| iq.entry(p).expect("occupied").rob_id == id)
        };
        let position_of = |iq: &IssueQueue, id: u32| -> Option<usize> {
            iq.occupied_positions().find(|&p| iq.entry(p).expect("occupied").rob_id == id)
        };
        let before: Vec<(u32, usize)> = (0..occupancy as u32)
            .filter_map(|id| rank_of(&iq, id).map(|r| (id, r)))
            .collect();
        let positions_before: Vec<Option<usize>> =
            before.iter().map(|&(id, _)| position_of(&iq, id)).collect();
        iq.tick(6, &mut act);
        iq.tick(6, &mut act);
        iq.tick(6, &mut act);
        for (&(id, rank), position) in before.iter().zip(positions_before) {
            // A survivor may only keep or improve (lower) its rank among the
            // survivors, and in the conventional mode compaction only ever
            // moves it down the queue.
            if let Some(after) = rank_of(&iq, id) {
                prop_assert!(after <= rank, "entry {id} fell from rank {rank} to {after}");
                let (from, to) = (position.expect("ranked"), position_of(&iq, id).expect("ranked"));
                prop_assert!(to <= from, "entry {id} moved up from position {from} to {to}");
            }
        }
        let after_order: Vec<u32> = iq
            .occupied_positions()
            .filter(|&p| !matches!(iq.entry(p).expect("occupied").state, EntryState::Invalid))
            .map(|p| iq.entry(p).expect("occupied").rob_id)
            .collect();
        let before_order: Vec<u32> = before.iter().map(|(id, _)| *id).collect();
        let filtered: Vec<u32> = before_order
            .iter()
            .copied()
            .filter(|id| after_order.contains(id))
            .collect();
        prop_assert_eq!(filtered, after_order, "relative age order must be preserved");
    }

    /// Cache invariant: re-accessing any address immediately after an
    /// access always hits, regardless of the preceding access pattern.
    #[test]
    fn cache_second_access_hits(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::l1_default());
        for addr in addrs {
            let _ = cache.access(addr);
            prop_assert_eq!(cache.access(addr), powerbalance_uarch::CacheOutcome::Hit);
        }
    }
}
