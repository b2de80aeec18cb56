//! The per-scheme behaviour tests, edge by edge against the paper's
//! Figures 3-1 and 5-1 and the baselines' published descriptions, run
//! against the executed protocols (`ProtocolKind::*.build()`).

use decache_core::{BusIntent, CpuOutcome, LineState, ProtocolKind, SnoopEvent, SnoopOutcome};
use decache_mem::Word;

fn w(v: u64) -> Word {
    Word::new(v)
}

mod rb {
    use super::*;
    use LineState::{Invalid, Local, Readable};

    // ------------------------------------------------------------------
    // Figure 3-1, edge by edge.
    // ------------------------------------------------------------------

    #[test]
    fn fig3_1_read_state_cpu_read_hits() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.cpu_read(Some(Readable)),
            CpuOutcome::Hit { next: Readable }
        );
    }

    #[test]
    fn fig3_1_read_state_cpu_write_writes_through_to_local() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.cpu_write(Some(Readable)),
            CpuOutcome::Miss {
                intent: BusIntent::Write
            }
        );
        assert_eq!(rb.own_complete(Some(Readable), BusIntent::Write), Local);
    }

    #[test]
    fn fig3_1_read_state_bus_read_no_effect() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.snoop(Readable, SnoopEvent::Read(w(1))),
            SnoopOutcome::unchanged(Readable)
        );
    }

    #[test]
    fn fig3_1_read_state_bus_write_invalidates() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.snoop(Readable, SnoopEvent::Write(w(1))),
            SnoopOutcome::to(Invalid)
        );
    }

    #[test]
    fn fig3_1_invalid_state_cpu_read_fetches_to_read() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.cpu_read(Some(Invalid)),
            CpuOutcome::Miss {
                intent: BusIntent::Read
            }
        );
        assert_eq!(rb.own_complete(Some(Invalid), BusIntent::Read), Readable);
    }

    #[test]
    fn fig3_1_invalid_state_cpu_write_to_local() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.cpu_write(Some(Invalid)),
            CpuOutcome::Miss {
                intent: BusIntent::Write
            }
        );
        assert_eq!(rb.own_complete(Some(Invalid), BusIntent::Write), Local);
    }

    #[test]
    fn fig3_1_invalid_state_bus_write_no_effect() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.snoop(Invalid, SnoopEvent::Write(w(3))),
            SnoopOutcome::unchanged(Invalid)
        );
    }

    #[test]
    fn fig3_1_invalid_state_bus_read_broadcast_capture() {
        // "All caches that contain the target address of a bus read will
        // perform these actions, so that the value read will, in effect,
        // be broadcast to all the processors for future use."
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.snoop(Invalid, SnoopEvent::Read(w(5))),
            SnoopOutcome::capture(Readable)
        );
    }

    #[test]
    fn fig3_1_local_state_cpu_ops_are_silent() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(rb.cpu_read(Some(Local)), CpuOutcome::Hit { next: Local });
        assert_eq!(rb.cpu_write(Some(Local)), CpuOutcome::Hit { next: Local });
    }

    #[test]
    fn fig3_1_local_state_bus_write_invalidates() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.snoop(Local, SnoopEvent::Write(w(2))),
            SnoopOutcome::to(Invalid)
        );
    }

    #[test]
    fn fig3_1_local_state_supplies_on_bus_read() {
        let rb = ProtocolKind::Rb.build();
        assert!(rb.supplies_on_snoop_read(Local));
        assert!(!rb.supplies_on_snoop_read(Readable));
        assert!(!rb.supplies_on_snoop_read(Invalid));
        assert_eq!(rb.after_supply(Local), Readable);
    }

    // ------------------------------------------------------------------
    // Not-present behaves as invalid.
    // ------------------------------------------------------------------

    #[test]
    fn not_present_equals_invalid() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(rb.cpu_read(None), rb.cpu_read(Some(Invalid)));
        assert_eq!(rb.cpu_write(None), rb.cpu_write(Some(Invalid)));
        assert_eq!(
            rb.own_complete(None, BusIntent::Read),
            rb.own_complete(Some(Invalid), BusIntent::Read)
        );
    }

    // ------------------------------------------------------------------
    // Read-modify-write hooks.
    // ------------------------------------------------------------------

    #[test]
    fn locked_read_leaves_issuer_readable() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(rb.own_locked_read_complete(Some(Invalid)), Readable);
        assert_eq!(rb.own_locked_read_complete(None), Readable);
    }

    #[test]
    fn unlock_write_makes_issuer_local() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(rb.own_unlock_write_complete(Some(Readable)), Local);
    }

    #[test]
    fn snooped_locked_read_broadcasts_like_read() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.snoop(Invalid, SnoopEvent::LockedRead(w(1))),
            SnoopOutcome::capture(Readable)
        );
    }

    #[test]
    fn snooped_unlock_write_invalidates_like_write() {
        let rb = ProtocolKind::Rb.build();
        assert_eq!(
            rb.snoop(Readable, SnoopEvent::UnlockWrite(w(0))),
            SnoopOutcome::to(Invalid)
        );
    }

    // ------------------------------------------------------------------
    // Eviction and misc.
    // ------------------------------------------------------------------

    #[test]
    fn only_local_lines_write_back() {
        let rb = ProtocolKind::Rb.build();
        assert!(rb.writeback_on_evict(Local));
        assert!(!rb.writeback_on_evict(Readable));
        assert!(!rb.writeback_on_evict(Invalid));
    }

    #[test]
    fn rb_does_not_broadcast_write_data() {
        assert!(!ProtocolKind::Rb.build().broadcasts_write_data());
    }

    #[test]
    fn state_list_is_three_states() {
        assert_eq!(
            ProtocolKind::Rb.build().states(),
            vec![Invalid, Readable, Local]
        );
        assert_eq!(ProtocolKind::Rb.build().name(), "RB");
    }

    #[test]
    #[should_panic(expected = "RB: no rule for D --CR")]
    fn foreign_state_panics() {
        let _ = ProtocolKind::Rb.build().cpu_read(Some(LineState::Dirty));
    }

    // ------------------------------------------------------------------
    // Ablation A3: read broadcast disabled.
    // ------------------------------------------------------------------

    #[test]
    fn no_broadcast_variant_ignores_foreign_reads() {
        let rb = ProtocolKind::RbNoBroadcast.build();
        assert_eq!(rb.name(), "RB-no-broadcast");
        assert_eq!(
            rb.snoop(Invalid, SnoopEvent::Read(w(5))),
            SnoopOutcome::unchanged(Invalid)
        );
        // All other behaviour is unchanged.
        assert_eq!(
            rb.snoop(Readable, SnoopEvent::Write(w(5))),
            SnoopOutcome::to(Invalid)
        );
        assert!(rb.supplies_on_snoop_read(Local));
    }
}

mod rwb {
    use super::*;
    use LineState::{FirstWrite, Invalid, Local, Readable};

    // ------------------------------------------------------------------
    // Figure 5-1, edge by edge (k = 2).
    // ------------------------------------------------------------------

    #[test]
    fn fig5_1_first_write_from_shared_broadcasts_data() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(
            p.cpu_write(Some(Readable)),
            CpuOutcome::Miss {
                intent: BusIntent::Write
            }
        );
        assert_eq!(
            p.own_complete(Some(Readable), BusIntent::Write),
            FirstWrite(1)
        );
    }

    #[test]
    fn fig5_1_second_write_confirms_local_via_bi() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(
            p.cpu_write(Some(FirstWrite(1))),
            CpuOutcome::Miss {
                intent: BusIntent::Invalidate
            }
        );
        assert_eq!(
            p.own_complete(Some(FirstWrite(1)), BusIntent::Invalidate),
            Local
        );
    }

    #[test]
    fn fig5_1_write_miss_enters_first_write() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(
            p.cpu_write(None),
            CpuOutcome::Miss {
                intent: BusIntent::Write
            }
        );
        assert_eq!(p.own_complete(None, BusIntent::Write), FirstWrite(1));
    }

    #[test]
    fn fig5_1_reads_in_intermediate_configuration_are_free() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(
            p.cpu_read(Some(FirstWrite(1))),
            CpuOutcome::Hit {
                next: FirstWrite(1)
            }
        );
        // A foreign read leaves F unchanged: "all other configurations
        // will be unchanged".
        assert_eq!(
            p.snoop(FirstWrite(1), SnoopEvent::Read(w(3))),
            SnoopOutcome::unchanged(FirstWrite(1))
        );
    }

    #[test]
    fn fig5_1_foreign_write_interrupts_streak_and_captures() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(
            p.snoop(FirstWrite(1), SnoopEvent::Write(w(7))),
            SnoopOutcome::capture(Readable)
        );
        assert_eq!(
            p.snoop(Readable, SnoopEvent::Write(w(7))),
            SnoopOutcome::capture(Readable)
        );
        assert_eq!(
            p.snoop(Invalid, SnoopEvent::Write(w(7))),
            SnoopOutcome::capture(Readable)
        );
        assert_eq!(
            p.snoop(Local, SnoopEvent::Write(w(7))),
            SnoopOutcome::capture(Readable)
        );
    }

    #[test]
    fn fig5_1_bi_invalidates_all_other_holders() {
        let p = ProtocolKind::Rwb.build();
        for s in [Invalid, Readable, FirstWrite(1), Local] {
            assert_eq!(
                p.snoop(s, SnoopEvent::Invalidate),
                SnoopOutcome::to(Invalid)
            );
        }
    }

    #[test]
    fn fig5_1_local_state_matches_rb() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(p.cpu_read(Some(Local)), CpuOutcome::Hit { next: Local });
        assert_eq!(p.cpu_write(Some(Local)), CpuOutcome::Hit { next: Local });
        assert!(p.supplies_on_snoop_read(Local));
        assert_eq!(p.after_supply(Local), Readable);
        assert!(p.writeback_on_evict(Local));
        assert!(!p.writeback_on_evict(FirstWrite(1)));
        assert!(!p.writeback_on_evict(Readable));
    }

    #[test]
    fn fig5_1_read_broadcast_still_fills_invalid_holders() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(
            p.snoop(Invalid, SnoopEvent::Read(w(4))),
            SnoopOutcome::capture(Readable)
        );
    }

    // ------------------------------------------------------------------
    // Read-modify-write: Figure 6-3 rows.
    // ------------------------------------------------------------------

    #[test]
    fn successful_ts_leaves_issuer_first_write_and_others_readable() {
        // Figure 6-3 "P2 locks S": R(1) F(1) R(1).
        let p = ProtocolKind::Rwb.build();
        assert_eq!(p.own_unlock_write_complete(Some(Readable)), FirstWrite(1));
        assert_eq!(
            p.snoop(Readable, SnoopEvent::UnlockWrite(w(1))),
            SnoopOutcome::capture(Readable)
        );
    }

    #[test]
    fn release_from_first_write_goes_local_via_bi() {
        // Figure 6-3 "P2 releases S": I(-) L(0) I(-): the release write is
        // the second uninterrupted write by P2.
        let p = ProtocolKind::Rwb.build();
        assert_eq!(
            p.cpu_write(Some(FirstWrite(1))),
            CpuOutcome::Miss {
                intent: BusIntent::Invalidate
            }
        );
    }

    // ------------------------------------------------------------------
    // Threshold generality (ablation A1).
    // ------------------------------------------------------------------

    #[test]
    fn k3_takes_two_broadcast_writes_before_bi() {
        let p = ProtocolKind::RwbThreshold(3).build();
        assert_eq!(
            p.cpu_write(Some(Readable)),
            CpuOutcome::Miss {
                intent: BusIntent::Write
            }
        );
        assert_eq!(
            p.own_complete(Some(Readable), BusIntent::Write),
            FirstWrite(1)
        );
        assert_eq!(
            p.cpu_write(Some(FirstWrite(1))),
            CpuOutcome::Miss {
                intent: BusIntent::Write
            }
        );
        assert_eq!(
            p.own_complete(Some(FirstWrite(1)), BusIntent::Write),
            FirstWrite(2)
        );
        assert_eq!(
            p.cpu_write(Some(FirstWrite(2))),
            CpuOutcome::Miss {
                intent: BusIntent::Invalidate
            }
        );
        assert_eq!(
            p.states(),
            vec![Invalid, Readable, FirstWrite(1), FirstWrite(2), Local]
        );
        assert_eq!(p.name(), "RWB(k=3)");
    }

    #[test]
    fn k1_is_write_back_invalidate() {
        let p = ProtocolKind::RwbThreshold(1).build();
        // Every bus-visible write is an immediate locality claim.
        assert_eq!(
            p.cpu_write(Some(Readable)),
            CpuOutcome::Miss {
                intent: BusIntent::Invalidate
            }
        );
        assert_eq!(p.own_complete(Some(Readable), BusIntent::Invalidate), Local);
        assert_eq!(p.own_unlock_write_complete(Some(Readable)), Local);
        // Snooped unlocking writes invalidate rather than capture.
        assert_eq!(
            p.snoop(Readable, SnoopEvent::UnlockWrite(w(1))),
            SnoopOutcome::to(Invalid)
        );
        assert_eq!(p.states(), vec![Invalid, Readable, Local]);
    }

    #[test]
    #[should_panic(expected = "threshold k = 0 out of range 1..=8")]
    fn zero_threshold_panics() {
        let _ = ProtocolKind::RwbThreshold(0).build();
    }

    #[test]
    #[should_panic(expected = "RWB: no rule for F2 --CR")]
    fn out_of_range_first_write_panics() {
        let p = ProtocolKind::Rwb.build(); // k = 2, so F(2) is illegal
        let _ = p.cpu_read(Some(FirstWrite(2)));
    }

    #[test]
    fn default_is_k2() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(ProtocolKind::RwbThreshold(2).build().name(), "RWB");
        assert_eq!(p.states(), [Invalid, Readable, FirstWrite(1), Local]);
        assert_eq!(p.name(), "RWB");
        assert!(p.broadcasts_write_data());
    }

    #[test]
    fn not_present_equals_invalid() {
        let p = ProtocolKind::Rwb.build();
        assert_eq!(p.cpu_read(None), p.cpu_read(Some(Invalid)));
        assert_eq!(p.cpu_write(None), p.cpu_write(Some(Invalid)));
    }
}

mod write_once {
    use super::*;
    use LineState::{Dirty, Invalid, Reserved, Valid};

    #[test]
    fn read_miss_fills_only_requester() {
        let p = ProtocolKind::WriteOnce.build();
        assert_eq!(
            p.cpu_read(None),
            CpuOutcome::Miss {
                intent: BusIntent::Read
            }
        );
        assert_eq!(p.own_complete(None, BusIntent::Read), Valid);
        // The defining gap vs RB: an invalid holder does NOT capture.
        assert_eq!(
            p.snoop(Invalid, SnoopEvent::Read(w(5))),
            SnoopOutcome::unchanged(Invalid)
        );
    }

    #[test]
    fn first_write_goes_through_to_reserved() {
        let p = ProtocolKind::WriteOnce.build();
        assert_eq!(
            p.cpu_write(Some(Valid)),
            CpuOutcome::Miss {
                intent: BusIntent::Write
            }
        );
        assert_eq!(p.own_complete(Some(Valid), BusIntent::Write), Reserved);
    }

    #[test]
    fn second_write_is_silent_and_dirty() {
        let p = ProtocolKind::WriteOnce.build();
        assert_eq!(p.cpu_write(Some(Reserved)), CpuOutcome::Hit { next: Dirty });
        assert_eq!(p.cpu_write(Some(Dirty)), CpuOutcome::Hit { next: Dirty });
    }

    #[test]
    fn dirty_holder_supplies_and_demotes() {
        let p = ProtocolKind::WriteOnce.build();
        assert!(p.supplies_on_snoop_read(Dirty));
        assert!(!p.supplies_on_snoop_read(Reserved));
        assert!(!p.supplies_on_snoop_read(Valid));
        assert_eq!(p.after_supply(Dirty), Valid);
    }

    #[test]
    fn reserved_demotes_on_foreign_read() {
        let p = ProtocolKind::WriteOnce.build();
        assert_eq!(
            p.snoop(Reserved, SnoopEvent::Read(w(1))),
            SnoopOutcome::to(Valid)
        );
    }

    #[test]
    fn foreign_writes_invalidate_every_state() {
        let p = ProtocolKind::WriteOnce.build();
        for s in [Invalid, Valid, Reserved, Dirty] {
            assert_eq!(
                p.snoop(s, SnoopEvent::Write(w(9))),
                SnoopOutcome::to(Invalid)
            );
            assert_eq!(
                p.snoop(s, SnoopEvent::UnlockWrite(w(9))),
                SnoopOutcome::to(Invalid)
            );
        }
    }

    #[test]
    fn only_dirty_writes_back() {
        let p = ProtocolKind::WriteOnce.build();
        assert!(p.writeback_on_evict(Dirty));
        assert!(!p.writeback_on_evict(Reserved));
        assert!(!p.writeback_on_evict(Valid));
        assert!(!p.writeback_on_evict(Invalid));
    }

    #[test]
    fn rmw_hooks() {
        let p = ProtocolKind::WriteOnce.build();
        assert_eq!(p.own_locked_read_complete(None), Valid);
        assert_eq!(p.own_unlock_write_complete(Some(Valid)), Reserved);
    }

    #[test]
    fn identity() {
        let p = ProtocolKind::WriteOnce.build();
        assert_eq!(p.name(), "write-once");
        assert_eq!(p.states(), vec![Invalid, Valid, Reserved, Dirty]);
        assert!(!p.broadcasts_write_data());
    }

    #[test]
    #[should_panic(expected = "write-once: no rule for L --CR")]
    fn foreign_state_panics() {
        let _ = ProtocolKind::WriteOnce
            .build()
            .cpu_read(Some(LineState::Local));
    }
}

mod write_through {
    use super::*;
    use LineState::{Invalid, Valid};

    #[test]
    fn reads_hit_when_valid() {
        let p = ProtocolKind::WriteThrough.build();
        assert_eq!(p.cpu_read(Some(Valid)), CpuOutcome::Hit { next: Valid });
        assert_eq!(
            p.cpu_read(Some(Invalid)),
            CpuOutcome::Miss {
                intent: BusIntent::Read
            }
        );
        assert_eq!(p.cpu_read(None), p.cpu_read(Some(Invalid)));
    }

    #[test]
    fn every_write_reaches_the_bus() {
        let p = ProtocolKind::WriteThrough.build();
        for s in [None, Some(Invalid), Some(Valid)] {
            assert_eq!(
                p.cpu_write(s),
                CpuOutcome::Miss {
                    intent: BusIntent::Write
                }
            );
        }
        assert_eq!(p.own_complete(Some(Valid), BusIntent::Write), Valid);
    }

    #[test]
    fn foreign_writes_invalidate() {
        let p = ProtocolKind::WriteThrough.build();
        assert_eq!(
            p.snoop(Valid, SnoopEvent::Write(Word::ONE)),
            SnoopOutcome::to(Invalid)
        );
        assert_eq!(
            p.snoop(Valid, SnoopEvent::Read(Word::ONE)),
            SnoopOutcome::unchanged(Valid)
        );
        // No read broadcast: invalid holders stay invalid.
        assert_eq!(
            p.snoop(Invalid, SnoopEvent::Read(Word::ONE)),
            SnoopOutcome::unchanged(Invalid)
        );
    }

    #[test]
    fn never_supplies_never_writes_back() {
        let p = ProtocolKind::WriteThrough.build();
        assert!(!p.supplies_on_snoop_read(Valid));
        assert!(!p.writeback_on_evict(Valid));
        assert!(!p.broadcasts_write_data());
    }

    #[test]
    fn identity() {
        let p = ProtocolKind::WriteThrough.build();
        assert_eq!(p.name(), "write-through");
        assert_eq!(p.states(), vec![Invalid, Valid]);
    }

    #[test]
    #[should_panic(expected = "write-through: no rule for L --CR")]
    fn foreign_state_panics() {
        let _ = ProtocolKind::WriteThrough
            .build()
            .cpu_read(Some(LineState::Local));
    }
}
