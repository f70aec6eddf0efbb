//! Periodic control-plane state snapshots.
//!
//! A [`FabricSnapshot`] is a canonical, FNV-fingerprinted serialization of
//! the entire replayed state of a [`FabricState`](crate::state::FabricState)
//! at one journal sequence number, plus the journal hash fold up to that
//! point. It is the unit of three operations:
//!
//! 1. **Delta replay** ([`crate::state::replay_from`]): restore the snapshot
//!    and fold only the journal tail above its watermark — O(tail), not
//!    O(journal).
//! 2. **Compaction** ([`crate::journal::Journal::compact_to`]): records
//!    below a snapshot's watermark can be truncated because the snapshot
//!    embodies them; the journal hash chain survives via the folded base.
//! 3. **Crash restart** (`spsim ctrl --restart-from`): a resumed run
//!    restores the snapshot, re-journals from the snapshot's own sequence
//!    number, and ends with the byte-identical journal hash and state
//!    fingerprint an uninterrupted run would have produced.
//!
//! The protocol invariant (established by
//! [`capture_snapshot`](crate::state::FabricState::capture_snapshot)): a
//! snapshot at sequence `seq` fingerprints the state *after* applying every
//! record with sequence `< seq`, and `base_fnv` is the journal hash fold
//! *before* the `Snapshot` record itself. [`FabricSnapshot::restore`]
//! therefore re-pushes the identical `Snapshot` record first, so the resumed
//! journal occupies exactly the hash-chain position the original did.

use crate::journal::{Journal, JournalEntry, JournalHeader};
use crate::state::FabricState;
use desim::{SimTime, SnapReader, SnapWriter};
use lightpath::{CtrlFault, FabricError};
use topo::Shape3;

/// Artifact format tag; bump on any incompatible layout change.
const MAGIC: &str = "spsim-snapshot v1";

/// A point-in-time capture of the control plane, sufficient to resume a
/// campaign without the journal prefix it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSnapshot {
    /// Simulated instant of capture.
    pub at: SimTime,
    /// Sequence number of the `Snapshot` journal record this capture
    /// emitted; the fingerprint covers all records with sequence `< seq`.
    pub seq: u64,
    /// Journal hash fold over the canonical header and all records below
    /// [`seq`](Self::seq) — the resume point of the hash chain.
    pub base_fnv: u64,
    /// FNV-1a fingerprint of [`state`](Self::state); also committed in the
    /// journal's `Snapshot` record so replay cross-checks it (CTL406).
    pub fingerprint: u64,
    /// The campaign binding the snapshot belongs to.
    pub header: JournalHeader,
    /// Canonical state serialization (the fingerprinted bytes).
    pub state: String,
}

/// A snapshot-corruption fault anchored at the snapshot's watermark.
fn corrupt(seq: u64, what: String) -> FabricError {
    FabricError::new(CtrlFault::ReplayDiverged { seq, what })
}

impl FabricSnapshot {
    /// Rebuild the live state this snapshot captured.
    ///
    /// The restored state's journal resumes at [`seq`](Self::seq) with the
    /// identical `Snapshot` record re-pushed, so subsequent appends chain to
    /// byte-identical hashes with the uninterrupted run. The decoded state
    /// is re-fingerprinted and must match [`fingerprint`](Self::fingerprint)
    /// — a tampered or truncated snapshot is rejected, never resumed.
    pub fn restore(&self) -> Result<FabricState, FabricError> {
        let mut journal = Journal::with_base(self.header, self.seq, self.base_fnv);
        journal.push(
            self.at,
            JournalEntry::Snapshot {
                fingerprint: self.fingerprint,
            },
        );
        let mut r = SnapReader::new(&self.state);
        let st = FabricState::restore_body(journal, &mut r).map_err(|e| corrupt(self.seq, e))?;
        r.done().map_err(|e| corrupt(self.seq, e))?;
        let fp = st.fingerprint();
        if fp != self.fingerprint {
            return Err(corrupt(
                self.seq,
                format!(
                    "restored state fingerprint {fp:#018x} does not match the \
                     snapshot's committed {:#018x}",
                    self.fingerprint
                ),
            ));
        }
        Ok(st)
    }

    /// Serialize the snapshot as a self-describing text artifact (the
    /// `--snapshot-every` output format; the workspace carries no serde).
    /// The state body travels verbatim after a `---` separator, length-
    /// prefixed so truncation is detected before fingerprinting.
    pub fn to_text(&self) -> String {
        let mut w = SnapWriter::new();
        w.section("snapshot");
        w.str("magic", MAGIC);
        w.u64("at_ps", self.at.as_ps());
        w.u64("seq", self.seq);
        w.u64("base_fnv", self.base_fnv);
        w.u64("fingerprint", self.fingerprint);
        w.u64("racks", self.header.racks as u64);
        w.u64("lanes", self.header.lanes as u64);
        w.u64("seed", self.header.seed);
        let [sx, sy, sz] = self.header.shape.dims;
        w.u64("sx", sx as u64);
        w.u64("sy", sy as u64);
        w.u64("sz", sz as u64);
        w.u64("state_len", self.state.len() as u64);
        let mut out = w.finish();
        out.push_str("---\n");
        out.push_str(&self.state);
        out
    }

    /// Parse a [`to_text`](Self::to_text) artifact. Header fields, the
    /// length prefix, and the state fingerprint are all verified; any
    /// mismatch is an `Err` naming what broke, never a resumed campaign on
    /// corrupt state.
    pub fn parse(text: &str) -> Result<FabricSnapshot, String> {
        let (head, body) = text
            .split_once("---\n")
            .ok_or_else(|| "snapshot artifact: missing ----separated state body".to_string())?;
        let mut r = SnapReader::new(head);
        r.section("snapshot")?;
        let magic = r.str("magic")?;
        if magic != MAGIC {
            return Err(format!(
                "snapshot artifact: magic {magic:?} is not {MAGIC:?}"
            ));
        }
        let at = SimTime::from_ps(r.u64("at_ps")?);
        let seq = r.u64("seq")?;
        let base_fnv = r.u64("base_fnv")?;
        let fingerprint = r.u64("fingerprint")?;
        let racks = r.u64("racks")? as usize;
        let lanes = r.u64("lanes")? as usize;
        let seed = r.u64("seed")?;
        let sx = r.u64("sx")? as usize;
        let sy = r.u64("sy")? as usize;
        let sz = r.u64("sz")? as usize;
        let state_len = r.u64("state_len")? as usize;
        r.done()?;
        if body.len() != state_len {
            return Err(format!(
                "snapshot artifact: state body is {} bytes, header promises {state_len}",
                body.len()
            ));
        }
        let fp = desim::snap::fingerprint(body);
        if fp != fingerprint {
            return Err(format!(
                "snapshot artifact: state fingerprint {fp:#018x} does not match the \
                 header's {fingerprint:#018x}"
            ));
        }
        Ok(FabricSnapshot {
            at,
            seq,
            base_fnv,
            fingerprint,
            header: JournalHeader {
                racks,
                lanes,
                seed,
                shape: Shape3::new(sx, sy, sz),
            },
            state: body.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{replay, replay_from, Admission};
    use desim::SimDuration;

    /// Drive a small campaign: admissions, a failure + repair, an eviction.
    fn busy_state() -> FabricState {
        let mut st = FabricState::new(1, 2, 7);
        let mut t = SimTime::ZERO;
        for job in 0..3u32 {
            t += SimDuration::from_secs(1);
            assert!(matches!(
                st.admit(t, job, Shape3::new(2, 2, 1)),
                Admission::Admitted { .. }
            ));
        }
        t += SimDuration::from_secs(1);
        assert!(st.inject_failure(t).is_some());
        t += SimDuration::from_secs(1);
        st.evict(t, 1);
        st
    }

    #[test]
    fn snapshot_restore_is_fingerprint_identical() {
        let mut st = busy_state();
        let snap = st.capture_snapshot(SimTime::from_ps(1 << 40));
        assert_eq!(snap.fingerprint, st.fingerprint());
        let restored = snap.restore().expect("restore");
        assert_eq!(restored.fingerprint(), st.fingerprint());
        // The resumed journal sits at the same hash-chain position.
        assert_eq!(restored.journal().hash(), st.journal().hash());
        assert_eq!(restored.journal().len(), st.journal().len());
        assert_eq!(restored.journal().next_seq(), st.journal().next_seq());
    }

    #[test]
    fn every_fingerprint_path_agrees_on_a_busy_state() {
        // Slices spanning servers carry cross-wafer circuits; two failures
        // leave incidents with repairs and jobs holding reserved spares. A
        // pending rollback exists only between a replayed `Reject` and its
        // `Rollback`, so no live state can carry one.
        let mut st = FabricState::new(2, 2, 11);
        let mut t = SimTime::ZERO;
        for (job, dims) in [
            (0u32, (4, 2, 1)),
            (1, (2, 2, 1)),
            (2, (4, 2, 2)),
            (3, (2, 1, 1)),
        ] {
            t += SimDuration::from_secs(1);
            let shape = Shape3::new(dims.0, dims.1, dims.2);
            assert!(matches!(
                st.admit(t, job, shape),
                Admission::Admitted { .. }
            ));
        }
        for _ in 0..2 {
            t += SimDuration::from_secs(1);
            assert!(st.inject_failure(t).is_some());
        }
        t += SimDuration::from_secs(1);
        st.evict(t, 1);
        assert!(st.incidents().iter().any(|i| i.repair.is_some()));

        let snap = st.capture_snapshot(t);
        assert!(
            snap.state.contains("\nkind=1\n"),
            "a cross-wafer circuit is live"
        );
        assert!(
            !snap.state.contains("[reserved]\ncount=0\n"),
            "a spare is reserved"
        );
        let fp = st.fingerprint();
        assert_eq!(snap.fingerprint, fp);
        assert_eq!(desim::snap::fingerprint(&snap.state), fp);
        assert_eq!(snap.restore().expect("restore").fingerprint(), fp);
    }

    #[test]
    fn resumed_run_matches_uninterrupted_run() {
        // Uninterrupted: campaign, snapshot mid-way, more work.
        let mut full = busy_state();
        let snap = full.capture_snapshot(SimTime::from_ps(1 << 40));
        let t2 = SimTime::from_ps(2 << 40);
        assert!(matches!(
            full.admit(t2, 9, Shape3::new(2, 2, 1)),
            Admission::Admitted { .. }
        ));
        full.evict(t2 + SimDuration::from_secs(5), 9);

        // Crashed-and-restarted: restore the snapshot, redo the tail.
        let mut resumed = snap.restore().expect("restore");
        assert!(matches!(
            resumed.admit(t2, 9, Shape3::new(2, 2, 1)),
            Admission::Admitted { .. }
        ));
        resumed.evict(t2 + SimDuration::from_secs(5), 9);

        assert_eq!(resumed.fingerprint(), full.fingerprint());
        assert_eq!(resumed.journal().hash(), full.journal().hash());
        assert_eq!(resumed.journal().len(), full.journal().len());
    }

    #[test]
    fn artifact_round_trips_and_rejects_tampering() {
        let mut st = busy_state();
        let snap = st.capture_snapshot(SimTime::from_ps(1 << 40));
        let text = snap.to_text();
        let back = FabricSnapshot::parse(&text).expect("parse");
        assert_eq!(back, snap);
        assert!(back.restore().is_ok());

        // Truncated body: length check trips.
        let truncated = &text[..text.len() - 2];
        assert!(FabricSnapshot::parse(truncated)
            .unwrap_err()
            .contains("bytes"));

        // Flipped state byte: fingerprint check trips.
        let tampered = text.replacen("[occupancy]", "[occupancyX]", 1);
        assert!(FabricSnapshot::parse(&tampered).is_err());

        // Forged fingerprint on an otherwise-valid capture: restore refuses.
        let mut forged = snap.clone();
        forged.fingerprint ^= 1;
        assert!(forged.restore().is_err());
    }

    #[test]
    fn delta_replay_equals_full_replay_and_survives_compaction() {
        // Build a campaign with a mid-stream snapshot and a tail.
        let mut live = busy_state();
        let snap = live.capture_snapshot(SimTime::from_ps(1 << 40));
        let t2 = SimTime::from_ps(2 << 40);
        assert!(matches!(
            live.admit(t2, 9, Shape3::new(2, 2, 1)),
            Admission::Admitted { .. }
        ));
        live.evict(t2 + SimDuration::from_secs(5), 9);

        // Full replay from scratch vs delta replay from the snapshot.
        let full = replay(live.journal()).expect("full replay");
        let delta = replay_from(&snap, live.journal()).expect("delta replay");
        assert_eq!(full.fingerprint(), live.fingerprint());
        assert_eq!(delta.fingerprint(), live.fingerprint());

        // Compact the journal to the snapshot watermark: full replay is now
        // impossible (prefix gone), delta replay still lands on the same
        // state, and the hash chain is unbroken.
        let mut compacted = live.journal().clone();
        let dropped = compacted.compact_to(snap.seq).expect("compact");
        assert!(dropped > 0);
        assert_eq!(compacted.hash(), live.journal().hash());
        assert_eq!(compacted.len(), live.journal().len());
        assert!(replay(&compacted).is_err());
        let delta2 = replay_from(&snap, &compacted).expect("delta replay, compacted");
        assert_eq!(delta2.fingerprint(), live.fingerprint());
    }

    #[test]
    fn forged_list_counts_are_errors_not_panics() {
        let mut st = busy_state();
        let snap = st.capture_snapshot(SimTime::from_ps(1 << 40));
        for key in ["handles", "spares", "fiber_hops", "segments"] {
            // A re-signed state whose list count is forged: header and
            // fingerprint verify, so only the decoder stands in the way.
            let state = crate::domain::tests::forge_count(&snap.state, key);
            let forged = FabricSnapshot {
                fingerprint: desim::snap::fingerprint(&state),
                state,
                ..snap.clone()
            };
            let parsed = FabricSnapshot::parse(&forged.to_text()).expect("valid artifact");
            assert!(parsed.restore().is_err(), "forged {key} count restored");
        }
    }
}
