//! Property-based tests of term-record WAL framing: any interleaving of
//! term markers and delta records survives a write → reopen round trip
//! (recovery reports the true maxima), a log with no term markers
//! recovers as term 0, and a torn final frame never corrupts what
//! precedes it.

use lorentz::core::personalizer::WalRecord;
use lorentz::core::{SatisfactionSignal, SignalWal};
use lorentz::types::{
    CustomerId, LambdaDelta, PathKey, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId,
};
use proptest::prelude::*;

mod common;
use common::TestDir;

fn signal(gamma: f64) -> SatisfactionSignal {
    let path = ResourcePath::new(CustomerId(1), SubscriptionId(2), ResourceGroupId(3));
    SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, gamma).unwrap()
}

/// One generated append: a term marker or a delta record. Terms and
/// epochs take strictly increasing values from their own counters so the
/// expected maxima are just the last minted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Append {
    Term,
    Record,
}

fn to_script(raw: &[bool]) -> Vec<Append> {
    raw.iter()
        .map(|&term| if term { Append::Term } else { Append::Record })
        .collect()
}

fn write_script(path: &std::path::Path, script: &[Append]) -> (u64, u64) {
    let _ = std::fs::remove_file(path);
    let (mut wal, recovery) = SignalWal::open(path).unwrap();
    assert_eq!(recovery.last_term, 0);
    assert_eq!(recovery.last_epoch, 0);
    let (mut term, mut epoch) = (0u64, 0u64);
    for step in script {
        match step {
            Append::Term => {
                term += 1;
                wal.append_term(term).unwrap();
            }
            Append::Record => {
                epoch += 1;
                let record = WalRecord {
                    signal: signal(1.0),
                    delta: LambdaDelta::new(
                        epoch,
                        vec![(
                            PathKey::new(ResourcePath::new(
                                CustomerId(1),
                                SubscriptionId(2),
                                ResourceGroupId(3),
                            )),
                            [0.0, 0.1, 0.0],
                        )],
                    ),
                };
                wal.append_record(&record).unwrap();
            }
        }
    }
    (term, epoch)
}

proptest! {
    /// Reopening any interleaving recovers the exact maxima: the highest
    /// minted term (0 when no marker was ever written) and the highest
    /// delta epoch, with no torn tail.
    #[test]
    fn recovery_reports_the_maxima(
        raw in collection::vec(any::<bool>(), 0..24),
    ) {
        let script = to_script(&raw);
        let dir = TestDir::new("wal-term-maxima");
        let path = dir.join("case.wal");
        let (want_term, want_epoch) = write_script(&path, &script);

        let (_wal, recovery) = SignalWal::open(&path).unwrap();
        prop_assert_eq!(recovery.last_term, want_term);
        prop_assert_eq!(recovery.last_epoch, want_epoch);
        prop_assert_eq!(recovery.torn_tail_bytes, 0);
        let records = script.iter().filter(|s| **s == Append::Record).count();
        prop_assert_eq!(recovery.signals.len(), records);

        // The read-only verifier agrees frame by frame: term markers
        // surface their term, records their epoch.
        let report = SignalWal::verify(&path).unwrap();
        prop_assert!(report.corrupt.is_none());
        prop_assert_eq!(report.records.len(), script.len());
        let verified_terms: Vec<u64> =
            report.records.iter().filter_map(|r| r.term).collect();
        prop_assert_eq!(verified_terms.len() as u64, want_term);
        prop_assert_eq!(verified_terms.iter().max().copied().unwrap_or(0), want_term);
    }

    /// Cutting the log anywhere strictly inside its final frame loses
    /// only that frame: recovery equals the shorter script's recovery and
    /// the torn bytes are reported, never silently kept.
    #[test]
    fn torn_final_frame_falls_back_to_the_intact_prefix(
        raw in collection::vec(any::<bool>(), 1..12),
        cut_seed in any::<u64>(),
    ) {
        let script = to_script(&raw);
        let dir = TestDir::new("wal-term-torn");
        let full = dir.join("full.wal");
        write_script(&full, &script);
        let prefix = dir.join("prefix.wal");
        write_script(&prefix, &script[..script.len() - 1]);

        let full_len = std::fs::metadata(&full).unwrap().len();
        let prefix_len = std::fs::metadata(&prefix).unwrap().len();
        assert!(full_len > prefix_len, "every append must add bytes");
        // A cut strictly inside the final frame (keep at least one byte
        // of it so there is genuinely a torn tail to discard).
        let cut = prefix_len + 1 + cut_seed % (full_len - prefix_len - 1).max(1);

        let torn = dir.join("torn.wal");
        let mut bytes = std::fs::read(&full).unwrap();
        bytes.truncate(cut as usize);
        std::fs::write(&torn, &bytes).unwrap();

        let (_wal, want) = SignalWal::open(&prefix).unwrap();
        let (_wal, got) = SignalWal::open(&torn).unwrap();
        prop_assert_eq!(got.last_term, want.last_term);
        prop_assert_eq!(got.last_epoch, want.last_epoch);
        prop_assert_eq!(got.signals, want.signals);
        prop_assert!(got.torn_tail_bytes > 0, "the cut frame must be reported");
        // Reopening truncated the torn tail: the file now equals the
        // intact prefix byte for byte.
        prop_assert_eq!(std::fs::read(&torn).unwrap(), std::fs::read(&prefix).unwrap());
    }
}
