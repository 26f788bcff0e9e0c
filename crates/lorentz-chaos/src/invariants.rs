//! Post-heal invariant checking. Every check reads artifacts the real
//! system produced — on-disk WALs, process stderr ledgers, live handshake
//! probes — never harness-internal state, so a passing run certifies the
//! cluster itself.

use crate::net::ProbeOutcome;
use crate::schedule::{Fault, Schedule};
use crate::ChaosError;
use lorentz_core::SignalWal;
use std::path::{Path, PathBuf};

/// One node's WAL, loaded read-only after the run.
pub struct NodeWal {
    /// Role label ("leader", "standby0", ...).
    pub name: String,
    /// Where the log lives.
    pub path: PathBuf,
    /// The raw file bytes (for prefix comparisons).
    pub bytes: Vec<u8>,
    /// Byte length of the intact record prefix.
    pub intact_len: u64,
    /// Whether the tail is torn/corrupt.
    pub torn: bool,
    /// Delta epochs of signal records, in append order, paired with their
    /// byte offsets.
    pub epochs: Vec<(u64, u64)>,
    /// Term markers, in append order, paired with their byte offsets.
    pub terms: Vec<(u64, u64)>,
}

impl NodeWal {
    /// Loads and verifies `path`.
    pub fn load(name: &str, path: &Path) -> Result<Self, ChaosError> {
        let bytes = std::fs::read(path).map_err(|e| ChaosError::Io {
            path: path.display().to_string(),
            source: e,
        })?;
        let report = SignalWal::verify(path)
            .map_err(|e| ChaosError::Net(format!("verify {}: {e}", path.display())))?;
        let intact_len = bytes.len() as u64 - report.trailing_bytes;
        let mut epochs = Vec::new();
        let mut terms = Vec::new();
        for r in &report.records {
            if let Some(e) = r.epoch {
                epochs.push((e, r.offset));
            }
            if let Some(t) = r.term {
                terms.push((t, r.offset));
            }
        }
        Ok(Self {
            name: name.to_owned(),
            path: path.to_owned(),
            bytes,
            intact_len,
            torn: report.corrupt.is_some(),
            epochs,
            terms,
        })
    }

    /// The highest term marker in the log (0 when none).
    pub fn max_term(&self) -> u64 {
        self.terms.iter().map(|&(t, _)| t).max().unwrap_or(0)
    }

    /// The byte offset of the highest term marker, when present.
    fn max_term_offset(&self) -> Option<u64> {
        let max = self.max_term();
        self.terms
            .iter()
            .rev()
            .find(|&&(t, _)| t == max)
            .map(|&(_, off)| off)
    }
}

/// One standby's parsed exit ledger (the `followed ...` stderr line).
#[derive(Debug)]
pub struct StandbyLedger {
    /// Role label.
    pub name: String,
    /// Final replica state label ("leader", "following", "demoted ...",
    /// "halted: ...").
    pub state: String,
    /// The highest leader term the replica operated under.
    pub term: u64,
    /// Final served λ epoch.
    pub lambda_version: u64,
    /// Idempotent re-delivered epochs counted, not applied.
    pub duplicates: u64,
}

fn digits_after(line: &str, marker: &str) -> Option<u64> {
    let start = line.rfind(marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn digits_before(line: &str, marker: &str) -> Option<u64> {
    let end = line.find(marker)?;
    let head = &line[..end];
    let start = head
        .rfind(|c: char| !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    head[start..].parse().ok()
}

impl StandbyLedger {
    /// Parses the final `followed ...` ledger line out of a standby's
    /// captured stderr.
    pub fn parse(name: &str, stderr: &[String]) -> Result<Self, ChaosError> {
        let line = stderr
            .iter()
            .rev()
            .find(|l| l.starts_with("followed "))
            .ok_or_else(|| {
                ChaosError::Timeout(format!(
                    "{name}: no 'followed ...' ledger on stderr; captured:\n{}",
                    stderr.join("\n")
                ))
            })?;
        let parse_err = |what: &str| {
            ChaosError::Timeout(format!("{name}: ledger line missing '{what}': {line}"))
        };
        let state_start = line
            .rfind("; state ")
            .ok_or_else(|| parse_err("; state "))?
            + "; state ".len();
        let state_end = line.rfind(", term ").ok_or_else(|| parse_err(", term "))?;
        Ok(Self {
            name: name.to_owned(),
            state: line[state_start..state_end].to_owned(),
            term: digits_after(line, ", term ").ok_or_else(|| parse_err("term"))?,
            lambda_version: digits_after(line, "lambda v").ok_or_else(|| parse_err("lambda v"))?,
            duplicates: digits_before(line, " duplicates")
                .ok_or_else(|| parse_err("duplicates"))?,
        })
    }
}

/// What happened to the surviving old leader after heal (absent for the
/// kill fault, where no process survives to fence).
#[derive(Debug)]
pub struct OldLeaderOutcome {
    /// The fence probe (higher-term subscribe) was answered `stale_leader`.
    pub fence_reply_stale: bool,
    /// Raw reply to a post-fence feedback frame (must be a rejection
    /// mentioning the fence).
    pub feedback_reply: String,
    /// WAL size observed right after the fence probe.
    pub wal_size_at_fence: u64,
    /// WAL size after the node drained and exited.
    pub wal_size_final: u64,
    /// Whether the drain ledger reported the fence (`FENCED by term`).
    pub stderr_reported_fence: bool,
    /// The drained process's exit code.
    pub exit_code: Option<i32>,
    /// Feedback signals the isolated leader acked during the partition
    /// (its expected divergent-tail length).
    pub diverged_acked: u64,
}

/// Everything the checker consumes.
pub struct InvariantInput<'a> {
    /// The seed's schedule (fault kind gates several checks).
    pub schedule: &'a Schedule,
    /// The old leader's WAL.
    pub leader_wal: &'a NodeWal,
    /// Standby WALs, index-aligned with `ledgers`.
    pub standby_wals: &'a [NodeWal],
    /// Standby exit ledgers.
    pub ledgers: &'a [StandbyLedger],
    /// The promoted winner's term, read from the post-promotion ack.
    pub winner_term: u64,
    /// Final subscribe census: `(node, outcome)` per replication
    /// endpoint probed after heal + fencing.
    pub census: &'a [(String, ProbeOutcome)],
    /// The surviving old leader's post-heal outcome.
    pub old_leader: Option<&'a OldLeaderOutcome>,
    /// Each standby's raw reply to one post-census feedback frame sent to
    /// its client port with a 1 s timeout, index-aligned with `ledgers`.
    pub failover_feedback: &'a [(String, String)],
}

/// Runs every invariant, returning human-readable violations (empty =
/// pass).
pub fn check(input: &InvariantInput<'_>) -> Vec<String> {
    let mut violations = Vec::new();
    let mut violation = |msg: String| violations.push(msg);

    // --- per-WAL integrity: clean tails (killed leader excepted), terms
    // strictly increasing, epochs strictly increasing and dense.
    let kill = matches!(input.schedule.fault, Fault::Kill);
    let all_wals = std::iter::once(input.leader_wal).chain(input.standby_wals.iter());
    for wal in all_wals {
        if wal.torn && !(kill && wal.name == input.leader_wal.name) {
            violation(format!(
                "{}: torn/corrupt WAL tail on a cleanly-stopped node ({})",
                wal.name,
                wal.path.display()
            ));
        }
        for pair in wal.terms.windows(2) {
            if pair[1].0 <= pair[0].0 {
                violation(format!(
                    "{}: term markers not strictly increasing ({} then {})",
                    wal.name, pair[0].0, pair[1].0
                ));
            }
        }
        for pair in wal.epochs.windows(2) {
            if pair[1].0 != pair[0].0 + 1 {
                violation(format!(
                    "{}: epochs not dense/monotonic ({} then {})",
                    wal.name, pair[0].0, pair[1].0
                ));
            }
        }
    }

    // --- exactly one standby won the promotion; losers re-followed.
    let winners: Vec<&StandbyLedger> = input
        .ledgers
        .iter()
        .filter(|l| l.state == "leader")
        .collect();
    if winners.len() != 1 {
        violation(format!(
            "expected exactly one promoted standby, found {}: [{}]",
            winners.len(),
            input
                .ledgers
                .iter()
                .map(|l| format!("{}={}", l.name, l.state))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        return violations; // downstream checks need a unique winner
    }
    let winner = winners[0];
    let winner_wal = &input.standby_wals[input
        .ledgers
        .iter()
        .position(|l| l.state == "leader")
        .expect("winner exists")];

    if winner.term != input.winner_term {
        violation(format!(
            "{}: ledger term {} disagrees with promoted ack term {}",
            winner.name, winner.term, input.winner_term
        ));
    }
    if winner_wal.max_term() != input.winner_term {
        violation(format!(
            "{}: WAL max term {} != promoted term {}",
            winner.name,
            winner_wal.max_term(),
            input.winner_term
        ));
    }
    // Terms strictly increase across the promotion.
    if input.winner_term <= input.leader_wal.max_term() {
        violation(format!(
            "promotion did not advance the term: old leader at {}, winner at {}",
            input.leader_wal.max_term(),
            input.winner_term
        ));
    }

    for ledger in input.ledgers {
        if ledger.state == "leader" {
            continue;
        }
        if !ledger.state.starts_with("following") {
            violation(format!(
                "{}: expected to re-follow the winner, ended '{}'",
                ledger.name, ledger.state
            ));
        }
        if ledger.term != input.winner_term {
            violation(format!(
                "{}: never learned the winner's term (saw {}, winner at {})",
                ledger.name, ledger.term, input.winner_term
            ));
        }
    }

    // --- λ convergence across survivors: every survivor ends at the same
    // λ epoch, and loser WALs are byte-identical to the winner's (prefix
    // property degenerating to equality once caught up).
    let top_epoch = winner_wal.epochs.last().map_or(0, |&(epoch, _)| epoch);
    for (ledger, wal) in input.ledgers.iter().zip(input.standby_wals) {
        if ledger.lambda_version != winner.lambda_version {
            violation(format!(
                "λ divergence: {} at epoch {}, winner {} at {}",
                ledger.name, ledger.lambda_version, winner.name, winner.lambda_version
            ));
        }
        if wal.bytes != winner_wal.bytes {
            violation(format!(
                "{}: replica WAL differs from the winner's ({} vs {} bytes)",
                wal.name,
                wal.bytes.len(),
                winner_wal.bytes.len()
            ));
        }
    }
    if winner.lambda_version != top_epoch {
        violation(format!(
            "winner serves λ epoch {} but its WAL tops out at {}",
            winner.lambda_version, top_epoch
        ));
    }

    // --- prefix property against the old lineage: everything the winner
    // replicated before minting its term must sit verbatim in the old
    // leader's intact prefix.
    if let Some(marker_offset) = winner_wal.max_term_offset() {
        let common = marker_offset as usize;
        if input.leader_wal.intact_len < marker_offset {
            violation(format!(
                "old leader's intact WAL ({} bytes) is shorter than the replicated \
                 common prefix ({} bytes)",
                input.leader_wal.intact_len, marker_offset
            ));
        } else if input.leader_wal.bytes[..common] != winner_wal.bytes[..common] {
            violation(format!(
                "WAL fork before the fence point: first {common} bytes of {} and {} differ",
                input.leader_wal.name, winner_wal.name
            ));
        }
    } else {
        violation(format!(
            "{}: promoted winner's WAL carries no term marker",
            winner_wal.name
        ));
    }

    // --- at most one unfenced leader: the census must ack exactly once,
    // at the winner's term.
    let mut acks = 0;
    for (node, outcome) in input.census {
        match outcome {
            ProbeOutcome::Ack { leader_term } => {
                acks += 1;
                if *leader_term != input.winner_term {
                    violation(format!(
                        "{node}: unfenced at term {leader_term}, expected winner term {}",
                        input.winner_term
                    ));
                }
            }
            ProbeOutcome::Stale { .. } | ProbeOutcome::Unreachable(_) => {}
            ProbeOutcome::Rejected(why) => {
                violation(format!("{node}: unexpected census rejection: {why}"));
            }
        }
    }
    if acks != 1 {
        violation(format!(
            "split brain: {acks} unfenced leaders answered the census (want exactly 1)"
        ));
    }

    // --- the surviving old leader fenced itself and froze its WAL.
    match (input.schedule.fault.leader_survives(), input.old_leader) {
        (true, Some(old)) => {
            if !old.fence_reply_stale {
                violation(
                    "old leader did not answer the higher-term probe with stale_leader".to_owned(),
                );
            }
            if !old.feedback_reply.contains("fenced") {
                violation(format!(
                    "old leader accepted (or mislabeled) feedback after the fence: {}",
                    old.feedback_reply
                ));
            }
            if old.wal_size_final != old.wal_size_at_fence {
                violation(format!(
                    "post-heal WAL divergence: old leader's WAL grew from {} to {} bytes \
                     after fencing",
                    old.wal_size_at_fence, old.wal_size_final
                ));
            }
            if !old.stderr_reported_fence {
                violation("old leader's drain ledger did not report the fence".to_owned());
            }
            if old.exit_code != Some(0) {
                violation(format!(
                    "fenced leader should drain cleanly (exit 0), got {:?}",
                    old.exit_code
                ));
            }
            // Divergent tail accounting: the isolated leader's extra
            // signal records are exactly the diverging acks. The common
            // records are the ones the winner replicated before minting
            // its term (the prefix check above holds them byte-equal).
            let old_signals = input.leader_wal.epochs.len() as u64;
            let fence_point = winner_wal.max_term_offset().unwrap_or(0);
            let common_signals = winner_wal
                .epochs
                .iter()
                .filter(|&&(_, offset)| offset < fence_point)
                .count() as u64;
            if old_signals != common_signals + old.diverged_acked {
                violation(format!(
                    "divergence ledger mismatch: old leader holds {} signals, \
                     {} common + {} acked-while-isolated expected",
                    old_signals, common_signals, old.diverged_acked
                ));
            }
        }
        (true, None) => violation(
            "fault leaves the old leader alive but no fence outcome was collected".to_owned(),
        ),
        (false, _) => {}
    }

    // --- failover keeps feedback open: exactly the winner acks, every
    // other standby refuses as a non-leader or a fenced one.
    let mut acked = Vec::new();
    for ((node, reply), ledger) in input.failover_feedback.iter().zip(input.ledgers) {
        if reply.contains("\"ack\"") {
            acked.push(node.as_str());
            if ledger.state != "leader" {
                violation(format!(
                    "{node}: acked feedback but ended '{}', not the promoted leader",
                    ledger.state
                ));
            }
        } else if !reply.contains("\"not_leader\"") && !reply.contains("fenced") {
            violation(format!(
                "{node}: feedback answered neither an ack, not_leader nor fenced: {reply}"
            ));
        }
    }
    if acked.len() != 1 {
        violation(format!(
            "failover: {} standbys acked feedback within 1 s (want exactly 1): [{}]",
            acked.len(),
            acked.join(", ")
        ));
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_line_parses() {
        let stderr = vec![
            "following tcp://127.0.0.1:9 (caught up to epoch 4)".to_owned(),
            "followed tcp://127.0.0.1:9: 7 deltas applied (lambda v8, last epoch 8); \
             state following, term 2, 1 duplicates"
                .to_owned(),
        ];
        let ledger = StandbyLedger::parse("standby0", &stderr).unwrap();
        assert_eq!(ledger.state, "following");
        assert_eq!(ledger.term, 2);
        assert_eq!(ledger.lambda_version, 8);
        assert_eq!(ledger.duplicates, 1);
    }

    #[test]
    fn ledger_line_parses_demoted_state_with_embedded_terms() {
        let stderr = vec![
            "followed tcp://h:1: 3 deltas applied (lambda v4, last epoch 4); \
             state demoted (term 2 fenced by term 3), term 3, 0 duplicates"
                .to_owned(),
        ];
        let ledger = StandbyLedger::parse("s", &stderr).unwrap();
        assert_eq!(ledger.state, "demoted (term 2 fenced by term 3)");
        assert_eq!(ledger.term, 3);
        assert_eq!(ledger.duplicates, 0);
    }
}
