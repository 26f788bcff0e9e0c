//! End-to-end WAL-streamed replication: a leader engine publishes λ deltas
//! into its feedback WAL, a follower tails the same file and converges —
//! including across a simulated kill-mid-append (torn final record) and
//! the leader's subsequent restart, which truncates the tear.

use lorentz::core::{LorentzConfig, LorentzPipeline, SatisfactionSignal, TrainedLorentz};
use lorentz::serve::{FollowerConfig, FollowerEngine, ServeConfig, ServingEngine};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::{CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod common;
use common::TestDir;

/// One trained deployment shared by every test in this file (training
/// dominates test runtime; the engines never mutate it).
fn deployment() -> Arc<TrainedLorentz> {
    static DEPLOYMENT: OnceLock<Arc<TrainedLorentz>> = OnceLock::new();
    DEPLOYMENT
        .get_or_init(|| {
            let fleet = FleetConfig {
                n_servers: 80,
                seed: 20240807,
                ..FleetConfig::default()
            }
            .generate()
            .unwrap()
            .fleet;
            let trained = LorentzPipeline::new(LorentzConfig::paper_defaults())
                .unwrap()
                .train(&fleet)
                .unwrap();
            Arc::new(trained)
        })
        .clone()
}

fn hot_path() -> ResourcePath {
    ResourcePath::new(CustomerId(7), SubscriptionId(8), ResourceGroupId(9))
}

fn signal(gamma: f64) -> SatisfactionSignal {
    SatisfactionSignal::new(hot_path(), ServerOffering::GeneralPurpose, gamma).unwrap()
}

/// Waits until the follower has applied `want` deltas (10 s cap — the poll
/// interval is 20 ms, so a healthy follower converges in a few polls).
fn wait_for_applied(follower: &FollowerEngine, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.stats().applied < want {
        assert!(
            Instant::now() < deadline,
            "follower stuck at {:?}, want {want} applied",
            follower.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Asserts the follower's λ for the hot path is bit-identical to the
/// leader's published value.
fn assert_lambda_converged(follower: &FollowerEngine, leader_lambda: f64) {
    let replicated = follower
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(
        replicated.to_bits(),
        leader_lambda.to_bits(),
        "replicated λ {replicated} diverged from leader λ {leader_lambda}"
    );
}

#[test]
fn follower_converges_on_a_live_leader_wal() {
    let deployment = deployment();
    let dir = TestDir::new("replication-live");
    let wal = dir.join("signals.wal");
    let (leader, _responses) =
        ServingEngine::start_with_wal(Arc::clone(&deployment), ServeConfig::default(), &wal)
            .unwrap();

    // Start the follower against the (still empty) WAL, then stream
    // feedback through the leader: the follower picks the deltas up live.
    let follower =
        FollowerEngine::start(Arc::clone(&deployment), &wal, FollowerConfig::default()).unwrap();
    for gamma in [1.0, 1.0, -0.5] {
        leader.submit_feedback(signal(gamma)).unwrap();
    }
    leader.flush_feedback();
    let leader_lambda = leader
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    let leader_version = leader.lambda_version();
    drop(leader);

    wait_for_applied(&follower, 3);
    assert_lambda_converged(&follower, leader_lambda);
    assert_eq!(follower.lambda_version(), leader_version);
    let stats = follower.stop();
    assert_eq!(stats.applied, 3);
    assert_eq!(stats.skipped, 0);
    assert_eq!(stats.legacy, 0);
}

#[test]
fn torn_record_stalls_the_follower_until_the_leader_truncates() {
    let deployment = deployment();
    let dir = TestDir::new("replication-kill-mid-append");
    let wal = dir.join("signals.wal");

    // Round 1: a leader accepts two signals, then the process "dies" —
    // and the kill lands mid-append, leaving a torn third record.
    {
        let (leader, _responses) =
            ServingEngine::start_with_wal(Arc::clone(&deployment), ServeConfig::default(), &wal)
                .unwrap();
        leader.submit_feedback(signal(1.0)).unwrap();
        leader.submit_feedback(signal(1.0)).unwrap();
        leader.flush_feedback();
        drop(leader);
    }
    let intact_len = std::fs::metadata(&wal).unwrap().len();
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(b"LSIG\xff\x00"); // half a header: torn append
    std::fs::write(&wal, &bytes).unwrap();

    // The follower catches up to the last good boundary and stalls there
    // without consuming (or repairing) the tear.
    let follower =
        FollowerEngine::start(Arc::clone(&deployment), &wal, FollowerConfig::default()).unwrap();
    wait_for_applied(&follower, 2);
    assert_eq!(follower.stats().applied, 2);

    // Round 2: the leader restarts on the same WAL — open truncates the
    // torn tail back to the intact boundary and replays the two durable
    // signals — then accepts one more.
    let (leader, _responses) =
        ServingEngine::start_with_wal(Arc::clone(&deployment), ServeConfig::default(), &wal)
            .unwrap();
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), intact_len);
    leader.submit_feedback(signal(-1.0)).unwrap();
    leader.flush_feedback();
    let leader_lambda = leader
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    drop(leader);

    // The follower resumes from the same boundary and reconverges on the
    // full three-signal history, bit for bit.
    wait_for_applied(&follower, 3);
    assert_lambda_converged(&follower, leader_lambda);
    let stats = follower.stop();
    assert_eq!(stats.applied, 3);
    assert_eq!(stats.legacy, 0);
}
