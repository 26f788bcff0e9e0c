//! Fail-stop on a replica WAL that cannot be written. A follower persists
//! every replicated frame before applying it, so when an append fails it
//! applies nothing from that frame on and halts: its λ never gets ahead of
//! its replica WAL, and the replica WAL stays a byte prefix of the
//! leader's. Otherwise a restart — which resumes from the highest epoch on
//! disk — would never re-apply the lost delta.
//!
//! Fail points are process-global, so this test has its own binary. Run
//! with `cargo test --features fault-injection --test replica_wal_fail_stop`.

#![cfg(feature = "fault-injection")]

use lorentz::fault::{registry, FailAction, Trigger};
use lorentz::serve::{
    serve_replication, FollowerConfig, FollowerEngine, ReplicaState, ReplicationConfig,
    ServeConfig, ServingEngine,
};
use lorentz::types::ServerOffering;
use std::net::TcpListener;
use std::time::{Duration, Instant};

mod common;
use common::{deployment, hot_path, signal, TestDir};

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_follower_halts_instead_of_applying_a_frame_it_could_not_persist() {
    let dir = TestDir::new("replica-wal-fail-stop");
    let wal = dir.join("leader.wal");
    let local = dir.join("replica.wal");
    let (leader, _responses) =
        ServingEngine::start_with_wal(deployment(), ServeConfig::default(), &wal).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let repl = serve_replication(&leader, listener, ReplicationConfig::default()).unwrap();
    let follower = FollowerEngine::start_tcp(
        deployment(),
        &repl.local_addr().to_string(),
        FollowerConfig {
            local_wal: Some(local.clone()),
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    // The term-1 marker is persisted and applied: every append from here
    // on is the signal's, first on the leader and then on the follower.
    wait_until("the term-1 marker", || follower.stats().leader_term == 1);
    let batch_lambda = deployment()
        .personalizer()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    let batch_version = follower.lambda_version();

    // The leader's append passes; the follower's copy of it fails.
    registry().configure(
        "personalizer.wal.append",
        Trigger::After(1),
        FailAction::Error,
    );
    leader.submit_feedback(signal(1.0)).unwrap();
    leader.flush_feedback();
    wait_until("the follower to halt", || {
        matches!(follower.state(), ReplicaState::Halted(_))
    });
    registry().clear();

    match follower.state() {
        ReplicaState::Halted(why) => assert!(why.contains("replica WAL"), "{why}"),
        other => panic!("expected a halt, got {other:?}"),
    }
    assert_eq!(follower.stats().applied, 0);
    let served = follower
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(
        served.to_bits(),
        batch_lambda.to_bits(),
        "λ ran ahead of the WAL"
    );
    assert_eq!(follower.lambda_version(), batch_version);
    follower.stop();
    drop(repl);
    drop(leader);

    let leader_bytes = std::fs::read(&wal).unwrap();
    let replica_bytes = std::fs::read(&local).unwrap();
    assert!(replica_bytes.len() < leader_bytes.len());
    assert!(
        leader_bytes.starts_with(&replica_bytes),
        "the replica WAL must be a byte prefix of the leader's"
    );
}
