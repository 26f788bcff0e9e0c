//! Fault injection on the replication stream, driven by the
//! `serve.replication.send` fail point: a frame torn mid-send kills that
//! follower's connection, but the follower never applies the torn bytes —
//! it reconnects, resumes from its last applied epoch, and converges
//! bit-for-bit anyway.
//!
//! Run with `cargo test --features fault-injection --test replication_faults`.

#![cfg(feature = "fault-injection")]

use lorentz::fault::{registry, FailAction, Trigger};
use lorentz::serve::{
    serve_replication, FollowerConfig, FollowerEngine, ReplicationConfig, ServeConfig,
    ServingEngine,
};
use lorentz::types::ServerOffering;
use std::net::TcpListener;
use std::time::{Duration, Instant};

mod common;
use common::{deployment, hot_path, signal, TestDir};

#[test]
fn torn_replication_send_is_survived_by_reconnect_and_resume() {
    let dir = TestDir::new("repl-fault");
    let wal = dir.join("leader.wal");
    let local = dir.join("replica.wal");

    let (leader, _responses) =
        ServingEngine::start_with_wal(deployment(), ServeConfig::default(), &wal).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let repl = serve_replication(&leader, listener, ReplicationConfig::default()).unwrap();
    let addr = repl.local_addr().to_string();

    let follower = FollowerEngine::start_tcp(
        deployment(),
        &addr,
        FollowerConfig {
            local_wal: Some(local.clone()),
            ..FollowerConfig::default()
        },
    )
    .unwrap();

    // Feed one signal through cleanly, then tear the next replicated frame
    // at 40% and kill the connection — the leader falling over mid-send,
    // as the follower sees it.
    leader.submit_feedback(signal(1.0)).unwrap();
    leader.flush_feedback();
    registry().configure(
        "serve.replication.send",
        Trigger::Once,
        FailAction::Partial(0.4),
    );
    for gamma in [1.0, -0.5] {
        leader.submit_feedback(signal(gamma)).unwrap();
    }
    leader.flush_feedback();
    let want = leader.lambda_version();
    let lambda = leader
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);

    // The torn frame never reaches the follower's λ store or its local
    // WAL: the CRC framing rejects the partial bytes, the source drops the
    // connection, resubscribes with its last applied epoch, and the leader
    // replays exactly the missing tail.
    let deadline = Instant::now() + Duration::from_secs(15);
    while follower.stats().last_epoch < want {
        assert!(
            Instant::now() < deadline,
            "follower never recovered from the torn send: {:?}",
            follower.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(registry().hits("serve.replication.send") >= 1);
    let replicated = follower
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(replicated.to_bits(), lambda.to_bits());
    follower.stop();
    drop(repl);
    drop(leader);

    // After the reconnect-and-resume dance the replica's local log is
    // still byte-identical to the leader's — no torn frame, no duplicate.
    assert_eq!(std::fs::read(&wal).unwrap(), std::fs::read(&local).unwrap());
}
