//! A replication frame torn mid-send. The follower subscribes through a
//! `FaultProxy` that forwards part of one frame and then severs the link —
//! the leader falling over mid-send, as the follower sees it. The follower
//! never applies the torn bytes: it reconnects, resumes from its last
//! applied epoch, and converges bit-for-bit anyway.

use lorentz::serve::{
    serve_replication, FollowerConfig, FollowerEngine, ReplicationConfig, ServeConfig,
    ServingEngine,
};
use lorentz::types::ServerOffering;
use lorentz_chaos::proxy::FaultProxy;
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
    let proxy = FaultProxy::start(repl.local_addr()).unwrap();
    let addr = proxy.local_addr().to_string();

    let follower = FollowerEngine::start_tcp(
        deployment(),
        &addr,
        FollowerConfig {
            local_wal: Some(local.clone()),
            ..FollowerConfig::default()
        },
    )
    .unwrap();

    // Feed one signal through cleanly, then let only the first 40 bytes
    // of the next replicated frame cross before the link is cut.
    leader.submit_feedback(signal(1.0)).unwrap();
    leader.flush_feedback();
    let deadline = Instant::now() + Duration::from_secs(15);
    while follower.stats().last_epoch < leader.lambda_version() {
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    proxy.cut_after(40);
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
    assert_eq!(proxy.cuts(), 1);
    let replicated = follower
        .engine()
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

#[test]
fn a_catch_up_stream_torn_mid_replay_is_resumed() {
    let dir = TestDir::new("repl-fault-catch-up");
    let wal = dir.join("leader.wal");
    let local = dir.join("replica.wal");
    let (leader, _responses) =
        ServingEngine::start_with_wal(deployment(), ServeConfig::default(), &wal).unwrap();
    for gamma in [1.0, 1.0, -0.5] {
        leader.submit_feedback(signal(gamma)).unwrap();
    }
    leader.flush_feedback();
    let want = leader.lambda_version();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let repl = serve_replication(&leader, listener, ReplicationConfig::default()).unwrap();
    let proxy = FaultProxy::start(repl.local_addr()).unwrap();

    // The subscription's replay of the leader's log is cut halfway
    // through: catch-up ends early on a torn frame, and the tail loop
    // resubscribes from the last epoch it persisted.
    let frames = std::fs::read(&wal).unwrap().len() as u64;
    proxy.cut_after(frames / 2);
    let follower = FollowerEngine::start_tcp(
        deployment(),
        &proxy.local_addr().to_string(),
        FollowerConfig {
            local_wal: Some(local.clone()),
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    while follower.stats().last_epoch < want {
        assert!(
            Instant::now() < deadline,
            "follower never resumed the torn catch-up: {:?}",
            follower.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(proxy.cuts(), 1);
    let stats = follower.stop();
    assert_eq!(stats.applied, 3);
    drop(repl);
    drop(leader);
    assert_eq!(std::fs::read(&wal).unwrap(), std::fs::read(&local).unwrap());
}
