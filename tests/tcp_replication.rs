//! Replication over TCP, end to end: a leader fans its λ-WAL out to
//! socket-subscribed followers, resuming each from its last applied epoch
//! — including across a leader killed mid-append and restarted on the same
//! WAL; a follower that loses the leader past the detection timeout
//! promotes itself — exactly once across racing standbys — and keeps
//! serving, to its clients over `serve_net` as well.

use lorentz::core::personalizer::WalRecord;
use lorentz::core::SignalWal;
use lorentz::serve::wire::{read_frame, write_frame};
use lorentz::serve::{
    serve_net, serve_replication, FollowerConfig, FollowerEngine, NetConfig, PromoteConfig,
    ReplicaState, ReplicationConfig, ReplicationError, ReplicationSource, ServeConfig, ServeError,
    ServingEngine, SourcePoll, TcpSource,
};
use lorentz::types::replication::{HandshakeRejection, ResumeMode};
use lorentz::types::{LambdaDelta, PathKey, ServerOffering};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

mod common;
use common::{deployment, hot_path, signal, TestDir};

type Leader = (
    ServingEngine,
    std::sync::mpsc::Receiver<lorentz::serve::ServeResponse>,
    lorentz::serve::ReplicationListener,
);

/// A leader serving feedback into `wal` and replicating it on a loopback
/// listener.
fn start_leader(wal: &std::path::Path) -> Leader {
    start_leader_on(wal, "127.0.0.1:0")
}

/// [`start_leader`] on a fixed replication address, so a restarted leader
/// comes back where its followers redial.
fn start_leader_on(wal: &std::path::Path, addr: &str) -> Leader {
    let (engine, responses) =
        ServingEngine::start_with_wal(deployment(), ServeConfig::default(), wal).unwrap();
    let listener = TcpListener::bind(addr).unwrap();
    let repl = serve_replication(&engine, listener, ReplicationConfig::default()).unwrap();
    (engine, responses, repl)
}

/// A loopback address that was free a moment ago.
fn free_loopback_addr() -> String {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().to_string()
}

fn wait_for_epoch(follower: &FollowerEngine, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.stats().last_epoch < want {
        assert!(
            Instant::now() < deadline,
            "follower stuck at {:?}, want epoch {want}",
            follower.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn leader_lambda(leader: &ServingEngine) -> f64 {
    leader
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose)
}

#[test]
fn tcp_follower_serves_lambda_byte_identical_to_the_leader() {
    let dir = TestDir::new("tcp-repl-equivalence");
    let wal = dir.join("leader.wal");
    let (leader, _responses, repl) = start_leader(&wal);
    let addr = repl.local_addr().to_string();

    let follower =
        FollowerEngine::start_tcp(deployment(), &addr, FollowerConfig::default()).unwrap();
    for gamma in [1.0, 1.0, -0.5] {
        leader.submit_feedback(signal(gamma)).unwrap();
    }
    leader.flush_feedback();
    let want = leader.lambda_version();
    let lambda = leader_lambda(&leader);

    wait_for_epoch(&follower, want);
    let replicated = follower
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(
        replicated.to_bits(),
        lambda.to_bits(),
        "replicated λ diverged from the leader's"
    );
    assert_eq!(follower.engine().lambda_version(), want);
    let stats = follower.stop();
    assert_eq!(stats.applied, 3);
    drop(repl);
    drop(leader);
}

#[test]
fn torn_record_stalls_the_follower_until_the_leader_truncates() {
    let dir = TestDir::new("tcp-repl-kill-mid-append");
    let wal = dir.join("leader.wal");
    let local = dir.join("replica.wal");
    let addr = free_loopback_addr();

    // Round 1: a leader streams two signals to a subscribed follower, then
    // the process "dies" — and the kill lands mid-append, leaving a torn
    // third record in its WAL.
    let (leader, responses, repl) = start_leader_on(&wal, &addr);
    let follower = FollowerEngine::start_tcp(
        deployment(),
        &addr,
        FollowerConfig {
            local_wal: Some(local.clone()),
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    leader.submit_feedback(signal(1.0)).unwrap();
    leader.submit_feedback(signal(1.0)).unwrap();
    leader.flush_feedback();
    wait_for_epoch(&follower, leader.lambda_version());
    drop((repl, leader, responses));
    let intact_len = std::fs::metadata(&wal).unwrap().len();
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(b"LSIG\xff\x00"); // half a header: torn append
    std::fs::write(&wal, &bytes).unwrap();

    // The follower rides out the loss, stalled at the last good frame.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(follower.stats().applied, 2);
    assert_eq!(follower.state(), ReplicaState::Following);

    // Round 2: a new leader on the same WAL and replication address —
    // open truncates the torn tail back to the intact boundary and
    // replays the two durable signals — then accepts one more.
    let (leader, _responses, repl) = start_leader_on(&wal, &addr);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), intact_len);
    leader.submit_feedback(signal(-1.0)).unwrap();
    leader.flush_feedback();
    let want = leader.lambda_version();
    let lambda = leader_lambda(&leader);

    // The follower redials, resumes from its last epoch, and reconverges
    // on the full three-signal history, bit for bit.
    wait_for_epoch(&follower, want);
    let replicated = follower
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(replicated.to_bits(), lambda.to_bits());
    let stats = follower.stop();
    assert_eq!(stats.applied, 3);
    assert_eq!(stats.full_resyncs, 0, "a resume, not a resync");
    drop(repl);
    drop(leader);
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        std::fs::read(&local).unwrap(),
        "the replica's local WAL must be byte-identical to the leader's"
    );
}

#[test]
fn restarted_tcp_follower_resumes_from_its_last_epoch() {
    let dir = TestDir::new("tcp-repl-resume");
    let wal = dir.join("leader.wal");
    let local = dir.join("replica.wal");
    let (leader, _responses, repl) = start_leader(&wal);
    let addr = repl.local_addr().to_string();

    let config = FollowerConfig {
        local_wal: Some(local.clone()),
        ..FollowerConfig::default()
    };
    let follower = FollowerEngine::start_tcp(deployment(), &addr, config.clone()).unwrap();
    for gamma in [1.0, 1.0, -0.5] {
        leader.submit_feedback(signal(gamma)).unwrap();
    }
    leader.flush_feedback();
    wait_for_epoch(&follower, leader.lambda_version());
    follower.stop();

    // More feedback lands while the follower is down.
    leader.submit_feedback(signal(0.5)).unwrap();
    leader.submit_feedback(signal(0.5)).unwrap();
    leader.flush_feedback();
    let want = leader.lambda_version();
    let lambda = leader_lambda(&leader);

    // The restarted follower replays its local log, subscribes with its
    // last epoch, and receives only the tail: were the leader to replay
    // the whole log, the duplicate frames would be re-appended locally and
    // the byte-for-byte comparison below would fail.
    let follower = FollowerEngine::start_tcp(deployment(), &addr, config).unwrap();
    wait_for_epoch(&follower, want);
    let replicated = follower
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(replicated.to_bits(), lambda.to_bits());
    follower.stop();
    drop(repl);
    drop(leader);

    let leader_bytes = std::fs::read(&wal).unwrap();
    let local_bytes = std::fs::read(&local).unwrap();
    assert_eq!(
        leader_bytes, local_bytes,
        "the replica's local WAL must be byte-identical to the leader's"
    );
}

#[test]
fn a_resubscribing_follower_persists_each_term_marker_once() {
    let dir = TestDir::new("tcp-repl-marker-once");
    let wal = dir.join("leader.wal");
    let local = dir.join("replica.wal");
    let (leader, _responses, repl) = start_leader(&wal);
    let addr = repl.local_addr().to_string();
    let config = FollowerConfig {
        local_wal: Some(local.clone()),
        ..FollowerConfig::default()
    };

    // The follower persists the leader's term marker and restarts before
    // any delta record: it resumes from epoch 0, so the leader replays its
    // whole log, the marker the replica already holds included.
    let first = FollowerEngine::start_tcp(deployment(), &addr, config.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while first.stats().leader_term < 1 {
        assert!(Instant::now() < deadline, "the term marker never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    first.stop();
    let follower = FollowerEngine::start_tcp(deployment(), &addr, config).unwrap();
    leader.submit_feedback(signal(1.0)).unwrap();
    leader.flush_feedback();
    wait_for_epoch(&follower, leader.lambda_version());
    follower.stop();
    drop(repl);
    drop(leader);
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        std::fs::read(&local).unwrap(),
        "the replica's local WAL must be byte-identical to the leader's"
    );
}

/// A WAL whose epochs carry gaps (shard-local numbering: the globally
/// minted epoch sequence interleaves across shards, so any one stream has
/// holes). Resuming from a *present* epoch replays only the tail; resuming
/// from an epoch the log no longer holds (compacted past it) forces a full
/// resync.
fn gapped_wal(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("gapped.wal");
    let (mut wal, _) = SignalWal::open(&path).unwrap();
    for epoch in [2u64, 5, 9] {
        let record = WalRecord {
            signal: signal(1.0),
            delta: LambdaDelta::new(
                epoch,
                vec![(PathKey::new(hot_path()), [0.0, 0.1 * epoch as f64, 0.0])],
            ),
        };
        wal.append_record(&record).unwrap();
    }
    path
}

#[test]
fn resume_from_a_present_epoch_replays_only_the_tail_across_gaps() {
    let dir = TestDir::new("tcp-repl-gaps");
    let wal = gapped_wal(&dir);
    let (_leader, _responses, repl) = start_leader(&wal);
    let addr = repl.local_addr().to_string();

    let mut source = TcpSource::connect(addr, 5).unwrap();
    let ack = source.last_ack().unwrap();
    assert_eq!(ack.mode, ResumeMode::Resume);
    assert_eq!(ack.from_epoch, 5);
    assert_eq!(ack.leader_epoch, 9);

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut epochs = Vec::new();
    while epochs.is_empty() && Instant::now() < deadline {
        match source.poll() {
            SourcePoll::Entries(batch) => {
                epochs.extend(batch.iter().filter_map(|e| e.entry.epoch()));
            }
            SourcePoll::Idle => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("unexpected poll result: {other:?}"),
        }
    }
    assert_eq!(epochs, vec![9], "only the tail past epoch 5 is replayed");
}

#[test]
fn resume_from_a_compacted_epoch_forces_a_full_resync() {
    let dir = TestDir::new("tcp-repl-compacted");
    let wal = gapped_wal(&dir);
    let (_leader, _responses, repl) = start_leader(&wal);
    let addr = repl.local_addr().to_string();

    // Epoch 3 is below the leader's epoch but absent from its log — the
    // log has been compacted past the follower's position.
    let mut source = TcpSource::connect(addr, 3).unwrap();
    let ack = source.last_ack().unwrap();
    assert_eq!(ack.mode, ResumeMode::FullResync);
    assert_eq!(ack.from_epoch, 0);

    // The source surfaces the reset before any entries, then streams the
    // log from its start.
    assert!(matches!(source.poll(), SourcePoll::Reset));
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut epochs = Vec::new();
    while epochs.len() < 3 && Instant::now() < deadline {
        match source.poll() {
            SourcePoll::Entries(batch) => {
                epochs.extend(batch.iter().filter_map(|e| e.entry.epoch()));
            }
            SourcePoll::Idle => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("unexpected poll result: {other:?}"),
        }
    }
    assert_eq!(epochs, vec![2, 5, 9]);
}

#[test]
fn a_follower_ahead_of_the_leader_is_rejected_with_a_typed_error() {
    let dir = TestDir::new("tcp-repl-ahead");
    let wal = gapped_wal(&dir);
    let (_leader, _responses, repl) = start_leader(&wal);
    let addr = repl.local_addr().to_string();

    match TcpSource::connect(addr, 99).map(|_| ()) {
        Err(ReplicationError::Rejected(HandshakeRejection::FollowerAhead { follower, leader })) => {
            assert_eq!(follower, 99);
            assert_eq!(leader, 9);
        }
        other => panic!("expected a follower_ahead rejection, got {other:?}"),
    }
}

#[test]
fn mid_handshake_disconnects_leave_the_leader_serving() {
    let dir = TestDir::new("tcp-repl-disconnect");
    let wal = gapped_wal(&dir);
    let (_leader, _responses, repl) = start_leader(&wal);
    let addr = repl.local_addr();

    // A client that connects and vanishes without a subscribe frame, and
    // one that sends garbage: both are dropped without wedging the
    // acceptor.
    drop(TcpStream::connect(addr).unwrap());
    {
        use std::io::Write;
        let mut garbage = TcpStream::connect(addr).unwrap();
        let _ = garbage.write_all(&[0u8, 0, 0, 5, b'h', b'e', b'l', b'l', b'o']);
        // The leader answers a malformed subscribe with a typed rejection.
    }
    // A well-formed subscription still succeeds.
    let source = TcpSource::connect(addr.to_string(), 0).unwrap();
    assert_eq!(source.last_ack().unwrap().mode, ResumeMode::Resume);
}

#[test]
fn exactly_one_standby_promotes_and_the_loser_refollows_it() {
    let dir = TestDir::new("tcp-repl-promotion");
    let wal = dir.join("leader.wal");
    let (leader, _responses, mut repl) = start_leader(&wal);
    let addr = repl.local_addr().to_string();

    // Reserve a loopback port for the promotion election, then free it so
    // the winning standby can bind it.
    let promote_addr = free_loopback_addr();
    let standby = |name: &str| {
        let local = dir.join(format!("{name}.wal"));
        FollowerEngine::start_tcp(
            deployment(),
            &addr,
            FollowerConfig {
                local_wal: Some(local),
                promote: Some(PromoteConfig {
                    listen: Some(promote_addr.clone()),
                    detection_timeout: Duration::from_millis(200),
                }),
                ..FollowerConfig::default()
            },
        )
        .unwrap()
    };
    let a = standby("standby-a");
    let b = standby("standby-b");

    for gamma in [1.0, 1.0, -0.5] {
        leader.submit_feedback(signal(gamma)).unwrap();
    }
    leader.flush_feedback();
    let epoch_at_kill = leader.lambda_version();
    let lambda_at_kill = leader_lambda(&leader);
    wait_for_epoch(&a, epoch_at_kill);
    wait_for_epoch(&b, epoch_at_kill);

    // Kill the leader. Both standbys detect the loss; the promotion
    // address bind arbitrates the race.
    repl.shutdown();
    drop(repl);
    drop(leader);

    let deadline = Instant::now() + Duration::from_secs(15);
    let promoted = loop {
        assert!(Instant::now() < deadline, "no standby promoted");
        match (
            a.state() == ReplicaState::Leader,
            b.state() == ReplicaState::Leader,
        ) {
            (true, true) => panic!("both standbys promoted"),
            (true, false) => break &a,
            (false, true) => break &b,
            (false, false) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let loser = if std::ptr::eq(promoted, &a) { &b } else { &a };

    // The promoted replica replayed its local WAL: its λ equals the dead
    // leader's published λ and its epoch numbering continues the chain.
    assert_eq!(promoted.engine().lambda_version(), epoch_at_kill);
    let served = promoted
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(served.to_bits(), lambda_at_kill.to_bits());

    // It now accepts feedback like any leader...
    promoted.engine().submit_feedback(signal(0.5)).unwrap();
    promoted.engine().flush_feedback();
    assert_eq!(promoted.engine().lambda_version(), epoch_at_kill + 1);

    // ...and the loser re-subscribed to it as its new upstream: it stays
    // a follower, never promotes, and converges on the new epoch.
    let deadline = Instant::now() + Duration::from_secs(15);
    while loser.stats().last_epoch < epoch_at_kill + 1 {
        assert!(
            Instant::now() < deadline,
            "loser never converged on the promoted leader: {:?} (state {:?})",
            loser.stats(),
            loser.state()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(loser.state(), ReplicaState::Following);
    let promoted_lambda = promoted
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    let refollowed = loser
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(refollowed.to_bits(), promoted_lambda.to_bits());

    // The loser stays read-only: only the leader mints epochs.
    match loser.engine().submit_feedback(signal(1.0)) {
        Err(ServeError::NotLeader) => {}
        other => panic!("a follower must reject feedback, got {other:?}"),
    }
}

#[test]
fn a_sharded_standby_keeps_its_shards_after_promotion() {
    let dir = TestDir::new("tcp-repl-sharded-promotion");
    let wal = dir.join("leader.wal");
    let (leader, _responses, repl) = start_leader(&wal);
    let follower = FollowerEngine::start_tcp(
        deployment(),
        &repl.local_addr().to_string(),
        FollowerConfig {
            serve: ServeConfig {
                shards: 4,
                ..ServeConfig::default()
            },
            local_wal: Some(dir.join("replica.wal")),
            promote: Some(PromoteConfig {
                listen: None,
                detection_timeout: Duration::from_millis(100),
            }),
        },
    )
    .unwrap();
    leader.submit_feedback(signal(1.0)).unwrap();
    leader.flush_feedback();
    let epoch = leader.lambda_version();
    let lambda = leader_lambda(&leader);
    wait_for_epoch(&follower, epoch);
    drop((repl, leader));
    let deadline = Instant::now() + Duration::from_secs(15);
    while follower.state() != ReplicaState::Leader {
        assert!(Instant::now() < deadline, "the standby never promoted");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The promoted leader is the standby's own 4-shard engine, serving
    // the λ it replicated at the leader's epoch.
    let engine = follower.engine();
    assert_eq!(engine.shards(), 4);
    assert_eq!(engine.leader_term(), 2);
    assert_eq!(engine.lambda_version(), epoch);
    let promoted = engine
        .lambda_snapshot_for(&hot_path())
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(promoted.to_bits(), lambda.to_bits());
    engine.submit_feedback(signal(0.5)).unwrap();
    engine.flush_feedback();
    assert_eq!(engine.lambda_version(), epoch + 1);
}

/// Sends one frame and returns the reply.
fn exchange(stream: &mut TcpStream, frame: &str) -> serde::Value {
    write_frame(stream, frame.as_bytes()).unwrap();
    let payload = read_frame(stream, 1 << 20).unwrap();
    serde_json::parse(&String::from_utf8(payload).unwrap()).unwrap()
}

/// Reads [`hot_path`] over the wire: its λ bits and its SKU.
fn read_hot_path(stream: &mut TcpStream) -> (u64, serde::Value) {
    use serde::Deserialize;
    let reply = exchange(
        stream,
        r#"{"id": 1, "customer": 7, "subscription": 8, "resource_group": 9}"#,
    );
    let ok = reply.get_field("ok").unwrap_or_else(|| panic!("{reply:?}"));
    let lambda = ok.get_field("lambda").and_then(|v| f64::from_value(v).ok());
    (
        lambda.unwrap().to_bits(),
        ok.get_field("sku").unwrap().clone(),
    )
}

/// A feedback frame for [`hot_path`].
fn feedback_frame(gamma: f64) -> String {
    format!("{{\"gamma\": {gamma}, \"customer\": 7, \"subscription\": 8, \"resource_group\": 9}}")
}

fn field<'a>(reply: &'a serde::Value, key: &str) -> Option<&'a str> {
    reply.get_field(key).and_then(serde::Value::as_str)
}

#[test]
fn a_standby_serves_clients_through_serve_net_and_acks_feedback_once_promoted() {
    let dir = TestDir::new("tcp-repl-standby-net");
    let wal = dir.join("leader.wal");
    let (leader, _responses, repl) = start_leader(&wal);
    let standby = FollowerEngine::start_tcp(
        deployment(),
        &repl.local_addr().to_string(),
        FollowerConfig {
            local_wal: Some(dir.join("replica.wal")),
            promote: Some(PromoteConfig {
                listen: None,
                detection_timeout: Duration::from_millis(200),
            }),
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    let leader_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let leader_addr = leader_listener.local_addr().unwrap();
    let leader_server = std::thread::spawn(move || {
        serve_net(&leader, leader_listener, NetConfig::default()).unwrap();
        leader.lambda_version()
    });
    let standby_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let standby_addr = standby_listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let standby_server = scope
            .spawn(|| serve_net(standby.engine(), standby_listener, NetConfig::default()).unwrap());
        let mut at_leader = TcpStream::connect(leader_addr).unwrap();
        let mut at_standby = TcpStream::connect(standby_addr).unwrap();
        for gamma in [1.0, -0.5] {
            let ack = exchange(&mut at_leader, &feedback_frame(gamma));
            assert_eq!(field(&ack, "ack"), Some("feedback"), "{ack:?}");
        }

        // The standby serves the leader's λ and SKU once it has the epoch.
        let (leader_bits, leader_sku) = read_hot_path(&mut at_leader);
        let drain = exchange(&mut at_leader, r#"{"op": "drain"}"#);
        assert_eq!(field(&drain, "ack"), Some("drain"));
        let epoch = leader_server.join().unwrap();
        wait_for_epoch(&standby, epoch);
        let (standby_bits, standby_sku) = read_hot_path(&mut at_standby);
        assert_eq!(standby_bits, leader_bits, "the standby's λ diverged");
        assert_eq!(standby_sku, leader_sku);

        // Feedback to a standby is refused as not_leader, and the
        // connection keeps serving.
        let refused = exchange(&mut at_standby, &feedback_frame(1.0));
        assert_eq!(field(&refused, "kind"), Some("not_leader"), "{refused:?}");
        assert_eq!(read_hot_path(&mut at_standby).0, leader_bits);

        // The leader's replication goes away: the standby promotes, and the
        // same connection's next feedback is acked and read back.
        drop(repl);
        let deadline = Instant::now() + Duration::from_secs(15);
        while standby.state() != ReplicaState::Leader {
            assert!(Instant::now() < deadline, "the standby never promoted");
            std::thread::sleep(Duration::from_millis(10));
        }
        let ack = exchange(&mut at_standby, &feedback_frame(1.0));
        assert_eq!(field(&ack, "ack"), Some("feedback"), "{ack:?}");
        let (promoted_bits, _) = read_hot_path(&mut at_standby);
        assert_ne!(promoted_bits, leader_bits, "the acked signal moved λ");
        let served = standby
            .engine()
            .lambda_snapshot()
            .lambda(&hot_path(), ServerOffering::GeneralPurpose);
        assert_eq!(promoted_bits, served.to_bits());

        let drain = exchange(&mut at_standby, r#"{"op": "drain"}"#);
        assert_eq!(field(&drain, "ack"), Some("drain"));
        let report = standby_server.join().unwrap();
        assert_eq!(report.engine.feedback_applied, 1);
        assert_eq!(report.engine.accepted, report.engine.answered);
        assert_eq!(report.lambda_version, epoch + 1);
    });
    assert_eq!(standby.stop().applied, 2);
}
