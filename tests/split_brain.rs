//! Split-brain regression: a partitioned leader keeps acking feedback
//! while a standby promotes itself at a higher term; on heal, the first
//! higher-term handshake fences the old leader — typed
//! [`ServeError::Fenced`], frozen WAL — leaving exactly one unfenced
//! leader, and the surviving replicas converge byte-for-byte. Also covers
//! the demotion path (a promoted leader observing an even higher term)
//! and idempotent re-delivery accounting.

use lorentz::core::personalizer::WalRecord;
use lorentz::core::{LorentzConfig, LorentzPipeline, SatisfactionSignal, TrainedLorentz};
use lorentz::serve::{
    serve_replication, FollowerConfig, FollowerEngine, PromoteConfig, ReplicaState,
    ReplicationConfig, ReplicationError, ReplicationSource, ServeConfig, ServeError, ServingEngine,
    SourcePoll, SourcedEntry, TcpSource,
};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::replication::HandshakeRejection;
use lorentz::types::{
    CustomerId, LambdaDelta, PathKey, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId,
};
use lorentz_chaos::proxy::FaultProxy;
use std::net::TcpListener;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod common;
use common::TestDir;

fn deployment() -> Arc<TrainedLorentz> {
    static DEPLOYMENT: OnceLock<Arc<TrainedLorentz>> = OnceLock::new();
    DEPLOYMENT
        .get_or_init(|| {
            let fleet = FleetConfig {
                n_servers: 80,
                seed: 20260809,
                ..FleetConfig::default()
            }
            .generate()
            .unwrap()
            .fleet;
            Arc::new(
                LorentzPipeline::new(LorentzConfig::paper_defaults())
                    .unwrap()
                    .train(&fleet)
                    .unwrap(),
            )
        })
        .clone()
}

fn hot_path() -> ResourcePath {
    ResourcePath::new(CustomerId(7), SubscriptionId(8), ResourceGroupId(9))
}

fn signal(gamma: f64) -> SatisfactionSignal {
    SatisfactionSignal::new(hot_path(), ServerOffering::GeneralPurpose, gamma).unwrap()
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

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn healed_partition_fences_the_old_leader_leaving_exactly_one() {
    let dir = TestDir::new("split-brain-fence");
    let wal = dir.join("leader.wal");
    let (leader, _responses, repl) =
        ServingEngine::start_with_wal(deployment(), ServeConfig::default(), &wal)
            .map(|(engine, responses)| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let repl =
                    serve_replication(&engine, listener, ReplicationConfig::default()).unwrap();
                (engine, responses, repl)
            })
            .unwrap();
    assert_eq!(leader.leader_term(), 1, "a fresh WAL starts at term 1");

    // Standbys subscribe through a fault proxy so the replication path can
    // be severed without touching the leader itself.
    let proxy = FaultProxy::start(repl.local_addr()).unwrap();
    let proxy_addr = proxy.local_addr().to_string();
    let promote_addr = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let standby = |name: &str| {
        let local = dir.join(format!("{name}.wal"));
        FollowerEngine::start_tcp(
            deployment(),
            &proxy_addr,
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

    for gamma in [1.0, -0.5, 1.0] {
        leader.submit_feedback(signal(gamma)).unwrap();
    }
    leader.flush_feedback();
    wait_for_epoch(&a, leader.lambda_version());
    wait_for_epoch(&b, leader.lambda_version());
    let common_len = std::fs::metadata(&wal).unwrap().len();

    // Partition replication only. The isolated leader still acks feedback:
    // this is the split-brain tail that fencing must contain.
    proxy.blackhole();
    leader.submit_feedback(signal(0.25)).unwrap();
    leader.submit_feedback(signal(-0.75)).unwrap();
    leader.flush_feedback();
    assert!(
        std::fs::metadata(&wal).unwrap().len() > common_len,
        "the isolated leader must have diverged for the scenario to bite"
    );

    // Exactly one standby promotes, at a strictly higher term.
    let deadline = Instant::now() + Duration::from_secs(15);
    let winner = loop {
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
    let loser = if std::ptr::eq(winner, &a) { &b } else { &a };
    assert_eq!(winner.engine().leader_term(), 2);

    proxy.heal();

    // The first higher-term handshake to reach the old leader fences it.
    match TcpSource::connect_with_term(repl.local_addr().to_string(), 0, 2).map(|_| "accepted") {
        Err(ReplicationError::Rejected(HandshakeRejection::StaleLeader {
            leader_term,
            observed_term,
        })) => {
            assert_eq!(leader_term, 1);
            assert_eq!(observed_term, 2);
        }
        other => panic!("expected a typed StaleLeader rejection, got {other:?}"),
    }
    assert!(leader.is_fenced());
    assert_eq!(leader.fenced_by(), Some(2));

    // Feedback is refused with the typed error and the WAL is frozen: no
    // divergence past the fence point.
    let len_at_fence = std::fs::metadata(&wal).unwrap().len();
    match leader.submit_feedback(signal(1.0)) {
        Err(ServeError::Fenced {
            term: 1,
            observed: 2,
        }) => {}
        other => panic!("fenced leader must refuse feedback, got {other:?}"),
    }
    leader.flush_feedback();
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        len_at_fence,
        "a fenced leader's WAL must not grow"
    );

    // Exactly one unfenced leader remains, and it is the term-2 winner:
    // a neutral subscribe succeeds there and nowhere else.
    let source = TcpSource::connect(promote_addr.clone(), 0).unwrap();
    assert_eq!(source.last_ack().unwrap().leader_term, 2);
    drop(source);
    match TcpSource::connect(repl.local_addr().to_string(), 0).map(|_| "accepted") {
        Err(ReplicationError::Rejected(HandshakeRejection::StaleLeader { .. })) => {}
        other => panic!("the fenced leader must refuse subscriptions, got {other:?}"),
    }

    // Post-heal convergence: the loser re-followed the winner, and the two
    // replica WALs agree byte-for-byte (the prefix property degenerates to
    // equality once the loser catches up).
    winner.engine().submit_feedback(signal(0.5)).unwrap();
    winner.engine().flush_feedback();
    let winner_wal = dir.join(if std::ptr::eq(winner, &a) {
        "standby-a.wal"
    } else {
        "standby-b.wal"
    });
    let loser_wal = dir.join(if std::ptr::eq(winner, &a) {
        "standby-b.wal"
    } else {
        "standby-a.wal"
    });
    wait_until("replica WAL convergence", Duration::from_secs(15), || {
        std::fs::read(&winner_wal).unwrap() == std::fs::read(&loser_wal).unwrap()
    });
    assert!(matches!(loser.state(), ReplicaState::Following));

    // The winner's lineage shares the pre-partition prefix with the old
    // leader's WAL; only the tails differ (term marker vs diverged acks).
    let old_bytes = std::fs::read(&wal).unwrap();
    let winner_bytes = std::fs::read(&winner_wal).unwrap();
    assert_eq!(
        old_bytes[..common_len as usize],
        winner_bytes[..common_len as usize],
        "pre-partition prefix must be shared"
    );

    a.stop();
    b.stop();
}

#[test]
fn promoted_leader_observing_a_higher_term_demotes_but_keeps_reads() {
    let dir = TestDir::new("split-brain-demote");
    let wal = dir.join("leader.wal");
    let (leader, _responses, mut repl) =
        ServingEngine::start_with_wal(deployment(), ServeConfig::default(), &wal)
            .map(|(engine, responses)| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let repl =
                    serve_replication(&engine, listener, ReplicationConfig::default()).unwrap();
                (engine, responses, repl)
            })
            .unwrap();
    let addr = repl.local_addr().to_string();
    let promote_addr = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let local = dir.join("standby.wal");
    let standby = FollowerEngine::start_tcp(
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
    .unwrap();

    leader.submit_feedback(signal(1.0)).unwrap();
    leader.flush_feedback();
    wait_for_epoch(&standby, leader.lambda_version());

    repl.shutdown();
    drop(repl);
    drop(leader);
    wait_until("standby promotion", Duration::from_secs(15), || {
        standby.state() == ReplicaState::Leader
    });
    assert_eq!(standby.engine().leader_term(), 2);
    let lambda_before = standby
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);

    // A subscriber that has observed term 3 reaches the promoted leader:
    // the handshake is refused AND the watchdog demotes the replica.
    match TcpSource::connect_with_term(promote_addr, 0, 3).map(|_| "accepted") {
        Err(ReplicationError::Rejected(HandshakeRejection::StaleLeader {
            leader_term: 2,
            observed_term: 3,
        })) => {}
        other => panic!("expected StaleLeader from the promoted leader, got {other:?}"),
    }
    wait_until("demotion", Duration::from_secs(10), || {
        matches!(standby.state(), ReplicaState::Demoted { .. })
    });
    assert_eq!(
        standby.state(),
        ReplicaState::Demoted {
            term: 2,
            observed: 3
        }
    );

    // Feedback is refused with the typed error; reads keep serving from
    // the λ-state at demotion.
    match standby.engine().submit_feedback(signal(0.5)) {
        Err(ServeError::Fenced {
            term: 2,
            observed: 3,
        }) => {}
        other => panic!("demoted replica must refuse feedback, got {other:?}"),
    }
    let lambda_after = standby
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    assert_eq!(lambda_after.to_bits(), lambda_before.to_bits());
    standby.stop();
}

/// A source that re-delivers epochs: the overlap a resumed subscription
/// produces when the leader's replay window starts before the follower's
/// last applied epoch.
struct Redelivering {
    batches: Vec<Vec<u64>>,
}

impl ReplicationSource for Redelivering {
    fn poll(&mut self) -> SourcePoll {
        match self.batches.pop() {
            Some(epochs) => SourcePoll::Entries(
                epochs
                    .into_iter()
                    .map(|epoch| SourcedEntry {
                        entry: lorentz::core::WalEntry::Record(WalRecord {
                            signal: signal(1.0),
                            delta: LambdaDelta::new(
                                epoch,
                                vec![(PathKey::new(hot_path()), [0.0, 0.1, 0.0])],
                            ),
                        }),
                        raw: None,
                    })
                    .collect(),
            ),
            None => SourcePoll::Idle,
        }
    }

    fn describe(&self) -> String {
        "redelivering-stub".to_owned()
    }
}

#[test]
fn redelivered_epochs_are_idempotent_and_counted() {
    // Batches pop from the back: [2, 3] applies, then [2, 3] again is
    // pure re-delivery, then [3, 4] overlaps on 3 and advances on 4.
    let source = Redelivering {
        batches: vec![vec![3, 4], vec![2, 3], vec![2, 3]],
    };
    let follower = FollowerEngine::start_with_source(
        deployment(),
        Box::new(source),
        FollowerConfig::default(),
    )
    .unwrap();
    wait_for_epoch(&follower, 4);
    let lambda = follower
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    let stats = follower.stop();
    assert_eq!(stats.applied, 3, "epochs 2, 3, 4 each apply exactly once");
    assert_eq!(stats.duplicates, 3, "re-delivered 2, 3 and overlapping 3");

    // Idempotence: a twin follower fed the same epochs without any
    // re-delivery lands on the identical λ, bit for bit.
    let clean = FollowerEngine::start_with_source(
        deployment(),
        Box::new(Redelivering {
            batches: vec![vec![4], vec![3], vec![2]],
        }),
        FollowerConfig::default(),
    )
    .unwrap();
    wait_for_epoch(&clean, 4);
    let clean_lambda = clean
        .engine()
        .lambda_snapshot()
        .lambda(&hot_path(), ServerOffering::GeneralPurpose);
    let clean_stats = clean.stop();
    assert_eq!(clean_stats.duplicates, 0);
    assert_eq!(
        lambda.to_bits(),
        clean_lambda.to_bits(),
        "duplicates must not be applied twice"
    );
}
