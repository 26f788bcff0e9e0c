//! Seeded inputs: the training fleet, the serving traffic drawn from its
//! vocabulary, and the WAL a feedback server replays at start.
//!
//! Everything here is a pure function of `(spec, seed)`. The program under
//! test only ever sees these generated inputs; [`Fnv64`] fingerprints them
//! (`inputs_fnv64`) so two runs of one seed can be shown to have measured
//! the same work.

use crate::spec::{FleetSpec, ServeSpec, TrainSpec};
use lorentz_core::personalizer::frame_record;
use lorentz_core::{
    FleetDataset, LorentzConfig, SatisfactionSignal, ShardedLambdaStore, TrainedLorentz, WalRecord,
};
use lorentz_telemetry::{RegularSeries, UsageTrace};
use lorentz_types::{
    CustomerId, ProfileSchema, ProfileTable, ResourceGroupId, ResourcePath, ServerId,
    ServerOffering, SkuCatalog, SubscriptionId,
};
use std::io::Write;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.bytes(bytes);
        h.finish()
    }
}

/// splitmix64: one well-mixed 64-bit draw per `(seed, stream, index)`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// xorshift64* — cheap sequential noise for fleet synthesis.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // xorshift must not start at 0.
        Self(splitmix64(seed) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The pipeline configuration a spec trains with.
pub fn lorentz_config(train: TrainSpec) -> LorentzConfig {
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = train.n_trees;
    config.hierarchical.min_bucket = train.min_bucket;
    config
}

/// Builds the seeded training fleet by direct [`RegularSeries`]
/// construction (no raw-sample generation, so 100k+ servers materialize in
/// seconds).
///
/// Profiles follow a clean 7-level Azure-like chain — each finer feature
/// determines all coarser ones, with the spec's share of blanked values —
/// demand is tied to the customer so target encoding has signal, and user
/// capacities mix over-, well- and under-provisioned picks so both the
/// censored and uncensored Stage-1 branches run.
pub fn build_fleet(spec: &FleetSpec, seed: u64) -> FleetDataset {
    let mut fleet = FleetDataset::new(ProfileTable::new(ProfileSchema::azure_postgres()));
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    let mut rng = Rng::new(seed ^ (spec.servers as u64).rotate_left(32) ^ spec.bins as u64);
    let bins = spec.bins;
    let per_customer = spec.rgs_per_sub * spec.subs_per_customer;
    let coarse = |cust: usize, levels: u32| cust / spec.coarse_fanout.pow(levels);

    for srv in 0..spec.servers {
        let leaf = (rng.next() % spec.leaves as u64) as usize;
        let sub = leaf / spec.rgs_per_sub;
        let cust = leaf / per_customer;
        let names = [
            format!("seg-{}", coarse(cust, 4)),
            format!("ind-{}", coarse(cust, 3)),
            format!("vert-{}", coarse(cust, 2)),
            format!("vcat-{}", coarse(cust, 1)),
            format!("cust-{cust}"),
            format!("sub-{sub}"),
            format!("rg-{leaf}"),
        ];
        let mut row: Vec<Option<&str>> = names.iter().map(|s| Some(s.as_str())).collect();
        if rng.next().is_multiple_of(spec.missing_one_in) {
            row[(rng.next() % 7) as usize] = None;
        }

        // Demand: a customer-keyed base level with a triangular daily wave
        // and a per-server phase.
        let base = 0.5 + (cust % 8) as f64 + (rng.next() % 100) as f64 / 200.0;
        let phase = (rng.next() % bins as u64) as usize;
        let values = (0..bins)
            .map(|j| {
                let t = ((j + phase) % bins) as f64 / bins as f64;
                let wave = if t < 0.5 { t * 2.0 } else { (1.0 - t) * 2.0 };
                base * (0.85 + 0.3 * wave)
            })
            .collect();
        let trace =
            UsageTrace::single(RegularSeries::new(300.0, values).expect("fixture series is valid"));

        // User pick: the covering SKU at the 0.5 slack target, shifted by
        // -1/0/+1 so the fleet mixes verdicts (the -1 picks throttle and
        // take the censored branch).
        let catalog = &catalogs[srv % 3];
        let peak = base * 1.15;
        let covering = catalog
            .skus()
            .iter()
            .position(|s| s.capacity.primary() >= peak * 2.0)
            .unwrap_or(catalog.len() - 1);
        let offset = match rng.next() % 4 {
            0 => -1i64,
            1 => 1,
            _ => 0,
        };
        let idx = (covering as i64 + offset).clamp(0, catalog.len() as i64 - 1) as usize;

        fleet
            .push(
                ServerId(srv as u32),
                ResourcePath::new(
                    CustomerId(cust as u32),
                    SubscriptionId(sub as u32),
                    ResourceGroupId(leaf as u32),
                ),
                ServerOffering::ALL[srv % 3],
                &row,
                catalog.get(idx).capacity.clone(),
                trace,
            )
            .expect("fixture row is valid");
    }
    fleet
}

/// Fingerprint of everything `train()` reads from a fleet.
pub fn fleet_fnv64(fleet: &FleetDataset) -> u64 {
    let mut h = Fnv64::default();
    let table = fleet.profiles();
    for i in 0..fleet.len() {
        for feature in table.schema().feature_ids() {
            h.bytes(table.value_str(i, feature).unwrap_or("\0").as_bytes());
            h.bytes(b"|");
        }
        let path = fleet.paths()[i];
        h.u64(u64::from(path.customer.raw()));
        h.u64(u64::from(path.subscription.raw()));
        h.u64(u64::from(path.resource_group.raw()));
        h.u64(u64::from(fleet.offerings()[i].code()));
        for c in fleet.user_capacities()[i].as_slice() {
            h.u64(c.to_bits());
        }
        let trace = &fleet.traces()[i];
        for r in 0..trace.dims() {
            for v in trace.resource(r).values() {
                h.u64(v.to_bits());
            }
        }
    }
    h.finish()
}

/// Which part of a run a frame belongs to; part of every frame id, so ids
/// never repeat within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Open = 0,
    Closed = 1,
    LayerPass = 2,
    WalSeed = 3,
}

/// How much of a request's profile the model has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Every value comes from one fleet row.
    Known,
    /// Resource group and subscription are new; coarser values are known.
    Fallback,
    /// Nothing is known: the global default answers.
    Unknown,
}

/// One generated recommendation request, owned.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    pub class: Class,
    /// Profile values in schema order.
    pub profile: Vec<Option<String>>,
    pub offering: ServerOffering,
    pub path: ResourcePath,
}

/// The seeded traffic of a serve workload: a pure function from
/// `(phase, connection, sequence number)` to a frame.
pub struct Traffic {
    seed: u64,
    feature_names: Vec<String>,
    /// Per fleet row: profile strings, offering, path.
    rows: Vec<(Vec<Option<String>>, ServerOffering, ResourcePath)>,
    /// Class thresholds in 1/1000ths: `< known` → Known, `< fallback` →
    /// Fallback, else Unknown.
    known_below: u64,
    fallback_below: u64,
    feedback_every: u64,
}

/// Size of the synthetic path space swept by non-fleet requests: large
/// enough that λ probes touch every shard and never repeat a key soon.
const DISTINCT_PATHS: u64 = 1_000_000;

impl Traffic {
    pub fn new(fleet: &FleetDataset, spec: &ServeSpec, seed: u64) -> Self {
        let table = fleet.profiles();
        let rows = (0..fleet.len())
            .map(|i| {
                let profile = table
                    .schema()
                    .feature_ids()
                    .map(|f| table.value_str(i, f).map(str::to_owned))
                    .collect();
                (profile, fleet.offerings()[i], fleet.paths()[i])
            })
            .collect();
        let known_below = (spec.mix_known * 1000.0).round() as u64;
        Self {
            seed,
            feature_names: table.schema().names().to_vec(),
            rows,
            known_below,
            fallback_below: known_below + (spec.mix_fallback * 1000.0).round() as u64,
            feedback_every: spec.feedback_every,
        }
    }

    /// The frame id: phase, connection and sequence number packed so every
    /// frame of a run has its own.
    pub fn frame_id(phase: Phase, conn: usize, seq: u64) -> u64 {
        ((phase as u64) << 40) | ((conn as u64) << 32) | (seq & 0xFFFF_FFFF)
    }

    /// Whether the `seq`-th frame of a connection is a satisfaction signal.
    pub fn is_feedback(&self, seq: u64) -> bool {
        self.feedback_every > 0 && seq % self.feedback_every == self.feedback_every - 1
    }

    fn draw(&self, id: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(id))
    }

    /// The request with frame id `id`.
    pub fn request(&self, id: u64) -> Request {
        let h = self.draw(id);
        let (row_profile, offering, row_path) = &self.rows[((h >> 12) as usize) % self.rows.len()];
        let class = match h % 1000 {
            c if c < self.known_below => Class::Known,
            c if c < self.fallback_below => Class::Fallback,
            _ => Class::Unknown,
        };
        let tag = h >> 40;
        let n = row_profile.len();
        let profile = row_profile
            .iter()
            .enumerate()
            .map(|(i, v)| match class {
                Class::Known => v.clone(),
                Class::Fallback if i + 2 < n => v.clone(),
                Class::Fallback | Class::Unknown => Some(format!("new-{i}-{tag}")),
            })
            .collect();
        // Known requests ask about the row's own (registered) path; the rest
        // sweep a synthetic path space so λ probes touch every shard.
        let path = if class == Class::Known {
            *row_path
        } else {
            let key = (h >> 8).wrapping_mul(0x9E37_79B9_7F4A_7C15) % DISTINCT_PATHS;
            ResourcePath::new(
                CustomerId((key & 0xFFFF_FFFF) as u32),
                SubscriptionId(((key >> 8) & 0xFFFF_FFFF) as u32),
                ResourceGroupId(((key >> 16) & 0xFFFF_FFFF) as u32),
            )
        };
        Request {
            id,
            class,
            profile,
            offering: *offering,
            path,
        }
    }

    /// The satisfaction signal with frame id `id`: always about a fleet
    /// row's registered path, so propagation touches real profiles.
    pub fn signal(&self, id: u64) -> SatisfactionSignal {
        let h = self.draw(id);
        let (_, offering, path) = &self.rows[((h >> 12) as usize) % self.rows.len()];
        let gamma = [-1.0, -0.5, 0.5, 1.0][(h & 3) as usize];
        SatisfactionSignal::new(*path, *offering, gamma).expect("gamma is in range")
    }

    /// Appends the JSON payload of frame `id` to `out` (no length prefix).
    pub fn write_payload(&self, id: u64, feedback: bool, out: &mut Vec<u8>) {
        if feedback {
            let s = self.signal(id);
            write!(
                out,
                "{{\"gamma\": {}, \"offering\": \"{}\", \"customer\": {}, \"subscription\": {}, \
                 \"resource_group\": {}}}",
                s.gamma,
                s.offering.name(),
                s.path.customer.raw(),
                s.path.subscription.raw(),
                s.path.resource_group.raw()
            )
            .expect("writing to a Vec cannot fail");
            return;
        }
        let r = self.request(id);
        write!(out, "{{\"id\": {id}, \"profile\": {{").expect("writing to a Vec cannot fail");
        let mut first = true;
        for (name, value) in self.feature_names.iter().zip(&r.profile) {
            if let Some(value) = value {
                let sep = if first { "" } else { ", " };
                // Fixture values are [a-z0-9-]: nothing to escape.
                write!(out, "{sep}\"{name}\": \"{value}\"").expect("writing to a Vec cannot fail");
                first = false;
            }
        }
        write!(
            out,
            "}}, \"offering\": \"{}\", \"customer\": {}, \"subscription\": {}, \
             \"resource_group\": {}}}",
            r.offering.name(),
            r.path.customer.raw(),
            r.path.subscription.raw(),
            r.path.resource_group.raw()
        )
        .expect("writing to a Vec cannot fail");
    }

    /// Frame `id` as it goes on the socket: `u32` big-endian length, then
    /// the payload. `out` is cleared first.
    pub fn write_frame(&self, id: u64, feedback: bool, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&[0; 4]);
        self.write_payload(id, feedback, out);
        let len = u32::try_from(out.len() - 4).expect("frames are small");
        out[..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Fingerprint of the first `frames` frames of every phase and
    /// connection — the traffic's contribution to `inputs_fnv64`.
    pub fn fnv64(&self, frames: u64) -> u64 {
        let mut h = Fnv64::default();
        let mut buf = Vec::new();
        for phase in [Phase::Open, Phase::Closed, Phase::LayerPass] {
            for conn in 0..crate::loadgen::CONNECTIONS {
                for seq in 0..frames {
                    buf.clear();
                    self.write_payload(
                        Self::frame_id(phase, conn, seq),
                        self.is_feedback(seq),
                        &mut buf,
                    );
                    h.bytes(&buf);
                }
            }
        }
        h.finish()
    }
}

/// The bytes of a WAL holding `records` delta-framed records, produced the
/// way the engine's λ-writer produces them (apply, publish the owning
/// shard's delta, frame) but written in one piece instead of one fsync each.
pub fn build_wal_seed(
    trained: &TrainedLorentz,
    traffic: &Traffic,
    shards: usize,
    records: usize,
) -> Vec<u8> {
    let lambdas = ShardedLambdaStore::new(trained.personalizer().clone(), shards)
        .expect("spec shards are a power of two");
    let mut bytes = Vec::new();
    for seq in 0..records as u64 {
        let signal = traffic.signal(Traffic::frame_id(Phase::WalSeed, 0, seq));
        lambdas.apply_signal(&signal);
        let delta = lambdas.publish_delta_for(&signal.path);
        let frame = frame_record(&WalRecord { signal, delta }).expect("WAL records serialize");
        bytes.extend_from_slice(&frame);
    }
    bytes
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::{Kind, WorkloadSpec};
    use std::path::Path;

    fn small_fleet_spec() -> FleetSpec {
        FleetSpec {
            servers: 300,
            bins: 12,
            leaves: 64,
            rgs_per_sub: 4,
            subs_per_customer: 4,
            coarse_fanout: 2,
            missing_one_in: 50,
        }
    }

    fn serve_spec() -> ServeSpec {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        match WorkloadSpec::load(dir, "serve_feedback_mix").unwrap().kind {
            Kind::Serve { serve, .. } => serve,
            other => panic!("serve_feedback_mix is a serve workload, got {other:?}"),
        }
    }

    /// The feedback-mix traffic over a small fleet.
    pub(crate) fn small_traffic(seed: u64) -> Traffic {
        Traffic::new(&build_fleet(&small_fleet_spec(), seed), &serve_spec(), seed)
    }

    #[test]
    fn fleet_is_a_function_of_spec_and_seed() {
        let spec = small_fleet_spec();
        let a = fleet_fnv64(&build_fleet(&spec, 1));
        assert_eq!(a, fleet_fnv64(&build_fleet(&spec, 1)));
        assert_ne!(a, fleet_fnv64(&build_fleet(&spec, 2)));
        let wider = FleetSpec { bins: 24, ..spec };
        assert_ne!(a, fleet_fnv64(&build_fleet(&wider, 1)));
    }

    #[test]
    fn traffic_is_deterministic_and_follows_the_mix() {
        let fleet = build_fleet(&small_fleet_spec(), 3);
        let spec = serve_spec();
        let traffic = Traffic::new(&fleet, &spec, 3);
        assert_eq!(
            traffic.fnv64(500),
            Traffic::new(&fleet, &spec, 3).fnv64(500)
        );
        assert_ne!(
            traffic.fnv64(500),
            Traffic::new(&fleet, &spec, 4).fnv64(500)
        );

        let n = 20_000u64;
        let mut counts = [0u64; 3];
        for seq in 0..n {
            let r = traffic.request(Traffic::frame_id(Phase::Open, 0, seq));
            counts[r.class as usize] += 1;
            if r.class == Class::Unknown {
                assert!(r
                    .profile
                    .iter()
                    .all(|v| v.as_deref().unwrap().starts_with("new-")));
            }
        }
        let share = |c: u64| c as f64 / n as f64;
        assert!(
            (share(counts[0]) - spec.mix_known).abs() < 0.02,
            "{counts:?}"
        );
        assert!(
            (share(counts[1]) - spec.mix_fallback).abs() < 0.02,
            "{counts:?}"
        );
        assert!(
            (share(counts[2]) - spec.mix_unknown).abs() < 0.02,
            "{counts:?}"
        );
        // Every 10th frame is feedback, and ids differ across phases.
        assert_eq!((0..100).filter(|s| traffic.is_feedback(*s)).count(), 10);
        assert_ne!(
            Traffic::frame_id(Phase::Open, 1, 5),
            Traffic::frame_id(Phase::Closed, 1, 5)
        );
    }

    #[test]
    fn frames_parse_as_the_requests_they_were_generated_from() {
        let fleet = build_fleet(&small_fleet_spec(), 5);
        let traffic = Traffic::new(&fleet, &serve_spec(), 5);
        let schema = fleet.profiles().schema();
        let mut buf = Vec::new();
        for seq in 0..200u64 {
            let id = Traffic::frame_id(Phase::Closed, 1, seq);
            let feedback = traffic.is_feedback(seq);
            traffic.write_frame(id, feedback, &mut buf);
            assert_eq!(
                u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize,
                buf.len() - 4
            );
            match lorentz_serve::wire::parse_client_frame(&buf[4..], schema).unwrap() {
                lorentz_serve::wire::ClientFrame::Request(parsed) => {
                    let expected = traffic.request(id);
                    assert!(!feedback);
                    assert_eq!(parsed.id, id);
                    assert_eq!(parsed.profile, expected.profile);
                    assert_eq!(
                        (parsed.offering, parsed.path),
                        (expected.offering, expected.path)
                    );
                }
                lorentz_serve::wire::ClientFrame::Feedback(parsed) => {
                    assert!(feedback);
                    assert_eq!(parsed, traffic.signal(id));
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
}
