//! Declarative workload specs: one `workloads/<name>.json` per workload.
//!
//! A spec fixes everything about a workload except the seed and the run
//! length, which arrive on the command line. Parsing is strict: an unknown
//! or missing field is an error, so a typo cannot silently fall back to a
//! default.

use serde::{Deserialize, Value};
use std::path::Path;

/// The seeded training fleet every workload starts from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    pub servers: usize,
    /// Telemetry bins per trace (288 = one day of 5-minute bins).
    pub bins: usize,
    /// Distinct resource groups (the finest hierarchy level).
    pub leaves: usize,
    /// Hierarchy branching: resource groups per subscription, subscriptions
    /// per customer, and the fan-out of each of the four coarser levels.
    pub rgs_per_sub: usize,
    pub subs_per_customer: usize,
    pub coarse_fanout: usize,
    /// One row in this many has one profile value blanked.
    pub missing_one_in: u64,
}

/// Hyperparameters applied on top of `LorentzConfig::paper_defaults()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSpec {
    pub n_trees: usize,
    pub min_bucket: usize,
}

/// Traffic for a `serve` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// `lorentz serve --shards` / `--workers`, also the in-process
    /// `ServeConfig` of the traced layer pass.
    pub shards: usize,
    pub workers: usize,
    /// Open-loop arrival rate over all connections.
    pub open_rate_rps: u64,
    /// Share of the run's seconds spent in the open-loop phase; the rest is
    /// the closed-loop phase.
    pub open_share: f64,
    /// Request mix: fully known profile / unknown two finest levels /
    /// fully unknown. Must sum to 1.
    pub mix_known: f64,
    pub mix_fallback: f64,
    pub mix_unknown: f64,
    /// Every n-th frame is a satisfaction signal (0 = never).
    pub feedback_every: u64,
    /// Records in the WAL the server replays at start (0 = no WAL).
    pub seed_wal_records: usize,
}

/// Parameters of the `cli` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CliSpec {
    pub servers: usize,
    pub trees: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Serve {
        fleet: FleetSpec,
        train: TrainSpec,
        serve: ServeSpec,
    },
    Train {
        fleet: FleetSpec,
        train: TrainSpec,
    },
    Cli(CliSpec),
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_repeats: usize,
    pub kind: Kind,
}

/// A JSON object whose fields must each be consumed exactly once.
struct Fields<'a> {
    context: String,
    entries: &'a [(String, Value)],
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(value: &'a Value, context: &str) -> Result<Self, String> {
        let entries = value
            .as_map()
            .ok_or_else(|| format!("{context} must be a JSON object"))?;
        Ok(Self {
            context: context.to_owned(),
            entries,
            taken: vec![false; entries.len()],
        })
    }

    fn take(&mut self, key: &str) -> Result<&'a Value, String> {
        let index = self
            .entries
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| format!("{}: missing field '{key}'", self.context))?;
        self.taken[index] = true;
        Ok(&self.entries[index].1)
    }

    fn get<T: Deserialize>(&mut self, key: &str) -> Result<T, String> {
        let value = self.take(key)?;
        T::from_value(value).map_err(|e| format!("{}: field '{key}': {e}", self.context))
    }

    fn object(&mut self, key: &str) -> Result<Fields<'a>, String> {
        let context = format!("{}.{key}", self.context);
        Fields::new(self.take(key)?, &context)
    }

    /// Errors on the first field nobody asked for.
    fn finish(self) -> Result<(), String> {
        match self.taken.iter().position(|t| !t) {
            Some(i) => Err(format!(
                "{}: unknown field '{}'",
                self.context, self.entries[i].0
            )),
            None => Ok(()),
        }
    }
}

fn fleet_spec(mut f: Fields<'_>) -> Result<FleetSpec, String> {
    let spec = FleetSpec {
        servers: f.get("servers")?,
        bins: f.get("bins")?,
        leaves: f.get("leaves")?,
        rgs_per_sub: f.get("rgs_per_sub")?,
        subs_per_customer: f.get("subs_per_customer")?,
        coarse_fanout: f.get("coarse_fanout")?,
        missing_one_in: f.get("missing_one_in")?,
    };
    let context = f.context.clone();
    f.finish()?;
    let positive = [
        spec.servers,
        spec.leaves,
        spec.rgs_per_sub,
        spec.subs_per_customer,
        spec.coarse_fanout,
    ];
    if positive.contains(&0) || spec.bins < 2 || spec.missing_one_in == 0 {
        return Err(format!(
            "{context}: sizes must be positive and bins at least 2"
        ));
    }
    Ok(spec)
}

fn train_spec(mut f: Fields<'_>) -> Result<TrainSpec, String> {
    let spec = TrainSpec {
        n_trees: f.get("n_trees")?,
        min_bucket: f.get("min_bucket")?,
    };
    f.finish()?;
    Ok(spec)
}

fn serve_spec(mut f: Fields<'_>) -> Result<ServeSpec, String> {
    let mut mix = f.object("mix")?;
    let (mix_known, mix_fallback, mix_unknown) =
        (mix.get("known")?, mix.get("fallback")?, mix.get("unknown")?);
    mix.finish()?;
    let spec = ServeSpec {
        shards: f.get("shards")?,
        workers: f.get("workers")?,
        open_rate_rps: f.get("open_rate_rps")?,
        open_share: f.get("open_share")?,
        mix_known,
        mix_fallback,
        mix_unknown,
        feedback_every: f.get("feedback_every")?,
        seed_wal_records: f.get("seed_wal_records")?,
    };
    let context = f.context.clone();
    f.finish()?;
    let mix_sum = spec.mix_known + spec.mix_fallback + spec.mix_unknown;
    if (mix_sum - 1.0).abs() > 1e-9
        || [mix_known, mix_fallback, mix_unknown]
            .iter()
            .any(|m| *m < 0.0)
    {
        return Err(format!("{context}.mix: shares must be >= 0 and sum to 1"));
    }
    if spec.workers == 0
        || !spec.shards.is_power_of_two()
        || spec.open_rate_rps == 0
        || !(0.0..1.0).contains(&spec.open_share)
        || spec.open_share == 0.0
    {
        return Err(format!(
            "{context}: counts must be positive, shards a power of two and open_share inside (0, 1)"
        ));
    }
    if spec.feedback_every == 0 && spec.seed_wal_records > 0 {
        return Err(format!(
            "{context}: a seeded WAL needs feedback_every > 0 (the server only opens a WAL for feedback)"
        ));
    }
    Ok(spec)
}

impl WorkloadSpec {
    /// Parses one spec document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = serde_json::parse(text).map_err(|e| format!("spec is not JSON: {e}"))?;
        let mut f = Fields::new(&value, "spec")?;
        let name: String = f.get("name")?;
        let why: String = f.get("why")?;
        let setup_repeats: usize = f.get("setup_repeats")?;
        let kind_name: String = f.get("kind")?;
        let kind = match kind_name.as_str() {
            "serve" => Kind::Serve {
                fleet: fleet_spec(f.object("fleet")?)?,
                train: train_spec(f.object("train")?)?,
                serve: serve_spec(f.object("serve")?)?,
            },
            "train" => Kind::Train {
                fleet: fleet_spec(f.object("fleet")?)?,
                train: train_spec(f.object("train")?)?,
            },
            "cli" => {
                let mut c = f.object("cli")?;
                let cli = CliSpec {
                    servers: c.get("servers")?,
                    trees: c.get("trees")?,
                };
                c.finish()?;
                Kind::Cli(cli)
            }
            other => return Err(format!("spec: unknown kind '{other}'")),
        };
        f.finish()?;
        if setup_repeats == 0 {
            return Err("spec: setup_repeats must be at least 1".to_owned());
        }
        if !crate::metrics::valid_name(&name) {
            return Err(format!(
                "spec: name '{name}' is not a valid metric-style name"
            ));
        }
        Ok(Self {
            name,
            why,
            setup_repeats,
            kind,
        })
    }

    /// Loads `workloads/<name>.json` from the benchmark's directory.
    pub fn load(bench_dir: &Path, name: &str) -> Result<Self, String> {
        let path = bench_dir.join("workloads").join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read workload spec {}: {e}", path.display()))?;
        let spec = Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if spec.name != name {
            return Err(format!(
                "{}: spec is named '{}', expected '{name}'",
                path.display(),
                spec.name
            ));
        }
        Ok(spec)
    }

    /// `(name, why)` of every workload, in run order.
    pub fn whys(bench_dir: &Path) -> Result<Vec<(String, String)>, String> {
        crate::metrics::WORKLOADS
            .iter()
            .map(|name| Self::load(bench_dir, name).map(|spec| (spec.name, spec.why)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    const TRAIN: &str = r#"{
        "name": "t", "why": "w", "setup_repeats": 3, "kind": "train",
        "fleet": {"servers": 10, "bins": 12, "leaves": 8, "rgs_per_sub": 2,
                  "subs_per_customer": 2, "coarse_fanout": 2, "missing_one_in": 50},
        "train": {"n_trees": 15, "min_bucket": 3}
    }"#;

    #[test]
    fn parses_a_train_spec() {
        let spec = WorkloadSpec::parse(TRAIN).unwrap();
        assert_eq!(spec.setup_repeats, 3);
        match spec.kind {
            Kind::Train { fleet, train } => {
                assert_eq!((fleet.servers, fleet.bins), (10, 12));
                assert_eq!(train.n_trees, 15);
            }
            other => panic!("expected a train spec, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_missing_and_mistyped_fields() {
        let unknown_top = TRAIN.replace("\"why\": \"w\",", "\"why\": \"w\", \"extra\": 1,");
        assert!(WorkloadSpec::parse(&unknown_top)
            .unwrap_err()
            .contains("unknown field 'extra'"));
        let unknown_nested = TRAIN.replace("\"bins\": 12,", "\"bins\": 12, \"binz\": 1,");
        assert!(WorkloadSpec::parse(&unknown_nested)
            .unwrap_err()
            .contains("spec.fleet: unknown field 'binz'"));
        let missing = TRAIN.replace("\"n_trees\": 15,", "");
        assert!(WorkloadSpec::parse(&missing)
            .unwrap_err()
            .contains("missing field 'n_trees'"));
        let mistyped = TRAIN.replace("\"servers\": 10", "\"servers\": \"ten\"");
        assert!(WorkloadSpec::parse(&mistyped)
            .unwrap_err()
            .contains("'servers'"));
        // A field of another kind is unknown to this kind.
        let wrong_kind = TRAIN.replace("\"kind\": \"train\",", "\"kind\": \"train\", \"cli\": {},");
        assert!(WorkloadSpec::parse(&wrong_kind)
            .unwrap_err()
            .contains("unknown field 'cli'"));
        assert!(WorkloadSpec::parse("[]").is_err());
    }

    #[test]
    fn rejects_out_of_range_values() {
        assert!(WorkloadSpec::parse(&TRAIN.replace("\"bins\": 12", "\"bins\": 1")).is_err());
        assert!(WorkloadSpec::parse(
            &TRAIN.replace("\"setup_repeats\": 3", "\"setup_repeats\": 0")
        )
        .is_err());
        assert!(
            WorkloadSpec::parse(&TRAIN.replace("\"name\": \"t\"", "\"name\": \"a b\"")).is_err()
        );
    }

    #[test]
    fn every_shipped_spec_parses_and_matches_the_workload_table() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        for name in WORKLOADS {
            let spec = WorkloadSpec::load(dir, name).unwrap();
            assert_eq!(&spec.name, name);
            assert!(!spec.why.is_empty() && spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}
