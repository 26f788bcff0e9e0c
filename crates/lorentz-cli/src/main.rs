//! `lorentz` — command-line interface for the Lorentz SKU recommender.
//!
//! ```text
//! lorentz generate  --servers 800 --seed 7 --out fleet.json
//! lorentz rightsize --fleet fleet.json
//! lorentz train     --fleet fleet.json --out model.json [--trees 100] [--min-bucket 10] \
//!                   [--stage2-threads 2] [--metrics-out metrics.json] [--store-dir store/]
//! lorentz store-verify --store-dir store/
//! lorentz recommend --model model.json --offering general_purpose \
//!                   --profile "SegmentName=segmentname-0,VerticalName=verticalname-2" \
//!                   [--source hierarchical|target-encoding|store]
//! lorentz serve     --model model.json --listen 127.0.0.1:0 [--shards 8] \
//!                   [--deadline-ms N] [--feedback-wal wal.log] \
//!                   [--replicate-listen tcp://HOST:PORT] [--max-frame-len BYTES] \
//!                   [--json] [--metrics-out metrics.json]
//! lorentz serve     --model model.json --listen 127.0.0.1:0 --follow tcp://HOST:PORT \
//!                   [--replica-wal wal.log] [--promote-listen ADDR] \
//!                   [--promote-after-ms N] [--json] [--metrics-out metrics.json]
//! lorentz wal-verify --wal wal.log
//! lorentz feedback  --model model.json --tickets tickets.ndjson [--out model.json]
//! lorentz offering  --fleet fleet.json --profile "IndustryName=industryname-1"
//! lorentz ticket    --symptoms "high cpu usage" --resolution "scaled up"
//! lorentz persim    [--iters 40] [--signal-rate 0.4] [--signal-noise 0.13]
//! ```

mod args;
mod commands;
mod error;

use args::Args;
use error::CliError;

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    };
    let result = match args.command.as_deref() {
        Some("help") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(name) => match commands::lookup(name) {
            Some((run, flags, switches)) => {
                args.check_known(flags, switches).and_then(|()| run(&args))
            }
            None => Err(CliError::Usage(format!(
                "unknown command '{name}'\n\n{}",
                commands::USAGE
            ))),
        },
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
