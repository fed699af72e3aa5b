//! The `tvq-server` binary.
//!
//! Binds `--addr` and serves clients until a client issues `SHUTDOWN` (or
//! the process is killed). With `--data-dir` the engine runs durably: every
//! acknowledged operation is WAL-logged and fsynced, snapshots land at
//! compaction epochs, and a restart over the same directory recovers the
//! catalog and windows.
//!
//! ```text
//! tvq-server --addr 127.0.0.1:7878 --window 8 --duration 4 \
//!     --data-dir /var/lib/tvq
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::process::ExitCode;

use tvq_common::{Error, Result, WindowSpec};
use tvq_engine::EngineConfig;
use tvq_server::QueryServer;

struct Args {
    addr: String,
    window: usize,
    duration: usize,
    data_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        window: 8,
        duration: 4,
        data_dir: None,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let mut value = |name: &str| {
            raw.next()
                .ok_or_else(|| Error::InvalidConfig(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--window" => args.window = number(value("--window")?, "--window")?,
            "--duration" => args.duration = number(value("--duration")?, "--duration")?,
            "--data-dir" => args.data_dir = Some(value("--data-dir")?.into()),
            other => {
                return Err(Error::InvalidConfig(format!("unknown flag {other:?}")));
            }
        }
    }
    Ok(args)
}

fn number(raw: String, flag: &str) -> Result<usize> {
    raw.parse()
        .map_err(|_| Error::InvalidConfig(format!("bad {flag}")))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| serve(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("tvq-server: {err}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &Args) -> Result<()> {
    let config = EngineConfig::new(WindowSpec::new(args.window, args.duration)?);
    let addr = args.addr.as_str();
    let server = match &args.data_dir {
        Some(dir) => QueryServer::bind_durable(addr, config, dir)?,
        None => QueryServer::bind(addr, config)?,
    };
    let durable = (args.data_dir.as_ref())
        .map(|dir| format!(" (durable at {})", dir.display()))
        .unwrap_or_default();
    println!("tvq-server listening on {}{durable}", server.local_addr()?);
    // Runs until a client issues SHUTDOWN; durable state is flushed and
    // fsynced before the call returns.
    server.run()
}
