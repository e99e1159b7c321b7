//! `mphd` — the experiment service daemon.
//!
//! Binds a TCP listener, prints `mphd listening on <addr>` on stdout
//! (so wrappers can wait for readiness and discover a port-0 bind), and
//! serves line-delimited JSON-RPC forever. See docs/SERVING.md.
//!
//! The hidden `--shard-worker` flag (always the first argument) turns
//! the process into a shard worker serving the frame protocol on
//! stdin/stdout instead — how a deployed daemon with no `mphd_worker`
//! binary alongside spawns workers for sharded sessions by re-executing
//! itself. See docs/ROBUSTNESS.md.

#![forbid(unsafe_code)]

use mph_serve::server::{Server, ServerConfig};
use std::path::PathBuf;

const USAGE: &str = "usage: mphd [--addr HOST:PORT] [--max-sessions N] [--hub-capacity N] \
                     [--ckpt-root DIR | --no-durability]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--max-sessions" => {
                config.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|_| "--max-sessions requires a non-negative integer".to_string())?;
            }
            "--hub-capacity" => {
                config.hub_capacity = value("--hub-capacity")?
                    .parse()
                    .map_err(|_| "--hub-capacity requires a positive integer".to_string())?;
            }
            "--ckpt-root" => config.ckpt_root = Some(PathBuf::from(value("--ckpt-root")?)),
            "--no-durability" => config.ckpt_root = None,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(config)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--shard-worker") {
        std::process::exit(mph_experiments::shard::worker_main());
    }
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let durable = config
        .ckpt_root
        .as_ref()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|| "disabled".into());
    let max_sessions = config.max_sessions;
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mphd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            use std::io::Write;
            println!("mphd listening on {addr}");
            let _ = std::io::stdout().flush();
            eprintln!("mphd: max_sessions={max_sessions} checkpoints={durable}");
        }
        Err(e) => {
            eprintln!("mphd: could not read bound address: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.serve() {
        eprintln!("mphd: accept loop failed: {e}");
        std::process::exit(1);
    }
}
