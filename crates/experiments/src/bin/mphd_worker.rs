//! The shard worker process: one contiguous machine range of a
//! supervised simulation (`mph_mpc::shard`), served over stdin/stdout
//! (the default pipe transport) or — with `--connect <addr> --session
//! <hex nonce> --worker <index>` — over a TCP connection dialed back to
//! the supervisor's loopback listener, identified by a `SHARD_CONNECT`
//! frame so stray or stale connections are rejected at accept time.
//!
//! Spawned by the shard supervisor — one process per shard — and never
//! run by hand: it speaks the length-prefixed shard frame protocol, not a
//! CLI. Exits 0 when the supervisor closes the link, 1 on a transport
//! error, 2 on unknown arguments. See docs/ROBUSTNESS.md "Real
//! processes, real crashes" and "Layer 6 — network faults and
//! partitions".

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(mph_experiments::shard::worker_main());
}
