//! The `dp-server` binary: a protocol-v5 sketch service.
//!
//! ```text
//! dp-server [--listen tcp:HOST:PORT | --listen unix:PATH]
//!           [--spec PATH.json] [--workers N]
//!           [--worker ENDPOINT]... [--shard-tile T] [--worker-timeout SECS]
//!           [--data-dir PATH] [--compact-threshold N]
//!           [--standby PRIMARY-ENDPOINT]
//! ```
//!
//! Without `--spec` the store adopts the spec proposed by the first
//! client `Hello`. The engine's all-pairs kernel runs on the usual
//! `DP_THREADS` / `DP_TILE` environment knobs; `--workers` sets how
//! many event loops of `dp-net`'s poll-driven nonblocking reactor
//! serve connections: slow clients cost a buffer, overload answers a
//! typed `ERR_BUSY`, and tile streams and snapshot fetches of any size
//! go out as pulled streams. The server exits cleanly when a client
//! sends the protocol `Shutdown` request. `--serve-mode evloop` is
//! still accepted and changes nothing; thread mode was removed.
//!
//! Passing one or more `--worker` endpoints switches the server into
//! **coordinator mode**: ingests are broadcast to every worker server,
//! and full all-pairs queries are answered by sharding the tile plan
//! (`--shard-tile` tiles, default 64) across the pool and gathering the
//! scattered segments. `--worker-timeout` (default 30 s) sets the read
//! timeout of the server's *outbound* connections — to its workers
//! and, for a standby, to the primary — so a dead peer fails a query
//! with a typed error instead of hanging the coordinator. Worker
//! servers are plain `dp-server` instances — start them first, or
//! within the coordinator's connect-retry window (~5 s).
//!
//! `--data-dir` makes the coordinator **durable**: every accepted
//! ingest is appended to an on-disk journal, snapshots are written on
//! compaction (`--compact-threshold` journal frames, 0 = never), and a
//! restart with the same directory recovers the full store before
//! accepting connections. `--standby PRIMARY` runs a **warm standby**
//! instead of serving: it tails the primary's replication log over the
//! wire and, once the primary stays unreachable, binds `--listen`
//! itself, reconnects the `--worker` pool, and serves as the new
//! coordinator — same store, bit-identical answers.

use dp_core::protocol::{ERR_PLAN, SNAPSHOT_LAYER_STORE};
use dp_core::sketcher::SketcherSpec;
use dp_core::Parallelism;
use dp_engine::{QueryEngine, SketchStore};
use dp_server::{Client, ClientError, CoordinatorConfig, Endpoint, Server, WorkerEntry};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn fail(message: &str) -> ExitCode {
    eprintln!("dp-server: {message}");
    ExitCode::FAILURE
}

/// How many consecutive failed probes of the primary a standby
/// tolerates before promoting itself. At the default 100 ms tail
/// cadence this is ~half a second of silence — long enough to ride out
/// a restart-level blip, short enough that takeover is prompt.
const STANDBY_PROMOTE_AFTER: u32 = 5;

/// The pause between standby tail rounds.
const STANDBY_TICK: Duration = Duration::from_millis(100);

/// What one standby tail round learned about the primary.
#[derive(Debug, PartialEq, Eq)]
enum Tail {
    /// The primary answered. What it sent is applied; a refusal other
    /// than `ERR_PLAN` (`ERR_BUSY`, `ERR_INTERNAL`, …) leaves the state
    /// as is for the next tick.
    Alive,
    /// The primary refused with `ERR_PLAN` — the standby holds rows
    /// the primary's log never had (a primary restart from an older
    /// snapshot), so its state must be dropped.
    Diverged,
    /// Transport failure or timeout: the primary may be dead.
    Lost,
}

/// Fetch what the standby's `engine` is missing from the primary and
/// apply it. Only an `ERR_PLAN` refusal means divergence; any other
/// error frame comes from a live primary and leaves the engine as is.
fn tail_round(client: &mut Client, engine: &mut QueryEngine) -> Tail {
    let have = engine.store().n() as u64;
    let mut store_bytes: Vec<u8> = Vec::new();
    let mut journal_frames: Vec<Vec<u8>> = Vec::new();
    match client.fetch_snapshot(have, 0, &mut |layer, chunk| {
        if layer == SNAPSHOT_LAYER_STORE {
            store_bytes.extend_from_slice(&chunk);
        } else {
            journal_frames.push(chunk);
        }
    }) {
        Ok(_) => {}
        Err(ClientError::Remote { code, message }) if code == ERR_PLAN => {
            eprintln!("dp-server: standby diverged ({message}); refetching from scratch");
            return Tail::Diverged;
        }
        Err(ClientError::Remote { code, message }) => {
            eprintln!("dp-server: primary declined the tail ({code}: {message}); retrying");
            return Tail::Alive;
        }
        Err(_) => return Tail::Lost,
    }
    if !store_bytes.is_empty() {
        match SketchStore::decode_snapshot(&store_bytes) {
            Ok((store, generation)) => {
                let par = match store.spec() {
                    Some(spec) => engine.parallelism().with_kernel(spec.kernel()),
                    None => engine.parallelism(),
                };
                *engine = QueryEngine::new(store)
                    .with_parallelism(par)
                    .with_generation(generation);
            }
            Err(e) => {
                eprintln!("dp-server: standby snapshot decode failed: {e}");
                return Tail::Alive;
            }
        }
    }
    for frame in &journal_frames {
        if let Err(e) = engine.ingest_bytes(frame) {
            eprintln!("dp-server: standby journal frame refused: {e}");
            break;
        }
    }
    Tail::Alive
}

/// Tail the primary's replication log into a local engine until the
/// primary stays dead, then promote: bind `listen`, reconnect the
/// worker pool, and serve as the coordinator. The standby does **not**
/// bind its listen endpoint until promotion — there is exactly one
/// coordinator at a time.
fn run_standby(
    primary: Endpoint,
    listen: Endpoint,
    worker_endpoints: &[String],
    config: CoordinatorConfig,
    worker_timeout: Duration,
    loops: usize,
) -> ExitCode {
    let mut engine = QueryEngine::new(SketchStore::adopting());
    let mut conn: Option<Client> = None;
    let mut failures = 0u32;
    println!("dp-server: standby tailing {primary}");
    while failures < STANDBY_PROMOTE_AFTER {
        std::thread::sleep(STANDBY_TICK);
        let client = match conn.as_mut() {
            Some(client) => client,
            None => match Client::connect(&primary) {
                Ok(client) => {
                    if client.set_read_timeout(Some(worker_timeout)).is_err() {
                        failures += 1;
                        continue;
                    }
                    conn.insert(client)
                }
                Err(_) => {
                    failures += 1;
                    continue;
                }
            },
        };
        match tail_round(client, &mut engine) {
            Tail::Alive => failures = 0,
            Tail::Diverged => {
                // Drop local state and refetch from 0 on the next tick.
                failures = 0;
                engine = QueryEngine::new(SketchStore::adopting());
            }
            Tail::Lost => {
                failures += 1;
                conn = None;
            }
        }
    }

    println!(
        "dp-server: primary {primary} unreachable after {failures} probe(s) — promoting standby \
         holding {} row(s)",
        engine.store().n()
    );
    let mut worker_clients = Vec::with_capacity(worker_endpoints.len());
    for text in worker_endpoints {
        let worker_endpoint = match Endpoint::parse(text) {
            Ok(e) => e,
            Err(e) => return fail(&e),
        };
        match connect_worker(&worker_endpoint, worker_timeout) {
            Ok(client) => worker_clients.push(WorkerEntry::reconnectable(
                client,
                worker_endpoint,
                Some(worker_timeout),
            )),
            Err(e) => return fail(&format!("cannot reach worker {worker_endpoint}: {e}")),
        }
    }
    let server = match Server::bind_coordinator_with(listen, engine, worker_clients, config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind after promotion: {e}")),
    };
    println!(
        "dp-server: promoted standby serving on {} ({} worker(s))",
        server.local_endpoint(),
        server.worker_count()
    );
    server.serve(loops);
    println!("dp-server: clean shutdown");
    ExitCode::SUCCESS
}

/// Connect to a worker endpoint, retrying briefly: coordinator and
/// workers are typically launched together, and the workers may not be
/// listening yet.
fn connect_worker(endpoint: &Endpoint, timeout: Duration) -> std::io::Result<Client> {
    let mut last_err = None;
    for _ in 0..20 {
        match Client::connect(endpoint) {
            Ok(client) => {
                client.set_read_timeout(Some(timeout))?;
                return Ok(client);
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    }
    Err(last_err.expect("at least one attempt"))
}

/// `--serve-mode` survives only so existing launch scripts keep
/// working: `evloop` — the one transport — is a no-op.
fn check_transport_flag(value: Option<&str>) -> Result<(), String> {
    match value {
        Some("evloop") => Ok(()),
        Some(other) => Err(format!(
            "serve mode '{other}' is not available: thread mode was removed, and the \
             event loop (--serve-mode evloop, the default) is the only transport"
        )),
        None => Err("--serve-mode needs a value (only evloop remains)".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "tcp:127.0.0.1:7878".to_string();
    let mut spec_path: Option<String> = None;
    let mut workers = Parallelism::default().threads();
    let mut worker_endpoints: Vec<String> = Vec::new();
    let mut shard_tile = dp_parallel::DEFAULT_TILE;
    let mut worker_timeout = Duration::from_secs(30);
    let mut data_dir: Option<PathBuf> = None;
    let mut compact_threshold = 0usize;
    let mut standby: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned();
        match args[i].as_str() {
            "--listen" => match value(i) {
                Some(v) => {
                    listen = v;
                    i += 2;
                }
                None => return fail("--listen needs a value"),
            },
            "--spec" => match value(i) {
                Some(v) => {
                    spec_path = Some(v);
                    i += 2;
                }
                None => return fail("--spec needs a value"),
            },
            "--workers" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => {
                    workers = v.max(1);
                    i += 2;
                }
                None => return fail("--workers needs an integer"),
            },
            "--worker" => match value(i) {
                Some(v) => {
                    worker_endpoints.push(v);
                    i += 2;
                }
                None => return fail("--worker needs an endpoint"),
            },
            "--shard-tile" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => {
                    shard_tile = v.max(1);
                    i += 2;
                }
                None => return fail("--shard-tile needs an integer"),
            },
            "--worker-timeout" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => {
                    worker_timeout = Duration::from_secs(v.max(1));
                    i += 2;
                }
                None => return fail("--worker-timeout needs seconds"),
            },
            "--data-dir" => match value(i) {
                Some(v) => {
                    data_dir = Some(PathBuf::from(v));
                    i += 2;
                }
                None => return fail("--data-dir needs a path"),
            },
            "--compact-threshold" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => {
                    compact_threshold = v;
                    i += 2;
                }
                None => return fail("--compact-threshold needs an integer"),
            },
            "--standby" => match value(i) {
                Some(v) => {
                    standby = Some(v);
                    i += 2;
                }
                None => return fail("--standby needs the primary's endpoint"),
            },
            "--serve-mode" => match check_transport_flag(value(i).as_deref()) {
                Ok(()) => i += 2,
                Err(e) => return fail(&e),
            },
            "--help" | "-h" => {
                println!(
                    "usage: dp-server [--listen tcp:HOST:PORT|unix:PATH] \
                     [--spec PATH.json] [--workers N] \
                     [--worker ENDPOINT]... [--shard-tile T] [--worker-timeout SECS] \
                     [--data-dir PATH] [--compact-threshold N] [--standby ENDPOINT]"
                );
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }

    let endpoint = match Endpoint::parse(&listen) {
        Ok(e) => e,
        Err(e) => return fail(&e),
    };
    let config = CoordinatorConfig {
        tile: shard_tile,
        compact_threshold,
        data_dir,
    };
    if let Some(primary) = standby {
        let primary = match Endpoint::parse(&primary) {
            Ok(e) => e,
            Err(e) => return fail(&e),
        };
        return run_standby(
            primary,
            endpoint,
            &worker_endpoints,
            config,
            worker_timeout,
            workers,
        );
    }
    let store = match &spec_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            let spec = match SketcherSpec::from_json(&text) {
                Ok(s) => s,
                Err(e) => return fail(&format!("bad spec in {path}: {e}")),
            };
            match SketchStore::with_spec(spec) {
                Ok(s) => s,
                Err(e) => return fail(&format!("spec cannot build a sketcher: {e}")),
            }
        }
        None => SketchStore::adopting(),
    };
    let engine = QueryEngine::new(store);

    let mut worker_clients = Vec::with_capacity(worker_endpoints.len());
    for text in &worker_endpoints {
        let worker_endpoint = match Endpoint::parse(text) {
            Ok(e) => e,
            Err(e) => return fail(&e),
        };
        match connect_worker(&worker_endpoint, worker_timeout) {
            // Keeping the endpoint makes the slot revivable: after a
            // failure the coordinator reconnects and replays its ingest
            // journal instead of requiring a restart.
            Ok(client) => worker_clients.push(WorkerEntry::reconnectable(
                client,
                worker_endpoint,
                Some(worker_timeout),
            )),
            Err(e) => return fail(&format!("cannot reach worker {worker_endpoint}: {e}")),
        }
    }

    let coordinator =
        !worker_clients.is_empty() || config.data_dir.is_some() || config.compact_threshold > 0;
    let server = if coordinator {
        Server::bind_coordinator_with(endpoint, engine, worker_clients, config)
    } else {
        Server::bind(endpoint, engine)
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind {listen}: {e}")),
    };
    if coordinator {
        println!(
            "dp-server: coordinating {} worker server(s) on {} ({} event loop(s), shard tile {})",
            server.worker_count(),
            server.local_endpoint(),
            workers,
            shard_tile
        );
    } else {
        println!(
            "dp-server: serving protocol v{} on {} ({} event loop(s))",
            dp_core::protocol::PROTOCOL_VERSION,
            server.local_endpoint(),
            workers
        );
    }
    server.serve(workers);
    println!("dp-server: clean shutdown");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::config::SketchConfig;
    use dp_core::release::Release;
    use dp_core::sketcher::{Construction, PrivateSketcher};
    use dp_hashing::Seed;
    use dp_server::NetConfig;

    #[test]
    fn transport_flag_accepts_only_the_event_loop() {
        assert_eq!(check_transport_flag(Some("evloop")), Ok(()));
        let refused = check_transport_flag(Some("threads")).unwrap_err();
        assert!(refused.contains("thread mode was removed"), "{refused}");
        assert!(check_transport_flag(None).is_err());
    }

    /// Regression: every error frame used to count as divergence, so a
    /// primary that merely answered `ERR_BUSY` made the standby wipe
    /// its engine. Only `ERR_PLAN` means "diverged ahead".
    #[test]
    fn standby_keeps_its_state_when_the_primary_is_busy() {
        let config = SketchConfig::builder()
            .input_dim(64)
            .alpha(0.25)
            .beta(0.05)
            .epsilon(2.0)
            .build()
            .expect("config");
        let spec = SketcherSpec::new(Construction::SjltAuto, config, Seed::new(31));
        let sketcher = spec.build().expect("sketcher");
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..64).map(|j| ((i + j) % 5) as f64).collect())
            .collect();
        let releases: Vec<Release> = sketcher
            .sketch_batch(&rows, Seed::new(32))
            .expect("batch")
            .into_iter()
            .enumerate()
            .map(|(i, sketch)| Release {
                party_id: i as u64,
                sketch,
            })
            .collect();
        let standby_at = |n: usize| {
            let mut engine = QueryEngine::new(SketchStore::adopting());
            for r in &releases[..n] {
                engine.ingest(r).expect("ingest");
            }
            engine
        };

        // A journaling primary whose write budget is below one journal
        // part: tailing it answers ERR_BUSY, a live-primary refusal.
        let primary = Server::bind_coordinator_with(
            Endpoint::Tcp("127.0.0.1:0".to_string()),
            QueryEngine::new(SketchStore::adopting()),
            Vec::new(),
            CoordinatorConfig {
                compact_threshold: 1000,
                ..CoordinatorConfig::default()
            },
        )
        .expect("bind primary")
        .with_net_config(NetConfig {
            write_budget: 512,
            ..NetConfig::default()
        });
        let endpoint = primary.local_endpoint();
        let rounds = std::thread::scope(|scope| {
            let serving = scope.spawn(|| primary.serve(1));
            let mut client = Client::connect(&endpoint).expect("connect");
            client.hello(&spec).expect("hello");
            for r in &releases[..3] {
                client.ingest(r).expect("ingest");
            }
            // Standbys behind the primary, level with it, and holding a
            // row its log never had — all on one connection.
            let rounds = [1, 3, 4].map(|n| {
                let mut engine = standby_at(n);
                let tail = tail_round(&mut client, &mut engine);
                (tail, engine.store().n())
            });
            client.shutdown().expect("shutdown");
            serving.join().expect("primary serve");
            rounds
        });
        assert_eq!(
            rounds[0],
            (Tail::Alive, 1),
            "busy primary wiped the standby"
        );
        assert_eq!(rounds[1], (Tail::Alive, 3));
        assert_eq!(rounds[2].0, Tail::Diverged);
    }
}
