//! The planner service binary: a line-delimited JSON TCP server over
//! [`p2_service::Planner`], a matching client, and an end-to-end smoke mode.
//!
//! ```text
//! plan_service serve  --addr 127.0.0.1:7973 [--store DIR] [--threads N]
//!                     [--queue-capacity N] [--max-batch N] [--lru N]
//!                     [--tables-dir DIR] [--store-max-bytes N]
//!                     [--store-ttl-secs N]
//! plan_service client --addr 127.0.0.1:7973 [--retry N] [--tenant T]
//!                     (--op ping|stats|shutdown | plan flags)
//!                     [--repeat N] [--concurrent N] [--expect-source S]
//! plan_service smoke  [--threads N]
//! ```
//!
//! Plan flags: `--system a100|v100|v100-pcie|figure2a|rack`, `--nodes N`,
//! `--racks N`, `--nodes-per-rack N`, `--gpus N`, `--oversubscription R`,
//! `--axes 8,4`, `--reduction 0`, `--algo ring|tree`,
//! `--mode measure|predict|shortlist`, `--shortlist N`, `--cost-model K`,
//! `--bytes B`, `--noise F`, `--seed N`, `--repeats N`, `--keep-top N`,
//! `--max-size N`, `--top-k N`.
//!
//! `serve` prints `listening on <addr>` once ready. `client --expect-source`
//! exits nonzero if the response's `source` differs — the CI smoke steps are
//! built from exactly that. `smoke` spins up its own server on an ephemeral
//! port (fresh temp store), drives the full hit/miss/coalesce/restart
//! scenario over real TCP, and exits nonzero on any violation.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use p2_service::json::Json;
use p2_service::wire::{
    encode_error, encode_plan_response, encode_stats, parse_request, WireRequest,
};
use p2_service::{Planner, PlannerConfig};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_usize(args: &[String], flag: &str) -> Option<usize> {
    flag_value(args, flag).map(|v| {
        v.parse::<usize>()
            .unwrap_or_else(|_| die(&format!("{flag} expects an integer, got `{v}`")))
    })
}

fn die(msg: &str) -> ! {
    eprintln!("plan_service: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("smoke") => smoke(&args[1..]),
        _ => die("usage: plan_service serve|client|smoke [flags] (see --help in the crate docs)"),
    }
}

// ---------------------------------------------------------------- serve --

fn planner_config(args: &[String]) -> PlannerConfig {
    let mut config = PlannerConfig::default();
    if let Some(threads) = flag_usize(args, "--threads") {
        config.threads = threads;
    }
    if let Some(capacity) = flag_usize(args, "--queue-capacity") {
        config.queue_capacity = capacity;
    }
    if let Some(batch) = flag_usize(args, "--max-batch") {
        config.max_batch = batch;
    }
    if let Some(lru) = flag_usize(args, "--lru") {
        config.lru_capacity = lru;
    }
    config.store_dir = flag_value(args, "--store").map(PathBuf::from);
    config.tables_dir = flag_value(args, "--tables-dir").map(PathBuf::from);
    if let Some(max_bytes) = flag_usize(args, "--store-max-bytes") {
        config.store_max_bytes = Some(max_bytes as u64);
    }
    if let Some(ttl_secs) = flag_usize(args, "--store-ttl-secs") {
        config.store_ttl = Some(Duration::from_secs(ttl_secs as u64));
    }
    config
}

fn serve(args: &[String]) {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7973".to_string());
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
    let config = planner_config(args);
    if let Some(dir) = &config.tables_dir {
        println!("table store at {}", dir.display());
    }
    let planner = Planner::new(config).unwrap_or_else(|e| die(&format!("start planner: {e}")));
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    run_server(listener, Arc::new(planner));
}

/// Accept loop; returns once a `shutdown` op has been served. The planner
/// drains on drop.
fn run_server(listener: TcpListener, planner: Arc<Planner>) {
    let stop = Arc::new(AtomicBool::new(false));
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    for connection in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = connection else { continue };
        let planner = Arc::clone(&planner);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || handle_connection(stream, &planner, &stop, local));
    }
    planner.shutdown();
}

fn handle_connection(stream: TcpStream, planner: &Planner, stop: &AtomicBool, local: SocketAddr) {
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    // Snapshot counters last reported by this connection, so serve mode logs
    // every table-store load/save outcome exactly once.
    let mut snapshots_seen = (0u64, 0u64);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_request(&line) {
            Err(error) => encode_error(&error),
            Ok(WireRequest::Ping) => r#"{"ok":true,"pong":true}"#.to_string(),
            Ok(WireRequest::Stats) => encode_stats(&planner.stats()),
            Ok(WireRequest::Shutdown) => {
                let _ = writeln!(writer, r#"{{"ok":true,"shutting_down":true}}"#);
                stop.store(true, Ordering::Release);
                // Wake the accept loop so it observes the stop flag.
                let _ = TcpStream::connect(local);
                return;
            }
            Ok(WireRequest::Plan { tenant, request }) => {
                let reply = match planner.plan(&tenant, *request) {
                    Ok(response) => encode_plan_response(&response),
                    Err(error) => encode_error(&error),
                };
                log_snapshot_activity(planner, &mut snapshots_seen);
                reply
            }
        };
        if writeln!(writer, "{reply}").is_err() {
            return;
        }
    }
}

/// Logs table-store snapshot loads/saves that happened since this
/// connection last looked (a save lands after the plan is published, so it
/// may be reported by a later request's log line).
fn log_snapshot_activity(planner: &Planner, seen: &mut (u64, u64)) {
    let stats = planner.stats();
    if stats.snapshot_loads > seen.0 {
        println!(
            "table store: loaded {} snapshot(s), {} warm state(s), {}us total",
            stats.snapshot_loads, stats.warm_states, stats.snapshot_load_micros
        );
    }
    if stats.snapshot_saves > seen.1 {
        println!(
            "table store: saved {} snapshot(s), {}us total",
            stats.snapshot_saves, stats.snapshot_save_micros
        );
    }
    *seen = (stats.snapshot_loads, stats.snapshot_saves);
}

// ---------------------------------------------------------------- client --

fn connect_with_retry(addr: &str, attempts: usize) -> TcpStream {
    let mut last_error = None;
    for _ in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(e) => {
                last_error = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    die(&format!(
        "connect {addr}: {}",
        last_error.expect("at least one attempt")
    ))
}

fn request_line_from_flags(args: &[String]) -> String {
    if let Some(raw) = flag_value(args, "--json") {
        return raw;
    }
    if let Some(op) = flag_value(args, "--op") {
        return format!(r#"{{"op":"{op}"}}"#);
    }
    // Assemble a plan op from the individual flags.
    let mut fields = vec![
        r#""op":"plan""#.to_string(),
        format!(
            r#""tenant":"{}""#,
            flag_value(args, "--tenant").unwrap_or_else(|| "cli".to_string())
        ),
        format!(
            r#""system":"{}""#,
            flag_value(args, "--system").unwrap_or_else(|| "a100".to_string())
        ),
    ];
    let axes = flag_value(args, "--axes").unwrap_or_else(|| "8,4".to_string());
    fields.push(format!(r#""axes":[{axes}]"#));
    let reduction = flag_value(args, "--reduction").unwrap_or_else(|| "0".to_string());
    fields.push(format!(r#""reduction":[{reduction}]"#));
    for (flag, key) in [
        ("--nodes", "nodes"),
        ("--racks", "racks"),
        ("--nodes-per-rack", "nodes_per_rack"),
        ("--gpus", "gpus"),
        ("--shortlist", "shortlist"),
        ("--seed", "seed"),
        ("--repeats", "repeats"),
        ("--keep-top", "keep_top"),
        ("--max-size", "max_program_size"),
        ("--top-k", "top_k"),
    ] {
        if let Some(value) = flag_value(args, flag) {
            fields.push(format!(r#""{key}":{value}"#));
        }
    }
    for (flag, key) in [
        ("--oversubscription", "oversubscription"),
        ("--bytes", "bytes_per_device"),
        ("--noise", "noise"),
        ("--prune-slack", "prune_slack"),
    ] {
        if let Some(value) = flag_value(args, flag) {
            fields.push(format!(r#""{key}":{value}"#));
        }
    }
    for (flag, key) in [
        ("--algo", "algo"),
        ("--mode", "mode"),
        ("--cost-model", "cost_model"),
    ] {
        if let Some(value) = flag_value(args, flag) {
            fields.push(format!(r#""{key}":"{value}""#));
        }
    }
    format!("{{{}}}", fields.join(","))
}

/// Sends one request line and reads one reply line. A connection the server
/// closes before replying is an error, not an empty reply: `read_line`
/// reports it as a successful read of 0 bytes.
fn send_line(stream: &mut TcpStream, line: &str) -> Result<String, String> {
    writeln!(stream, "{line}").map_err(|e| format!("send: {e}"))?;
    let clone = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reply = String::new();
    match BufReader::new(clone).read_line(&mut reply) {
        Ok(0) => Err("receive: the server closed the connection before replying".into()),
        Ok(_) => Ok(reply.trim_end().to_string()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// [`send_line`] to the smoke scenario's own server, which must reply.
fn ask(stream: &mut TcpStream, line: &str) -> String {
    send_line(stream, line).unwrap_or_else(|e| die(&e))
}

fn check_source(reply: &str, expected: &str) -> bool {
    Json::parse(reply)
        .ok()
        .and_then(|json| {
            json.get("source")
                .and_then(|s| s.as_str().map(String::from))
        })
        .is_some_and(|source| source == expected)
}

fn client(args: &[String]) {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7973".to_string());
    let attempts = flag_usize(args, "--retry").unwrap_or(1);
    let line = request_line_from_flags(args);
    let repeat = flag_usize(args, "--repeat").unwrap_or(1).max(1);
    let concurrent = flag_usize(args, "--concurrent").unwrap_or(1).max(1);
    let expected = flag_value(args, "--expect-source");
    let mut failures = 0usize;

    let mut handle_reply = |reply: String| {
        println!("{reply}");
        if let Some(expected) = &expected {
            if !check_source(&reply, expected) {
                eprintln!("plan_service: expected source `{expected}` in: {reply}");
                failures += 1;
            }
        }
    };

    if concurrent > 1 {
        // One connection per thread, all sending the same line at once —
        // the client side of the dedup smoke test.
        let workers: Vec<_> = (0..concurrent)
            .map(|_| {
                let addr = addr.clone();
                let line = line.clone();
                std::thread::spawn(move || {
                    let mut stream = connect_with_retry(&addr, attempts);
                    send_line(&mut stream, &line)
                })
            })
            .collect();
        let mut failed = 0usize;
        for worker in workers {
            match worker.join() {
                Ok(Ok(reply)) => handle_reply(reply),
                Ok(Err(e)) => {
                    eprintln!("plan_service: {e}");
                    failed += 1;
                }
                Err(_) => failed += 1,
            }
        }
        failures += failed;
    } else {
        let mut stream = connect_with_retry(&addr, attempts);
        for _ in 0..repeat {
            match send_line(&mut stream, &line) {
                Ok(reply) => handle_reply(reply),
                Err(e) => {
                    eprintln!("plan_service: {e}");
                    failures += 1;
                    break;
                }
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

// ----------------------------------------------------------------- smoke --

struct SmokeServer {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

fn spawn_smoke_server(store: &std::path::Path, threads: usize) -> SmokeServer {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die(&format!("bind: {e}")));
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let config = PlannerConfig {
        threads,
        store_dir: Some(store.to_path_buf()),
        tables_dir: Some(store.join("tables")),
        ..PlannerConfig::default()
    };
    let planner = Planner::new(config).unwrap_or_else(|e| die(&format!("start planner: {e}")));
    let thread = std::thread::spawn(move || run_server(listener, Arc::new(planner)));
    SmokeServer { addr, thread }
}

fn smoke(args: &[String]) {
    let threads = flag_usize(args, "--threads").unwrap_or(0);
    let store = std::env::temp_dir().join(format!("p2-plan-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut checks: Vec<(&str, bool)> = Vec::new();
    let plan_a = r#"{"op":"plan","tenant":"smoke","system":"rack","racks":2,"nodes_per_rack":2,"gpus":4,"axes":[4,4],"reduction":[0],"bytes_per_device":1e9,"repeats":2,"keep_top":8}"#;
    let plan_b = r#"{"op":"plan","tenant":"smoke","system":"a100","nodes":2,"axes":[8,4],"reduction":[0],"bytes_per_device":1e9,"repeats":2}"#;
    let plan_c = r#"{"op":"plan","tenant":"other","system":"a100","nodes":2,"axes":[16,2],"reduction":[0],"bytes_per_device":1e9,"repeats":2}"#;

    // A server that reads the request and drops the connection without
    // replying (as a panicking connection thread does) fails the request;
    // the client must not read the closed connection as an empty reply.
    let closing = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die(&format!("bind: {e}")));
    let closing_addr = closing
        .local_addr()
        .expect("bound listener has an address")
        .to_string();
    let closer = std::thread::spawn(move || {
        if let Ok((stream, _)) = closing.accept() {
            let _ = BufReader::new(stream).read_line(&mut String::new());
        }
    });
    let mut stream = connect_with_retry(&closing_addr, 10);
    let dropped = send_line(&mut stream, r#"{"op":"ping"}"#);
    closer.join().expect("closing listener panicked");
    checks.push((
        "a connection closed before the reply is an error",
        dropped.is_err_and(|e| e.contains("closed the connection")),
    ));

    let server = spawn_smoke_server(&store, threads);
    let addr = server.addr.to_string();
    {
        let mut stream = connect_with_retry(&addr, 50);
        let pong = ask(&mut stream, r#"{"op":"ping"}"#);
        checks.push(("ping answers", pong.contains("\"pong\":true")));

        let mistyped = ask(&mut stream, &plan_a.replace("1e9", "\"1e9\""));
        checks.push((
            "mistyped field is a protocol error",
            mistyped.contains("\"ok\":false") && mistyped.contains("\"kind\":\"protocol\""),
        ));

        let cold = ask(&mut stream, plan_a);
        checks.push((
            "first request synthesizes",
            check_source(&cold, "synthesized"),
        ));
        let warm = ask(&mut stream, plan_a);
        checks.push(("repeat request hits warm", check_source(&warm, "warm")));
        checks.push((
            "warm repeat returns identical entries",
            extract_entries(&cold) == extract_entries(&warm) && !extract_entries(&cold).is_empty(),
        ));

        // Concurrent identical requests: exactly one synthesis for plan B.
        let before = stats_field(&mut stream, "syntheses");
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut stream = connect_with_retry(&addr, 10);
                    ask(&mut stream, plan_b)
                })
            })
            .collect();
        let replies: Vec<String> = workers
            .into_iter()
            .map(|w| w.join().expect("smoke worker panicked"))
            .collect();
        let all_ok = replies.iter().all(|r| {
            Json::parse(r)
                .ok()
                .and_then(|j| j.get("ok").and_then(Json::as_bool))
                == Some(true)
        });
        checks.push(("all concurrent replies ok", all_ok));
        let first = extract_entries(&replies[0]);
        checks.push((
            "concurrent replies identical",
            replies.iter().all(|r| extract_entries(r) == first),
        ));
        let after = stats_field(&mut stream, "syntheses");
        checks.push((
            "concurrent identical requests coalesce to one synthesis",
            after - before == 1,
        ));

        let distinct = ask(&mut stream, plan_c);
        checks.push((
            "distinct request synthesizes",
            check_source(&distinct, "synthesized"),
        ));

        checks.push((
            "stats surface table-store snapshot saves",
            stats_field(&mut stream, "snapshot_saves") >= 1,
        ));

        let bye = ask(&mut stream, r#"{"op":"shutdown"}"#);
        checks.push((
            "shutdown acknowledged",
            bye.contains("\"shutting_down\":true"),
        ));
    }
    server.thread.join().expect("server thread panicked");

    // Restart on the same store: the plan must come back from disk.
    let server = spawn_smoke_server(&store, threads);
    let addr = server.addr.to_string();
    {
        let mut stream = connect_with_retry(&addr, 50);
        let disk = ask(&mut stream, plan_a);
        checks.push((
            "restart serves from the disk store",
            check_source(&disk, "disk"),
        ));
        // Same table key, fresh plan fingerprint: the synthesis itself must
        // warm-start from the restarted server's table-store snapshot.
        let plan_a_resized = plan_a.replace("1e9", "2e9");
        let warmed = ask(&mut stream, &plan_a_resized);
        checks.push((
            "changed bytes re-synthesizes",
            check_source(&warmed, "synthesized"),
        ));
        checks.push((
            "new synthesis warm-starts from the table snapshot",
            stats_field(&mut stream, "snapshot_loads") >= 1
                && stats_field(&mut stream, "warm_states") > 0,
        ));
        let _ = ask(&mut stream, r#"{"op":"shutdown"}"#);
    }
    server.thread.join().expect("server thread panicked");
    let _ = std::fs::remove_dir_all(&store);

    let mut failed = 0usize;
    for (name, ok) in &checks {
        println!("{} {name}", if *ok { "PASS" } else { "FAIL" });
        if !*ok {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("plan_service smoke: {failed} check(s) failed");
        std::process::exit(1);
    }
    println!("plan_service smoke: all {} checks passed", checks.len());
}

fn stats_field(stream: &mut TcpStream, key: &str) -> i64 {
    let reply = ask(stream, r#"{"op":"stats"}"#);
    Json::parse(&reply)
        .ok()
        .and_then(|json| json.get(key).and_then(Json::as_f64))
        .map(|v| v as i64)
        .unwrap_or(-1)
}

fn extract_entries(reply: &str) -> String {
    Json::parse(reply)
        .ok()
        .and_then(|json| json.get("entries").map(|e| e.to_string()))
        .unwrap_or_default()
}
