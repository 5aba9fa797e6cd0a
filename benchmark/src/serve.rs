//! The job service probe: an in-process `Server` driven over loopback.
//!
//! [`probe`] measures the service layers (HTTP front door, worker pool,
//! result cache, on-disk store and journal) with one closed-loop sequence
//! of requests against a fresh server with one worker and a data
//! directory: a cold submission, its result, a warm resubmission and its
//! result, which must be byte-identical to the cold one.
//!
//! It is not a load test: four requests in a row never queue, so the
//! probe cannot show admission refusals, generator lateness or a growing
//! backlog. Those need an open-loop workload against the service.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use biochip_json::{Json, Serialize};
use biochip_server::{ServeOptions, Server};
use biochip_synth::schedule::ScheduleProblem;
use biochip_synth::SynthesisConfig;

use crate::stats::{median, Measured};
use crate::Args;

/// One answered HTTP exchange, split into its phases.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Seconds to establish the connection.
    pub connect_s: f64,
    /// Seconds from the request written to the first response byte.
    pub ttfb_s: f64,
    /// Seconds from the first to the last response byte.
    pub body_s: f64,
}

/// Sends one request (one connection, `Connection: close`) and times its
/// phases from the client side.
///
/// # Errors
///
/// Describes a socket error or a malformed response.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Exchange, String> {
    exchange_io(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))
}

fn exchange_io(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Exchange> {
    let mut out = Exchange::default();
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    out.connect_s = start.elapsed().as_secs_f64();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let written = Instant::now();
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let first = stream.read(&mut buf)?;
    let first_byte = Instant::now();
    out.ttfb_s = first_byte.duration_since(written).as_secs_f64();
    raw.extend_from_slice(&buf[..first]);
    if first > 0 {
        stream.read_to_end(&mut raw)?;
    }
    out.body_s = first_byte.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "response without a body")
    })?;
    out.status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    out.body = body.to_owned();
    Ok(out)
}

/// A server running on its own accept thread.
pub struct Running {
    /// Loopback address it listens on.
    pub addr: SocketAddr,
    join: JoinHandle<()>,
}

impl Running {
    /// Binds a server with one worker and `data_dir`, starts its accept
    /// loop and checks `/healthz`. Returns the server with the seconds spent
    /// in `Server::bind`.
    ///
    /// # Errors
    ///
    /// Describes a failed bind or health check.
    pub fn start(data_dir: &Path) -> Result<(Running, f64), String> {
        let options = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            data_dir: Some(data_dir.to_string_lossy().into_owned()),
            ..ServeOptions::default()
        };
        let start = Instant::now();
        let server = Server::bind(&options).map_err(|e| format!("bind: {e}"))?;
        let bind_s = start.elapsed().as_secs_f64();
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let join = std::thread::spawn(move || server.run());
        let running = Running { addr, join };
        let healthy = exchange(addr, "GET", "/healthz", "").and_then(|health| {
            if health.status == 200 {
                Ok(())
            } else {
                Err(format!("GET /healthz answered {}", health.status))
            }
        });
        if let Err(e) = healthy {
            let _ = running.shutdown();
            return Err(e);
        }
        Ok((running, bind_s))
    }

    /// Drains the server (`POST /shutdown`) and waits for its accept loop.
    ///
    /// # Errors
    ///
    /// Describes a refused shutdown or a panicked accept loop.
    pub fn shutdown(self) -> Result<(), String> {
        let answer = exchange(self.addr, "POST", "/shutdown", "")?;
        if answer.status != 202 {
            return Err(format!("POST /shutdown answered {}", answer.status));
        }
        self.join
            .join()
            .map_err(|_| "the accept loop panicked".to_owned())
    }
}

/// Counters read from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
struct StatsSnapshot {
    cache_hits: f64,
    cache_misses: f64,
    store_entries: f64,
    store_evictions: f64,
    store_bytes: f64,
    journal_appends: f64,
}

fn number(doc: &Json, path: &[&str]) -> f64 {
    let mut value = doc;
    for key in path {
        match value.get(key) {
            Some(next) => value = next,
            None => return 0.0,
        }
    }
    value.expect_number().unwrap_or(0.0)
}

fn snapshot(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    let answer = exchange(addr, "GET", "/stats", "")?;
    if answer.status != 200 {
        return Err(format!("GET /stats answered {}", answer.status));
    }
    let doc = biochip_json::parse(&answer.body).map_err(|e| format!("/stats: {e}"))?;
    Ok(StatsSnapshot {
        cache_hits: number(&doc, &["cache", "hits"]),
        cache_misses: number(&doc, &["cache", "misses"]),
        store_entries: number(&doc, &["store", "entries"]),
        store_evictions: number(&doc, &["store", "evictions"]),
        store_bytes: number(&doc, &["store", "bytes"]),
        journal_appends: number(&doc, &["journal", "appends"]),
    })
}

/// A finished job as `GET /jobs/:id` reports it.
struct JobDone {
    /// Submit-to-done seconds.
    wall_s: f64,
    /// Sum of the job's stage timeline.
    run_s: f64,
}

/// Polls `GET /jobs/:id` at a fixed spacing until the job is terminal.
/// Only for correctness and the server-side timings: no latency is derived
/// from when the poll noticed completion.
fn await_job(addr: SocketAddr, id: u64) -> Result<JobDone, String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let answer = exchange(addr, "GET", &format!("/jobs/{id}"), "")?;
        if answer.status != 200 {
            return Err(format!("GET /jobs/{id} answered {}", answer.status));
        }
        let doc = biochip_json::parse(&answer.body).map_err(|e| format!("/jobs/{id}: {e}"))?;
        match doc.get("status").and_then(|s| s.expect_str().ok()) {
            Some("done") => {
                let run_s = match doc.get("timeline") {
                    Some(Json::Object(stages)) => stages
                        .iter()
                        .filter_map(|(_, v)| v.expect_number().ok())
                        .sum(),
                    _ => 0.0,
                };
                return Ok(JobDone {
                    wall_s: number(&doc, &["wall_seconds"]),
                    run_s,
                });
            }
            Some("queued" | "running") => {}
            other => {
                let error = doc.get("error").and_then(|e| e.expect_str().ok());
                return Err(format!(
                    "job ended {other:?}: {}",
                    error.unwrap_or("no details")
                ));
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} not done after 120 s"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn job_id(body: &str) -> Result<u64, String> {
    let doc = biochip_json::parse(body).map_err(|e| format!("bad job document: {e}"))?;
    Ok(number(&doc, &["id"]) as u64)
}

/// A `{"problem": ..., "config": ...}` submission document.
#[must_use]
pub fn job_submission(problem: &ScheduleProblem, config: &SynthesisConfig) -> String {
    Json::object([("problem", problem.to_json()), ("config", config.to_json())]).to_compact()
}

/// Per-layer figures of the service layers.
#[derive(Debug, Clone, Default)]
pub struct ServiceFigures {
    values: Vec<(&'static str, f64)>,
}

impl ServiceFigures {
    /// Writes the figures into `m`.
    pub fn emit(&self, m: &mut Measured) {
        for (name, value) in &self.values {
            m.set(name, *value);
        }
    }
}

/// Submits `body` cold to a fresh server on `dir`, waits for the job,
/// resubmits it warm and fetches both results, which must be
/// byte-identical.
///
/// # Errors
///
/// Describes the first failed or incorrect exchange.
pub fn probe(body: &str, dir: &Path) -> Result<ServiceFigures, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (server, bind_s) = Running::start(dir)?;
    let probed = probe_running(server.addr, body);
    let stopped = server.shutdown();
    let (exchanges, done, before, after) = probed?;
    stopped?;
    let phase =
        |f: fn(&Exchange) -> f64| median(&exchanges.iter().map(|e| f(e) * 1e3).collect::<Vec<_>>());
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    Ok(ServiceFigures {
        values: vec![
            ("server.bind_s", bind_s),
            ("server.connect_ms", phase(|e| e.connect_s)),
            ("server.ttfb_ms", phase(|e| e.ttfb_s)),
            ("server.body_ms", phase(|e| e.body_s)),
            (
                "server.result_bytes",
                exchanges.last().map_or(0, |e| e.body.len()) as f64,
            ),
            ("pool.run_ms", done.run_s * 1e3),
            ("pool.queue_wait_ms", (done.wall_s - done.run_s) * 1e3),
            (
                "cache.hit_ratio",
                if lookups > 0.0 {
                    (after.cache_hits - before.cache_hits) / lookups
                } else {
                    0.0
                },
            ),
            (
                "store.writes",
                (after.store_entries - before.store_entries)
                    + (after.store_evictions - before.store_evictions),
            ),
            ("store.bytes", after.store_bytes - before.store_bytes),
            (
                "journal.appends",
                after.journal_appends - before.journal_appends,
            ),
        ],
    })
}

type Probed = (Vec<Exchange>, JobDone, StatsSnapshot, StatsSnapshot);

fn probe_running(addr: SocketAddr, body: &str) -> Result<Probed, String> {
    let before = snapshot(addr)?;
    let cold = exchange(addr, "POST", "/jobs", body)?;
    if cold.status != 202 {
        return Err(format!("probe submission answered {}", cold.status));
    }
    let cold_id = job_id(&cold.body)?;
    let done = await_job(addr, cold_id)?;
    let cold_result = exchange(addr, "GET", &format!("/results/{cold_id}"), "")?;
    let warm = exchange(addr, "POST", "/jobs", body)?;
    if warm.status != 201 {
        return Err(format!("probe resubmission answered {}", warm.status));
    }
    let warm_result = exchange(
        addr,
        "GET",
        &format!("/results/{}", job_id(&warm.body)?),
        "",
    )?;
    if cold_result.status != 200 || warm_result.body != cold_result.body {
        return Err("warm probe result differs from the cold one".to_owned());
    }
    let after = snapshot(addr)?;
    Ok((
        vec![cold, cold_result, warm, warm_result],
        done,
        before,
        after,
    ))
}

/// A per-run scratch directory inside the checkout, removed by the caller.
#[must_use]
pub fn scratch_dir(args: &Args, what: &str) -> PathBuf {
    crate::out_dir().join(format!(
        "{what}-{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}
