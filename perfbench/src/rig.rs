//! The program under test as every workload runs it: an `ApiServer` over
//! a durable fleet on loopback, one keep-alive request connection and
//! one event-stream subscription.

use crate::common::{request_bytes, Notifications, Reply, RunReport, Wire};
use crate::home::{HomeSpec, USER};
use cadel::api::{subscribe, ApiConfig, ApiServer};
use cadel::conflict::PriorityOrder;
use cadel::fleet::{Fleet, FleetConfig};
use cadel::rule::Condition;
use cadel::server::HomeServer;
use cadel::store::WAL_FILE;
use cadel::types::json::{self, Json};
use cadel::types::{RuleId, SimDuration, SimTime};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fleet worker threads: the machine's cores, at most two, since the
/// client and the connection threads share them.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2)
}

/// Settings that differ from `FleetConfig::default()`: `workers` (see
/// [`workers`]) and an inbox large enough for one wave of the densest
/// workload, so admission never sheds.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        workers: workers(),
        inbox_capacity: 1024,
        ..FleetConfig::default()
    }
}

/// Settings that differ from `ApiConfig::default()`: no per-client rate
/// limit (one local client), no keep-alive rotation (one connection for
/// the whole run), a subscriber queue no wave can fill, and a short
/// heartbeat so the end-of-run drain check waits briefly.
pub fn api_config() -> ApiConfig {
    ApiConfig {
        rate_limit: None,
        max_requests_per_connection: 0,
        subscriber_queue: 1 << 16,
        heartbeat: Duration::from_millis(200),
        ..ApiConfig::default()
    }
}

/// Simulated minute `m`: every wave advances the clock one minute.
pub fn minute(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_minutes(m)
}

pub fn step_request(at: SimTime) -> Vec<u8> {
    request_bytes(
        "POST",
        "/step",
        &format!("{{\"at_ms\":{}}}", at.as_millis()),
    )
}

pub fn submit_request(tenant: &str, sentence: &str) -> Vec<u8> {
    let body = Json::obj(vec![
        ("user", Json::str(USER)),
        ("sentence", Json::str(sentence)),
    ]);
    request_bytes(
        "POST",
        &format!("/tenants/{tenant}/rules"),
        &body.to_compact(),
    )
}

pub fn readings_request(tenant: &str, readings: &[String]) -> Vec<u8> {
    request_bytes(
        "POST",
        &format!("/tenants/{tenant}/readings"),
        &format!("{{\"readings\":[{}]}}", readings.join(",")),
    )
}

/// What a rule submission answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Submitted {
    Registered(u64),
    Conflict { ticket: u64, with: BTreeSet<u64> },
    Inconsistent,
}

/// Reads a `POST …/rules` or `…/enabled` reply.
pub fn parse_submitted(reply: &Reply) -> Result<Submitted, String> {
    let doc = json::parse(&reply.text()).map_err(|e| format!("reply is not JSON: {e}"))?;
    let outcome = doc.get("outcome").and_then(Json::as_str).unwrap_or("");
    let int = |field: &str| doc.get(field).and_then(Json::as_int).map(|n| n as u64);
    match (reply.status, outcome) {
        (201, "registered") => int("rule")
            .map(Submitted::Registered)
            .ok_or_else(|| "registered reply without a rule id".to_owned()),
        (409, "conflict_detected") => {
            let ticket = int("ticket").ok_or("conflict reply without a ticket")?;
            let mut with = BTreeSet::new();
            for conflict in doc.get("conflicts").and_then(Json::as_arr).unwrap_or(&[]) {
                // "rule#A conflicts with rule#B (e.g. …)": B is the live rule.
                let text = conflict.as_str().unwrap_or("");
                let other = text
                    .split("conflicts with rule#")
                    .nth(1)
                    .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|n| n.parse::<u64>().ok())
                    .ok_or_else(|| format!("unreadable conflict '{text}'"))?;
                with.insert(other);
            }
            Ok(Submitted::Conflict { ticket, with })
        }
        (200, "rejected_inconsistent") => Ok(Submitted::Inconsistent),
        (status, _) => Err(format!("unexpected reply {status}: {}", reply.text())),
    }
}

/// The running program: server, request connection, event stream.
pub struct Rig {
    pub server: ApiServer,
    pub wire: Wire,
}

impl Rig {
    pub fn bind(fleet: Fleet) -> Rig {
        let server = ApiServer::bind("127.0.0.1:0", fleet, api_config()).expect("bind loopback");
        let wire = Wire::connect(server.addr()).expect("connect loopback");
        Rig { server, wire }
    }

    pub fn subscribe(&self) -> Notifications {
        // Every frame of a wave is queued before the wave's reply is
        // written, so a predicted frame missing for seconds never comes.
        let stream = subscribe(self.server.addr(), None, Duration::from_secs(3))
            .expect("subscribe to the event stream");
        Notifications::new(stream)
    }

    /// Graceful drain: in-flight connections finish, inboxes flush, every
    /// tenant checkpoints.
    pub fn shutdown(self, at: SimTime, report: &mut RunReport) {
        let Rig { server, wire } = self;
        drop(wire);
        let outcome = server.shutdown(Duration::from_secs(30), at);
        if !outcome.is_clean() {
            report.errors.push(format!("unclean shutdown: {outcome:?}"));
        }
    }
}

/// Settles a `409` the only way the program offers: the wire has no
/// arbitration route, so the priority dialog's answer goes straight to
/// `HomeServer::confirm_with_priority` under the frontend's fleet lock.
pub fn confirm(
    rig: &Rig,
    tenant: &str,
    ticket: u64,
    ranking: &[u64],
    context: Option<Condition>,
) -> Result<(), String> {
    let ranking: Vec<RuleId> = ranking.iter().map(|id| RuleId::new(*id)).collect();
    rig.server.with_fleet(|fleet| {
        let server = fleet
            .server_mut_of(tenant)
            .ok_or_else(|| format!("tenant {tenant} is not serving"))?;
        server
            .confirm_with_priority(RuleId::new(ticket), ranking, context, None)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
}

/// Registers a priority order outside the conflict dialog.
pub fn add_priority(rig: &Rig, tenant: &str, order: PriorityOrder) -> Result<(), String> {
    rig.server.with_fleet(|fleet| {
        let server = fleet
            .server_mut_of(tenant)
            .ok_or_else(|| format!("tenant {tenant} is not serving"))?;
        server
            .add_priority(order)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
}

/// Deletes what an earlier set-up left under a store root, and commits
/// the deletion to disk before the next set-up is timed, so that set-up
/// does not wait on the file system journal for it.
pub fn clear(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    let parent = root.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(parent).expect("store parent directory");
    let _ = std::fs::File::open(parent).and_then(|dir| dir.sync_all());
}

/// How many bytes a tenant's write-ahead log holds now.
pub fn wal_len(rig: &Rig, tenant: &str) -> u64 {
    rig.server.with_fleet(|fleet| {
        fleet
            .server_of(tenant)
            .and_then(HomeServer::store)
            .map_or(0, |store| store.wal_len())
    })
}

/// Copies the first `len` bytes of a segment's log into a fresh segment
/// at `dest`. The log is append-only, so the copy is the segment as it
/// stood when its log was `len` bytes long: a recovery input whose size
/// does not depend on how much a run got done after that point.
pub fn wal_prefix(segment: &Path, len: u64, dest: &Path) -> std::io::Result<()> {
    use std::io::Read;
    let _ = std::fs::remove_dir_all(dest);
    std::fs::create_dir_all(dest)?;
    let mut bytes = Vec::new();
    std::fs::File::open(segment.join(WAL_FILE))?
        .take(len)
        .read_to_end(&mut bytes)?;
    // Written back before any reopening is timed, so no reopening races
    // the copy's writeback.
    let mut copy = std::fs::File::create(dest.join(WAL_FILE))?;
    std::io::Write::write_all(&mut copy, &bytes)?;
    copy.sync_all()?;
    std::fs::File::open(dest)?.sync_all()
}

/// Reopens one tenant segment with `HomeServer::open_at`, timing only
/// that call, and returns the elapsed time and the recovered rule export.
pub fn reopen(spec: &HomeSpec, dir: &Path) -> (Duration, Result<String, String>) {
    let (control, topology, _world) = spec.install();
    let started = Instant::now();
    let opened = HomeServer::open_at(control, topology, dir);
    let elapsed = started.elapsed();
    let export = opened
        .map_err(|e| e.to_string())
        .and_then(|(server, _)| server.export_rules().map_err(|e| e.to_string()));
    (elapsed, export)
}

/// The `(id, label, enabled)` triples of a rule export, read in one
/// linear pass over the program's export layout (each rule object's
/// `"id"`, then `"label"`, then `"enabled"`; no other member carries
/// those names). The program's own JSON parser is not used here: its
/// cost grows with the square of the document's length.
pub fn export_rows(export: &str) -> Result<Vec<(u64, String, bool)>, String> {
    let mut rows = Vec::new();
    let mut rest = export;
    while let Some(at) = rest.find("\"id\":") {
        rest = rest[at + 5..].trim_start();
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let id = rest[..digits]
            .parse::<u64>()
            .map_err(|_| "export: rule id is not a number".to_owned())?;
        let at = rest
            .find("\"label\":")
            .ok_or("export: rule without a label")?;
        rest = rest[at + 8..].trim_start();
        let body = rest
            .strip_prefix('"')
            .ok_or("export: label is not a string")?;
        let mut label = String::new();
        let mut chars = body.char_indices();
        let end = loop {
            match chars.next() {
                Some((i, '"')) => break i,
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => label.push('\n'),
                    Some((_, c)) => label.push(c),
                    None => return Err("export: unterminated label".into()),
                },
                Some((_, c)) => label.push(c),
                None => return Err("export: unterminated label".into()),
            }
        };
        rest = &body[end + 1..];
        let at = rest
            .find("\"enabled\":")
            .ok_or("export: rule without 'enabled'")?;
        rest = rest[at + 10..].trim_start();
        let enabled = rest.starts_with("true");
        rows.push((id, label, enabled));
    }
    rows.sort();
    Ok(rows)
}
