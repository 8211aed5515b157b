//! Direct calls into layers the wire hides, made only in the traced
//! run: the request parser, the store, and a tenant's step and sync
//! driven the way a fleet wave drives them.

use crate::common::RunReport;
use crate::home::{HomeSpec, SensorKind, SensorWorld};
use crate::layers::Timer;
use crate::model::{key, Firing};
use crate::rig::api_config;
use cadel::api::{WireLimits, WireReader};
use cadel::fleet::{Ingress, TenantStepOutcome};
use cadel::server::HomeServer;
use cadel::store::Store;
use cadel::types::{DeviceId, Quantity, Rational, SimTime, Unit, Value};
use std::io::Cursor;
use std::path::{Path, PathBuf};

/// Times `WireReader::read_request` over request bytes the load
/// generator actually sent.
pub fn parse_requests(report: &mut RunReport, requests: &[Vec<u8>]) -> Timer {
    let config = api_config();
    let limits = WireLimits {
        max_head_bytes: config.max_head_bytes,
        max_body_bytes: config.max_body_bytes,
    };
    let mut timer = Timer::default();
    for _ in 0..8 {
        for bytes in requests {
            let mut reader = WireReader::new(Cursor::new(bytes.as_slice()));
            if timer.time(|| reader.read_request(&limits, None)).is_err() {
                report.errors.push("a sent request does not parse".into());
                return timer;
            }
        }
    }
    timer
}

/// Times `Store::open` over tenant segments and `Store::append` of the
/// records recovered from them into a scratch store; reports
/// `store.recover_ns`, `store.records_replayed` and `store.append_ns`.
pub fn store_calls(report: &mut RunReport, segments: &[PathBuf], scratch: &Path) {
    let mut opens = Timer::default();
    let mut appends = Timer::default();
    let mut records = 0usize;
    let _ = std::fs::remove_dir_all(scratch);
    let (mut sink, _) = Store::open(scratch).expect("scratch store opens");
    for dir in segments {
        let Ok((_, recovered)) = opens.time(|| Store::open(dir)) else {
            report
                .errors
                .push(format!("store at {} does not open", dir.display()));
            continue;
        };
        records += recovered.records.len();
        for record in &recovered.records {
            if appends.time(|| sink.append(record)).is_err() {
                report.errors.push("scratch append failed".into());
                return;
            }
        }
    }
    report.metric("store.recover_ns", opens.mean_ns(), "ns");
    report.metric(
        "store.records_replayed",
        records as f64 / segments.len().max(1) as f64,
        "count",
    );
    report.metric("store.append_ns", appends.mean_ns(), "ns");
}

/// A tenant reopened from its segment, driven without the fleet:
/// readings go to its sensors, then `HomeServer::step`, a runtime
/// checkpoint every `checkpoint_every` steps, and `HomeServer::sync`,
/// as one fleet wave does for each stepped tenant.
pub struct Replica {
    pub server: HomeServer,
    pub world: SensorWorld,
    steps: u64,
}

impl Replica {
    pub fn open(spec: &HomeSpec, dir: &Path) -> Replica {
        let (control, topology, world) = spec.install();
        let (server, _) = HomeServer::open_at(control, topology, dir).expect("replica reopens");
        Replica {
            server,
            world,
            steps: 0,
        }
    }

    pub fn wave(
        &mut self,
        spec: &HomeSpec,
        readings: &[(usize, i64)],
        at: SimTime,
        step: &mut Timer,
        sync: &mut Timer,
    ) {
        for (sensor, value) in readings {
            self.world.set(&spec.sensors[*sensor].udn, *value, at);
        }
        step.time(|| self.server.step(at));
        self.steps += 1;
        if self
            .steps
            .is_multiple_of(crate::rig::fleet_config().checkpoint_every)
        {
            self.server
                .checkpoint_runtime()
                .expect("replica checkpoint succeeds");
        }
        sync.time(|| self.server.sync())
            .expect("replica sync succeeds");
    }
}

/// One reading as the fleet admits it.
pub fn ingress(spec: &HomeSpec, sensor: usize, value: i64, at: SimTime) -> Ingress {
    let s = &spec.sensors[sensor];
    let unit = match s.kind {
        SensorKind::Temperature => Unit::Celsius,
        SensorKind::Humidity => Unit::Percent,
        SensorKind::Illuminance => Unit::Lux,
    };
    Ingress {
        device: DeviceId::new(&s.udn),
        variable: s.kind.variable().to_owned(),
        value: Value::Number(Quantity::new(Rational::from_integer(value), unit)),
        at,
    }
}

/// Checks one tenant's outcome of a directly called wave against the
/// model's firings for it.
pub fn check_wave(
    report: &mut RunReport,
    outcome: &TenantStepOutcome,
    want: &[Firing],
    devices: &[String],
) {
    let mut got: Vec<String> = Vec::new();
    if let Some(step) = &outcome.report {
        got.extend(
            step.dispatched()
                .iter()
                .map(|f| format!("{} -> {}", f.rule, f.device)),
        );
        got.extend(
            step.releases
                .iter()
                .map(|(rule, device)| format!("{rule} released {device}")),
        );
    }
    got.sort();
    let mut want: Vec<String> = want.iter().map(|f| key(f, devices)).collect();
    want.sort();
    if got != want {
        report.errors.push(format!(
            "direct wave, {}: program {got:?}, model {want:?}",
            outcome.tenant
        ));
    }
}
