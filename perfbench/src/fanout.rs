//! `fanout_ingest`: a few hundred unit tenants, three rules each, fed
//! 16-reading batches round-robin by one keep-alive client with one
//! `POST /step` wave per round.

use crate::common::{median, micros, request_bytes, tail_note, Rng, RunReport};
use crate::direct::{self, Replica};
use crate::home::{ApplianceKind, HomeSpec, RuleText, SensorKind};
use crate::layers::{self, ratio, Share, Timer, Window};
use crate::model::{frame, Atom, Cond, Model, ModelRule, Sensors};
use crate::rig::{self, minute, parse_submitted, Rig, Submitted};
use crate::Ctx;
use cadel::fleet::Fleet;
use cadel::store::{segment_dir, Store};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TENANTS: usize = 256;
/// Tenants posted per round; successive rounds cycle through the fleet.
const SLICE: usize = 32;
const BATCH: usize = 16;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 21;
/// Rounds of direct fleet calls and replica waves in the traced run.
const DIRECT_ROUNDS: u64 = 24;
const REPLICAS: usize = 16;

const TEMP: usize = 0;
const HUMID: usize = 1;

fn tenant(i: usize) -> String {
    format!("unit-{i:04}")
}

/// The tenants round `round` (from 1) posts to.
fn slice(round: u64) -> std::ops::Range<usize> {
    let first = (round as usize - 1) % (TENANTS / SLICE) * SLICE;
    first..first + SLICE
}

/// Creates every tenant's empty store segment before a set-up is timed;
/// set-up then opens the tenants from these segments. Creating a
/// segment syncs its log header, and timed, those 256 flushes were most
/// of set-up and moved it twofold between runs with the disk's flush
/// latency; an existing empty segment opens without one.
fn provision(root: &std::path::Path) {
    for t in 0..TENANTS {
        Store::open(segment_dir(root, &tenant(t))).expect("tenant store created");
    }
}

/// One apartment unit, as `cadel-sim`'s unit tenant: thermometer,
/// hygrometer, air conditioner and floor lamp in one room.
fn unit_home() -> HomeSpec {
    let mut spec = HomeSpec::default();
    let room = spec.add_room("unit".into());
    spec.add_sensor(room, SensorKind::Temperature);
    spec.add_sensor(room, SensorKind::Humidity);
    spec.add_appliance(room, ApplianceKind::AirConditioner);
    spec.add_appliance(room, ApplianceKind::Lamp);
    spec
}

/// The unit's three rules: cool with an `until` release, dry, and a
/// 3-minute heat-warning dwell.
fn unit_rules() -> Vec<RuleText> {
    vec![
        RuleText {
            cond: Cond::all(vec![Atom::Gt(TEMP, 26)]),
            until: Some(Cond::all(vec![Atom::Lt(TEMP, 24)])),
            device: 0,
            setting: None,
        },
        RuleText {
            cond: Cond::all(vec![Atom::Gt(HUMID, 70)]),
            until: None,
            device: 0,
            setting: None,
        },
        RuleText {
            cond: Cond {
                atoms: vec![Atom::Gt(TEMP, 25)],
                held_min: Some(3),
            },
            until: None,
            device: 1,
            setting: None,
        },
    ]
}

/// A tenant's seeded sensor walk: eight temperature and eight humidity
/// readings per batch; only the last of each survives coalescing.
struct Walk {
    rng: Rng,
    values: Vec<i64>,
    /// What the tenant's engine has seen of the walk.
    seen: Sensors,
}

impl Walk {
    fn new(spec: &HomeSpec, seed: u64, stream: u64) -> Walk {
        Walk {
            rng: Rng::new(seed, stream),
            values: spec.initial_values(),
            seen: Sensors::new(spec.initial_values()),
        }
    }

    fn batch(&mut self) -> Vec<(usize, i64)> {
        let mut out = Vec::with_capacity(BATCH);
        for _ in 0..BATCH / 2 {
            self.values[TEMP] = (self.values[TEMP] + self.rng.range(-1, 1)).clamp(20, 30);
            out.push((TEMP, self.values[TEMP]));
            self.values[HUMID] = (self.values[HUMID] + self.rng.range(-2, 2)).clamp(55, 85);
            out.push((HUMID, self.values[HUMID]));
        }
        self.seen.deliver(TEMP, self.values[TEMP]);
        self.seen.deliver(HUMID, self.values[HUMID]);
        out
    }
}

pub fn run(ctx: &Ctx) -> RunReport {
    let mut report = RunReport::default();
    let spec = Arc::new(unit_home());
    let rules = unit_rules();
    let devices = devices(&spec);
    let submissions: Vec<Vec<Vec<u8>>> = (0..TENANTS)
        .map(|t| {
            rules
                .iter()
                .map(|r| rig::submit_request(&tenant(t), &spec.sentence(r)))
                .collect()
        })
        .collect();
    layers::set_tracing(ctx.trace);

    // Set-up, several times; the last one stays up for the measurement.
    let mut setup_s = Vec::new();
    let mut submit_us = Vec::new();
    let mut registration = Window::open();
    let mut ids: Vec<Vec<u64>> = Vec::new();
    let mut rig: Option<Rig> = None;
    let root = ctx.base.join("fanout");
    for attempt in 0..SETUPS {
        rig::clear(&root);
        provision(&root);
        registration = Window::open();
        let started = Instant::now();
        let mut fleet = Fleet::new(&root, rig::fleet_config());
        let builder = spec.builder();
        for t in 0..TENANTS {
            fleet
                .add_tenant_arc(tenant(t), builder.clone())
                .expect("fresh tenant builds");
        }
        let mut live = Rig::bind(fleet);
        ids = vec![Vec::new(); TENANTS];
        for (t, requests) in submissions.iter().enumerate() {
            for request in requests {
                let sent = Instant::now();
                let reply = live.wire.send(request);
                submit_us.push(micros(sent.elapsed()));
                if report.check_status("submit", &reply, &[201]) {
                    match parse_submitted(&reply.expect("checked")) {
                        Ok(Submitted::Registered(id)) => ids[t].push(id),
                        other => report
                            .errors
                            .push(format!("unit rule not registered: {other:?}")),
                    }
                }
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        registration.close();
        if attempt + 1 < SETUPS {
            live.shutdown(minute(0), &mut report);
        } else {
            rig = Some(live);
        }
    }
    let mut rig = rig.expect("last set-up kept");
    // Copies of every tenant's log as set-up left it, for recovery.
    let recovered = ctx.base.join("fanout-recovery");
    for t in 0..TENANTS {
        let segment = segment_dir(&root, &tenant(t));
        let len = rig::wal_len(&rig, &tenant(t));
        if let Err(error) = rig::wal_prefix(&segment, len, &segment_dir(&recovered, &tenant(t))) {
            report
                .errors
                .push(format!("copying {}'s set-up log: {error}", tenant(t)));
        }
    }
    let ledger: Vec<Vec<(u64, String, bool)>> = ids
        .iter()
        .map(|tenant_ids| {
            tenant_ids
                .iter()
                .zip(&rules)
                .map(|(id, rule)| (*id, spec.sentence(rule), true))
                .collect()
        })
        .collect();
    let mut events = rig.subscribe();

    // Reference models and walks.
    let mut models: Vec<Model> = ids
        .iter()
        .map(|tenant_ids| {
            let mut model = Model::default();
            for (id, rule) in tenant_ids.iter().zip(&rules) {
                model.add_rule(
                    *id,
                    ModelRule {
                        device: rule.device,
                        cond: rule.cond.clone(),
                        until: rule.until.clone(),
                        enabled: true,
                    },
                );
            }
            model
        })
        .collect();
    let mut walks: Vec<Walk> = (0..TENANTS)
        .map(|t| Walk::new(&spec, ctx.seed, 1000 + t as u64))
        .collect();

    // Measurement: whole rounds until the time is up. The traced run
    // measures its first half untraced and its second half traced.
    let mut round = 0u64;
    let mut readings = 0u64;
    let mut admit_us = Vec::new();
    let mut step_us = Vec::new();
    let mut sent = vec![Instant::now(); TENANTS];
    let mut untraced_actuation = Vec::new();
    let mut waves = Window::open();
    let mut last_round: Vec<Vec<u8>> = Vec::new();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut phase_started = Instant::now();
    let mut traced = !ctx.trace;
    if ctx.trace {
        layers::set_tracing(false);
    }
    let mut phase_budget = if ctx.trace { budget / 2 } else { budget };
    let mut paused = Duration::ZERO;
    let mut reopen_s = Vec::new();
    // A wrong output already fails the run; stop measuring at the first.
    while report.errors.is_empty() {
        if phase_started.elapsed() >= phase_budget {
            if traced {
                break;
            }
            // Second half of the traced run.
            traced = true;
            untraced_actuation = std::mem::take(&mut events.latencies_us);
            admit_us.clear();
            step_us.clear();
            readings = 0;
            paused = Duration::ZERO;
            layers::set_tracing(true);
            waves = Window::open();
            phase_started = Instant::now();
            phase_budget = budget - budget / 2;
        }
        round += 1;
        let at = minute(round);
        let at_text = at.to_string();
        let slice = slice(round);
        let mut requests = Vec::with_capacity(SLICE + 1);
        for t in slice.clone() {
            let batch = walks[t].batch();
            let body: Vec<String> = batch
                .iter()
                .map(|(s, v)| spec.reading_json(*s, *v, at))
                .collect();
            requests.push(rig::readings_request(&tenant(t), &body));
            for firing in models[t].step(round, walks[t].seen.view()) {
                events.expect(frame(&at_text, &tenant(t), &firing, &devices), t);
            }
        }
        requests.push(rig::step_request(at));
        for (t, request) in slice.zip(&requests) {
            sent[t] = Instant::now();
            let reply = rig.wire.send(request);
            admit_us.push(micros(sent[t].elapsed()));
            if report.check_status("readings", &reply, &[202]) {
                readings += BATCH as u64;
            }
        }
        let stepped = Instant::now();
        let reply = rig.wire.send(&requests[SLICE]);
        step_us.push(micros(stepped.elapsed()));
        report.check_status("step", &reply, &[200]);
        events.collect(&sent, &mut report.errors);
        if ctx.trace {
            last_round = requests;
        }

        // Recovery: one tenant's set-up log reopened per round, outside
        // the time the load is measured over. Spread over the run, the
        // reopenings sample the whole run rather than one moment of it.
        let t = (round as usize - 1) % TENANTS;
        let (elapsed, export) = rig::reopen(&spec, &segment_dir(&recovered, &tenant(t)));
        paused += elapsed;
        reopen_s.push(elapsed.as_secs_f64());
        if export.map(|e| rig::export_rows(&e)) != Ok(Ok(ledger[t].clone())) {
            report.errors.push(format!(
                "{}: recovered rules differ from the ledger",
                tenant(t)
            ));
        }
    }
    let measured = phase_started.elapsed() - paused;
    waves.close();
    events.drain(&mut report.errors);
    report.notes.push(format!(
        "fanout_ingest: {TENANTS} tenants, {round} rounds, {} actuations checked, {} workers",
        events.matched,
        rig::workers()
    ));

    let actuation = std::mem::take(&mut events.latencies_us);
    let calls = ctx.trace.then(|| {
        layers::registry_metrics(&mut report, &registration, &waves);
        fleet_calls(
            &mut report,
            &rig,
            &spec,
            &mut models,
            &mut walks,
            &mut round,
            &last_round,
        )
    });

    // Every tenant's live rules must equal the benchmark's ledger of what
    // it registered.
    let mut live_exports = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let reply = rig.wire.send(&request_bytes(
            "GET",
            &format!("/tenants/{}/rules", tenant(t)),
            "",
        ));
        if report.check_status("export", &reply, &[200]) {
            live_exports.push(reply.expect("checked").text());
        } else {
            live_exports.push(String::new());
        }
    }
    for (t, export) in live_exports.iter().enumerate() {
        if rig::export_rows(export).as_ref() != Ok(&ledger[t]) {
            report
                .errors
                .push(format!("{}: live rules differ from the ledger", tenant(t)));
        }
    }
    drop(events);
    rig.shutdown(minute(round + 1), &mut report);
    if ctx.trace {
        let segments: Vec<_> = (0..TENANTS)
            .map(|t| segment_dir(&recovered, &tenant(t)))
            .collect();
        direct::store_calls(&mut report, &segments, &ctx.base.join("scratch-store"));
        replica_waves(&mut report, ctx, &spec, &recovered, round);
        if let Some(calls) = &calls {
            attribution(
                &mut report,
                calls,
                (&admit_us, &step_us, &actuation, &untraced_actuation),
            );
        }
    } else {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric(
            "readings_per_s",
            readings as f64 / measured.as_secs_f64(),
            "readings/s",
        );
        report.metric("admit_p50_us", median(&admit_us), "us");
        report.metric("actuation_p50_us", median(&actuation), "us");
        report.notes.push(tail_note("actuation", &actuation));
        report.metric("rule_submit_p50_us", median(&submit_us), "us");
        report.notes.push(tail_note("rule submission", &submit_us));
        // The whole fleet's recovery, from the median single reopening.
        report.metric("recovery_s", TENANTS as f64 * median(&reopen_s), "s");
    }
    report.notes.push(format!(
        "samples: {} actuations, {} admissions, {} submissions, {} set-ups, {} reopenings",
        actuation.len(),
        admit_us.len(),
        submit_us.len(),
        setup_s.len(),
        reopen_s.len()
    ));
    report
}

/// What the traced run's direct fleet calls measured.
struct FleetCalls {
    parse_us: f64,
    offer_us: f64,
    wave_us: f64,
    tenants_per_wave: f64,
    tenant_step_us: f64,
}

/// The traced run's direct calls on the live fleet: `Fleet::offer_at`
/// and `Fleet::step_ready` over further rounds of the same walks, each
/// wave's step reports checked against the models.
fn fleet_calls(
    report: &mut RunReport,
    rig: &Rig,
    spec: &HomeSpec,
    models: &mut [Model],
    walks: &mut [Walk],
    round: &mut u64,
    last_round: &[Vec<u8>],
) -> FleetCalls {
    let parse = direct::parse_requests(report, last_round);
    report.metric("api.parse_ns", parse.mean_ns(), "ns");
    report.metric("api.requests", (SLICE + 1) as f64, "count");
    let mut offer = Timer::default();
    let mut wave = Timer::default();
    let mut stepped = 0usize;
    let mut window = Window::open();
    for _ in 0..DIRECT_ROUNDS {
        *round += 1;
        let round = *round;
        let at = minute(round);
        let batches: Vec<(usize, Vec<(usize, i64)>)> =
            slice(round).map(|t| (t, walks[t].batch())).collect();
        let outcome = rig.server.with_fleet(|fleet| {
            for (t, batch) in &batches {
                for (sensor, value) in batch {
                    let ingress = direct::ingress(spec, *sensor, *value, at);
                    offer
                        .time(|| fleet.offer_at(*t, ingress))
                        .expect("direct offer admitted");
                }
            }
            wave.time(|| fleet.step_ready(at))
        });
        stepped += outcome.stepped();
        for tenant in &outcome.outcomes {
            let t = tenant.index;
            let want = models[t].step(round, walks[t].seen.view());
            direct::check_wave(report, tenant, &want, &devices(spec));
        }
    }
    window.close();
    let tenants_per_wave = stepped as f64 / DIRECT_ROUNDS as f64;
    report.metric("fleet.offer_ns", offer.mean_ns(), "ns");
    report.metric(
        "fleet.coalesced",
        ratio(window.counter("fleet_coalesced_total"), offer.calls as f64),
        "ratio",
    );
    report.metric("fleet.wave_ns", wave.mean_ns(), "ns");
    report.metric("fleet.tenants_per_wave", tenants_per_wave, "count");
    FleetCalls {
        parse_us: parse.mean_ns() / 1e3,
        offer_us: offer.mean_ns() / 1e3,
        wave_us: wave.mean_ns() / 1e3,
        tenants_per_wave,
        tenant_step_us: window.mean("fleet_step_ns") / 1e3,
    }
}

/// Attributes the traced actuation median: a median tenant waits for
/// about half its round's posts, then the wave, then its frame.
fn attribution(
    report: &mut RunReport,
    calls: &FleetCalls,
    (admit_us, step_us, actuation, untraced): (&[f64], &[f64], &[f64], &[f64]),
) {
    let posts = SLICE as f64 / 2.0;
    let workers = rig::workers() as f64;
    let post_rtt = median(admit_us);
    let step_rtt = median(step_us);
    let per_wave = calls.tenants_per_wave;
    // The program counts no syncs; `Fleet::step_ready` syncs every
    // tenant it stepped, so a wave is charged one sync per stepped
    // tenant. A wave that syncs fewer shows as a smaller `fleet.wave`.
    let sync_us = per_wave * report.metrics["store.sync_ns"].0 / 1e3;
    let steps_us = per_wave * calls.tenant_step_us / workers;
    let engine_us = per_wave * report.metrics["engine.step_ns"].0 / 1e3 / workers;
    let offers_us = posts * BATCH as f64 * calls.offer_us;
    let parse_us = (posts + 1.0) * calls.parse_us;
    let shares = vec![
        Share {
            layer: "api.parse",
            us: parse_us,
            how: format!("{} requests x WireReader::read_request", posts + 1.0),
        },
        Share {
            layer: "api+wire",
            us: posts * post_rtt + step_rtt - offers_us - calls.wave_us - parse_us,
            how: format!("{posts} post + 1 step round trips, minus the fleet calls and parsing"),
        },
        Share {
            layer: "fleet.offer",
            us: offers_us,
            how: format!("{posts} posts x {BATCH} x Fleet::offer_at"),
        },
        Share {
            layer: "fleet.wave",
            us: calls.wave_us - steps_us - sync_us,
            how: "Fleet::step_ready minus tenant steps and syncs".into(),
        },
        Share {
            layer: "server.step",
            us: steps_us - engine_us,
            how: format!("{per_wave:.0} tenant steps / {workers} workers, minus the engine"),
        },
        Share {
            layer: "engine.step",
            us: engine_us,
            how: "engine_step_duration_ns x tenants / workers".into(),
        },
        Share {
            layer: "store.sync",
            us: sync_us,
            how: format!("{per_wave:.0} stepped tenants x HomeServer::sync"),
        },
    ];
    layers::attribute(
        report,
        "actuation_p50_us",
        median(actuation),
        shares,
        median(untraced),
    );
}

fn devices(spec: &HomeSpec) -> Vec<String> {
    spec.appliances.iter().map(|a| a.udn.clone()).collect()
}

/// `HomeServer::step` and `HomeServer::sync` timed on reopened tenants.
fn replica_waves(
    report: &mut RunReport,
    ctx: &Ctx,
    spec: &HomeSpec,
    root: &std::path::Path,
    round: u64,
) {
    let mut step = Timer::default();
    let mut sync = Timer::default();
    for t in 0..REPLICAS {
        let mut replica = Replica::open(spec, &segment_dir(root, &tenant(t)));
        let mut walk = Walk::new(spec, ctx.seed, 5000 + t as u64);
        for r in 0..DIRECT_ROUNDS {
            let batch = walk.batch();
            replica.wave(spec, &batch, minute(round + 2 + r), &mut step, &mut sync);
        }
    }
    report.metric("server.step_ns", step.mean_ns(), "ns");
    report.metric("store.sync_ns", sync.mean_ns(), "ns");
}
