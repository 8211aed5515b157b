//! `dense_home`: one tenant shaped like the paper's prototype, with
//! dozens of air conditioners, hundreds of sensors and thousands of
//! threshold-conjunction rules submitted as CADEL sentences at set-up,
//! arbitrated by priority orders (some context-scoped). Each wave's one
//! POST moves most sensors.

use crate::common::{median, micros, request_bytes, tail_note, Rng, RunReport};
use crate::direct::{self, Replica};
use crate::home::{room_name, ApplianceKind, HomeSpec, RuleText, SensorKind};
use crate::layers::{self, Share, Timer, Window};
use crate::model::{frame, Atom, Cond, Model, ModelRule, Order, Sensors};
use crate::rig::{self, minute, parse_submitted, Rig, Submitted};
use crate::Ctx;
use cadel::conflict::PriorityOrder;
use cadel::fleet::Fleet;
use cadel::rule::{Atom as RuleAtom, Condition, ConstraintAtom};
use cadel::simplex::RelOp;
use cadel::store::segment_dir;
use cadel::types::{DeviceId, Quantity, RuleId, SensorKey, Unit};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "home";
/// Air conditioners; each has a room of its own and a neighbouring room.
const APPLIANCES: usize = 48;
/// Disjoint temperature bands per appliance, `BAND_EDGES[b]..BAND_EDGES[b+1]`.
const BAND_EDGES: [i64; 7] = [14, 18, 22, 26, 30, 34, 38];
/// Rules per band, all conflicting with each other (same band, different
/// set-points, overlapping humidity thresholds).
const PER_BAND: usize = 8;
/// Context-scoped orders apply while the room is darker than this.
const DARK_LUX: i64 = 150;
const SETUPS: usize = 3;
const RECOVERIES: usize = 9;
const DIRECT_ROUNDS: u64 = 48;

/// Sensors of appliance `d`: its room's temperature and illuminance and
/// the neighbouring room's humidity.
struct Wiring {
    temp: usize,
    humid: usize,
    lux: usize,
}

struct Layout {
    spec: HomeSpec,
    sensors: Vec<Wiring>,
}

fn layout() -> Layout {
    let mut spec = HomeSpec::default();
    let mut sensors = Vec::new();
    for d in 0..APPLIANCES {
        let own = spec.add_room(room_name(2 * d));
        let next = spec.add_room(room_name(2 * d + 1));
        let temp = spec.add_sensor(own, SensorKind::Temperature);
        let lux = spec.add_sensor(own, SensorKind::Illuminance);
        spec.add_sensor(own, SensorKind::Humidity);
        spec.add_sensor(next, SensorKind::Temperature);
        spec.add_sensor(next, SensorKind::Illuminance);
        let humid = spec.add_sensor(next, SensorKind::Humidity);
        spec.add_appliance(own, ApplianceKind::AirConditioner);
        sensors.push(Wiring { temp, humid, lux });
    }
    Layout { spec, sensors }
}

/// One generated rule and where it sits in its band's priority order.
struct Planned {
    text: RuleText,
    device: usize,
    band: usize,
    /// Rank in the band's order (0 = highest).
    rank: usize,
}

/// The rule base: for every appliance and band, `PER_BAND` rules with
/// seeded humidity thresholds, distinct set-points and a seeded order,
/// submitted in a seeded interleaving of appliances and bands.
fn plan(layout: &Layout, rng: &mut Rng) -> Vec<Planned> {
    let mut per_band: Vec<Vec<Planned>> = Vec::new();
    for (device, s) in layout.sensors.iter().enumerate() {
        for band in 0..BAND_EDGES.len() - 1 {
            let mut ranks: Vec<usize> = (0..PER_BAND).collect();
            rng.shuffle(&mut ranks);
            let mut rules: Vec<Planned> = (0..PER_BAND)
                .map(|j| Planned {
                    text: RuleText {
                        cond: Cond::all(vec![
                            Atom::Gt(s.temp, BAND_EDGES[band]),
                            Atom::Lt(s.temp, BAND_EDGES[band + 1]),
                            Atom::Gt(s.humid, 20 + 8 * j as i64 + rng.range(0, 5)),
                        ]),
                        until: None,
                        device,
                        setting: Some(16 + 2 * j as i64),
                    },
                    device,
                    band,
                    rank: ranks[j],
                })
                .collect();
            rng.shuffle(&mut rules);
            per_band.push(rules);
        }
    }
    // Interleave: repeatedly take the next rule of a random band.
    let mut out = Vec::new();
    while !per_band.is_empty() {
        let i = rng.index(per_band.len());
        out.push(per_band[i].remove(0));
        if per_band[i].is_empty() {
            per_band.swap_remove(i);
        }
    }
    out
}

fn band_key(p: &Planned) -> usize {
    p.device * (BAND_EDGES.len() - 1) + p.band
}

/// The seeded sensor walk and what the program has seen of it.
struct Walker {
    rng: Rng,
    values: Vec<i64>,
    seen: Sensors,
}

impl Walker {
    fn new(spec: &HomeSpec, seed: u64, stream: u64) -> Walker {
        Walker {
            rng: Rng::new(seed, stream),
            values: spec.initial_values(),
            seen: Sensors::new(spec.initial_values()),
        }
    }

    /// A wave's readings: each sensor moves with probability 3/4.
    fn wave(&mut self, spec: &HomeSpec) -> Vec<(usize, i64)> {
        let mut out = Vec::new();
        for (s, sensor) in spec.sensors.iter().enumerate() {
            if !self.rng.chance(3, 4) {
                continue;
            }
            let (step, lo, hi) = match sensor.kind {
                SensorKind::Temperature => (2, 14, 38),
                SensorKind::Humidity => (6, 15, 90),
                SensorKind::Illuminance => (80, 0, 400),
            };
            self.values[s] = (self.values[s] + self.rng.range(-step, step)).clamp(lo, hi);
            self.seen.deliver(s, self.values[s]);
            out.push((s, self.values[s]));
        }
        out
    }
}

fn dark(lux_sensor: &str) -> Condition {
    Condition::Atom(RuleAtom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(lux_sensor), "illuminance"),
        RelOp::Lt,
        Quantity::from_integer(DARK_LUX, Unit::Lux),
    )))
}

/// The registered rule base as the benchmark knows it.
struct Ledger {
    model: Model,
    rows: Vec<(u64, String, bool)>,
}

/// One set-up: fleet, tenant, server bind, every sentence over the wire,
/// every `409` settled with its band's order, then the context-scoped
/// orders.
fn set_up(
    ctx: &Ctx,
    layout: &Layout,
    planned: &[Planned],
    requests: &[Vec<u8>],
    scoped_bands: &[bool],
    report: &mut RunReport,
    submit_us: &mut Vec<f64>,
) -> (Rig, Ledger, f64) {
    let root = ctx.base.join("dense");
    rig::clear(&root);
    let spec = Arc::new(layout.spec.clone());
    let bands = APPLIANCES * (BAND_EDGES.len() - 1);
    let mut ids_by_rank: Vec<Vec<Option<u64>>> = vec![vec![None; PER_BAND]; bands];
    let mut ledger = Ledger {
        model: Model::default(),
        rows: Vec::new(),
    };
    let started = Instant::now();
    let mut fleet = Fleet::new(&root, rig::fleet_config());
    fleet
        .add_tenant_arc(TENANT, spec.builder())
        .expect("fresh tenant builds");
    let rig = Rig::bind(fleet);
    let mut rig = rig;
    for (p, request) in planned.iter().zip(requests) {
        let sent = Instant::now();
        let reply = rig.wire.send(request);
        submit_us.push(micros(sent.elapsed()));
        if !report.check_status("submit", &reply, &[201, 409]) {
            continue;
        }
        let key = band_key(p);
        let registered_before: Vec<u64> = ids_by_rank[key].iter().flatten().copied().collect();
        let id = match parse_submitted(&reply.expect("checked")) {
            Ok(Submitted::Registered(id)) if registered_before.is_empty() => id,
            Ok(Submitted::Conflict { ticket, with })
                if with == registered_before.iter().copied().collect() =>
            {
                ids_by_rank[key][p.rank] = Some(ticket);
                let ranking: Vec<u64> = ids_by_rank[key].iter().flatten().copied().collect();
                if let Err(error) = rig::confirm(&rig, TENANT, ticket, &ranking, None) {
                    report.errors.push(format!("confirm {ticket}: {error}"));
                }
                ledger.model.orders.push(Order {
                    device: p.device,
                    ranking,
                    context: None,
                });
                ticket
            }
            other => {
                report.errors.push(format!(
                    "submission in band {key}: {other:?}, predicted conflicts with {registered_before:?}"
                ));
                continue;
            }
        };
        ids_by_rank[key][p.rank] = Some(id);
        ledger.model.add_rule(
            id,
            ModelRule {
                device: p.device,
                cond: p.text.cond.clone(),
                until: None,
                enabled: true,
            },
        );
        ledger.rows.push((id, layout.spec.sentence(&p.text), true));
    }
    // Context-scoped orders: the band's order reversed while it is dark.
    for (key, ids) in ids_by_rank.iter().enumerate() {
        if !scoped_bands[key] {
            continue;
        }
        let device = key / (BAND_EDGES.len() - 1);
        let ranking: Vec<u64> = ids.iter().rev().flatten().copied().collect();
        let lux = &layout.spec.sensors[layout.sensors[device].lux];
        let order = PriorityOrder::new(
            DeviceId::new(&layout.spec.appliances[device].udn),
            ranking.iter().map(|id| RuleId::new(*id)).collect(),
        )
        .in_context(dark(&lux.udn));
        if let Err(error) = rig::add_priority(&rig, TENANT, order) {
            report.errors.push(format!("priority order: {error}"));
        }
        ledger.model.orders.push(Order {
            device,
            ranking,
            context: Some(Cond::all(vec![Atom::Lt(
                layout.sensors[device].lux,
                DARK_LUX,
            )])),
        });
    }
    let elapsed = started.elapsed().as_secs_f64();
    ledger.rows.sort();
    (rig, ledger, elapsed)
}

pub fn run(ctx: &Ctx) -> RunReport {
    let mut report = RunReport::default();
    let layout = layout();
    let spec = &layout.spec;
    let mut rng = Rng::new(ctx.seed, 1);
    let planned = plan(&layout, &mut rng);
    let requests: Vec<Vec<u8>> = planned
        .iter()
        .map(|p| rig::submit_request(TENANT, &spec.sentence(&p.text)))
        .collect();
    let bands = APPLIANCES * (BAND_EDGES.len() - 1);
    let scoped_bands: Vec<bool> = (0..bands).map(|_| rng.chance(1, 2)).collect();
    let devices: Vec<String> = spec.appliances.iter().map(|a| a.udn.clone()).collect();
    layers::set_tracing(ctx.trace);

    let mut setup_s = Vec::new();
    let mut submit_us = Vec::new();
    let mut registration = Window::open();
    let mut kept = None;
    for attempt in 0..SETUPS {
        registration = Window::open();
        let (rig, ledger, elapsed) = set_up(
            ctx,
            &layout,
            &planned,
            &requests,
            &scoped_bands,
            &mut report,
            &mut submit_us,
        );
        registration.close();
        setup_s.push(elapsed);
        if attempt + 1 < SETUPS {
            rig.shutdown(minute(0), &mut report);
        } else {
            kept = Some((rig, ledger));
        }
    }
    let (mut rig, mut ledger) = kept.expect("last set-up kept");
    // Recovery reopens the log as set-up left it: the rule base and its
    // priority orders, whatever the measured phase appends after.
    let dir = ctx.base.join("dense-recovery");
    let setup_wal = rig::wal_len(&rig, TENANT);
    if let Err(error) = rig::wal_prefix(
        &segment_dir(ctx.base.join("dense"), TENANT),
        setup_wal,
        &dir,
    ) {
        report
            .errors
            .push(format!("copying the set-up log: {error}"));
    }
    let mut recovery_s = Vec::new();
    // The first reopening's export, compared with the live one at the end.
    let mut recovered = None;
    let mut events = rig.subscribe();
    let mut walk = Walker::new(spec, ctx.seed, 2);

    let mut round = 0u64;
    let mut readings = 0u64;
    let mut admit_us = Vec::new();
    let mut step_us = Vec::new();
    let mut untraced_actuation = Vec::new();
    let mut waves = Window::open();
    let mut last_round: Vec<Vec<u8>> = Vec::new();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut traced = !ctx.trace;
    if ctx.trace {
        layers::set_tracing(false);
    }
    let mut phase_budget = if ctx.trace { budget / 2 } else { budget };
    let mut phase_started = Instant::now();
    let mut paused = Duration::ZERO;
    let mut sent = [Instant::now()];
    // A wrong output already fails the run; stop measuring at the first.
    while report.errors.is_empty() {
        if phase_started.elapsed() >= phase_budget {
            if traced {
                break;
            }
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
        let moved = walk.wave(spec);
        let body: Vec<String> = moved
            .iter()
            .map(|(s, v)| spec.reading_json(*s, *v, at))
            .collect();
        let post = rig::readings_request(TENANT, &body);
        let step = rig::step_request(at);
        let at_text = at.to_string();
        for firing in ledger.model.step(round, walk.seen.view()) {
            events.expect(frame(&at_text, TENANT, &firing, &devices), 0);
        }
        sent[0] = Instant::now();
        let reply = rig.wire.send(&post);
        admit_us.push(micros(sent[0].elapsed()));
        if report.check_status("readings", &reply, &[202]) {
            readings += moved.len() as u64;
        }
        let stepped = Instant::now();
        let reply = rig.wire.send(&step);
        step_us.push(micros(stepped.elapsed()));
        report.check_status("step", &reply, &[200]);
        events.collect(&sent, &mut report.errors);
        if ctx.trace {
            last_round = vec![post, step];
        }
        // The reopenings are spread over the run, outside the time the
        // load is measured over, so they sample the whole run.
        let slot = phase_budget.mul_f64((recovery_s.len() + 1) as f64 / (RECOVERIES + 1) as f64);
        if recovery_s.len() < RECOVERIES && phase_started.elapsed() >= slot {
            let started = Instant::now();
            let (elapsed, export) = rig::reopen(spec, &dir);
            recovery_s.push(elapsed.as_secs_f64());
            if export.as_ref().map(|e| rig::export_rows(e)) != Ok(Ok(ledger.rows.clone())) {
                report
                    .errors
                    .push("recovered rules differ from the ledger".into());
            }
            if recovered.is_none() {
                recovered = Some(export);
            }
            paused += started.elapsed();
        }
    }
    let measured = phase_started.elapsed() - paused;
    waves.close();
    events.drain(&mut report.errors);
    report.notes.push(format!(
        "dense_home: {} rules, {} priority orders, {} sensors, {APPLIANCES} appliances, {round} waves, {} actuations checked",
        ledger.rows.len(),
        ledger.model.orders.len(),
        spec.sensors.len(),
        events.matched
    ));
    let actuation = std::mem::take(&mut events.latencies_us);

    let calls = ctx.trace.then(|| {
        layers::registry_metrics(&mut report, &registration, &waves);
        fleet_calls(
            &mut report,
            &rig,
            &layout,
            &mut ledger.model,
            &mut walk,
            &mut round,
            &last_round,
        )
    });

    let reply = rig.wire.send(&request_bytes(
        "GET",
        &format!("/tenants/{TENANT}/rules"),
        "",
    ));
    let live = if report.check_status("export", &reply, &[200]) {
        reply.expect("checked").text()
    } else {
        String::new()
    };
    if rig::export_rows(&live).as_ref() != Ok(&ledger.rows) {
        report
            .errors
            .push("live rules differ from the ledger".into());
    }
    drop(events);
    rig.shutdown(minute(round + 1), &mut report);
    match &recovered {
        None => report
            .errors
            .push("the run ended before recovery was timed".into()),
        Some(export) if export.as_ref() != Ok(&live) => report
            .errors
            .push("recovered rules differ from live".into()),
        Some(_) => {}
    }

    if let Some(calls) = calls {
        direct::store_calls(
            &mut report,
            std::slice::from_ref(&dir),
            &ctx.base.join("scratch-store"),
        );
        let mut step = Timer::default();
        let mut sync = Timer::default();
        let mut replica = Replica::open(spec, &dir);
        let mut replica_walk = Walker::new(spec, ctx.seed, 3);
        for r in 0..DIRECT_ROUNDS {
            let moved = replica_walk.wave(spec);
            replica.wave(spec, &moved, minute(round + 2 + r), &mut step, &mut sync);
        }
        report.metric("server.step_ns", step.mean_ns(), "ns");
        report.metric("store.sync_ns", sync.mean_ns(), "ns");
        attribution(
            &mut report,
            &calls,
            (&admit_us, &step_us, &actuation, &untraced_actuation),
        );
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
        report.metric("recovery_s", median(&recovery_s), "s");
    }
    report.notes.push(format!(
        "samples: {} actuations, {} admissions, {} submissions, {} set-ups, {} recoveries",
        actuation.len(),
        admit_us.len(),
        submit_us.len(),
        setup_s.len(),
        recovery_s.len()
    ));
    report
}

struct FleetCalls {
    parse_us: f64,
    offer_us: f64,
    offers_per_wave: f64,
    wave_us: f64,
    tenant_step_us: f64,
}

/// `Fleet::offer_at` and `Fleet::step_ready` called directly for further
/// waves, each checked against the model.
#[allow(clippy::too_many_arguments)]
fn fleet_calls(
    report: &mut RunReport,
    rig: &Rig,
    layout: &Layout,
    model: &mut Model,
    walk: &mut Walker,
    round: &mut u64,
    last_round: &[Vec<u8>],
) -> FleetCalls {
    let spec = &layout.spec;
    let devices: Vec<String> = spec.appliances.iter().map(|a| a.udn.clone()).collect();
    let parse = direct::parse_requests(report, last_round);
    report.metric("api.parse_ns", parse.mean_ns(), "ns");
    report.metric("api.requests", 2.0, "count");
    let mut offer = Timer::default();
    let mut wave = Timer::default();
    let mut stepped = 0usize;
    let mut window = Window::open();
    for _ in 0..DIRECT_ROUNDS {
        *round += 1;
        let at = minute(*round);
        let moved = walk.wave(spec);
        let outcome = rig.server.with_fleet(|fleet| {
            for (sensor, value) in &moved {
                let ingress = direct::ingress(spec, *sensor, *value, at);
                offer
                    .time(|| fleet.offer_at(0, ingress))
                    .expect("direct offer admitted");
            }
            wave.time(|| fleet.step_ready(at))
        });
        stepped += outcome.stepped();
        let want = model.step(*round, walk.seen.view());
        match outcome.outcomes.first() {
            Some(tenant) => direct::check_wave(report, tenant, &want, &devices),
            None => report.errors.push("direct wave stepped nothing".into()),
        }
    }
    window.close();
    report.metric("fleet.offer_ns", offer.mean_ns(), "ns");
    report.metric(
        "fleet.coalesced",
        layers::ratio(window.counter("fleet_coalesced_total"), offer.calls as f64),
        "ratio",
    );
    report.metric("fleet.wave_ns", wave.mean_ns(), "ns");
    report.metric(
        "fleet.tenants_per_wave",
        stepped as f64 / DIRECT_ROUNDS as f64,
        "count",
    );
    FleetCalls {
        parse_us: parse.mean_ns() / 1e3,
        offer_us: offer.mean_ns() / 1e3,
        offers_per_wave: offer.calls as f64 / DIRECT_ROUNDS as f64,
        wave_us: wave.mean_ns() / 1e3,
        tenant_step_us: window.mean("fleet_step_ns") / 1e3,
    }
}

/// Attributes the traced actuation median: the readings POST, the step
/// POST (one wave of the one tenant), then the frame.
fn attribution(
    report: &mut RunReport,
    calls: &FleetCalls,
    (admit_us, step_us, actuation, untraced): (&[f64], &[f64], &[f64], &[f64]),
) {
    let offers_us = calls.offers_per_wave * calls.offer_us;
    let sync_us = report.metrics["store.sync_ns"].0 / 1e3;
    let engine_us = report.metrics["engine.step_ns"].0 / 1e3;
    let upnp_us = report.metrics["upnp.invokes"].0 * report.metrics["upnp.invoke_ns"].0 / 1e3;
    let shares = vec![
        Share {
            layer: "api.parse",
            us: 2.0 * calls.parse_us,
            how: "2 requests x WireReader::read_request".into(),
        },
        Share {
            layer: "api+wire",
            us: median(admit_us) + median(step_us)
                - offers_us
                - calls.wave_us
                - 2.0 * calls.parse_us,
            how: "post + step round trips, minus the fleet calls and parsing".into(),
        },
        Share {
            layer: "fleet.offer",
            us: offers_us,
            how: format!("{:.0} x Fleet::offer_at", calls.offers_per_wave),
        },
        Share {
            layer: "fleet.wave",
            us: calls.wave_us - calls.tenant_step_us - sync_us,
            how: "Fleet::step_ready minus the tenant step and sync".into(),
        },
        Share {
            layer: "server.step",
            us: calls.tenant_step_us - engine_us,
            how: "tenant step (reading delivery, checkpoint) minus the engine".into(),
        },
        Share {
            layer: "engine.step",
            us: engine_us - upnp_us,
            how: "engine_step_duration_ns minus UPnP invokes".into(),
        },
        Share {
            layer: "upnp.invoke",
            us: upnp_us,
            how: "invokes per step x upnp_invoke_duration_ns".into(),
        },
        Share {
            layer: "store.sync",
            us: sync_us,
            how: "HomeServer::sync".into(),
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
