//! `authoring_churn`: one tenant pre-populated with ~1,000 rules takes a
//! closed-loop stream of CADEL submissions over the wire (conflicting by
//! construction, same-action, inconsistent), interleaved with enable
//! toggles, removals, and reading batches plus waves.

use crate::common::{median, micros, peak_rss_mb, request_bytes, tail_note, Rng, RunReport};
use crate::direct::{self, Replica};
use crate::home::{room_name, ApplianceKind, HomeSpec, RuleText, SensorKind};
use crate::layers::{self, Share, Timer, Window};
use crate::model::{frame, Atom, Cond, Model, ModelRule, Sensors};
use crate::rig::{self, minute, parse_submitted, Rig, Submitted};
use crate::Ctx;
use cadel::fleet::Fleet;
use cadel::store::segment_dir;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "author";
/// Rooms whose temperature the reading batches move; each has an air
/// conditioner with one cool-with-release rule.
const PROBES: usize = 32;
/// Air conditioners the churned rules drive.
const DEVICES: usize = 40;
/// Pre-populated rules per churned device, in disjoint 2-degree bands.
const BANDS: i64 = 25;
const SETUPS: usize = 5;
/// Reopenings timed per run, at even intervals of the measured phase.
const RECOVERIES: usize = 15;
/// The churn round whose log recovery is timed on.
const MARK: u64 = 40;
/// The churn round after which the peak resident set is read. Memory
/// grows by about 60 KB a round, so a reading at the end of the run
/// would grow with how many rounds a run manages and a faster program
/// would read as larger.
const RSS_MARK: u64 = 128;
const DIRECT_ROUNDS: u64 = 48;

struct Layout {
    spec: HomeSpec,
    /// Temperature sensor of each probe room.
    probe_temp: Vec<usize>,
    /// Humidity sensor of each churned device's room (never posted, so
    /// churned rules never fire and the model leaves them out).
    humid: Vec<usize>,
}

fn layout() -> Layout {
    let mut spec = HomeSpec::default();
    let mut probe_temp = Vec::new();
    let mut humid = Vec::new();
    for p in 0..PROBES {
        let room = spec.add_room(room_name(p));
        probe_temp.push(spec.add_sensor(room, SensorKind::Temperature));
        spec.add_appliance(room, ApplianceKind::AirConditioner);
    }
    for d in 0..DEVICES {
        let room = spec.add_room(room_name(PROBES + d));
        humid.push(spec.add_sensor(room, SensorKind::Humidity));
        spec.add_appliance(room, ApplianceKind::AirConditioner);
    }
    Layout {
        spec,
        probe_temp,
        humid,
    }
}

/// A churned rule: the probe temperature of its device in `(lo, hi)` and
/// its room's humidity above `humid`, set-point `setting`.
#[derive(Clone, Debug)]
struct Churned {
    device: usize,
    lo: i64,
    hi: i64,
    humid: i64,
    setting: i64,
    enabled: bool,
}

impl Churned {
    fn text(&self, layout: &Layout) -> RuleText {
        let temp = layout.probe_temp[self.device % PROBES];
        RuleText {
            cond: Cond::all(vec![
                Atom::Gt(temp, self.lo),
                Atom::Lt(temp, self.hi),
                Atom::Gt(layout.humid[self.device], self.humid),
            ]),
            until: None,
            device: PROBES + self.device,
            setting: Some(self.setting),
        }
    }
}

/// The interval-arithmetic predictor and the ledger of live rules.
#[derive(Default)]
struct Predictor {
    live: BTreeMap<u64, Churned>,
    /// Rule sets of the priority orders registered per churned device.
    orders: Vec<(usize, BTreeSet<u64>)>,
    labels: BTreeMap<u64, String>,
}

impl Predictor {
    /// Enabled live rules on the same device with another set-point whose
    /// temperature intervals overlap (humidity lower bounds always do).
    fn conflicts(&self, rule: &Churned, except: Option<u64>) -> BTreeSet<u64> {
        self.live
            .iter()
            .filter(|(id, other)| {
                Some(**id) != except
                    && other.enabled
                    && other.device == rule.device
                    && other.setting != rule.setting
                    && rule.lo.max(other.lo) < rule.hi.min(other.hi)
            })
            .map(|(id, _)| *id)
            .collect()
    }

    fn covered(&self, device: usize, a: u64, b: u64) -> bool {
        self.orders
            .iter()
            .any(|(d, set)| *d == device && set.contains(&a) && set.contains(&b))
    }

    fn submission(&self, rule: &Churned) -> Prediction {
        if rule.lo >= rule.hi {
            Prediction::Inconsistent
        } else {
            Prediction::Conflicts(self.conflicts(rule, None))
        }
    }

    fn reenable(&self, id: u64) -> BTreeSet<u64> {
        let rule = &self.live[&id];
        self.conflicts(rule, Some(id))
            .into_iter()
            .filter(|other| !self.covered(rule.device, id, *other))
            .collect()
    }

    fn rows(&self, probes: &[(u64, String)]) -> Vec<(u64, String, bool)> {
        let mut rows: Vec<(u64, String, bool)> = self
            .live
            .iter()
            .map(|(id, r)| (*id, self.labels[id].clone(), r.enabled))
            .chain(probes.iter().map(|(id, label)| (*id, label.clone(), true)))
            .collect();
        rows.sort();
        rows
    }
}

#[derive(Debug, PartialEq)]
enum Prediction {
    Inconsistent,
    /// Registered when empty, else a `409` naming exactly these rules.
    Conflicts(BTreeSet<u64>),
}

/// The probe rules: cool with an `until` release on each probe room.
fn probe_rules(layout: &Layout) -> Vec<RuleText> {
    layout
        .probe_temp
        .iter()
        .enumerate()
        .map(|(p, &temp)| RuleText {
            cond: Cond::all(vec![Atom::Gt(temp, 26)]),
            until: Some(Cond::all(vec![Atom::Lt(temp, 24)])),
            device: p,
            setting: None,
        })
        .collect()
}

fn initial_rules(rng: &mut Rng) -> Vec<Churned> {
    let mut out = Vec::new();
    for device in 0..DEVICES {
        for band in 0..BANDS {
            out.push(Churned {
                device,
                lo: 2 * band,
                hi: 2 * band + 2,
                humid: rng.range(55, 95),
                setting: rng.range(16, 32),
                enabled: true,
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

struct Running {
    rig: Rig,
    predictor: Predictor,
    probes: Vec<(u64, String)>,
    model: Model,
}

/// Fleet, tenant, bind, the probe rules and the initial rule base, all
/// over the wire.
fn set_up(
    ctx: &Ctx,
    layout: &Layout,
    initial: &[Churned],
    report: &mut RunReport,
) -> (Running, f64) {
    let root = ctx.base.join("authoring");
    rig::clear(&root);
    let spec = Arc::new(layout.spec.clone());
    let probe_texts = probe_rules(layout);
    let probe_requests: Vec<Vec<u8>> = probe_texts
        .iter()
        .map(|r| rig::submit_request(TENANT, &layout.spec.sentence(r)))
        .collect();
    let initial_requests: Vec<Vec<u8>> = initial
        .iter()
        .map(|r| rig::submit_request(TENANT, &layout.spec.sentence(&r.text(layout))))
        .collect();
    let started = Instant::now();
    let mut fleet = Fleet::new(&root, rig::fleet_config());
    fleet
        .add_tenant_arc(TENANT, spec.builder())
        .expect("fresh tenant builds");
    let mut rig = Rig::bind(fleet);
    let mut model = Model::default();
    let mut probes = Vec::new();
    for (text, request) in probe_texts.iter().zip(&probe_requests) {
        let reply = rig.wire.send(request);
        if !report.check_status("probe rule", &reply, &[201]) {
            continue;
        }
        match parse_submitted(&reply.expect("checked")) {
            Ok(Submitted::Registered(id)) => {
                model.add_rule(
                    id,
                    ModelRule {
                        device: text.device,
                        cond: text.cond.clone(),
                        until: text.until.clone(),
                        enabled: true,
                    },
                );
                probes.push((id, layout.spec.sentence(text)));
            }
            other => report.errors.push(format!("probe rule: {other:?}")),
        }
    }
    let mut predictor = Predictor::default();
    for (rule, request) in initial.iter().zip(&initial_requests) {
        let reply = rig.wire.send(request);
        if !report.check_status("initial rule", &reply, &[201]) {
            continue;
        }
        match parse_submitted(&reply.expect("checked")) {
            Ok(Submitted::Registered(id)) => {
                predictor.live.insert(id, rule.clone());
                predictor
                    .labels
                    .insert(id, layout.spec.sentence(&rule.text(layout)));
            }
            other => report.errors.push(format!("initial rule: {other:?}")),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    (
        Running {
            rig,
            predictor,
            probes,
            model,
        },
        elapsed,
    )
}

/// Picks a live rule uniformly.
fn pick(rng: &mut Rng, live: &BTreeMap<u64, Churned>) -> u64 {
    let n = rng.index(live.len());
    *live.keys().nth(n).expect("index in range")
}

pub fn run(ctx: &Ctx) -> RunReport {
    let mut report = RunReport::default();
    let layout = layout();
    let spec = &layout.spec;
    let devices: Vec<String> = spec.appliances.iter().map(|a| a.udn.clone()).collect();
    let initial = initial_rules(&mut Rng::new(ctx.seed, 1));
    layers::set_tracing(ctx.trace);

    let mut setup_s = Vec::new();
    let mut kept = None;
    for attempt in 0..SETUPS {
        let (running, elapsed) = set_up(ctx, &layout, &initial, &mut report);
        setup_s.push(elapsed);
        if attempt + 1 < SETUPS {
            running.rig.shutdown(minute(0), &mut report);
        } else {
            kept = Some(running);
        }
    }
    let Running {
        mut rig,
        mut predictor,
        probes,
        mut model,
    } = kept.expect("last set-up kept");
    let mut events = rig.subscribe();
    let segment = segment_dir(ctx.base.join("authoring"), TENANT);
    let dir = ctx.base.join("authoring-recovery");
    let mut mark_rows = Vec::new();
    let mut recovery_s = Vec::new();
    let mut rss_mb = None;
    let mut paused = Duration::ZERO;
    let mut rng = Rng::new(ctx.seed, 2);
    let mut values = spec.initial_values();
    let mut seen = Sensors::new(spec.initial_values());

    let mut round = 0u64;
    let mut readings = 0u64;
    let mut submit_us = Vec::new();
    let mut admit_us = Vec::new();
    let mut step_us = Vec::new();
    let mut outcomes = [0u64; 3];
    let mut untraced_submit = Vec::new();
    let mut window = Window::open();
    let mut last_round: Vec<Vec<u8>> = Vec::new();
    let mut last_sentences: Vec<String> = Vec::new();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut traced = !ctx.trace;
    if ctx.trace {
        layers::set_tracing(false);
    }
    let mut phase_budget = if ctx.trace { budget / 2 } else { budget };
    let mut phase_started = Instant::now();
    let mut sent = [Instant::now()];
    // A wrong output already fails the run; stop measuring at the first.
    while report.errors.is_empty() {
        if phase_started.elapsed() >= phase_budget {
            if traced {
                break;
            }
            traced = true;
            events.latencies_us.clear();
            untraced_submit = std::mem::take(&mut submit_us);
            admit_us.clear();
            step_us.clear();
            layers::set_tracing(true);
            window = Window::open();
            paused = Duration::ZERO;
            phase_started = Instant::now();
            phase_budget = budget - budget / 2;
        }
        round += 1;
        let mut requests = Vec::new();
        last_sentences.clear();

        // Three submissions: overlapping with a random set-point (mostly
        // conflicting), same set-point as a live rule, and inconsistent.
        let device = rng.index(DEVICES);
        let lo = rng.range(0, 47);
        let overlapping = Churned {
            device,
            lo,
            hi: lo + rng.range(1, 3),
            humid: rng.range(55, 95),
            setting: rng.range(16, 32),
            enabled: true,
        };
        let twin = {
            let base = &predictor.live[&pick(&mut rng, &predictor.live)];
            Churned {
                humid: rng.range(55, 95),
                enabled: true,
                ..base.clone()
            }
        };
        let hi = rng.range(1, 49);
        let inconsistent = Churned {
            device: rng.index(DEVICES),
            lo: hi + rng.range(0, 1),
            hi,
            humid: rng.range(55, 95),
            setting: rng.range(16, 32),
            enabled: true,
        };
        for rule in [overlapping, twin, inconsistent] {
            let sentence = spec.sentence(&rule.text(&layout));
            let request = rig::submit_request(TENANT, &sentence);
            let predicted = predictor.submission(&rule);
            let started = Instant::now();
            let reply = rig.wire.send(&request);
            submit_us.push(micros(started.elapsed()));
            requests.push(request);
            last_sentences.push(sentence.clone());
            if !report.check_status("submit", &reply, &[200, 201, 409]) {
                continue;
            }
            let got = parse_submitted(&reply.expect("checked"));
            let id = match (&predicted, got) {
                (Prediction::Inconsistent, Ok(Submitted::Inconsistent)) => {
                    outcomes[2] += 1;
                    continue;
                }
                (Prediction::Conflicts(want), Ok(Submitted::Registered(id))) if want.is_empty() => {
                    outcomes[0] += 1;
                    id
                }
                (Prediction::Conflicts(want), Ok(Submitted::Conflict { ticket, with }))
                    if *want == with && !with.is_empty() =>
                {
                    outcomes[1] += 1;
                    settle(
                        &rig,
                        &mut rng,
                        &mut predictor,
                        rule.device,
                        ticket,
                        &with,
                        &mut report,
                    );
                    ticket
                }
                (want, got) => {
                    report.errors.push(format!(
                        "submission {sentence:?}: predicted {want:?}, got {got:?}"
                    ));
                    continue;
                }
            };
            predictor.live.insert(id, rule);
            predictor.labels.insert(id, sentence);
        }

        // One enable toggle.
        let id = pick(&mut rng, &predictor.live);
        let enable = !predictor.live[&id].enabled;
        let request = request_bytes(
            "POST",
            &format!("/tenants/{TENANT}/rules/{id}/enabled"),
            &format!("{{\"enabled\":{enable}}}"),
        );
        let want = if enable {
            predictor.reenable(id)
        } else {
            BTreeSet::new()
        };
        let reply = rig.wire.send(&request);
        requests.push(request);
        if report.check_status("toggle", &reply, &[200, 409]) {
            let reply = reply.expect("checked");
            match (reply.status, parse_submitted(&reply)) {
                (200, _) if want.is_empty() => {}
                (409, Ok(Submitted::Conflict { ticket, with })) if ticket == id && with == want => {
                    let device = predictor.live[&id].device;
                    settle(&rig, &mut rng, &mut predictor, device, ticket, &with, &mut report);
                }
                (status, got) => report.errors.push(format!(
                    "toggle rule {id} to {enable}: predicted conflicts {want:?}, got {status} {got:?}"
                )),
            }
            if let Some(rule) = predictor.live.get_mut(&id) {
                rule.enabled = enable;
            }
        }

        // Two removals keep the rule base near its initial size.
        for _ in 0..2 {
            let id = pick(&mut rng, &predictor.live);
            let request =
                request_bytes("POST", &format!("/tenants/{TENANT}/rules/{id}/remove"), "");
            let reply = rig.wire.send(&request);
            requests.push(request);
            if report.check_status("remove", &reply, &[200]) {
                predictor.live.remove(&id);
                predictor.labels.remove(&id);
            }
        }

        // One reading batch over the probe rooms, then a wave.
        let at = minute(round);
        let body: Vec<String> = probe_wave(&mut rng, &layout, &mut values, &mut seen)
            .iter()
            .map(|(s, v)| spec.reading_json(*s, *v, at))
            .collect();
        let post = rig::readings_request(TENANT, &body);
        let step = rig::step_request(at);
        let at_text = at.to_string();
        for firing in model.step(round, seen.view()) {
            events.expect(frame(&at_text, TENANT, &firing, &devices), 0);
        }
        sent[0] = Instant::now();
        let reply = rig.wire.send(&post);
        admit_us.push(micros(sent[0].elapsed()));
        if report.check_status("readings", &reply, &[202]) {
            readings += PROBES as u64;
        }
        let stepped = Instant::now();
        let reply = rig.wire.send(&step);
        step_us.push(micros(stepped.elapsed()));
        report.check_status("step", &reply, &[200]);
        events.collect(&sent, &mut report.errors);
        requests.push(post);
        requests.push(step);
        if ctx.trace {
            last_round = requests;
        }
        // Recovery is timed on the log as it stood after `MARK` rounds of
        // churn, so its length does not depend on how many rounds a run
        // manages. The reopenings are spread over the run, outside the
        // time the load is measured over, so they sample the whole run.
        let started = Instant::now();
        if round == RSS_MARK {
            rss_mb = Some(peak_rss_mb());
        }
        if round == MARK {
            let len = rig::wal_len(&rig, TENANT);
            if let Err(error) = rig::wal_prefix(&segment, len, &dir) {
                report.errors.push(format!("copying the log: {error}"));
            }
            mark_rows = predictor.rows(&probes);
        }
        let slot = phase_budget.mul_f64((recovery_s.len() + 1) as f64 / (RECOVERIES + 1) as f64);
        if round >= MARK && phase_started.elapsed() >= slot {
            let (elapsed, export) = rig::reopen(spec, &dir);
            recovery_s.push(elapsed.as_secs_f64());
            if export.map(|e| rig::export_rows(&e)) != Ok(Ok(mark_rows.clone())) {
                report.errors.push(format!(
                    "rules recovered from round {MARK} differ from the ledger"
                ));
            }
        }
        paused += started.elapsed();
    }
    let measured = phase_started.elapsed() - paused;
    if recovery_s.is_empty() {
        report.errors.push(format!(
            "the run ended before recovery was timed (round {MARK} and later)"
        ));
    }
    window.close();
    events.drain(&mut report.errors);
    report.notes.push(format!(
        "authoring_churn: {round} rounds, {} live rules at the end, submissions registered/conflicting/inconsistent {}/{}/{}, {} actuations checked",
        predictor.live.len() + probes.len(),
        outcomes[0],
        outcomes[1],
        outcomes[2],
        events.matched
    ));
    let actuation = std::mem::take(&mut events.latencies_us);

    if ctx.trace {
        layers::registry_metrics(&mut report, &window, &window);
        let parse = direct::parse_requests(&mut report, &last_round);
        report.metric("api.parse_ns", parse.mean_ns(), "ns");
        report.metric("api.requests", 8.0, "count");
        fleet_calls(
            &mut report,
            &rig,
            &layout,
            &mut model,
            (&mut values, &mut seen),
            &mut rng,
            &mut round,
        );
        lang_calls(&mut report, &rig, &last_sentences);
    }

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
    if rig::export_rows(&live) != Ok(predictor.rows(&probes)) {
        report
            .errors
            .push("live rules differ from the ledger".into());
    }
    drop(events);
    rig.shutdown(minute(round + 1), &mut report);
    let (_, export) = rig::reopen(spec, &segment);
    if export.as_ref() != Ok(&live) {
        report
            .errors
            .push("recovered rules differ from live".into());
    }

    if ctx.trace {
        direct::store_calls(
            &mut report,
            std::slice::from_ref(&dir),
            &ctx.base.join("scratch-store"),
        );
        let mut step = Timer::default();
        let mut sync = Timer::default();
        let mut replica = Replica::open(spec, &dir);
        let mut replica_values = spec.initial_values();
        let mut replica_seen = Sensors::new(spec.initial_values());
        for r in 0..DIRECT_ROUNDS {
            let moved = probe_wave(&mut rng, &layout, &mut replica_values, &mut replica_seen);
            replica.wave(spec, &moved, minute(round + 2 + r), &mut step, &mut sync);
        }
        report.metric("server.step_ns", step.mean_ns(), "ns");
        report.metric("store.sync_ns", sync.mean_ns(), "ns");
        attribution(&mut report, &submit_us, &untraced_submit);
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
        match rss_mb {
            Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
            None => report.errors.push(format!(
                "the run ended before the resident set was read (round {RSS_MARK})"
            )),
        }
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

/// One reading batch: every probe room's temperature takes a step.
fn probe_wave(
    rng: &mut Rng,
    layout: &Layout,
    values: &mut [i64],
    seen: &mut Sensors,
) -> Vec<(usize, i64)> {
    layout
        .probe_temp
        .iter()
        .map(|&s| {
            values[s] = (values[s] + rng.range(-3, 3)).clamp(20, 30);
            seen.deliver(s, values[s]);
            (s, values[s])
        })
        .collect()
}

/// Answers a `409` with a seeded ranking of the ticket and the rules it
/// conflicts with, and records the order for later coverage checks.
fn settle(
    rig: &Rig,
    rng: &mut Rng,
    predictor: &mut Predictor,
    device: usize,
    ticket: u64,
    with: &BTreeSet<u64>,
    report: &mut RunReport,
) {
    let mut ranking: Vec<u64> = std::iter::once(ticket)
        .chain(with.iter().copied())
        .collect();
    rng.shuffle(&mut ranking);
    report.attempted += 1;
    if let Err(error) = rig::confirm(rig, TENANT, ticket, &ranking, None) {
        report.failed += 1;
        report.errors.push(format!("confirm {ticket}: {error}"));
    }
    predictor
        .orders
        .push((device, ranking.into_iter().collect()));
}

/// `Fleet::offer_at` and `Fleet::step_ready` called directly for further
/// waves of probe readings, checked against the model.
fn fleet_calls(
    report: &mut RunReport,
    rig: &Rig,
    layout: &Layout,
    model: &mut Model,
    (values, seen): (&mut [i64], &mut Sensors),
    rng: &mut Rng,
    round: &mut u64,
) {
    let spec = &layout.spec;
    let devices: Vec<String> = spec.appliances.iter().map(|a| a.udn.clone()).collect();
    let mut offer = Timer::default();
    let mut wave = Timer::default();
    let mut stepped = 0usize;
    let mut window = Window::open();
    for _ in 0..DIRECT_ROUNDS {
        *round += 1;
        let at = minute(*round);
        let moved = probe_wave(rng, layout, values, seen);
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
        let want = model.step(*round, seen.view());
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
}

/// `HomeServer::submit` and `ConflictGraph::analyze` are inside the
/// wire's rule route; the registry's histograms time them there. This
/// times the front end directly: `parse_command` and
/// `Compiler::compile_rule` over the last round's sentences.
fn lang_calls(report: &mut RunReport, rig: &Rig, sentences: &[String]) {
    use cadel::lang::ast::Command;
    use cadel::lang::{parse_command, Compiler, Lexicon};
    use cadel::server::RegistryResolver;
    use cadel::types::PersonId;
    let mut parse = Timer::default();
    let mut compile = Timer::default();
    rig.server.with_fleet(|fleet| {
        let Some(server) = fleet.server_of(TENANT) else {
            return;
        };
        let user = PersonId::new(crate::home::USER);
        let Ok(dictionary) = server.users().effective_dictionary(&user) else {
            return;
        };
        let lexicon = Lexicon::english();
        let registry = server.engine().control().registry().clone();
        let resolver = RegistryResolver::new(&registry, server.topology(), server.users());
        let compiler = Compiler::new(&resolver, &dictionary, user.clone());
        for _ in 0..16 {
            for sentence in sentences {
                let Ok(Command::Rule(rule)) =
                    parse.time(|| parse_command(sentence, &lexicon, &dictionary))
                else {
                    report.errors.push(format!("{sentence:?} does not parse"));
                    return;
                };
                let _ = compile.time(|| compiler.compile_rule(&rule));
            }
        }
    });
    report.metric("lang.parse_ns", parse.mean_ns(), "ns");
    report.metric("lang.compile_ns", compile.mean_ns(), "ns");
}

/// Attributes the traced median submission round trip to the layers the
/// registry times inside `HomeServer::submit`; the remainder is the
/// loopback, the JSON body, routing and the reply.
fn attribution(report: &mut RunReport, submit_us: &[f64], untraced: &[f64]) {
    let m = |name: &str| report.metrics[name].0 / 1e3;
    let submit = m("server.submit_ns");
    let parse = m("lang.parse_ns");
    let compile = m("lang.compile_ns");
    let lower = m("rule.lower_ns");
    let analyze = m("conflict.analyze_ns");
    let append = m("store.append_ns");
    let shares = vec![
        Share {
            layer: "api.parse",
            us: m("api.parse_ns"),
            how: "WireReader::read_request".into(),
        },
        Share {
            layer: "lang.parse",
            us: parse,
            how: "parse_command".into(),
        },
        Share {
            layer: "lang.compile",
            us: compile,
            how: "Compiler::compile_rule".into(),
        },
        Share {
            layer: "rule.lower",
            us: lower,
            how: "rule -> IR program".into(),
        },
        Share {
            layer: "conflict",
            us: analyze,
            how: "ConflictGraph::analyze (Simplex inside)".into(),
        },
        Share {
            layer: "store.append",
            us: append,
            how: "Store::append of one record".into(),
        },
        Share {
            layer: "server",
            us: submit - parse - compile - lower - analyze - append,
            how: "HomeServer::submit minus the layers above".into(),
        },
    ];
    layers::attribute(
        report,
        "rule_submit_p50_us",
        median(submit_us),
        shares,
        median(untraced),
    );
}
