//! The traced run's per-layer view: windows over the program's own
//! metrics registry, the benchmark's timers around direct calls into a
//! layer, and the attribution table.

use crate::common::RunReport;
use cadel::obs::{self, MetricsSnapshot};
use std::time::Instant;

/// Switches the program's metrics on or off (`cadel-obs` stays off in
/// the end-to-end runs).
pub fn set_tracing(on: bool) {
    if on {
        obs::enable_metrics_only();
    } else {
        obs::shutdown();
    }
}

/// The change in the metrics registry across a stretch of the run.
pub struct Window {
    before: MetricsSnapshot,
    after: Option<MetricsSnapshot>,
}

impl Window {
    pub fn open() -> Window {
        Window {
            before: obs::metrics_snapshot(),
            after: None,
        }
    }

    pub fn close(&mut self) {
        self.after = Some(obs::metrics_snapshot());
    }

    fn after(&self) -> &MetricsSnapshot {
        self.after.as_ref().expect("window closed before reading")
    }

    pub fn counter(&self, name: &str) -> f64 {
        let after = self.after().counter(name).unwrap_or(0);
        let before = self.before.counter(name).unwrap_or(0);
        after.saturating_sub(before) as f64
    }

    /// `(samples, total)` recorded into a histogram within the window.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let read = |snap: &MetricsSnapshot| {
            snap.histogram(name)
                .map(|h| (h.count, h.sum))
                .unwrap_or((0, 0))
        };
        let (c1, s1) = read(self.after());
        let (c0, s0) = read(&self.before);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    /// Mean of a histogram's samples within the window, zero when empty.
    pub fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        if count == 0.0 {
            0.0
        } else {
            sum / count
        }
    }
}

/// Mean nanoseconds of timed direct calls.
#[derive(Default)]
pub struct Timer {
    pub calls: u64,
    pub total_ns: u128,
}

impl Timer {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.total_ns += started.elapsed().as_nanos();
        self.calls += 1;
        out
    }

    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("api.parse_ns", "ns"),
    ("api.request_ns", "ns"),
    ("api.requests", "count"),
    ("fleet.offer_ns", "ns"),
    ("fleet.coalesced", "ratio"),
    ("fleet.wave_ns", "ns"),
    ("fleet.tenants_per_wave", "count"),
    ("store.sync_ns", "ns"),
    ("store.append_ns", "ns"),
    ("store.bytes_appended", "bytes"),
    ("store.recover_ns", "ns"),
    ("store.records_replayed", "count"),
    ("lang.parse_ns", "ns"),
    ("lang.compile_ns", "ns"),
    ("rule.lower_ns", "ns"),
    ("conflict.analyze_ns", "ns"),
    ("conflict.pairs", "count"),
    ("conflict.pairs_pruned", "ratio"),
    ("conflict.memo_hit_ratio", "ratio"),
    ("simplex.solves", "count"),
    ("simplex.pivots", "count"),
    ("simplex.solve_ns", "ns"),
    ("server.submit_ns", "ns"),
    ("server.step_ns", "ns"),
    ("engine.step_ns", "ns"),
    ("engine.rules_evaluated", "count"),
    ("engine.eval_yield", "ratio"),
    ("engine.firings_suppressed", "count"),
    ("upnp.invokes", "count"),
    ("upnp.invoke_ns", "ns"),
    ("trace.unattributed_us", "us"),
    ("trace.overhead", "ratio"),
];

/// One line of the attribution table: a layer's self time on the
/// blocking path of the end-to-end median.
pub struct Share {
    pub layer: &'static str,
    pub us: f64,
    pub how: String,
}

/// Prints the table and records the remainder and the tracing overhead.
pub fn attribute(
    report: &mut RunReport,
    target: &str,
    target_us: f64,
    shares: Vec<Share>,
    untraced_us: f64,
) {
    report.notes.push(format!(
        "per-layer self time on the path of {target} (traced median {target_us:.1} us):"
    ));
    let mut attributed = 0.0;
    for share in &shares {
        attributed += share.us;
        report.notes.push(format!(
            "  {:<12} {:>10.1} us  {:>5.1}%  {}",
            share.layer,
            share.us,
            100.0 * ratio(share.us, target_us),
            share.how
        ));
    }
    let rest = target_us - attributed;
    report.notes.push(format!(
        "  {:<12} {:>10.1} us  {:>5.1}%  end-to-end median minus the lines above",
        "unattributed",
        rest,
        100.0 * ratio(rest, target_us)
    ));
    let overhead = ratio(target_us - untraced_us, untraced_us);
    report.notes.push(format!(
        "  tracing overhead: traced {target_us:.1} us vs untraced {untraced_us:.1} us ({:+.1}%)",
        100.0 * overhead
    ));
    report.metric("trace.unattributed_us", rest, "us");
    report.metric("trace.overhead", overhead, "ratio");
}

/// The per-layer metrics read from the program's own registry over a
/// window: registration layers (`lang`, `rule`, `conflict`, `simplex`,
/// `server.submit`, `store` appends) and wave layers (`engine`, `upnp`,
/// `api` handling, `fleet` coalescing).
pub fn registry_metrics(report: &mut RunReport, registration: &Window, waves: &Window) {
    let r = registration;
    report.metric("lang.parse_ns", r.mean("lang_parse_duration_ns"), "ns");
    report.metric("lang.compile_ns", r.mean("lang_compile_duration_ns"), "ns");
    report.metric("rule.lower_ns", r.mean("rule_lower_duration_ns"), "ns");
    report.metric(
        "conflict.analyze_ns",
        r.mean("conflict_graph_analyze_duration_ns"),
        "ns",
    );
    let analyses = r.counter("conflict_graph_analyses_total");
    report.metric(
        "conflict.pairs",
        ratio(r.counter("conflict_graph_pairs_total"), analyses),
        "count",
    );
    report.metric(
        "conflict.pairs_pruned",
        ratio(
            r.counter("conflict_graph_pairs_pruned_total"),
            r.counter("conflict_graph_pairs_total"),
        ),
        "ratio",
    );
    let hits = r.counter("conflict_memo_hits_total");
    report.metric(
        "conflict.memo_hit_ratio",
        ratio(hits, hits + r.counter("conflict_memo_misses_total")),
        "ratio",
    );
    let submits = r.counter("server_submits_total");
    report.metric(
        "simplex.solves",
        ratio(r.counter("simplex_solves_total"), submits),
        "count",
    );
    report.metric(
        "simplex.pivots",
        ratio(r.counter("simplex_pivots_total"), submits),
        "count",
    );
    report.metric(
        "simplex.solve_ns",
        r.mean("simplex_solve_duration_ns"),
        "ns",
    );
    report.metric(
        "server.submit_ns",
        r.mean("server_submit_duration_ns"),
        "ns",
    );
    report.metric(
        "store.bytes_appended",
        ratio(
            r.counter("store_wal_append_bytes_total"),
            r.counter("store_wal_appends_total"),
        ),
        "bytes",
    );

    let w = waves;
    let steps = w.counter("engine_steps_total");
    report.metric("engine.step_ns", w.mean("engine_step_duration_ns"), "ns");
    let evaluated = w.counter("engine_rules_evaluated_total");
    report.metric("engine.rules_evaluated", ratio(evaluated, steps), "count");
    let firings: f64 = ["dispatched", "suppressed", "replaced", "deferred", "failed"]
        .iter()
        .map(|outcome| w.counter(&format!("engine_firings_{outcome}_total")))
        .sum();
    report.metric("engine.eval_yield", ratio(firings, evaluated), "ratio");
    report.metric(
        "engine.firings_suppressed",
        ratio(w.counter("engine_firings_suppressed_total"), steps),
        "count",
    );
    report.metric(
        "upnp.invokes",
        ratio(w.counter("upnp_invokes_total"), steps),
        "count",
    );
    report.metric("upnp.invoke_ns", w.mean("upnp_invoke_duration_ns"), "ns");
    report.metric("api.request_ns", w.mean("api_request_ns"), "ns");
    if w.counter("api_events_dropped_total") > 0.0 {
        report.errors.push(format!(
            "api_events_dropped_total rose by {}",
            w.counter("api_events_dropped_total")
        ));
    }
    if w.counter("api_worker_panics_total") > 0.0 {
        report.errors.push("an API worker panicked".into());
    }
}
