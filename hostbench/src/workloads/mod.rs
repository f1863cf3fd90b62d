//! The four workloads and what they share: operation accounting, the
//! timed phase, the traced phase, and the per-layer metrics derived from
//! spans.

pub mod campaign;
pub mod overhead;
pub mod serving;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use haft::ir::module::Module;
use haft::trace::{EventKind, TraceEvent};
use haft::vm::{RunResult, VmConfig};
use haft::Experiment;

use crate::metrics::Metrics;
use crate::stats::{median, num_arg, summarize, Digest};
use crate::tracer::Tracer;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Tags for [`crate::stats::derive`]: every random stream a workload
/// uses is a sub-seed of the one workload seed.
pub mod seeds {
    pub const VM: u64 = 1;
    pub const TRAFFIC: u64 = 2;
    pub const FAULTS: u64 = 3;
    /// The serving replays' request streams and fault draws.
    pub const REPLAY: u64 = 4;
    /// Plus the cell index: a campaign's plan seed.
    pub const PLANS: u64 = 1_000;
}

/// Set-up repetitions of an untraced run. One set-up runs before the
/// timed phase; more run between timed rounds while their total stays
/// under `SETUP_SHARE` of the rounds' time, and at least `SETUP_MIN_REPS`
/// run in all. The host's speed shifts over seconds, so set-ups spread
/// over the whole run meet the same host as the rounds do. `setup_s` is
/// their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_SHARE: f64 = 0.1;

/// Operations attempted and failed. An operation fails when one of its
/// output checks fails or it panics; simulated SDC, traps and crashed
/// batches are model results, not failures.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Runs one checked operation.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(why)) => {
                self.fail(what, &why);
                None
            }
            Err(_) => {
                self.fail(what, "panicked");
                None
            }
        }
    }

    /// Records one check that needs no operation of its own.
    pub fn check(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what, &why());
        }
    }

    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {why}");
    }
}

/// What a workload hands back to `main`.
pub struct Run {
    pub metrics: Metrics,
    pub ledger: Ledger,
    /// `name=value` lines about the model: the digest and the counts that
    /// repeat exactly for a seed.
    pub model: Vec<String>,
    /// Spans of the first traced round (empty when untraced).
    pub events: Vec<TraceEvent>,
}

/// One round of a workload's timed work.
pub struct Round {
    /// Host seconds of each unit of the round (a campaign, a kernel's
    /// variant grid, a service run), in a fixed order.
    pub units: Vec<f64>,
    /// Hash of every simulated statistic the round produced.
    pub digest: Digest,
    /// Model values of the round: per-layer metrics the traced report
    /// carries (`faults.sdc_pct`, `serve.sim_p99_us`, ...), and `model.*`
    /// values that are only printed.
    pub model: BTreeMap<String, f64>,
}

/// Whether another round of `last` seconds still fits before `seconds`
/// have passed since `t0`; the first round always runs.
fn room_for(t0: Instant, last: Option<f64>, seconds: f64) -> bool {
    last.is_none_or(|l| t0.elapsed().as_secs_f64() + l <= seconds)
}

/// Hardens `e` inside a `passes`/`harden` span (its first
/// `Experiment::build` runs `PassManager::run_on`), records the
/// instructions the passes added on the span, and adds them to `added`.
pub fn harden(t: &mut Tracer, id: u64, e: &Experiment, added: &mut i64) -> Module {
    let (m, stats) = t.span("passes", "harden", id, |_| e.build());
    t.arg("added", stats.total_added() as f64);
    *added += stats.total_added();
    m
}

/// What the timed phase measured.
pub struct Timed {
    /// The first round, with each unit's host seconds replaced by its
    /// median across rounds.
    pub first: Round,
    pub rounds: usize,
    /// Peak resident memory after the set-up and the first round, before
    /// any repeated set-up could add to it.
    pub peak_rss_mb: f64,
}

/// The untraced run's result: the end-to-end metrics (`work` is the
/// work of one round, done in the sum of the units' median seconds), and
/// a model line led by the first round's digest.
pub fn untraced_run(
    ledger: Ledger,
    setup_s: &[f64],
    Timed { first, rounds, peak_rss_mb }: Timed,
    work: impl FnOnce(&Round) -> f64,
    sim_overhead_x: f64,
    mut model: Vec<String>,
) -> Run {
    let mut m = Metrics::end_to_end();
    m.set("setup_s", median(setup_s));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("work_per_s", work(&first) / first.units.iter().sum::<f64>());
    m.set("sim_overhead_x", sim_overhead_x);
    model.insert(0, format!("digest={}", first.digest.hex()));
    model.push(format!("rounds={rounds}"));
    model.extend(first.model.iter().map(|(k, v)| format!("{k}={v}")));
    Run { metrics: m, ledger, model, events: Vec::new() }
}

/// The traced run's result: the traced rounds' per-layer values plus
/// the set-up's `passes.*`, and the spans of both.
pub fn traced_run(
    ledger: Ledger,
    (mut values, mut events): (BTreeMap<String, f64>, Vec<TraceEvent>),
    setup: Vec<TraceEvent>,
    model: Vec<String>,
) -> Run {
    passes_values(&setup, &mut values);
    events.extend(setup);
    let mut m = Metrics::per_layer();
    for (k, v) in values {
        m.set(k, v);
    }
    Run { metrics: m, ledger, model, events }
}

/// The timed phase: repeats `round` while another round fits in
/// `seconds` (at least once), with repeated set-ups (`setup` returns the
/// seconds one took) in between. A later round whose digest differs is a failed check:
/// the workload's inputs are fixed, so the model must repeat.
pub fn timed(
    seconds: f64,
    ledger: &mut Ledger,
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut(&mut Ledger) -> f64,
    mut round: impl FnMut(&mut Ledger) -> Round,
) -> Timed {
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last = None;
    let mut rounds_s = 0.0;
    let mut peak = None;
    while room_for(t0, last, seconds) {
        let t = Instant::now();
        let r = round(ledger);
        let secs = t.elapsed().as_secs_f64();
        if let Some(first) = rounds.first() {
            ledger.check("model repeats across rounds", r.digest == first.digest, || {
                format!("digest {} then {}", first.digest.hex(), r.digest.hex())
            });
        }
        rounds.push(r);
        peak.get_or_insert_with(peak_rss_mb);
        rounds_s += secs;
        while setup_s.iter().sum::<f64>() < SETUP_SHARE * rounds_s {
            setup_s.push(setup(ledger));
        }
        last = Some(secs);
    }
    while setup_s.len() < SETUP_MIN_REPS {
        setup_s.push(setup(ledger));
    }
    let medians = (0..rounds[0].units.len())
        .map(|u| median(&rounds.iter().map(|r| r.units[u]).collect::<Vec<_>>()))
        .collect();
    let n = rounds.len();
    let first = rounds.swap_remove(0);
    Timed { first: Round { units: medians, ..first }, rounds: n, peak_rss_mb: peak.unwrap_or(0.0) }
}

/// The traced phase. One untraced round first supplies the model values
/// the per-layer report carries (`faults.sdc_pct`, `serve.sim_p99_us`).
/// Then the traced round runs in pairs, once with spans off and once
/// with spans on, while another pair fits in `seconds` (at least one
/// pair). The spans-on round yields per-layer values; `trace.overhead_x`
/// is its wall time over the spans-off round's, the same work both
/// ways, so it is the cost of the harness's own spans. The result is
/// each value's median over the pairs, and the spans of the first
/// spans-on round.
pub fn traced<'c>(
    seconds: f64,
    ledger: &mut Ledger,
    epoch: Instant,
    counter: &'c AtomicU64,
    untraced: impl FnOnce(&mut Ledger) -> Round,
    mut traced: impl FnMut(&mut Ledger, &mut Tracer<'c>) -> BTreeMap<String, f64>,
) -> (BTreeMap<String, f64>, Vec<TraceEvent>) {
    let model = untraced(ledger).model;
    let t0 = Instant::now();
    let mut rounds: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut kept = None;
    let mut last = None;
    while room_for(t0, last, seconds) {
        let pair = Instant::now();
        let t = Instant::now();
        traced(ledger, &mut Tracer::new(false, epoch, counter));
        let base = t.elapsed().as_secs_f64();
        let mut tracer = Tracer::new(true, epoch, counter);
        let t = Instant::now();
        let mut values = traced(ledger, &mut tracer);
        values.insert("trace.overhead_x".into(), t.elapsed().as_secs_f64() / base);
        for (k, v) in model.iter().filter(|(k, _)| !k.starts_with("model.")) {
            values.entry(k.clone()).or_insert(*v);
        }
        rounds.push(values);
        kept.get_or_insert(tracer.events);
        last = Some(pair.elapsed().as_secs_f64());
    }
    let medians = rounds[0]
        .keys()
        .map(|k| (k.clone(), median(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>())))
        .collect();
    (medians, kept.unwrap_or_default())
}

/// Span duration in host nanoseconds.
pub fn dur_ns(ev: &TraceEvent) -> f64 {
    match ev.kind {
        EventKind::Span { dur } => dur as f64,
        EventKind::Instant => 0.0,
    }
}

/// Spans named `cat`/`name`.
pub fn spans<'e>(
    events: &'e [TraceEvent],
    cat: &'e str,
    name: &'e str,
) -> impl Iterator<Item = &'e TraceEvent> + 'e {
    events.iter().filter(move |e| e.cat == cat && e.name == name)
}

/// Total duration of the `cat`/`name` spans, in host nanoseconds.
pub fn total_ns(events: &[TraceEvent], cat: &str, name: &str) -> f64 {
    spans(events, cat, name).map(dur_ns).sum()
}

/// Mean duration of the `cat`/`name` spans in µs; 0 when there are none.
pub fn mean_us(events: &[TraceEvent], cat: &str, name: &str) -> f64 {
    let n = spans(events, cat, name).count();
    if n == 0 {
        0.0
    } else {
        total_ns(events, cat, name) / n as f64 / 1e3
    }
}

fn arg_sum<'e>(evs: impl Iterator<Item = &'e TraceEvent>, key: &str) -> f64 {
    evs.map(|e| num_arg(e, key).unwrap_or(0.0)).sum()
}

/// The spans that wrap exactly one VM execution.
const VM_SPANS: [(&str, &str); 3] = [("vm", "run"), ("faults", "golden"), ("serve", "run_batch")];

pub fn is_vm_run(ev: &TraceEvent) -> bool {
    VM_SPANS.iter().any(|&(c, n)| ev.cat == c && ev.name == n)
}

/// Attaches a run's simulated counters to the span that just closed.
pub fn run_args(t: &mut Tracer, r: &RunResult) {
    t.arg("insts", r.instructions);
    t.arg("started", r.htm.started);
    t.arg("commits", r.htm.commits);
    t.arg("aborts", r.htm.total_aborts());
    t.arg("fallbacks", r.htm.fallbacks);
}

/// Times `Vm::fusion_metrics` — arena set-up plus decode, the only public
/// route into decode — inside a `vm`/`decode` span that records the
/// fused-group count and how many runs of this module the decode stands
/// for.
pub fn decode_span(t: &mut Tracer, id: u64, module: &Module, vm: &VmConfig, runs: usize) {
    let fuse = t.span("vm", "decode", id, |_| haft::vm::Vm::fusion_metrics(module, vm));
    t.arg("fuse", fuse.get("vm.fuse.total").unwrap_or(0.0));
    t.arg("runs", runs);
}

/// `passes.*` values from the set-up's `passes`/`harden` spans.
pub fn passes_values(events: &[TraceEvent], out: &mut BTreeMap<String, f64>) {
    let harden = || spans(events, "passes", "harden");
    out.insert("passes.harden_ms".into(), harden().map(dur_ns).sum::<f64>() / 1e6);
    out.insert("passes.insts_added".into(), arg_sum(harden(), "added"));
}

/// `vm.*` and `htm.*` values of a traced round, from its spans.
pub fn vm_values(events: &[TraceEvent], out: &mut BTreeMap<String, f64>) {
    let mut set = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    let runs: Vec<&TraceEvent> = events.iter().filter(|e| is_vm_run(e)).collect();
    let run_ns: f64 = runs.iter().map(|e| dur_ns(e)).sum();
    let s = summarize(&runs.iter().map(|e| dur_ns(e) / 1e3).collect::<Vec<_>>());
    set("vm.runs", runs.len() as f64);
    set("vm.run_us.p50", s.p50);
    set("vm.run_us.tail", s.tail);
    set("vm.run_us.tail_pct", s.tail_pct);
    let insts = arg_sum(runs.iter().copied(), "insts");
    set("vm.ns_per_inst", if insts > 0.0 { run_ns / insts } else { 0.0 });
    let decodes = || spans(events, "vm", "decode");
    set("vm.fuse.total", arg_sum(decodes(), "fuse"));
    set("vm.decode_us", mean_us(events, "vm", "decode"));
    let decode_for_runs: f64 =
        decodes().map(|e| dur_ns(e) * num_arg(e, "runs").unwrap_or(0.0)).sum();
    set("vm.decode_share", if run_ns > 0.0 { decode_for_runs / run_ns } else { 0.0 });
    let started = arg_sum(runs.iter().copied(), "started");
    let commits = arg_sum(runs.iter().copied(), "commits");
    set("htm.commits", commits);
    set("htm.aborts", arg_sum(runs.iter().copied(), "aborts"));
    set("htm.fallbacks", arg_sum(runs.iter().copied(), "fallbacks"));
    set("htm.commit_ratio", if started > 0.0 { commits / started } else { 0.0 });
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
