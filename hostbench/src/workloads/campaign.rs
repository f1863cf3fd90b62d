//! `campaign`: Table 1 fault-injection campaigns.
//!
//! Five kernels at `Scale::Small`, two simulated threads, each under
//! native, ILR, HAFT, TMR and ABFT through `Experiment::campaign`, with
//! forensics off. It is the only workload made of many short fault runs,
//! each of which builds a VM, decodes and replays the golden prefix, and
//! its variants between them reach every outcome path: trap, ILR
//! fail-stop, rollback, vote and checksum. canneal-native is the one
//! source of hangs, so the hang budget sets much of the cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use haft::faults::{classify, CampaignConfig, Outcome};
use haft::ir::module::Module;
use haft::ir::rng::Prng;
use haft::passes::HardenConfig;
use haft::trace::TraceEvent;
use haft::vm::{FaultPlan, RunOutcome, RunResult, RunSpec, Vm, VmConfig};
use haft::workloads::{workload_by_name, Scale, Workload};
use haft::Experiment;

use super::{
    decode_span, harden, mean_us, run_args, seeds, spans, timed, total_ns, traced, traced_run,
    untraced_run, vm_values, Args, Ledger, Round, Run,
};
use crate::stats::{derive, geomean, num_arg, str_arg, Digest};
use crate::tracer::Tracer;

pub const KERNELS: [&str; 5] = ["linearreg", "histogram", "matrixmul", "pca", "canneal"];
/// Simulated threads.
pub const THREADS: usize = 2;
/// Host threads per campaign (`CampaignConfig::parallelism`).
pub const PARALLELISM: usize = 2;
/// Injections per kernel × variant campaign, per round.
pub const INJECTIONS: u64 = 20;
/// Instruction budget past which a run is a hang. The largest golden
/// run (histogram under TMR) retires about 0.65 M instructions; a hung
/// fault run costs the whole budget, so it is kept a few times above that.
pub const HANG_BUDGET: u64 = 4_000_000;

const HAFT: usize = 2;

fn variants() -> [HardenConfig; 5] {
    [
        HardenConfig::native(),
        HardenConfig::ilr_only(),
        HardenConfig::haft(),
        HardenConfig::tmr(),
        HardenConfig::abft(),
    ]
}

pub fn describe() -> String {
    format!(
        "kernels={} scale=small variants=native,ILR,HAFT,TMR,ABFT sim_threads={THREADS} \
         parallelism={PARALLELISM} injections_per_campaign={INJECTIONS} \
         hang_budget_insts={HANG_BUDGET} forensics=off",
        KERNELS.join(",")
    )
}

/// The fault plans of a campaign, drawn as the campaign planner (private
/// to `haft-faults`) draws them: occurrences uniform over the golden
/// run's register writes, XOR masks re-drawn until their low byte is
/// non-zero. With the campaign's seed these are the injections it runs;
/// the traced round checks that by comparing outcome counts.
fn plans(seed: u64, n: u64, population: u64) -> Vec<FaultPlan> {
    let mut rng = Prng::new(seed);
    (0..n)
        .map(|_| {
            let occurrence = rng.below(population);
            let mut xor_mask = rng.next_u64();
            while xor_mask & 0xff == 0 {
                xor_mask = rng.next_u64();
            }
            FaultPlan { occurrence, xor_mask }
        })
        .collect()
}

fn completed(r: RunResult) -> Result<RunResult, String> {
    match r.outcome {
        RunOutcome::Completed => Ok(r),
        other => Err(format!("ended {other:?}")),
    }
}

/// Plan seed of cell `i`'s campaign.
fn plan_seed(seed: u64, i: usize) -> u64 {
    derive(seed, seeds::PLANS + i as u64)
}

/// Outcome counts in `Outcome::ALL` order.
fn histogram(count: impl Fn(Outcome) -> u64) -> Vec<u64> {
    Outcome::ALL.iter().map(|&o| count(o)).collect()
}

fn digest_run(d: &mut Digest, r: &RunResult) {
    d.words([r.wall_cycles, r.cpu_cycles, r.instructions, r.register_writes]);
    d.words([r.htm.started, r.htm.commits, r.htm.total_aborts(), r.htm.fallbacks]);
    d.words([r.detections, r.recoveries, r.corrected_by_vote, r.corrected_by_checksum]);
    d.words(r.output.iter().copied());
}

fn load() -> Vec<Workload> {
    KERNELS.iter().map(|n| workload_by_name(n, Scale::Small).expect("registered kernel")).collect()
}

/// What a set-up builds: every kernel × variant cell, hardened, and its
/// golden run.
struct Cells<'k> {
    cells: Vec<Experiment<'k>>,
    modules: Vec<Module>,
    goldens: Vec<Option<RunResult>>,
    insts_added: i64,
}

/// Builds and hardens every cell (hardening spanned on `t`) and warms
/// up with every cell's golden run, which must complete.
fn set_up<'k>(
    kernels: &'k [Workload],
    vm: &VmConfig,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> Cells<'k> {
    let cells: Vec<Experiment> = kernels
        .iter()
        .flat_map(|w| variants().map(|hc| Experiment::workload(w).harden(hc).vm(vm.clone())))
        .collect();
    let mut insts_added = 0;
    let modules =
        cells.iter().enumerate().map(|(i, e)| harden(t, i as u64, e, &mut insts_added)).collect();
    let goldens = cells
        .iter()
        .map(|e| ledger.op("golden run completes", || completed(e.run().run)))
        .collect();
    Cells { cells, modules, goldens, insts_added }
}

pub fn run(a: &Args) -> Run {
    let vm = VmConfig {
        n_threads: THREADS,
        max_instructions: HANG_BUDGET,
        seed: derive(a.seed, seeds::VM),
        ..VmConfig::default()
    };
    let counter = AtomicU64::new(0);
    let epoch = Instant::now();
    let mut ledger = Ledger::default();
    let t0 = Instant::now();
    let kernels = load();
    let mut setup = Tracer::new(a.trace, epoch, &counter);
    let Cells { cells, modules, goldens, insts_added } =
        set_up(&kernels, &vm, &mut setup, &mut ledger);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let again = |ledger: &mut Ledger| {
        let t0 = Instant::now();
        let kernels = load();
        let _cells = set_up(&kernels, &vm, &mut Tracer::new(false, epoch, &counter), ledger);
        t0.elapsed().as_secs_f64()
    };

    let golden = |i: usize| goldens[i].as_ref();
    let overheads: Vec<f64> = (0..KERNELS.len())
        .filter_map(|k| {
            let (n, h) = (golden(k * 5)?, golden(k * 5 + HAFT)?);
            Some(h.wall_cycles as f64 / n.wall_cycles.max(1) as f64)
        })
        .collect();
    let prefix: Vec<f64> = (0..cells.len())
        .filter_map(|i| {
            let pop = golden(i)?.register_writes.max(1);
            let ps = plans(plan_seed(a.seed, i), INJECTIONS, pop);
            Some(ps.iter().map(|p| p.occurrence as f64 / pop as f64).sum::<f64>())
        })
        .collect();
    let prefix_share = prefix.iter().sum::<f64>() / (cells.len() as u64 * INJECTIONS) as f64;
    let htm = |f: fn(&RunResult) -> u64| goldens.iter().flatten().map(f).sum::<u64>();
    // Each cell's outcome counts from the last campaign round, which
    // the traced replay must reproduce.
    let campaign_counts = RefCell::new(vec![Vec::new(); cells.len()]);

    let round = |ledger: &mut Ledger| -> Round {
        let mut digest = Digest::default();
        let mut totals = [0u64; Outcome::ALL.len()];
        let (mut haft_sdc, mut haft_runs) = (0, 0);
        let units = cells
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let cfg = CampaignConfig {
                    injections: INJECTIONS,
                    seed: plan_seed(a.seed, i),
                    parallelism: PARALLELISM,
                    vm: vm.clone(),
                    forensics: false,
                };
                let t = Instant::now();
                let v = ledger.op("campaign accounts every injection", || {
                    let v = e.campaign(cfg);
                    let c = v.campaign.as_ref().ok_or("no campaign report")?;
                    let counted: u64 = c.counts.values().sum();
                    if c.runs != INJECTIONS || counted != INJECTIONS {
                        return Err(format!("{} runs, {counted} classified", c.runs));
                    }
                    completed(v.run.clone())?;
                    Ok(v)
                });
                let secs = t.elapsed().as_secs_f64();
                if let Some(c) = v.as_ref().and_then(|v| {
                    digest_run(&mut digest, &v.run);
                    v.campaign.as_ref()
                }) {
                    let counts = histogram(|o| c.counts.get(&o).copied().unwrap_or(0));
                    digest.words(counts.iter().copied());
                    for (total, n) in totals.iter_mut().zip(&counts) {
                        *total += n;
                    }
                    campaign_counts.borrow_mut()[i] = counts;
                    if i % 5 == HAFT {
                        haft_sdc += c.counts.get(&Outcome::Sdc).copied().unwrap_or(0);
                        haft_runs += c.runs;
                    }
                }
                secs
            })
            .collect();
        let mut model = BTreeMap::new();
        model.insert("faults.sdc_pct".into(), 100.0 * haft_sdc as f64 / haft_runs.max(1) as f64);
        for (o, n) in Outcome::ALL.iter().zip(totals) {
            model.insert(format!("model.outcome.{}", o.label()), n as f64);
        }
        Round { units, digest, model }
    };

    let model = vec![
        format!("vm.runs={}", cells.len() as u64 * (INJECTIONS + 1)),
        format!("passes.insts_added={insts_added}"),
        format!("faults.prefix_share={prefix_share}"),
        format!("htm.started={}", htm(|r| r.htm.started)),
        format!("htm.commits={}", htm(|r| r.htm.commits)),
        format!("htm.aborts={}", htm(|r| r.htm.total_aborts())),
        format!("htm.fallbacks={}", htm(|r| r.htm.fallbacks)),
    ];
    if !a.trace {
        let timed = timed(a.seconds, &mut ledger, &mut setup_s, again, round);
        let injections = cells.len() as f64 * INJECTIONS as f64;
        return untraced_run(ledger, &setup_s, timed, |_| injections, geomean(&overheads), model);
    }

    let traced_round = |ledger: &mut Ledger, t: &mut Tracer| -> BTreeMap<String, f64> {
        for (i, module) in modules.iter().enumerate() {
            let id = i as u64;
            let spec = kernels[i / 5].run_spec();
            t.span("faults", "campaign", id, |t| {
                let golden = t.span("faults", "golden", id, |_| Vm::run(module, vm.clone(), spec));
                run_args(t, &golden);
                ledger.check(
                    "golden run completes",
                    golden.outcome == RunOutcome::Completed,
                    || format!("{:?}", golden.outcome),
                );
                let pop = golden.register_writes.max(1);
                let ps = plans(plan_seed(a.seed, i), INJECTIONS, pop);
                let chunk = ps.len().div_ceil(PARALLELISM);
                let workers: Vec<(Tracer, Vec<Outcome>)> = std::thread::scope(|s| {
                    let handles: Vec<_> = ps
                        .chunks(chunk)
                        .enumerate()
                        .map(|(w, piece)| {
                            let mut tw = t.fork(w as u32 + 1);
                            let (golden, vm) = (&golden, &vm);
                            s.spawn(move || {
                                let o = inject(&mut tw, id, module, spec, vm, golden, piece);
                                (tw, o)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("replay worker")).collect()
                });
                let mut outcomes = Vec::new();
                for (w, o) in workers {
                    t.join(w);
                    outcomes.extend(o);
                }
                let replayed = histogram(|o| outcomes.iter().filter(|&&x| x == o).count() as u64);
                let campaign = &campaign_counts.borrow()[i];
                ledger.check(
                    "replay reproduces the campaign's outcome counts",
                    &replayed == campaign,
                    || format!("cell {i}: replayed {replayed:?}, campaign {campaign:?}"),
                );
            });
            decode_span(t, id, module, &vm, INJECTIONS as usize + 1);
        }
        campaign_values(&t.events)
    };
    let traced = traced(a.seconds, &mut ledger, epoch, &counter, round, traced_round);
    traced_run(ledger, traced, setup.events, model)
}

/// Replays `plans` against `module` on this tracer's thread, as the
/// campaign runs them, and returns their outcomes: each injection is a
/// `faults`/`injection` span around the `vm`/`run` and `faults`/`classify`
/// spans, tagged with its outcome, run time and prefix share.
fn inject(
    t: &mut Tracer,
    id: u64,
    module: &Module,
    spec: RunSpec,
    vm: &VmConfig,
    golden: &RunResult,
    plans: &[FaultPlan],
) -> Vec<Outcome> {
    let pop = golden.register_writes.max(1);
    let mut outcomes = Vec::with_capacity(plans.len());
    for p in plans {
        let cfg = VmConfig { fault: Some(*p), ..vm.clone() };
        let (o, run_ns) = t.span("faults", "injection", id, |t| {
            let r = t.span("vm", "run", id, |_| Vm::run(module, cfg, spec));
            run_args(t, &r);
            let run_ns = t.last_ns();
            (t.span("faults", "classify", id, |_| classify(&r, &golden.output)), run_ns)
        });
        t.arg("outcome", o.label());
        t.arg("run_ns", run_ns);
        t.arg("prefix", p.occurrence as f64 / pop as f64);
        outcomes.push(o);
    }
    outcomes
}

/// `faults.*`, `vm.*` and `htm.*` values of one traced campaign round.
fn campaign_values(events: &[TraceEvent]) -> BTreeMap<String, f64> {
    let mut v = BTreeMap::new();
    vm_values(events, &mut v);
    let injections: Vec<_> = spans(events, "faults", "injection").collect();
    let run_ns = |e: &&TraceEvent| num_arg(e, "run_ns").unwrap_or(0.0);
    let all_ns: f64 = injections.iter().map(run_ns).sum();
    for o in Outcome::ALL {
        let mine: Vec<f64> = injections
            .iter()
            .filter(|e| str_arg(e, "outcome") == Some(o.label()))
            .map(run_ns)
            .collect();
        let sum: f64 = mine.iter().sum();
        let mean_ms = if mine.is_empty() { 0.0 } else { sum / mine.len() as f64 / 1e6 };
        v.insert(format!("faults.run_ms.{}", o.label()), mean_ms);
        v.insert(
            format!("faults.time_share.{}", o.label()),
            if all_ns > 0.0 { sum / all_ns } else { 0.0 },
        );
    }
    let n = injections.len().max(1) as f64;
    v.insert(
        "faults.prefix_share".into(),
        injections.iter().map(|e| num_arg(e, "prefix").unwrap_or(0.0)).sum::<f64>() / n,
    );
    let golden_ns = total_ns(events, "faults", "golden");
    let campaign_ns = total_ns(events, "faults", "campaign");
    v.insert("faults.golden_ms".into(), golden_ns / 1e6);
    v.insert("faults.campaign_ms".into(), campaign_ns / 1e6);
    v.insert(
        "faults.parallel_eff".into(),
        (golden_ns + all_ns) / (PARALLELISM as f64 * campaign_ns.max(1.0)),
    );
    v.insert("faults.classify_us".into(), mean_us(events, "faults", "classify"));
    v
}
