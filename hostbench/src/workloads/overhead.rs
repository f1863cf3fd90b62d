//! `overhead`: the Fig. 6 shape.
//!
//! Eight kernels at `Scale::Large` with four simulated threads under
//! `eval::perf_vm`, each run native and under ILR, TX, HAFT and TMR — the
//! runs `Experiment::compare` makes, on experiments hardened once in
//! set-up. These are long runs, so per-run set-up is negligible and the
//! steady dispatch loop dominates; it is also the only workload with
//! Large HTM footprints (HAFT aborts about a quarter of its transactions
//! on swaptions).

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use haft::eval::{perf_vm, recommended_threshold, standard_variants};
use haft::ir::module::Module;
use haft::vm::VmConfig;
use haft::workloads::{workload_by_name, Scale, Workload};
use haft::{Experiment, ExperimentReport};

use super::{
    decode_span, harden, run_args, seeds, timed, traced, traced_run, untraced_run, vm_values, Args,
    Ledger, Round, Run,
};
use crate::stats::{derive, geomean, Digest};
use crate::tracer::Tracer;

pub const KERNELS: [&str; 8] = [
    "linearreg",
    "kmeans",
    "matrixmul",
    "vips",
    "blackscholes",
    "swaptions",
    "wordcount",
    "canneal",
];
/// Simulated threads.
pub const THREADS: usize = 4;

pub fn describe() -> String {
    format!(
        "kernels={} scale=large variants=native,ILR,TX,HAFT,TMR sim_threads={THREADS} \
         vm=eval::perf_vm(threshold=eval::recommended_threshold)",
        KERNELS.join(",")
    )
}

fn vm_for(name: &str, seed: u64) -> VmConfig {
    VmConfig { seed: derive(seed, seeds::VM), ..perf_vm(THREADS, recommended_threshold(name)) }
}

/// One kernel's variant grid, run the way `Experiment::compare` runs it:
/// every variant's overhead is its wall cycles over the native run's.
/// Also returns each variant run's host seconds.
fn compare(cells: &[Experiment]) -> (ExperimentReport, Vec<f64>) {
    let mut secs = Vec::new();
    let mut variants: Vec<_> = cells
        .iter()
        .map(|e| {
            let t = Instant::now();
            let v = e.run();
            secs.push(t.elapsed().as_secs_f64());
            v
        })
        .collect();
    let native = variants[0].run.wall_cycles.max(1) as f64;
    for v in &mut variants {
        v.overhead_vs_native = Some(v.run.wall_cycles as f64 / native);
    }
    (ExperimentReport { variants }, secs)
}

fn load() -> Vec<Workload> {
    KERNELS.iter().map(|n| workload_by_name(n, Scale::Large).expect("registered kernel")).collect()
}

/// What a set-up builds: each kernel's variant grid and its hardened
/// modules.
struct Grid<'k> {
    grid: Vec<Vec<Experiment<'k>>>,
    modules: Vec<Vec<Module>>,
    insts_added: i64,
}

/// Builds and hardens every kernel's variant grid (hardening spanned on
/// `t`) and warms up by decoding every hardened module once (arena
/// set-up plus decode, without running it).
fn set_up<'k>(kernels: &'k [Workload], seed: u64, t: &mut Tracer) -> Grid<'k> {
    let grid: Vec<Vec<Experiment>> = kernels
        .iter()
        .map(|w| {
            standard_variants()
                .map(|(_, hc)| Experiment::workload(w).harden(hc).vm(vm_for(w.name, seed)))
                .to_vec()
        })
        .collect();
    let mut insts_added = 0;
    let modules: Vec<Vec<Module>> = grid
        .iter()
        .enumerate()
        .map(|(k, cells)| cells.iter().map(|e| harden(t, k as u64, e, &mut insts_added)).collect())
        .collect();
    for (k, ms) in modules.iter().enumerate() {
        for m in ms {
            std::hint::black_box(haft::vm::Vm::fusion_metrics(m, &vm_for(KERNELS[k], seed)));
        }
    }
    Grid { grid, modules, insts_added }
}

pub fn run(a: &Args) -> Run {
    let counter = AtomicU64::new(0);
    let epoch = Instant::now();
    let mut ledger = Ledger::default();
    let t0 = Instant::now();
    let kernels = load();
    let mut setup = Tracer::new(a.trace, epoch, &counter);
    let Grid { grid, modules, insts_added } = set_up(&kernels, a.seed, &mut setup);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let again = |_: &mut Ledger| {
        let t0 = Instant::now();
        let kernels = load();
        let _grid = set_up(&kernels, a.seed, &mut Tracer::new(false, epoch, &counter));
        t0.elapsed().as_secs_f64()
    };

    let round = |ledger: &mut Ledger| -> Round {
        let mut digest = Digest::default();
        let mut overheads = Vec::new();
        let mut insts = 0u64;
        let mut htm = [0u64; 4];
        let mut units = Vec::new();
        for (k, cells) in grid.iter().enumerate() {
            let report = ledger.op("variant outputs agree with native", || {
                let (r, secs) = compare(cells);
                if r.outputs_agree() {
                    Ok((r, secs))
                } else {
                    Err(format!("{}:\n{}", KERNELS[k], r.summary()))
                }
            });
            let Some((report, secs)) = report else {
                units.extend(vec![0.0; cells.len()]);
                continue;
            };
            units.extend(secs);
            for v in &report.variants {
                let r = &v.run;
                digest.words([r.wall_cycles, r.cpu_cycles, r.instructions]);
                digest.words([r.register_writes, r.mispredicts]);
                let h = [r.htm.started, r.htm.commits, r.htm.total_aborts(), r.htm.fallbacks];
                digest.words(h);
                digest.words(r.output.iter().copied());
                insts += r.instructions;
                for (acc, x) in htm.iter_mut().zip(h) {
                    *acc += x;
                }
            }
            overheads.extend(report.overhead("HAFT"));
        }
        let mut model = BTreeMap::new();
        model.insert("model.sim_overhead_x".into(), geomean(&overheads));
        model.insert("model.sim_minst".into(), insts as f64 / 1e6);
        for (name, n) in ["started", "commits", "aborts", "fallbacks"].iter().zip(htm) {
            model.insert(format!("model.htm.{name}"), n as f64);
        }
        Round { units, digest, model }
    };

    let model = vec![
        format!("vm.runs={}", KERNELS.len() * standard_variants().len()),
        format!("passes.insts_added={insts_added}"),
    ];
    if !a.trace {
        let timed = timed(a.seconds, &mut ledger, &mut setup_s, again, round);
        let sim_overhead_x = timed.first.model["model.sim_overhead_x"];
        let work = |r: &Round| r.model["model.sim_minst"];
        return untraced_run(ledger, &setup_s, timed, work, sim_overhead_x, model);
    }

    let traced_round = |_: &mut Ledger, t: &mut Tracer| -> BTreeMap<String, f64> {
        for (k, cells) in grid.iter().enumerate() {
            let id = k as u64;
            t.span("overhead", "kernel", id, |t| {
                for (e, m) in cells.iter().zip(&modules[k]) {
                    let v = t.span("vm", "run", id, |_| e.run());
                    run_args(t, &v.run);
                    decode_span(t, id, m, &vm_for(KERNELS[k], a.seed), 1);
                }
            });
        }
        let mut v = BTreeMap::new();
        vm_values(&t.events, &mut v);
        v
    };
    let traced = traced(a.seconds, &mut ledger, epoch, &counter, round, traced_round);
    traced_run(ledger, traced, setup.events, model)
}
