//! Differential harness pinning the fused engine to the reference
//! interpreter, bit for bit.
//!
//! [`Engine::Fused`] is pure mechanics — pre-decoded dispatch, fused
//! super-instructions, pooled register windows — and must never change a
//! single observable. These tests enforce that at the strongest level
//! available: **full [`RunResult`] equality** (outcome, output, wall and
//! per-phase cycles, CPU cycles, instruction and register-write counts,
//! the complete HTM statistics block, detections, recoveries,
//! `corrected_by_vote`, `corrected_by_checksum`, mispredicts) across a
//! grid of generated programs, hardening backends, transaction
//! thresholds, and fault injections. Any divergence — one cycle, one
//! abort, one vote, one checksum correction — fails. The same equality
//! pins runs on a shared decoded image ([`Vm::run_decoded`]) to runs
//! that decode for themselves, and fault runs forked from a fault-free
//! run ([`Vm::run_forks`]) to runs started from instruction 0.

use std::collections::BTreeMap;

use haft::prelude::*;
use proptest::prelude::*;

/// A tiny random program description (the same shape `properties.rs`
/// uses: enough to exercise ALU chains, memory, and branches — the op
/// mix the fuser targets).
#[derive(Clone, Debug)]
enum Step {
    Add(u8, u8),
    Mul(u8, u8),
    Xor(u8, u8),
    StoreLoad(u8),
    Branchy(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Add(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Mul(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Xor(a, b)),
        any::<u8>().prop_map(Step::StoreLoad),
        any::<u8>().prop_map(Step::Branchy),
    ]
}

/// Builds a runnable module from the step list; a rolling value window
/// keeps every generated operand defined.
fn build_program(steps: &[Step]) -> Module {
    let mut m = Module::new("diff");
    let scratch = m.add_global("scratch", 256);
    let g = Operand::GlobalAddr(scratch);
    let mut f = FunctionBuilder::new("fini", &[], None);
    f.set_non_local();
    let mut vals = vec![f.mov(Ty::I64, f.iconst(Ty::I64, 0x1234_5678))];
    let pick = |vals: &Vec<haft::ir::function::ValueId>, i: u8| vals[i as usize % vals.len()];
    for s in steps {
        let v = match s {
            Step::Add(a, b) => {
                let (x, y) = (pick(&vals, *a), pick(&vals, *b));
                f.add(Ty::I64, x, y)
            }
            Step::Mul(a, b) => {
                let (x, y) = (pick(&vals, *a), pick(&vals, *b));
                f.mul(Ty::I64, x, y)
            }
            Step::Xor(a, b) => {
                let (x, y) = (pick(&vals, *a), pick(&vals, *b));
                f.bin(BinOp::Xor, Ty::I64, x, y)
            }
            Step::StoreLoad(a) => {
                let x = pick(&vals, *a);
                let slot = f.bin(BinOp::And, Ty::I64, x, f.iconst(Ty::I64, 24));
                let addr = f.add(Ty::I64, g, slot);
                f.store(Ty::I64, x, addr);
                f.load(Ty::I64, addr)
            }
            Step::Branchy(a) => {
                let x = pick(&vals, *a);
                let c = f.cmp(CmpOp::SGt, Ty::I64, x, f.iconst(Ty::I64, 0));
                f.if_then_else(
                    Ty::I64,
                    c,
                    |b| {
                        let t = b.add(Ty::I64, x, b.iconst(Ty::I64, 1));
                        t.into()
                    },
                    |b| {
                        let t = b.bin(BinOp::Xor, Ty::I64, x, b.iconst(Ty::I64, -1));
                        t.into()
                    },
                )
            }
        };
        vals.push(v);
        if vals.len() > 8 {
            vals.remove(0);
        }
    }
    let last = *vals.last().unwrap();
    f.emit_out(Ty::I64, last);
    f.ret(None);
    m.push_func(f.finish());
    m
}

fn fini_spec() -> RunSpec<'static> {
    RunSpec { fini: Some("fini"), ..Default::default() }
}

/// The generated program behind all three phases: a serial `init` that
/// fills the scratch words, and a two-thread `worker` phase in which
/// each thread churns its own word, ahead of the generated `fini`,
/// which reads the words back through its store/load steps.
fn build_phased_program(steps: &[Step]) -> Module {
    let mut m = build_program(steps);
    let g = Operand::GlobalAddr(haft::ir::module::GlobalId(0));
    let mut init = FunctionBuilder::new("init", &[], None);
    init.set_non_local();
    init.counted_loop(init.iconst(Ty::I64, 0), init.iconst(Ty::I64, 4), |b, i| {
        let v = b.mul(Ty::I64, i, b.iconst(Ty::I64, 0x9E37));
        let a = b.gep(g, i, 8, 0);
        b.store(Ty::I64, v, a);
    });
    init.ret(None);
    m.push_func(init.finish());
    let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
    w.set_non_local();
    let a = w.gep(g, w.param(0), 8, 0);
    w.counted_loop(w.iconst(Ty::I64, 0), w.iconst(Ty::I64, 6), |b, i| {
        let v = b.load(Ty::I64, a);
        let x = b.add(Ty::I64, v, i);
        let y = b.mul(Ty::I64, x, b.iconst(Ty::I64, 3));
        b.store(Ty::I64, y, a);
    });
    w.ret(None);
    m.push_func(w.finish());
    m
}

/// Runs the experiment under both engines and returns the two results.
fn run_both(exp: &Experiment<'_>) -> (RunResult, RunResult) {
    let interp = exp.clone().engine(Engine::Interp).run().run;
    let fused = exp.clone().engine(Engine::Fused).run().run;
    (interp, fused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property: for arbitrary generated programs
    /// under every backend (native, HAFT, TMR) and across transaction
    /// thresholds, the two engines return *equal* `RunResult`s.
    #[test]
    fn engines_agree_on_generated_programs(
        steps in proptest::collection::vec(step_strategy(), 1..32),
        seed in any::<u64>(),
    ) {
        let m = build_program(&steps);
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in &configs {
            for &threshold in &[250u64, 1000, 4000] {
                let exp = Experiment::new(&m)
                    .harden(hc.clone())
                    .spec(fini_spec())
                    .tx_threshold(threshold)
                    .seed(seed);
                let (interp, fused) = run_both(&exp);
                prop_assert_eq!(
                    &interp, &fused,
                    "engines diverge: backend={} threshold={}", hc.label(), threshold
                );
            }
        }
    }

    /// Fault injections land on the same dynamic register write in both
    /// engines, so the whole faulted result — not just the outcome —
    /// must match too. Runs under both HAFT and ABFT so the checksum
    /// verify-and-correct path is differentially pinned too.
    #[test]
    fn engines_agree_under_fault_injection(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        occ_seed in any::<u64>(),
        mask in 1u64..,
    ) {
        let m = build_program(&steps);
        for hc in [HardenConfig::haft(), HardenConfig::abft()] {
            let label = hc.label();
            let exp = Experiment::new(&m).harden(hc).spec(fini_spec());
            let (clean_i, clean_f) = run_both(&exp);
            prop_assert_eq!(&clean_i, &clean_f, "{}: clean runs diverge", label);
            let occurrence = occ_seed % clean_i.register_writes.max(1);
            let plan = FaultPlan { occurrence, xor_mask: mask };
            let fi = exp.clone().engine(Engine::Interp).run_with_fault(plan).run;
            let ff = exp.clone().engine(Engine::Fused).run_with_fault(plan).run;
            prop_assert_eq!(&fi, &ff, "{}: faulted runs diverge at occurrence {}", label, occurrence);
        }
    }

    /// One decoded image per hardened module serves the whole grid —
    /// both engines, every threshold, clean and faulted — and every run
    /// on it equals a plain `Vm::run`, which decodes for itself.
    #[test]
    fn shared_image_runs_equal_fresh_decodes(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        seed in any::<u64>(),
        occ_seed in any::<u64>(),
        mask in 1u64..,
    ) {
        let m = build_program(&steps);
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in configs {
            let label = hc.label();
            let (hardened, _) = Experiment::new(&m).harden(hc).build();
            let image = Vm::decode(&hardened, &haft::vm::CostConfig::default());
            for engine in [Engine::Interp, Engine::Fused] {
                for tx_threshold in [250u64, 1000, 4000] {
                    let cfg = VmConfig { engine, tx_threshold, seed, ..VmConfig::default() };
                    let clean = Vm::run(&hardened, cfg.clone(), fini_spec());
                    let occurrence = occ_seed % clean.register_writes.max(1);
                    let fault = Some(FaultPlan { occurrence, xor_mask: mask });
                    for cfg in [cfg.clone(), VmConfig { fault, ..cfg }] {
                        prop_assert_eq!(
                            &Vm::run_decoded(&hardened, &image, cfg.clone(), fini_spec()),
                            &Vm::run(&hardened, cfg.clone(), fini_spec()),
                            "{} {:?} threshold={} fault={:?}",
                            label, engine, tx_threshold, cfg.fault
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Golden-prefix forking is exact: each fault run `Vm::run_forks`
    /// resumes from the fault-free driver equals the same fault run
    /// started from instruction 0, in the whole `RunResult`, forensics
    /// included. Over single- and three-phase programs, both engines,
    /// native/HAFT/TMR/ABFT and forensics off and on, the plans cover
    /// `k = 0`, every phase boundary, `k` past the last register write
    /// (never fires: the golden result), a repeated `k`, and random `k`;
    /// the budgets cover a roomy one, one just past the golden run
    /// (faulted runs that do extra work hang) and one the golden run
    /// itself exhausts.
    #[test]
    fn forked_fault_runs_equal_full_runs(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        seed in any::<u64>(),
        occ_seeds in proptest::collection::vec(any::<u64>(), 2..5),
        mask in 1u64..,
    ) {
        let phased = RunSpec { init: Some("init"), worker: Some("worker"), fini: Some("fini") };
        let programs =
            [(build_program(&steps), fini_spec(), 1), (build_phased_program(&steps), phased, 2)];
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for (m, spec, n_threads) in &programs {
            for hc in &configs {
                let label = hc.label();
                let (hardened, _) = Experiment::new(m).harden(hc.clone()).build();
                let image = Vm::decode(&hardened, &haft::vm::CostConfig::default());
                for engine in [Engine::Interp, Engine::Fused] {
                    let base = VmConfig { engine, seed, n_threads: *n_threads, ..VmConfig::default() };
                    let full = Vm::run_decoded(&hardened, &image, base.clone(), *spec);
                    let budgets =
                        [full.instructions * 8, full.instructions + 3, full.instructions / 2];
                    for max_instructions in budgets {
                        let cfg = VmConfig { max_instructions, ..base.clone() };
                        let golden = Vm::run_golden(&hardened, &image, cfg.clone(), *spec);
                        let writes = golden.result.register_writes;
                        // Register writes at each phase start: the runs of
                        // the spec cut short before that phase.
                        let cut = |worker, fini| RunSpec { worker, fini, ..*spec };
                        let mut occs = vec![0, writes, writes + 7];
                        for prefix in [cut(None, None), cut(spec.worker, None)] {
                            let run = Vm::run_decoded(&hardened, &image, cfg.clone(), prefix);
                            occs.push(run.register_writes);
                        }
                        occs.extend(occ_seeds.iter().map(|s| s % writes.max(1)));
                        occs.push(occ_seeds[0] % writes.max(1));
                        occs.sort_unstable();
                        let plans: Vec<FaultPlan> =
                            occs.iter().map(|&occurrence| FaultPlan { occurrence, xor_mask: mask }).collect();
                        for forensics in [false, true] {
                            let cfg = VmConfig { forensics, ..cfg.clone() };
                            let mut forked = Vec::new();
                            Vm::run_forks(&hardened, &image, cfg.clone(), *spec, &golden, &plans, |f| {
                                forked.push(f.run())
                            });
                            prop_assert_eq!(forked.len(), plans.len());
                            for (plan, got) in plans.iter().zip(&forked) {
                                let fault = Some(*plan);
                                let want = Vm::run_decoded(
                                    &hardened, &image, VmConfig { fault, ..cfg.clone() }, *spec
                                );
                                prop_assert_eq!(
                                    got, &want,
                                    "{} {} {:?} budget={} forensics={} k={}",
                                    m.name, label, engine, max_instructions, forensics,
                                    plan.occurrence
                                );
                            }
                            // Past the last register write the fault never
                            // fires: the fork is the golden run.
                            prop_assert_eq!(forked.last(), Some(&golden.result));
                        }
                        if max_instructions < full.instructions {
                            prop_assert_eq!(golden.result.outcome, RunOutcome::Hang);
                        }
                    }
                }
            }
        }
    }
}

/// The named-workload grid: real benchmark programs (parallel worker
/// phases, transactions, lock traffic) under both engines, across
/// backends and thresholds. Full `RunResult` equality, per cell.
#[test]
fn engines_agree_on_workloads() {
    for name in ["linearreg", "histogram"] {
        let w = workload_by_name(name, Scale::Small).unwrap();
        let configs = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in &configs {
            for &threshold in &[250u64, 1000] {
                let exp =
                    Experiment::workload(&w).harden(hc.clone()).threads(2).tx_threshold(threshold);
                let (interp, fused) = run_both(&exp);
                assert_eq!(
                    interp,
                    fused,
                    "engines diverge: workload={name} backend={} threshold={threshold}",
                    hc.label()
                );
            }
        }
    }
}

/// The 23-point fault sweep from `quickstart_smoke.rs`, run under both
/// engines and both recovery backends (HAFT rollback, ABFT checksum):
/// every injection point must produce the *same* result, and therefore
/// the same Table 1 outcome histogram.
#[test]
fn fault_sweep_outcome_histograms_match() {
    let w = workload_by_name("linearreg", Scale::Small).unwrap();
    for hc in [HardenConfig::haft(), HardenConfig::abft()] {
        let label = hc.label();
        let exp = Experiment::workload(&w).harden(hc).threads(2);
        let (clean_i, clean_f) = run_both(&exp);
        assert_eq!(clean_i, clean_f, "{label}: clean runs diverge");

        let mut histogram_i: BTreeMap<String, u64> = BTreeMap::new();
        let mut histogram_f: BTreeMap<String, u64> = BTreeMap::new();
        let mut corrected = 0;
        let step = (clean_i.register_writes / 23).max(1);
        for occurrence in (0..clean_i.register_writes).step_by(step as usize) {
            let plan = FaultPlan { occurrence, xor_mask: 0x40 };
            let ri = exp.clone().engine(Engine::Interp).run_with_fault(plan).run;
            let rf = exp.clone().engine(Engine::Fused).run_with_fault(plan).run;
            assert_eq!(ri, rf, "{label}: faulted runs diverge at occurrence {occurrence}");
            corrected += ri.corrected_by_checksum;
            *histogram_i.entry(format!("{:?}", ri.outcome)).or_default() += 1;
            *histogram_f.entry(format!("{:?}", rf.outcome)).or_default() += 1;
        }
        // Implied by the per-point equality above, but assert the
        // aggregate the paper actually reports: identical outcome
        // histograms.
        assert_eq!(histogram_i, histogram_f, "{label}: outcome histograms diverge");
        assert!(histogram_i.values().sum::<u64>() >= 23, "{label}: sweep must cover 23 points");
        if label == "HAFT" {
            assert_eq!(corrected, 0, "rollback backend must never fire a checksum");
        }
    }
}
