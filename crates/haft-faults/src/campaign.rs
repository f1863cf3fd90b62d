//! Campaign driver: plan, fork, inject, classify — in parallel.

use std::sync::{mpsc, Arc, Mutex};

use haft_ir::module::Module;
use haft_ir::rng::Prng;
use haft_vm::{Decoded, FaultPlan, Fork, GoldenRun, RunOutcome, RunSpec, Vm, VmConfig};

use crate::classify::classify;
use crate::report::CampaignReport;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of injection runs (the paper uses 2,500 per program; the
    /// in-repo default campaigns are smaller, see the bench harness).
    pub injections: u64,
    /// Seed for fault planning.
    pub seed: u64,
    /// Worker threads that run the injections; the fork driver runs on
    /// the calling thread beside them. A value of `0` is clamped to `1`
    /// by [`run_campaign`] rather than treated as an error.
    pub parallelism: usize,
    /// VM configuration for every run (simulated thread count, HTM
    /// parameters, ...). The fault plan and forensics fields are
    /// overwritten per run.
    pub vm: VmConfig,
    /// Enable per-run fault forensics (taint tracking on fault runs) and
    /// aggregate the records into [`CampaignReport::forensics`]. Off by
    /// default: tracking makes injection runs slower, and outcome counts
    /// are identical either way.
    pub forensics: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 200,
            seed: 0xFA_17,
            parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            vm: VmConfig { n_threads: 2, ..Default::default() },
            forensics: false,
        }
    }
}

/// Runs a full campaign against `module` and returns the aggregated
/// report. The module is decoded once; the reference run and every
/// injection run share the image.
///
/// # Panics
///
/// Panics if the fault-free reference run does not complete — the program
/// under test must be correct before injecting faults into it.
pub fn run_campaign(module: &Module, spec: RunSpec<'_>, cfg: &CampaignConfig) -> CampaignReport {
    let image = Vm::decode(module, &cfg.vm.cost);
    let ref_cfg = VmConfig { fault: None, ..cfg.vm.clone() };
    let golden = Vm::run_golden(module, &image, ref_cfg, spec);
    run_campaign_from(module, &image, spec, cfg, &golden)
}

/// Like [`run_campaign`], but reuses an image and a `golden` reference
/// run (from [`Vm::run_golden`] with `cfg.vm` and no fault) the caller
/// already has. Used by the `haft` facade's `Experiment`, which needs
/// the reference [`haft_vm::RunResult`] for its own report anyway.
///
/// Every injection is forked from a fault-free driver run at the last
/// scheduler window before its fault (see [`Vm::run_forks`]), so no run
/// replays the fault-free prefix. Workers take the forks from a queue
/// that holds at most `parallelism` of them, so at most the driver plus
/// `2 × parallelism` copies of the run state are live at once.
///
/// # Panics
///
/// Panics if `golden` is not a completed run.
pub fn run_campaign_from(
    module: &Module,
    image: &Decoded,
    spec: RunSpec<'_>,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
) -> CampaignReport {
    let reference = &golden.result;
    assert_eq!(reference.outcome, RunOutcome::Completed, "reference run must complete cleanly");
    let population = reference.register_writes.max(1);

    // Step 2: plan the injections (uniform over the dynamic trace, random
    // XOR masks — the paper's weighted-random selection), in trace order
    // for the fork driver.
    let mut plans = plan_injections(cfg.seed, cfg.injections, population);
    plans.sort_by_key(|p| p.occurrence);

    // Step 3: the driver forks, the workers run and classify.
    // `parallelism: 0` clamps to one worker; the report is the same at
    // any worker count, since every count it keeps is a sum.
    let workers = cfg.parallelism.max(1);
    let fork_cfg = VmConfig { forensics: cfg.forensics, ..cfg.vm.clone() };
    std::thread::scope(|scope| {
        let (queue, forks) = mpsc::sync_channel::<Fork<'_>>(workers - 1);
        // Owned by the workers alone: once the last one exits, a send
        // fails instead of blocking the driver for good.
        let forks = Arc::new(Mutex::new(forks));
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let forks = Arc::clone(&forks);
                scope.spawn(move || {
                    let mut local = CampaignReport::default();
                    loop {
                        let next = forks.lock().expect("fork queue").recv();
                        let Ok(fork) = next else { break };
                        let r = fork.run();
                        let o = classify(&r, &reference.output);
                        local.record(o);
                        if let Some(fx) = &r.forensics {
                            local.record_forensics(o, fx);
                        }
                    }
                    local
                })
            })
            .collect();
        drop(forks);
        Vm::run_forks(module, image, fork_cfg, spec, golden, &plans, |fork| {
            queue.send(fork).expect("every campaign worker panicked");
        });
        drop(queue);
        let mut report = CampaignReport::default();
        for h in handles {
            report.merge(&h.join().expect("campaign worker panicked"));
        }
        report
    })
}

/// Draws the injection plans: occurrences uniform over the dynamic
/// register-write trace, XOR masks rejection-sampled until the low byte is
/// nonzero. Truncation to any destination width (i8 and up) then still
/// leaves at least one flipped bit, which keeps the forced-bit-0 fallback
/// in [`FaultPlan::effective_mask`] a defensive path instead of skewing
/// narrow-type flip distributions toward bit 0. Expected rejections: 1 in
/// 256 draws, so planning stays effectively O(n) and deterministic in
/// `seed`.
fn plan_injections(seed: u64, n: u64, population: u64) -> Vec<FaultPlan> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Outcome;
    use haft_ir::builder::FunctionBuilder;
    use haft_ir::inst::Operand;
    use haft_ir::module::GlobalId;
    use haft_ir::types::Ty;
    use haft_passes::{HardenConfig, PassManager};

    fn harden(m: &Module, cfg: &HardenConfig) -> Module {
        PassManager::from_config(cfg).run_on(m).0
    }

    /// A small single-threaded reduction program with some dead state
    /// (the scratch global never reaches the output, so faults landing in
    /// that flow are masked — the Table 1 "Masked" class).
    fn program() -> Module {
        let mut m = Module::new("t");
        m.add_global("acc", 8);
        m.add_global("scratch", 8);
        let g = Operand::GlobalAddr(GlobalId(0));
        let dead = Operand::GlobalAddr(GlobalId(1));
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        fb.counted_loop(fb.iconst(Ty::I64, 0), fb.iconst(Ty::I64, 120), |b, i| {
            let cur = b.load(Ty::I64, g);
            let x = b.mul(Ty::I64, i, b.iconst(Ty::I64, 7));
            let nxt = b.add(Ty::I64, cur, x);
            b.store(Ty::I64, nxt, g);
            // Dead flow: computed, stored, never read back into output.
            let d = b.load(Ty::I64, dead);
            let d2 = b.bin(haft_ir::inst::BinOp::Xor, Ty::I64, d, x);
            let d3 = b.mul(Ty::I64, d2, b.iconst(Ty::I64, 13));
            b.store(Ty::I64, d3, dead);
        });
        let v = fb.load(Ty::I64, g);
        fb.emit_out(Ty::I64, v);
        fb.ret(None);
        m.push_func(fb.finish());
        m
    }

    fn spec() -> RunSpec<'static> {
        RunSpec { fini: Some("fini"), ..Default::default() }
    }

    /// Three phases on two threads: `init` fills a table, each worker
    /// adds its half into a lock-protected sum, `fini` emits the sum. Its
    /// faults land in every phase and on both threads.
    fn phased_program() -> Module {
        let mut m = Module::new("phased");
        m.add_global("table", 8 * 32);
        m.add_global("sum", 8);
        m.add_global("lock", 8);
        let table = Operand::GlobalAddr(GlobalId(0));
        let sum = Operand::GlobalAddr(GlobalId(1));
        let lock = Operand::GlobalAddr(GlobalId(2));

        let mut init = FunctionBuilder::new("init", &[], None);
        init.set_non_local();
        init.counted_loop(init.iconst(Ty::I64, 0), init.iconst(Ty::I64, 32), |b, i| {
            let v = b.mul(Ty::I64, i, b.iconst(Ty::I64, 3));
            let a = b.gep(table, i, 8, 0);
            b.store(Ty::I64, v, a);
        });
        init.ret(None);
        m.push_func(init.finish());

        let mut w = FunctionBuilder::new("worker", &[Ty::I64, Ty::I64], None);
        w.set_non_local();
        let start = w.mul(Ty::I64, w.param(0), w.iconst(Ty::I64, 16));
        let end = w.add(Ty::I64, start, w.iconst(Ty::I64, 16));
        w.counted_loop(start, end, |b, i| {
            let a = b.gep(table, i, 8, 0);
            let v = b.load(Ty::I64, a);
            b.lock(lock);
            let cur = b.load(Ty::I64, sum);
            let next = b.add(Ty::I64, cur, v);
            b.store(Ty::I64, next, sum);
            b.unlock(lock);
        });
        w.ret(None);
        m.push_func(w.finish());

        let mut fini = FunctionBuilder::new("fini", &[], None);
        fini.set_non_local();
        let v = fini.load(Ty::I64, sum);
        fini.emit_out(Ty::I64, v);
        fini.ret(None);
        m.push_func(fini.finish());
        m
    }

    /// The campaign before forking: every plan runs from instruction 0
    /// on the shared image and is classified and recorded in plan order.
    fn from_scratch_campaign(
        m: &Module,
        spec: RunSpec<'_>,
        cfg: &CampaignConfig,
    ) -> CampaignReport {
        let image = Vm::decode(m, &cfg.vm.cost);
        let golden = Vm::run_decoded(m, &image, VmConfig { fault: None, ..cfg.vm.clone() }, spec);
        let mut report = CampaignReport::default();
        for plan in plan_injections(cfg.seed, cfg.injections, golden.register_writes.max(1)) {
            let c = VmConfig { fault: Some(plan), forensics: cfg.forensics, ..cfg.vm.clone() };
            let r = Vm::run_decoded(m, &image, c, spec);
            let o = classify(&r, &golden.output);
            report.record(o);
            if let Some(fx) = &r.forensics {
                report.record_forensics(o, fx);
            }
        }
        report
    }

    #[test]
    fn forked_campaign_equals_from_scratch_runs() {
        let phased = RunSpec { init: Some("init"), worker: Some("worker"), fini: Some("fini") };
        let programs = [(program(), spec(), 1), (phased_program(), phased, 2)];
        let backends = [
            HardenConfig::native(),
            HardenConfig::ilr_only(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for (m, spec, n_threads) in &programs {
            for hc in &backends {
                let hardened = harden(m, hc);
                for (injections, forensics) in [(30, false), (30, true), (0, false), (0, true)] {
                    let mut cfg = campaign(injections);
                    cfg.vm.n_threads = *n_threads;
                    // Both goldens take a few thousand instructions; a
                    // tight budget keeps the hangs cheap.
                    cfg.vm.max_instructions = 100_000;
                    cfg.forensics = forensics;
                    let want = from_scratch_campaign(&hardened, *spec, &cfg);
                    assert_eq!(want.runs, injections);
                    for parallelism in 0..=3 {
                        let got = run_campaign(
                            &hardened,
                            *spec,
                            &CampaignConfig { parallelism, ..cfg.clone() },
                        );
                        let at = format!(
                            "{} {} forensics={forensics} parallelism={parallelism}",
                            m.name,
                            hc.label()
                        );
                        assert_eq!(got.runs, want.runs, "{at}");
                        assert_eq!(got.counts, want.counts, "{at}");
                        assert_eq!(got.forensics, want.forensics, "{at}");
                    }
                }
            }
        }
    }

    fn campaign(n: u64) -> CampaignConfig {
        CampaignConfig {
            injections: n,
            seed: 42,
            parallelism: 2,
            vm: VmConfig { n_threads: 1, max_instructions: 5_000_000, ..Default::default() },
            forensics: false,
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let m = program();
        let a = run_campaign(&m, spec(), &campaign(60));
        let b = run_campaign(&m, spec(), &campaign(60));
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.runs, 60);
    }

    #[test]
    fn zero_parallelism_is_clamped_to_serial() {
        // Regression: `parallelism: 0` must behave exactly like serial
        // execution — same run count, same outcome histogram — instead of
        // dividing by zero or dropping the plans.
        let m = program();
        let mut zero = campaign(40);
        zero.parallelism = 0;
        let a = run_campaign(&m, spec(), &zero);
        let b = run_campaign(&m, spec(), &campaign(40));
        assert_eq!(a.runs, 40);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn native_program_shows_sdc_and_masking() {
        let m = program();
        let r = run_campaign(&m, spec(), &campaign(150));
        assert!(r.pct(Outcome::Sdc) > 5.0, "native must corrupt: {}", r.summary());
        assert!(r.pct(Outcome::Masked) > 2.0, "some faults mask: {}", r.summary());
        assert_eq!(r.pct(Outcome::HaftCorrected), 0.0, "no recovery without HAFT");
        assert_eq!(r.pct(Outcome::IlrDetected), 0.0, "no detection without ILR");
    }

    #[test]
    fn ilr_converts_sdc_to_detection() {
        let m = program();
        let native = run_campaign(&m, spec(), &campaign(150));
        let hardened = harden(&m, &HardenConfig::ilr_only());
        let r = run_campaign(&hardened, spec(), &campaign(150));
        assert!(
            r.pct(Outcome::Sdc) < native.pct(Outcome::Sdc) / 2.0,
            "ILR {} vs native {}",
            r.summary(),
            native.summary()
        );
        assert!(r.pct(Outcome::IlrDetected) > 10.0, "{}", r.summary());
    }

    #[test]
    fn haft_recovers_detected_faults() {
        let m = program();
        let hardened = harden(&m, &HardenConfig::haft());
        let r = run_campaign(&hardened, spec(), &campaign(150));
        assert!(r.pct(Outcome::HaftCorrected) > 10.0, "{}", r.summary());
        assert!(
            r.pct(Outcome::IlrDetected) < 20.0,
            "most detections should recover: {}",
            r.summary()
        );
        assert!(r.pct(Outcome::Sdc) < 5.0, "{}", r.summary());
    }

    #[test]
    fn tmr_masks_faults_without_rollback() {
        // The masking backend: a campaign against a TMR-hardened program
        // reports corrected-by-masking outcomes, with zero transactions
        // and therefore zero rollback recoveries.
        let m = program();
        let hardened = harden(&m, &HardenConfig::tmr());
        let r = run_campaign(&hardened, spec(), &campaign(150));
        assert!(r.pct(Outcome::VoteCorrected) > 10.0, "{}", r.summary());
        assert_eq!(r.pct(Outcome::HaftCorrected), 0.0, "no rollback machinery in TMR");
        assert!(r.pct(Outcome::Sdc) < 5.0, "{}", r.summary());
    }

    #[test]
    fn sampled_masks_survive_narrow_truncation() {
        // Regression for the bit-0 skew: every planned mask must keep at
        // least one bit after truncation to any destination width, so the
        // forced-single-bit fallback in `effective_mask` never fires for
        // campaign-planned faults.
        let plans = plan_injections(42, 500, 1000);
        assert_eq!(plans.len(), 500);
        for p in &plans {
            assert_ne!(p.xor_mask & 0xff, 0);
            for ty in [Ty::I8, Ty::I16, Ty::I32, Ty::I64] {
                assert_eq!(
                    p.effective_mask(ty),
                    p.xor_mask & ty.mask(),
                    "fallback fired for {ty:?} on mask {:#x}",
                    p.xor_mask
                );
            }
        }
    }

    #[test]
    fn forensics_records_the_actual_applied_mask() {
        // A program whose first register write is an i8 add. With a mask
        // whose low byte is empty, the i8 truncation is zero and the
        // forced-bit-0 fallback fires — forensics must record the bit
        // actually flipped, not the drawn mask.
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let a = fb.iconst(Ty::I8, 5);
        let b = fb.iconst(Ty::I8, 2);
        let x = fb.add(Ty::I8, a, b);
        fb.emit_out(Ty::I8, x);
        fb.ret(None);
        m.push_func(fb.finish());

        let run = |mask: u64| {
            let cfg = VmConfig {
                n_threads: 1,
                fault: Some(FaultPlan { occurrence: 0, xor_mask: mask }),
                forensics: true,
                ..Default::default()
            };
            Vm::run(&m, cfg, spec()).forensics.expect("fault must fire").site.applied_mask
        };
        assert_eq!(run(0xFF00), 1, "fallback path must be recorded as bit 0");
        assert_eq!(run(0x0F), 0x0F, "truncated mask applied verbatim");
    }

    #[test]
    fn forensics_campaign_aggregates_without_changing_outcomes() {
        let m = program();
        let hardened = harden(&m, &HardenConfig::haft());
        let plain = run_campaign(&hardened, spec(), &campaign(80));
        let mut cfg = campaign(80);
        cfg.forensics = true;
        let traced = run_campaign(&hardened, spec(), &cfg);
        assert_eq!(plain.counts, traced.counts, "forensics must not change outcomes");
        assert!(plain.forensics.is_none());
        let s = traced.forensics.as_ref().expect("forensics aggregate");
        assert!(s.fired > 0);
        assert_eq!(s.fired, s.sites.values().map(|v| v.injections).sum::<u64>());
        let metrics = traced.metrics();
        assert_eq!(
            metrics.get("faults.detect_latency.ilr.count").map(|v| v as u64),
            s.latency_insts.get(&haft_vm::FaultDetector::Ilr).map(|h| h.count).or(Some(0))
        );
    }

    #[test]
    #[should_panic(expected = "reference run must complete")]
    fn broken_reference_panics() {
        let mut m = Module::new("t");
        let mut fb = FunctionBuilder::new("fini", &[], None);
        fb.set_non_local();
        let l = fb.new_block();
        fb.br(l);
        fb.switch_to(l);
        fb.br(l);
        m.push_func(fb.finish());
        let mut c = campaign(1);
        c.vm.max_instructions = 1000;
        run_campaign(&m, spec(), &c);
    }
}
