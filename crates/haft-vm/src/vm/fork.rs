//! Golden-prefix forking: fault runs that resume from a fault-free run
//! instead of replaying its prefix.
//!
//! A fault planned at register-write occurrence `k` changes nothing
//! before the `k`-th register write, so its run equals the fault-free
//! run up to there. [`Vm::run_golden`] records the register-write count
//! at the top of every scheduler window, the point where the whole run
//! state is the [`Vm`] plus its cursor. [`Vm::run_forks`] then drives a
//! second fault-free run, pauses it at the last window that starts at
//! or before each plan's `k`, and clones the state there with the plan
//! armed. Running that [`Fork`] gives the `RunResult` a full run with
//! the same fault gives, bit for bit, instruction budget and forensics
//! included.

use haft_ir::module::Module;

use super::forensics::ForensicsState;
use super::{Decoded, RunResult, RunSpec, Vm, VmConfig};
use crate::fault::FaultPlan;

/// A fault-free reference run plus the fork points recorded along it.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    /// The run's result, identical to [`Vm::run_decoded`]'s.
    pub result: RunResult,
    /// `occ` at the top of every scheduler window, in window order.
    window_occ: Vec<u64>,
}

/// A fault run paused at a window of the fault-free prefix, its plan
/// armed; [`Fork::run`] finishes it. Holds one copy of the run state.
pub struct Fork<'m> {
    vm: Vm<'m>,
    image: &'m Decoded,
    spec: RunSpec<'m>,
}

impl Fork<'_> {
    /// Resumes the run to its end. The result equals
    /// [`Vm::run_decoded`] with the plan armed from the start.
    pub fn run(mut self) -> RunResult {
        let outcome =
            self.vm.run_phases(self.spec, self.vm.dispatch(self.image)).expect("forks never pause");
        self.vm.finish(outcome)
    }
}

impl<'m> Vm<'m> {
    /// [`Vm::run_decoded`] that also records the fork points
    /// [`Vm::run_forks`] resumes from: one register-write count per
    /// scheduler window. `result` is identical to `run_decoded`'s.
    pub fn run_golden(
        module: &'m Module,
        image: &Decoded,
        cfg: VmConfig,
        spec: RunSpec<'_>,
    ) -> GoldenRun {
        let mut vm = Vm::on_image(module, image, cfg);
        vm.window_occ = Some(Vec::new());
        let outcome = vm.run_phases(spec, vm.dispatch(image)).expect("only a fork driver pauses");
        let window_occ = vm.window_occ.take().unwrap_or_default();
        GoldenRun { result: vm.finish(outcome), window_occ }
    }

    /// Streams one fault run per plan to `emit`, in plan order, each
    /// forked from a fault-free driver run instead of started from
    /// instruction 0. `cfg` and `spec` must be the ones `golden` ran
    /// under (its `fault` is ignored; `forensics` applies to the forks).
    /// Only the driver and the forks `emit` still holds are live.
    ///
    /// # Panics
    ///
    /// Panics if `plans` are not sorted by occurrence, if `image` does
    /// not fit (see [`Vm::run_decoded`]), or if the driver does not
    /// retrace `golden`'s windows.
    pub fn run_forks(
        module: &'m Module,
        image: &'m Decoded,
        cfg: VmConfig,
        spec: RunSpec<'m>,
        golden: &GoldenRun,
        plans: &[FaultPlan],
        mut emit: impl FnMut(Fork<'m>),
    ) {
        assert!(
            plans.windows(2).all(|p| p[0].occurrence <= p[1].occurrence),
            "fault plans must be sorted by occurrence"
        );
        let forensics = cfg.forensics;
        let mut driver =
            Vm::on_image(module, image, VmConfig { fault: None, forensics: false, ..cfg });
        let dc = driver.dispatch(image);
        for plan in plans {
            // The last window that starts at or before the fault. Only a
            // run that never scheduled has none: its forks start afresh.
            let windows = golden.window_occ.partition_point(|&occ| occ <= plan.occurrence);
            if let Some(w) = windows.checked_sub(1) {
                driver.pause_at = Some(w as u64);
                let paused = driver.run_phases(spec, dc).is_none();
                assert!(
                    paused && driver.occ == golden.window_occ[w],
                    "the fork driver left the golden run's windows (another config or spec?)"
                );
            }
            emit(Fork { vm: driver.fork(*plan, forensics), image, spec });
        }
    }

    /// A copy of this paused run with `plan` armed. Scratch buffers and
    /// instrumentation start empty; forensics starts fresh, which is the
    /// state a full run carries here, since taint is only seeded when
    /// the fault fires.
    fn fork(&self, plan: FaultPlan, forensics: bool) -> Vm<'m> {
        Vm {
            m: self.m,
            cfg: VmConfig { fault: Some(plan), forensics, ..self.cfg.clone() },
            mem: self.mem.clone(),
            htm: self.htm.clone(),
            threads: self.threads.clone(),
            rng: self.rng.clone(),
            lock_release_clock: self.lock_release_clock.clone(),
            occ: self.occ,
            instructions: self.instructions,
            detections: self.detections,
            recoveries: self.recoveries,
            corrected_by_vote: self.corrected_by_vote,
            corrected_by_checksum: self.corrected_by_checksum,
            mispredicts: self.mispredicts,
            fault: Some(plan),
            wall_cycles: self.wall_cycles,
            cpu_cycles: self.cpu_cycles,
            phases: self.phases,
            fused_retired: self.fused_retired,
            pool: Vec::new(),
            phi_scratch: Vec::new(),
            arg_scratch: Vec::new(),
            trace: None,
            profiler: None,
            forensics: forensics.then(|| Box::new(ForensicsState::new(self.threads.len()))),
            cursor: self.cursor,
            window_occ: None,
            pause_at: None,
        }
    }
}
