//! One shard: a hardened VM serving request batches.

use std::sync::Arc;

use haft_apps::{patch_requests, Op};
use haft_ir::module::Module;
use haft_trace::TraceBuf;
use haft_vm::{Decoded, FaultPlan, RunResult, RunSpec, Vm, VmConfig};

/// Runs request batches against an already-hardened shard module.
///
/// The runner owns one patchable copy of the module and shares one
/// decoded image of it ([`Vm::decode`]), built when the runner is
/// created: a batch rewrites only the request globals' init bytes, which
/// leaves the global layout — and so the image — valid, so every batch
/// runs on the same image instead of decoding the module again.
///
/// Shards model independent cores, but the discrete-event simulation is
/// sequential, so a single runner serves every shard there: batches
/// never overlap in host time, only in *simulated* time. The native
/// runtime gives each shard actor its own runner over one shared image
/// ([`BatchRunner::with_image`]).
pub struct BatchRunner<'a> {
    module: Module,
    image: Arc<Decoded>,
    spec: RunSpec<'a>,
    vm: VmConfig,
}

impl<'a> BatchRunner<'a> {
    /// Takes one clone of the hardened module (hardening happened once,
    /// upstream, in the `Experiment` cache), pins the VM to a single
    /// simulated thread — a shard is one core — and decodes the module.
    pub fn new(hardened: &Module, spec: RunSpec<'a>, vm: VmConfig) -> Self {
        let image = Arc::new(Vm::decode(hardened, &vm.cost));
        Self::with_image(hardened, image, spec, vm)
    }

    /// [`BatchRunner::new`] over an image of `hardened` decoded earlier
    /// under `vm.cost`, so several runners share one decode.
    ///
    /// # Panics
    ///
    /// Panics if `hardened` is not a `kv_shard`-shaped module. A batch
    /// panics if `image` was decoded from a module with another global
    /// layout or under another cost table.
    pub fn with_image(
        hardened: &Module,
        image: Arc<Decoded>,
        spec: RunSpec<'a>,
        mut vm: VmConfig,
    ) -> Self {
        for g in ["reqs", "n_reqs", "replies"] {
            assert!(
                hardened.global_by_name(g).is_some(),
                "{}: not a shard-servable module (missing `{g}` global); \
                 build the experiment over haft_apps::kv_shard",
                hardened.name
            );
        }
        vm.n_threads = 1;
        vm.fault = None;
        // Shard modules are tens of KiB of globals; the default 16 MiB
        // arena would spend more time zeroing memory than interpreting.
        // Size the arena to the module plus heap slack instead.
        let needed: u64 = hardened.globals.iter().map(|g| g.size + 64).sum::<u64>() + (1 << 16);
        vm.mem_bytes = vm.mem_bytes.min(needed.next_power_of_two().max(1 << 17));
        BatchRunner { module: hardened.clone(), image, spec, vm }
    }

    /// Serves one batch, optionally with a single-event upset injected
    /// into this batch's execution.
    pub fn run_batch(&mut self, ops: &[Op], fault: Option<FaultPlan>) -> RunResult {
        patch_requests(&mut self.module, ops);
        let mut vm = self.vm.clone();
        vm.fault = fault;
        Vm::run_decoded(&self.module, &self.image, vm, self.spec)
    }

    /// [`Self::run_batch`] with VM/HTM trace events appended to `buf`
    /// (timestamped in raw virtual cycles; the caller rescales them onto
    /// its own timeline). The returned result is bit-identical to what
    /// `run_batch` would produce.
    pub fn run_batch_traced(
        &mut self,
        ops: &[Op],
        fault: Option<FaultPlan>,
        buf: &mut TraceBuf,
    ) -> RunResult {
        patch_requests(&mut self.module, ops);
        let mut vm = self.vm.clone();
        vm.fault = fault;
        Vm::run_decoded_traced(&self.module, &self.image, vm, self.spec, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft_apps::{golden_reply, kv_shard, KvSync, WorkloadMix, YcsbGen, SHARD_CAPACITY};
    use haft_passes::{HardenConfig, PassManager};
    use haft_vm::{Engine, RunOutcome};

    /// One runner per backend and engine serves consecutive batches, clean
    /// and faulted, on its one decoded image; every batch's result equals
    /// a plain `Vm::run` of a freshly patched module copy.
    #[test]
    fn runner_serves_consecutive_batches() {
        let w = kv_shard(KvSync::Atomics);
        let backends = [
            HardenConfig::native(),
            HardenConfig::haft(),
            HardenConfig::tmr(),
            HardenConfig::abft(),
        ];
        for hc in &backends {
            let (module, _) = PassManager::from_config(hc).run_on(&w.module);
            for engine in [Engine::Interp, Engine::Fused] {
                let vm = VmConfig { engine, ..VmConfig::default() };
                let mut runner = BatchRunner::new(&module, w.run_spec(), vm);
                let shard_vm = runner.vm.clone();
                let mut gen = YcsbGen::new(1, 1000);
                for n in [1usize, 7, SHARD_CAPACITY] {
                    let ops = gen.generate(WorkloadMix::B, n);
                    let fresh = |fault| {
                        let mut m = module.clone();
                        patch_requests(&mut m, &ops);
                        Vm::run(&m, VmConfig { fault, ..shard_vm.clone() }, w.run_spec())
                    };
                    let case = format!("{} {engine:?} batch of {n}", hc.label());
                    let r = runner.run_batch(&ops, None);
                    assert_eq!(r, fresh(None), "{case}");
                    assert_eq!(r.outcome, RunOutcome::Completed, "{case}");
                    assert_eq!(
                        r.output,
                        ops.iter().map(|&o| golden_reply(o)).collect::<Vec<_>>(),
                        "{case}"
                    );
                    assert!(r.phases.service_cycles() > 0, "{case}");
                    let plan = FaultPlan { occurrence: r.register_writes / 2, xor_mask: 0x41 };
                    assert_eq!(runner.run_batch(&ops, Some(plan)), fresh(Some(plan)), "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a shard-servable module")]
    fn non_shard_module_is_rejected() {
        let m = Module::new("empty");
        BatchRunner::new(&m, RunSpec::default(), VmConfig::default());
    }
}
