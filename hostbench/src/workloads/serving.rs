//! `serve_sim` and `serve_native`: the hardened `kv_shard` under YCSB
//! traffic, in the discrete-event simulation and on real threads.
//!
//! `serve_sim` runs the serving grid (`eval::serving_variants`) through
//! the DES: 4 shards, batch 8, YCSB B, open-loop Poisson at a fixed
//! simulated rate below HAFT's capacity, and a 1 % per-request fault
//! load. It exercises the DES event loop, per-batch request patching, a
//! fresh decode on every batch, per-request classification and rollback
//! recovery.
//!
//! `serve_native` serves the HAFT shard through `haft-runtime` on a
//! work-stealing pool of 2 workers: 4 shards, YCSB A (half writes),
//! fault-free, closed loop with 8 clients per shard. Open-loop arrival
//! times are virtual in native mode, so a closed loop is the honest
//! wall-clock load. It is the only workload that runs the pool.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use haft::apps::{
    golden_reply, kv_shard, patch_requests, KvSync, WorkloadMix, YcsbGen, KV_KEYSPACE,
};
use haft::eval::serving_variants;
use haft::faults::{classify_requests, RequestOutcome};
use haft::ir::module::Module;
use haft::ir::rng::Prng;
use haft::passes::HardenConfig;
use haft::runtime::{run_native_traced, NativeOpts};
use haft::serve::{
    run_service_traced, ArrivalMode, BatchRunner, FaultLoad, ServeConfig, ServeMode, ServiceReport,
};
use haft::trace::{TraceBuf, TraceEvent};
use haft::vm::{FaultPlan, RunOutcome, RunSpec, VmConfig};
use haft::workloads::Workload;
use haft::Experiment;

use super::{
    decode_span, harden, mean_us, run_args, seeds, spans, timed, total_ns, traced, traced_run,
    untraced_run, vm_values, Args, Ledger, Round, Run,
};
use crate::stats::{derive, num_arg, summarize, Digest};
use crate::tracer::Tracer;

pub const SHARDS: usize = 4;
pub const BATCH: usize = 8;
/// Offered load of `serve_sim`, simulated requests per second: about 0.6
/// of HAFT's closed-loop capacity at 4 shards (6.1 M req/s), below TMR's
/// (4.6 M req/s), so every variant's queue stays bounded.
pub const SIM_RATE_RPS: f64 = 3.5e6;
pub const SIM_REQUESTS: usize = 2_500;
pub const SIM_FAULT_RATE: f64 = 0.01;
pub const NATIVE_WORKERS: usize = 2;
pub const NATIVE_REQUESTS: usize = 6_000;
pub const NATIVE_CLIENTS_PER_SHARD: usize = 8;

const NATIVE: usize = 0;
const HAFT: usize = 1;

pub fn describe_sim() -> String {
    format!(
        "module=kv_shard(atomics) variants=native,HAFT,TMR shards={SHARDS} batch={BATCH} \
         mix=YCSB-B arrival=open-loop-poisson rate_rps={SIM_RATE_RPS} \
         requests_per_variant={SIM_REQUESTS} faults_per_request={SIM_FAULT_RATE}"
    )
}

pub fn describe_native() -> String {
    format!(
        "module=kv_shard(atomics) variant=HAFT workers={NATIVE_WORKERS} shards={SHARDS} \
         batch={BATCH} mix=YCSB-A arrival=closed-loop clients={} requests={NATIVE_REQUESTS} \
         faults=none",
        NATIVE_CLIENTS_PER_SHARD * SHARDS
    )
}

fn vm_config(seed: u64) -> VmConfig {
    VmConfig { seed: derive(seed, seeds::VM), ..VmConfig::default() }
}

fn sim_config(seed: u64) -> ServeConfig {
    ServeConfig {
        requests: SIM_REQUESTS,
        mix: WorkloadMix::B,
        arrival: ArrivalMode::OpenLoop { rate_rps: SIM_RATE_RPS },
        shards: SHARDS,
        batch: BATCH,
        seed: derive(seed, seeds::TRAFFIC),
        faults: Some(FaultLoad {
            rate_per_request: SIM_FAULT_RATE,
            seed: derive(seed, seeds::FAULTS),
        }),
        ..ServeConfig::default()
    }
}

fn native_config(seed: u64) -> ServeConfig {
    ServeConfig {
        requests: NATIVE_REQUESTS,
        mix: WorkloadMix::A,
        arrival: ArrivalMode::ClosedLoop {
            clients: NATIVE_CLIENTS_PER_SHARD * SHARDS,
            think_ns: 0,
        },
        shards: SHARDS,
        batch: BATCH,
        seed: derive(seed, seeds::TRAFFIC),
        faults: None,
        ..ServeConfig::default()
    }
}

/// The VM configuration `BatchRunner::new` derives for a shard: one
/// simulated thread and an arena sized to the module, so decode is timed
/// on the arena the batches run on.
fn shard_vm(module: &Module, mut vm: VmConfig) -> VmConfig {
    let needed: u64 = module.globals.iter().map(|g| g.size + 64).sum::<u64>() + (1 << 16);
    vm.mem_bytes = vm.mem_bytes.min(needed.next_power_of_two().max(1 << 17));
    vm.n_threads = 1;
    vm
}

/// Offered = served + failed (failures are a model result, and only a
/// fault load can cause them), and one latency sample per served request.
fn check_service(r: ServiceReport, offered: usize) -> Result<ServiceReport, String> {
    let failed = r.faults.as_ref().map_or(0, |f| f.counts.failed);
    let counted = r.faults.as_ref().map_or(r.requests_offered, |f| f.counts.total());
    if r.requests_offered != offered as u64 || counted != r.requests_offered {
        return Err(format!("offered {} of {offered}, {counted} classified", r.requests_offered));
    }
    if r.requests_served + failed != r.requests_offered {
        return Err(format!("{} served + {failed} failed", r.requests_served));
    }
    if r.latency.count != r.requests_served {
        return Err(format!("{} latency samples", r.latency.count));
    }
    Ok(r)
}

fn digest_service(d: &mut Digest, r: &ServiceReport) {
    d.words([r.requests_offered, r.requests_served, r.duration_ns, r.batches]);
    let l = &r.latency;
    d.words([l.count, l.mean_ns.to_bits(), l.p50_ns, l.p95_ns, l.p99_ns, l.p999_ns, l.max_ns]);
    for s in &r.shards {
        d.words([s.requests, s.batches, s.busy_ns, s.crashes]);
    }
    if let Some(f) = &r.faults {
        d.words([f.injected_batches, f.crashed_batches, f.corrected_batches]);
        d.words([f.counts.served, f.counts.served_corrected, f.counts.sdc, f.counts.failed]);
        d.words([f.max_corrected_service_ns, f.mean_clean_service_ns.to_bits()]);
    }
}

/// Serves one batch on a fresh runner and checks every reply: the
/// warm-up, whose simulated service cycles also give the model's
/// HAFT-over-native ratio.
fn warm_batch(
    module: &Module,
    spec: RunSpec,
    vm: &VmConfig,
    mix: WorkloadMix,
    seed: u64,
) -> Result<u64, String> {
    let ops = YcsbGen::new(derive(seed, seeds::REPLAY), KV_KEYSPACE).generate(mix, BATCH);
    let r = BatchRunner::new(module, spec, vm.clone()).run_batch(&ops, None);
    let golden: Vec<u64> = ops.iter().map(|&o| golden_reply(o)).collect();
    if r.output_matches(&golden) {
        Ok(r.phases.service_cycles())
    } else {
        Err(format!("{:?}, output {:?}", r.outcome, r.output))
    }
}

/// The model's HAFT-over-native cost on the serving path: simulated
/// service cycles of the same checked warm-up batch. 0 when either batch
/// failed its check (which already counts as a failed operation).
fn service_ratio(warm: &[Option<u64>]) -> f64 {
    match (warm[NATIVE], warm[HAFT]) {
        (Some(n), Some(h)) => h as f64 / n.max(1) as f64,
        _ => 0.0,
    }
}

/// Batch sizes, in order, from the `batch.service` spans a serving
/// trace holds.
fn batch_sizes(events: &[TraceEvent]) -> Vec<usize> {
    events
        .iter()
        .filter(|e| e.name == "batch.service")
        .filter_map(|e| num_arg(e, "requests"))
        .map(|n| n as usize)
        .collect()
}

/// Replays batches of the recorded `sizes` through
/// `BatchRunner::run_batch`, one `serve`/`batch` span per batch (its
/// spans share the batch's id) around the run, which patches the
/// requests in, and per-request classification. With `fault_rate`, each batch draws a
/// fault the way the DES does: hit with probability rate × size, at an
/// occurrence uniform over the batch's estimated register writes.
#[allow(clippy::too_many_arguments)]
fn replay(
    t: &mut Tracer,
    ledger: &mut Ledger,
    variant: u64,
    module: &Module,
    spec: RunSpec,
    vm: &VmConfig,
    mix: WorkloadMix,
    sizes: &[usize],
    seed: u64,
    fault_rate: Option<f64>,
) {
    let mut runner = BatchRunner::new(module, spec, vm.clone());
    let mut scratch = module.clone();
    let mut gen = YcsbGen::new(derive(seed, seeds::REPLAY), KV_KEYSPACE);
    let mut rng = Prng::new(derive(seed, seeds::REPLAY + 1));
    let writes_per_req = match fault_rate {
        Some(_) => {
            let ops = gen.generate(mix, BATCH);
            (runner.run_batch(&ops, None).register_writes / BATCH as u64).max(1)
        }
        None => 1,
    };
    let mut broken = 0;
    for (j, &n) in sizes.iter().enumerate() {
        let id = variant << 32 | j as u64;
        let ops = gen.generate(mix, n);
        let plan = fault_rate.and_then(|rate| {
            let hit = rng.chance((rate * n as f64).min(1.0));
            let occurrence = rng.below(writes_per_req * n as u64);
            let xor_mask = rng.next_u64();
            hit.then_some(FaultPlan { occurrence, xor_mask })
        });
        // `run_batch` first patches the requests into its module. The same
        // patch of a copy, timed just before the batch and outside every
        // span, gives the patch's part of the batch without counting the
        // work twice in the spans.
        let p0 = Instant::now();
        patch_requests(&mut scratch, &ops);
        let patch_ns = p0.elapsed().as_nanos() as u64;
        let ok = t.span("serve", "batch", id, |t| {
            let r = t.span("serve", "run_batch", id, |_| runner.run_batch(&ops, plan));
            run_args(t, &r);
            t.arg("patch_ns", patch_ns);
            let golden: Vec<u64> = ops.iter().map(|&o| golden_reply(o)).collect();
            let outcomes = t.span("serve", "classify", id, |_| classify_requests(&r, &golden));
            plan.is_some()
                || (r.outcome == RunOutcome::Completed
                    && outcomes.iter().all(|&o| o == RequestOutcome::Served))
        });
        t.arg("requests", n);
        broken += u64::from(!ok);
    }
    ledger.check("replayed fault-free batches serve every request", broken == 0, || {
        format!("{broken} of {} batches", sizes.len())
    });
    decode_span(t, variant, module, &shard_vm(module, vm.clone()), sizes.len());
}

/// `serve.*` and `vm.*` values of a traced serving round.
fn serve_values(events: &[TraceEvent]) -> BTreeMap<String, f64> {
    let mut v = BTreeMap::new();
    vm_values(events, &mut v);
    let batches: Vec<&TraceEvent> = spans(events, "serve", "batch").collect();
    let requests: f64 = batches.iter().map(|e| num_arg(e, "requests").unwrap_or(0.0)).sum();
    v.insert("serve.batches".into(), batches.len() as f64);
    v.insert("serve.mean_batch".into(), requests / batches.len().max(1) as f64);
    let runs = || spans(events, "serve", "run_batch");
    let s = summarize(&runs().map(|e| super::dur_ns(e) / 1e3).collect::<Vec<_>>());
    v.insert("serve.batch_us.p50".into(), s.p50);
    v.insert("serve.batch_us.tail".into(), s.tail);
    v.insert("serve.batch_us.tail_pct".into(), s.tail_pct);
    let patch_ns: f64 = runs().map(|e| num_arg(e, "patch_ns").unwrap_or(0.0)).sum();
    v.insert("serve.patch_us".into(), patch_ns / runs().count().max(1) as f64 / 1e3);
    v.insert("serve.classify_us".into(), mean_us(events, "serve", "classify"));
    v
}

/// What a serving set-up builds: an experiment per variant, its
/// hardened module, the warm-up batch's service cycles, and the
/// instructions the passes added.
struct Shards<'w> {
    exps: Vec<Experiment<'w>>,
    modules: Vec<Module>,
    warm: Vec<Option<u64>>,
    added: i64,
}

/// Set-up shared by both serving workloads: harden every variant of the
/// shard module (spanned on `t`) and warm each hardened module up with
/// one checked batch of `mix`.
fn set_up<'w>(
    w: &'w Workload,
    variants: &[HardenConfig],
    t: &mut Tracer,
    ledger: &mut Ledger,
    vm: &VmConfig,
    mix: WorkloadMix,
    seed: u64,
) -> Shards<'w> {
    let exps: Vec<Experiment> = variants
        .iter()
        .map(|hc| Experiment::workload(w).harden(hc.clone()).vm(vm.clone()))
        .collect();
    let mut added = 0;
    let modules: Vec<Module> =
        exps.iter().enumerate().map(|(i, e)| harden(t, i as u64, e, &mut added)).collect();
    let spec = w.run_spec();
    let warm = modules
        .iter()
        .map(|m| {
            ledger.op("warm-up batch replies correctly", || warm_batch(m, spec, vm, mix, seed))
        })
        .collect();
    Shards { exps, modules, warm, added }
}

pub fn run_sim(a: &Args) -> Run {
    let vm = vm_config(a.seed);
    let cfg = sim_config(a.seed);
    let counter = AtomicU64::new(0);
    let epoch = Instant::now();
    let mut ledger = Ledger::default();
    let variants = serving_variants().map(|(_, hc)| hc);
    let t0 = Instant::now();
    let w = kv_shard(KvSync::Atomics);
    let spec = w.run_spec();
    let mut setup = Tracer::new(a.trace, epoch, &counter);
    let Shards { exps, modules, warm, added } =
        set_up(&w, &variants, &mut setup, &mut ledger, &vm, cfg.mix, a.seed);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let again = |ledger: &mut Ledger| {
        let t0 = Instant::now();
        let w = kv_shard(KvSync::Atomics);
        let off = &mut Tracer::new(false, epoch, &counter);
        let _shards = set_up(&w, &variants, off, ledger, &vm, cfg.mix, a.seed);
        t0.elapsed().as_secs_f64()
    };
    let ratio = service_ratio(&warm);

    let round = |ledger: &mut Ledger| -> Round {
        let mut digest = Digest::default();
        let mut model = BTreeMap::new();
        let (mut served, mut batches) = (0, 0);
        let units = exps
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let t = Instant::now();
                let r = ledger.op("service accounts every request", || {
                    check_service(e.serve(&cfg), cfg.requests)
                });
                let secs = t.elapsed().as_secs_f64();
                if let Some(r) = r {
                    digest_service(&mut digest, &r);
                    served += r.requests_served;
                    batches += r.batches;
                    if i == HAFT {
                        model.insert("serve.sim_p99_us".into(), r.latency.p99_ns as f64 / 1e3);
                    }
                }
                secs
            })
            .collect();
        model.insert("model.served".into(), served as f64);
        model.insert("model.batches".into(), batches as f64);
        Round { units, digest, model }
    };

    let model =
        vec![format!("passes.insts_added={added}"), format!("model.sim_overhead_x={ratio}")];
    if !a.trace {
        let timed = timed(a.seconds, &mut ledger, &mut setup_s, again, round);
        let work = |r: &Round| r.model["model.served"];
        return untraced_run(ledger, &setup_s, timed, work, ratio, model);
    }

    let traced_round = |ledger: &mut Ledger, t: &mut Tracer| -> BTreeMap<String, f64> {
        for (i, (e, module)) in exps.iter().zip(&modules).enumerate() {
            let id = i as u64;
            t.span("serve", "run_service", id, |_| e.serve(&cfg));
            let sizes = t.span("serve", "record_batches", id, |_| {
                let mut buf = TraceBuf::new();
                run_service_traced(module, spec, vm.clone(), "replay", &cfg, &mut buf);
                batch_sizes(&buf.events)
            });
            let seed = derive(a.seed, id);
            let rate = Some(SIM_FAULT_RATE);
            replay(t, ledger, id, module, spec, &vm, cfg.mix, &sizes, seed, rate);
        }
        let mut v = serve_values(&t.events);
        let batch_ns = total_ns(&t.events, "serve", "run_batch");
        let des_ns = total_ns(&t.events, "serve", "run_service");
        v.insert("serve.des_self_share".into(), 1.0 - batch_ns / des_ns.max(1.0));
        v
    };
    let traced = traced(a.seconds, &mut ledger, epoch, &counter, round, traced_round);
    traced_run(ledger, traced, setup.events, model)
}

pub fn run_native(a: &Args) -> Run {
    let vm = vm_config(a.seed);
    let cfg = native_config(a.seed);
    let mode = ServeMode::Native { workers: NATIVE_WORKERS };
    let counter = AtomicU64::new(0);
    let epoch = Instant::now();
    let mut ledger = Ledger::default();
    // The native (unhardened) module is built only for the model's
    // service-cycle ratio on the warm-up batch; the order of this list
    // matches `serving_variants` (native first, HAFT second).
    let variants = [HardenConfig::native(), HardenConfig::haft()];
    let t0 = Instant::now();
    let w = kv_shard(KvSync::Atomics);
    let spec = w.run_spec();
    let mut setup = Tracer::new(a.trace, epoch, &counter);
    let Shards { exps, modules, warm, added } =
        set_up(&w, &variants, &mut setup, &mut ledger, &vm, cfg.mix, a.seed);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let again = |ledger: &mut Ledger| {
        let t0 = Instant::now();
        let w = kv_shard(KvSync::Atomics);
        let off = &mut Tracer::new(false, epoch, &counter);
        let _shards = set_up(&w, &variants, off, ledger, &vm, cfg.mix, a.seed);
        t0.elapsed().as_secs_f64()
    };
    let (exp, module) = (&exps[HAFT], &modules[HAFT]);
    let ratio = service_ratio(&warm);

    // Thread timing decides batch composition, so only the request
    // accounting is deterministic; the digest covers that alone.
    let round = |ledger: &mut Ledger| -> Round {
        let mut digest = Digest::default();
        let mut model = BTreeMap::new();
        let r = ledger.op("service accounts every request", || {
            let r = check_service(exp.serve_in(mode, &cfg), cfg.requests)?;
            r.wall.ok_or("native mode fills the wall report")?;
            Ok(r)
        });
        let mut units = vec![0.0];
        if let Some(r) = r {
            digest.words([r.requests_offered, r.requests_served]);
            let wall = r.wall.expect("checked above");
            units[0] = wall.duration_ns as f64 / 1e9;
            model.insert("model.served".into(), r.requests_served as f64);
        }
        Round { units, digest, model }
    };

    let model =
        vec![format!("passes.insts_added={added}"), format!("model.sim_overhead_x={ratio}")];
    if !a.trace {
        let timed = timed(a.seconds, &mut ledger, &mut setup_s, again, round);
        let work = |r: &Round| r.model.get("model.served").copied().unwrap_or(0.0);
        return untraced_run(ledger, &setup_s, timed, work, ratio, model);
    }

    let traced_round = |ledger: &mut Ledger, t: &mut Tracer| -> BTreeMap<String, f64> {
        let r = t.span("runtime", "run_native", 0, |_| exp.serve_in(mode, &cfg));
        let sizes = t.span("runtime", "record_batches", 0, |_| {
            let mut buf = TraceBuf::new();
            let opts = NativeOpts { workers: NATIVE_WORKERS, shake_seed: None };
            run_native_traced(module, spec, vm.clone(), "replay", &cfg, opts, &mut buf);
            batch_sizes(&buf.events)
        });
        replay(t, ledger, 0, module, spec, &vm, cfg.mix, &sizes, a.seed, None);
        let mut v = serve_values(&t.events);
        v.insert("serve.sim_p99_us".into(), r.latency.p99_ns as f64 / 1e3);
        v.insert("runtime.batches".into(), r.batches as f64);
        v.insert("runtime.mean_batch".into(), r.mean_batch_size());
        if let Some(wall) = r.wall {
            let batch_ns = total_ns(&t.events, "serve", "run_batch");
            v.insert("runtime.steals".into(), wall.steals as f64);
            v.insert(
                "runtime.busy_share".into(),
                batch_ns / (NATIVE_WORKERS as f64 * wall.duration_ns.max(1) as f64),
            );
        }
        v
    };
    let traced = traced(a.seconds, &mut ledger, epoch, &counter, round, traced_round);
    traced_run(ledger, traced, setup.events, model)
}
