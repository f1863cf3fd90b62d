//! `haft-runtime` — hardened backends on real threads.
//!
//! The `haft-serve` discrete-event simulation prices a fleet of shard
//! VMs on one host thread; this crate *runs* the same fleet: N shard
//! actors — each owning its own VM over its own clone of the
//! once-hardened module and one shared decoded image of it — scheduled
//! across a work-stealing pool of OS threads ([`pool::Pool`]). Requests
//! flow through the same arrival / router / batching model into
//! per-shard inboxes; cross-shard multi-key requests split into per-key
//! sub-operations and join as sagas ([`traffic::Saga`]); completed
//! batches price their service time with the same
//! [`haft_vm::PhaseCycles`] cost model and feed the same
//! [`ServiceReport`] schema.
//!
//! # The DES is the deterministic twin
//!
//! Both modes take one [`ServeConfig`] and emit one [`ServiceReport`].
//! The simulation is bit-reproducible and generates every pinned table;
//! the native runtime is subject to thread timing (batch composition,
//! steal order), so its cycle-priced numbers *track* the simulation
//! within a tolerance band — pinned by this crate's twin-validation
//! test — rather than matching bit-for-bit. Wall-clock throughput, the
//! one thing only real threads can measure, is reported separately in
//! [`haft_serve::WallReport`] and never pinned.

pub mod actor;
pub mod pool;
pub mod traffic;

use std::sync::Arc;
use std::time::Instant;

use haft_apps::{YcsbGen, KV_KEYSPACE, SHARD_CAPACITY};
use haft_ir::module::Module;
use haft_serve::report::{FaultReport, WallReport};
use haft_serve::{ArrivalMode, BatchRunner, LatencyStats, ServeConfig, ServiceReport};
use haft_trace::TraceBuf;
use haft_vm::{RunOutcome, RunSpec, Vm, VmConfig};

pub use actor::ShardActor;
pub use pool::{ActorSlot, Pool};
pub use traffic::{Req, Saga, TrafficSource};

/// Knobs for [`run_native_opts`] beyond the plain worker count.
#[derive(Clone, Copy, Debug)]
pub struct NativeOpts {
    /// OS threads in the work-stealing pool (clamped to ≥ 1).
    pub workers: usize,
    /// When set, workers sprinkle seeded `yield_now` calls at scheduling
    /// decision points — the release-mode interleaving shaker used by
    /// the stress tests. `None` (the default) costs nothing.
    pub shake_seed: Option<u64>,
}

impl Default for NativeOpts {
    fn default() -> Self {
        NativeOpts { workers: 1, shake_seed: None }
    }
}

/// Serves `cfg.requests` of generated traffic through `cfg.shards` shard
/// actors on a work-stealing pool of `workers` OS threads — the
/// real-thread counterpart of [`haft_serve::run_service`], taking the
/// identical arguments and returning the identical report schema (plus
/// [`WallReport`]).
///
/// With `workers = 1` the run is deterministic (one thread serializes
/// every scheduling decision); with more workers, thread timing varies
/// batch composition and the report is reproducible only in
/// distribution.
///
/// # Panics
///
/// Same degenerate-configuration panics as [`haft_serve::run_service`].
pub fn run_native(
    module: &Module,
    spec: RunSpec<'_>,
    vm: VmConfig,
    label: impl Into<String>,
    cfg: &ServeConfig,
    workers: usize,
) -> ServiceReport {
    run_native_opts(module, spec, vm, label, cfg, NativeOpts { workers, shake_seed: None })
}

/// [`run_native`] with the full option set.
pub fn run_native_opts(
    module: &Module,
    spec: RunSpec<'_>,
    vm: VmConfig,
    label: impl Into<String>,
    cfg: &ServeConfig,
    opts: NativeOpts,
) -> ServiceReport {
    run_native_impl(module, spec, vm, label, cfg, opts, None)
}

/// [`run_native_opts`] with trace collection: scheduling events (steals,
/// actor drains, saga splits) on the host wall clock, batch/saga/VM/HTM
/// events on the virtual clock — each carrying the other clock as an
/// argument. Events land in `buf`; the report itself is assembled exactly
/// as in an untraced run.
pub fn run_native_traced(
    module: &Module,
    spec: RunSpec<'_>,
    vm: VmConfig,
    label: impl Into<String>,
    cfg: &ServeConfig,
    opts: NativeOpts,
    buf: &mut TraceBuf,
) -> ServiceReport {
    run_native_impl(module, spec, vm, label, cfg, opts, Some(buf))
}

fn run_native_impl(
    module: &Module,
    spec: RunSpec<'_>,
    vm: VmConfig,
    label: impl Into<String>,
    cfg: &ServeConfig,
    opts: NativeOpts,
    trace: Option<&mut TraceBuf>,
) -> ServiceReport {
    assert!(cfg.requests > 0, "a service run needs at least one request");
    assert!(cfg.shards > 0, "a service run needs at least one shard");
    assert!(spec.worker.is_some() && spec.fini.is_some(), "shard spec needs worker and fini");
    assert!(cfg.clock_ghz > 0.0, "clock must be positive");
    let workers = opts.workers.max(1);
    let total = cfg.requests;
    let batch_cap = cfg.batch.clamp(1, SHARD_CAPACITY);

    // One decoded image of the module, shared by the calibration runner
    // and every shard actor's runner.
    let image = Arc::new(Vm::decode(module, &vm.cost));
    let runner = || BatchRunner::with_image(module, Arc::clone(&image), spec, vm.clone());

    // Same writes-per-request calibration as the DES — one off-traffic
    // batch on a throwaway runner, so fault occurrences can be drawn
    // uniformly over a batch's dynamic trace.
    let writes_per_req = if cfg.faults.is_some() {
        let mut runner = runner();
        let mut cal_gen = YcsbGen::new(cfg.seed ^ 0xCA11_B007, KV_KEYSPACE);
        let cal_ops = cal_gen.generate(cfg.mix, batch_cap);
        let cal = runner.run_batch(&cal_ops, None);
        assert_eq!(cal.outcome, RunOutcome::Completed, "calibration batch must complete");
        (cal.register_writes / batch_cap as u64).max(1)
    } else {
        1
    };

    let epoch = trace.as_ref().map(|_| Instant::now());
    let slots: Vec<ActorSlot> = (0..cfg.shards)
        .map(|i| {
            let mut actor = ShardActor::new(runner(), cfg, i, writes_per_req);
            if let Some(e) = epoch {
                actor.enable_trace(e);
            }
            ActorSlot::new(actor)
        })
        .collect();
    let mut traffic = TrafficSource::new(cfg.seed, KV_KEYSPACE, cfg.mix, total, cfg.sagas);
    if epoch.is_some() {
        traffic.enable_trace();
    }
    let mut pool = Pool::new(slots, cfg, traffic, workers, opts.shake_seed, epoch);

    // Seed the arrival process (virtual timestamps; matches the DES).
    match cfg.arrival {
        ArrivalMode::OpenLoop { rate_rps } => {
            let mut poisson = haft_serve::PoissonArrivals::new(cfg.seed ^ 0x0A88_17A1, rate_rps);
            while !pool.traffic_exhausted() {
                let t = poisson.next_ns();
                let issued = pool.issue_group_at(t, None);
                // One Poisson draw per *operation* keeps the arrival
                // stream aligned with the simulation, which issues every
                // operation individually; a multi-key group arrives at
                // its first draw and consumes the rest.
                for _ in 1..issued {
                    poisson.next_ns();
                }
            }
        }
        ArrivalMode::ClosedLoop { clients, .. } => {
            for _ in 0..clients.max(1) {
                if pool.issue_group_at(0, None) == 0 {
                    break;
                }
            }
        }
    }

    let t0 = Instant::now();
    pool.run(workers);
    let wall_ns = (t0.elapsed().as_nanos() as u64).max(1);

    let steals = pool.steals();
    let pool_events = if trace.is_some() { pool.take_trace() } else { Vec::new() };
    let mut actors = pool.into_actors();
    if let Some(buf) = trace {
        buf.events.extend(pool_events);
        for a in &mut actors {
            if let Some(mut t) = a.trace.take() {
                buf.events.append(&mut t.events);
            }
        }
    }
    assemble_report(actors, label.into(), cfg, workers, wall_ns, steals)
}

/// Merges per-shard accounting into the shared [`ServiceReport`] schema.
fn assemble_report(
    actors: Vec<ShardActor<'_>>,
    label: String,
    cfg: &ServeConfig,
    workers: usize,
    wall_ns: u64,
    steals: u64,
) -> ServiceReport {
    let mut counts = haft_faults::RequestCounts::default();
    let mut samples = Vec::new();
    let mut shards = Vec::with_capacity(actors.len());
    let mut faults = FaultReport::default();
    let mut telemetry: Option<haft_serve::FaultTelemetry> = None;
    let mut clean_sum = 0.0;
    let mut clean_batches = 0u64;
    let mut batches = 0u64;
    let mut duration_ns = 0u64;
    let mut suppressed_joins = 0u64;
    for a in actors {
        counts.merge(&a.counts);
        samples.extend(a.samples);
        batches += a.stats.batches;
        duration_ns = duration_ns.max(a.vclock_ns);
        shards.push(a.stats);
        faults.injected_batches += a.faults.injected_batches;
        faults.crashed_batches += a.faults.crashed_batches;
        faults.corrected_batches += a.faults.corrected_batches;
        faults.max_corrected_service_ns =
            faults.max_corrected_service_ns.max(a.faults.max_corrected_service_ns);
        clean_sum += a.clean_service_sum;
        clean_batches += a.clean_batches;
        suppressed_joins += a.suppressed_joins;
        if let Some(t) = &a.telemetry {
            telemetry.get_or_insert_with(Default::default).merge(t);
        }
    }
    assert_eq!(
        counts.total(),
        cfg.requests as u64,
        "per-request outcome counts must sum to the offered request total"
    );
    let served = counts.total() - counts.failed;
    faults.counts = counts;
    faults.mean_clean_service_ns =
        if clean_batches == 0 { 0.0 } else { clean_sum / clean_batches as f64 };
    ServiceReport {
        label,
        requests_offered: counts.total(),
        requests_served: served,
        duration_ns,
        offered_rps: match cfg.arrival {
            ArrivalMode::OpenLoop { rate_rps } => Some(rate_rps),
            ArrivalMode::ClosedLoop { .. } => None,
        },
        achieved_rps: if duration_ns == 0 { 0.0 } else { served as f64 * 1e9 / duration_ns as f64 },
        latency: LatencyStats::from_samples(samples),
        batches,
        shards,
        faults: cfg.faults.map(|_| faults),
        fault_telemetry: telemetry,
        suppressed_joins,
        wall: Some(WallReport {
            workers,
            duration_ns: wall_ns,
            achieved_rps: served as f64 * 1e9 / wall_ns as f64,
            steals,
        }),
    }
}

// The pool shares borrowed module/spec data across scoped threads; these
// assertions pin the Send/Sync audit at compile time.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<Pool<'static>>();
    assert_send::<ShardActor<'static>>();
    assert_send::<Req>();
    assert_sync::<Saga>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use haft_apps::{kv_shard, KvSync};
    use haft_serve::run_service;

    fn small_cfg() -> ServeConfig {
        ServeConfig { requests: 200, shards: 3, batch: 8, ..Default::default() }
    }

    #[test]
    fn native_single_worker_accounts_every_request() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = small_cfg();
        let r = run_native(&w.module, w.run_spec(), VmConfig::default(), "native", &cfg, 1);
        assert_eq!(r.requests_offered, 200);
        assert_eq!(r.requests_served, 200);
        assert_eq!(r.latency.count, 200);
        assert_eq!(r.shards.len(), 3);
        assert_eq!(r.shards.iter().map(|s| s.requests).sum::<u64>(), 200);
        let wall = r.wall.expect("native mode fills the wall report");
        assert_eq!(wall.workers, 1);
        assert!(wall.duration_ns > 0 && wall.achieved_rps > 0.0);
    }

    #[test]
    fn native_tracks_the_sim_twin_on_cycle_priced_throughput() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = small_cfg();
        let sim = run_service(&w.module, w.run_spec(), VmConfig::default(), "sim", &cfg);
        let nat = run_native(&w.module, w.run_spec(), VmConfig::default(), "native", &cfg, 1);
        assert_eq!(nat.requests_served, sim.requests_served);
        // Batch counts track but need not match: the worker drains a
        // shard's inbox in one go while the DES interleaves arrivals
        // event-by-event, so coalescing differs slightly.
        let batch_ratio = nat.batches as f64 / sim.batches as f64;
        assert!((0.5..=2.0).contains(&batch_ratio), "batching diverged: {batch_ratio:.3}");
        let ratio = nat.achieved_rps / sim.achieved_rps;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "native cycle-priced throughput diverged from the twin: {ratio:.3}"
        );
    }

    #[test]
    fn sagas_join_across_shards_and_preserve_the_op_budget() {
        let w = kv_shard(KvSync::Atomics);
        let cfg =
            ServeConfig { sagas: Some(haft_serve::SagaLoad { every: 2, span: 3 }), ..small_cfg() };
        let r = run_native(&w.module, w.run_spec(), VmConfig::default(), "saga", &cfg, 1);
        assert_eq!(r.requests_offered, 200, "budget counts operations, sagas or not");
        assert_eq!(r.requests_served, 200);
        assert!(
            r.latency.count < 200,
            "joined sagas sample once per multi-key request, got {}",
            r.latency.count
        );
        assert!(r.latency.count > 0);
    }

    #[test]
    fn open_loop_native_completes_and_prices_latency() {
        let w = kv_shard(KvSync::Atomics);
        let cfg =
            ServeConfig { arrival: ArrivalMode::OpenLoop { rate_rps: 50_000.0 }, ..small_cfg() };
        let r = run_native(&w.module, w.run_spec(), VmConfig::default(), "open", &cfg, 2);
        assert_eq!(r.requests_served, 200);
        assert_eq!(r.offered_rps, Some(50_000.0));
        assert!(r.latency.p50_ns > 0);
    }

    #[test]
    fn native_faults_account_every_request() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = ServeConfig {
            requests: 300,
            faults: Some(haft_serve::FaultLoad { rate_per_request: 0.02, seed: 77 }),
            ..small_cfg()
        };
        let r = run_native(&w.module, w.run_spec(), VmConfig::default(), "faulty", &cfg, 2);
        let f = r.faults.expect("fault load attached");
        assert_eq!(f.counts.total(), 300);
        assert_eq!(r.requests_served, 300 - f.counts.failed);
        assert_eq!(r.latency.count, r.requests_served);
        // Telemetry merged across shards accounts the same totals, on the
        // same schema the simulation uses.
        let t = r.fault_telemetry.expect("telemetry attached with fault load");
        assert_eq!(t.intervals.values().map(|c| c.total()).sum::<u64>(), 300);
        assert_eq!(t.intervals.values().map(|c| c.sdc).sum::<u64>(), f.counts.sdc);
        let ewma = t.fault_rate_ewma(haft_serve::report::TELEMETRY_EWMA_ALPHA);
        assert!((0.0..=1.0).contains(&ewma));
    }
}
