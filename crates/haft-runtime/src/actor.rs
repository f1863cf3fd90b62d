//! One shard actor: a hardened VM with its own virtual clock.
//!
//! Each actor owns a private [`BatchRunner`] — its own clone of the
//! once-hardened module, over the pool's one shared decoded image — so
//! batches on different shards really execute concurrently on different
//! cores. Service time is still priced by the simulated cost model
//! ([`haft_vm::PhaseCycles::service_cycles`] over the configured clock),
//! carried on a *per-shard virtual clock*: a batch starts at
//! `max(shard vclock, latest arrival in the batch)` and the shard's clock
//! advances to its completion. That keeps latency and throughput
//! host-independent and comparable with the DES twin, while host
//! wall-clock is measured separately by the pool.

use haft_apps::{golden_reply, Op};
use haft_faults::{classify_requests, RequestCounts, RequestOutcome};
use haft_ir::rng::Prng;
use haft_serve::report::{FaultReport, FaultTelemetry, ShardStats};
use haft_serve::{BatchRunner, ServeConfig, TRACE_PID_SERVE, TRACE_PID_VM_BASE};
use haft_trace::{TraceBuf, TraceEvent};
use haft_vm::{FaultPlan, RunOutcome};

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::traffic::Req;

/// What one batch did, for the pool's progress and closed-loop
/// bookkeeping.
pub struct BatchOutput {
    /// Operations this batch accounted (every op exactly once, including
    /// ones dropped by a crashed run).
    pub ops_accounted: usize,
    /// Virtual times at which client requests finished with this batch —
    /// one entry per completed single request or joined saga; in a closed
    /// loop each frees one client at that time.
    pub freed_vns: Vec<u64>,
}

/// A shard: private module copy, virtual clock, and local accounting
/// that the pool merges into the final [`haft_serve::ServiceReport`].
pub struct ShardActor<'a> {
    runner: BatchRunner<'a>,
    fault_rng: Option<Prng>,
    fault_rate: f64,
    writes_per_req: u64,
    batch_cap: usize,
    clock_ghz: f64,
    dispatch_ns: u64,
    restart_ns: u64,
    /// This shard's virtual clock: completion time of its latest batch.
    pub vclock_ns: u64,
    pub stats: ShardStats,
    /// Per-request latency samples completed *on this shard* (saga joins
    /// land on whichever shard finished last).
    pub samples: Vec<u64>,
    pub counts: RequestCounts,
    /// Partial fault report (everything except merged counts and the
    /// clean-batch mean, which the pool derives).
    pub faults: FaultReport,
    /// Per-interval outcome telemetry on the shard's virtual clock;
    /// allocated iff fault load is attached. The pool merges the shards'
    /// maps — pure counter addition keyed by interval index, so the
    /// result is independent of worker scheduling.
    pub telemetry: Option<FaultTelemetry>,
    pub clean_service_sum: f64,
    pub clean_batches: u64,
    /// Saga joins whose latency sample was withheld because a sub-batch
    /// failed (always counted, traced or not).
    pub suppressed_joins: u64,
    idx: usize,
    /// Event buffer when tracing: virtual-ns timestamps, with the host
    /// wall clock carried as an argument (the dual-clock rule).
    pub trace: Option<TraceBuf>,
    epoch: Option<Instant>,
}

impl<'a> ShardActor<'a> {
    /// Builds the actor for shard `idx` around its batch `runner`.
    /// `writes_per_req` comes from the pool's one off-traffic calibration
    /// batch (shared by all shards, identical to the DES's estimate).
    ///
    /// The per-shard fault stream is seeded `FaultLoad::seed ^ idx`: with
    /// concurrent shards there is no global batch order for a single
    /// stream to follow, so each shard draws its own. Fault *placement*
    /// therefore differs from the simulation at equal config — rates and
    /// aggregate behaviour match, individual hits do not.
    pub fn new(
        runner: BatchRunner<'a>,
        cfg: &ServeConfig,
        idx: usize,
        writes_per_req: u64,
    ) -> Self {
        ShardActor {
            runner,
            fault_rng: cfg.faults.map(|f| Prng::new(f.seed ^ idx as u64)),
            fault_rate: cfg.faults.map(|f| f.rate_per_request).unwrap_or(0.0),
            writes_per_req,
            batch_cap: cfg.batch.clamp(1, haft_apps::SHARD_CAPACITY),
            clock_ghz: cfg.clock_ghz,
            dispatch_ns: cfg.dispatch_ns,
            restart_ns: cfg.restart_ns,
            vclock_ns: 0,
            stats: ShardStats::default(),
            samples: Vec::new(),
            counts: RequestCounts::default(),
            faults: FaultReport::default(),
            telemetry: cfg.faults.map(|_| FaultTelemetry::default()),
            clean_service_sum: 0.0,
            clean_batches: 0,
            suppressed_joins: 0,
            idx,
            trace: None,
            epoch: None,
        }
    }

    /// Turns on event collection for this shard. `epoch` is the pool's
    /// wall-clock zero, so every virtual-time event can carry the host
    /// time at which it was recorded.
    pub fn enable_trace(&mut self, epoch: Instant) {
        self.trace = Some(TraceBuf::new());
        self.epoch = Some(epoch);
    }

    fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (cycles as f64 / self.clock_ghz) as u64
    }

    fn draw_fault(&mut self, batch_len: usize) -> Option<FaultPlan> {
        let rng = self.fault_rng.as_mut()?;
        let p = (self.fault_rate * batch_len as f64).min(1.0);
        // Same three-variate discipline as the DES: draw unconditionally
        // so the plan stream is independent of earlier hit/miss outcomes.
        let hit = rng.chance(p);
        let occurrence = rng.below(self.writes_per_req * batch_len as u64);
        let xor_mask = rng.next_u64();
        hit.then_some(FaultPlan { occurrence, xor_mask })
    }

    /// Takes the next batch from this shard's inbox: the DES batching
    /// rule, on the virtual clock. The batch opens at
    /// `t0 = max(vclock, front arrival)` — the earliest queued request
    /// always gets in — and admits up to `batch_cap` further requests
    /// that have (virtually) arrived by `t0`. Requests still in the
    /// virtual future stay queued, exactly as the simulation only
    /// batches what is present when a shard goes busy.
    pub fn form_batch(&self, inbox: &mut VecDeque<Req>) -> Vec<Req> {
        let Some(front) = inbox.front() else { return Vec::new() };
        let t0 = self.vclock_ns.max(front.arrival_vns);
        let mut batch = Vec::new();
        while batch.len() < self.batch_cap {
            match inbox.front() {
                Some(r) if r.arrival_vns <= t0 => batch.push(inbox.pop_front().unwrap()),
                _ => break,
            }
        }
        batch
    }

    /// Serves one batch and does all per-request accounting: outcome
    /// counts, latency samples (saga joins sample once, at the join),
    /// fault bookkeeping, shard stats, and the virtual-clock advance.
    pub fn run_one_batch(&mut self, batch: Vec<Req>) -> BatchOutput {
        assert!(!batch.is_empty(), "ran a batch with no requests");
        let ops: Vec<Op> = batch.iter().map(|r| r.op).collect();
        let start =
            self.vclock_ns.max(batch.iter().map(|r| r.arrival_vns).max().expect("non-empty"));

        let plan = self.draw_fault(ops.len());
        let injected = plan.is_some();
        let mut vm_buf = self.trace.as_ref().map(|_| TraceBuf::new());
        let run = match vm_buf.as_mut() {
            Some(buf) => self.runner.run_batch_traced(&ops, plan, buf),
            None => self.runner.run_batch(&ops, plan),
        };
        let service_ns = self.cycles_to_ns(run.phases.service_cycles()) + self.dispatch_ns;
        let golden: Vec<u64> = ops.iter().map(|&o| golden_reply(o)).collect();
        let outcomes = classify_requests(&run, &golden);
        debug_assert!(
            injected || outcomes.iter().all(|&o| o == RequestOutcome::Served),
            "undisturbed batch produced non-served outcomes: {outcomes:?}"
        );

        let crashed = run.outcome != RunOutcome::Completed;
        let completion = start + service_ns + if crashed { self.restart_ns } else { 0 };

        if let Some(mut buf) = vm_buf {
            let wall_ns = self.epoch.expect("trace implies epoch").elapsed().as_nanos() as u64;
            let scale = 1.0 / self.clock_ghz;
            let tr = self.trace.as_mut().expect("vm buffer implies trace");
            tr.push(
                TraceEvent::span("serve", "batch.service", start, service_ns)
                    .lane(TRACE_PID_SERVE, self.idx as u32)
                    .arg("requests", ops.len())
                    .arg("wall_ns", wall_ns),
            );
            if crashed {
                tr.push(
                    TraceEvent::span("serve", "shard.restart", start + service_ns, self.restart_ns)
                        .lane(TRACE_PID_SERVE, self.idx as u32),
                );
            }
            // Splice the batch's VM/HTM events (raw cycles) onto the
            // virtual-ns timeline, one lane per shard.
            for mut ev in buf.take() {
                ev.rescale(scale, start);
                ev.pid = TRACE_PID_VM_BASE + self.idx as u32;
                tr.push(ev);
            }
        }

        let mut freed_vns = Vec::with_capacity(batch.len());
        for (req, &o) in batch.iter().zip(&outcomes) {
            self.counts.record(o);
            if let Some(t) = self.telemetry.as_mut() {
                t.record(completion, o);
            }
            match &req.saga {
                None => {
                    if o != RequestOutcome::Failed {
                        self.samples.push(completion - req.arrival_vns);
                    }
                    freed_vns.push(completion);
                }
                Some(saga) => {
                    if o == RequestOutcome::Failed {
                        saga.failed.store(true, Ordering::Release);
                    }
                    if let Some(join_vns) = saga.complete_one(completion) {
                        let suppressed = saga.failed.load(Ordering::Acquire);
                        if suppressed {
                            self.suppressed_joins += 1;
                        } else {
                            self.samples.push(join_vns - saga.arrival_vns);
                        }
                        if let Some(tr) = self.trace.as_mut() {
                            let name = if suppressed { "join.suppressed" } else { "join" };
                            tr.push(
                                TraceEvent::instant("saga", name, join_vns)
                                    .lane(TRACE_PID_SERVE, self.idx as u32)
                                    .arg("latency_vns", join_vns - saga.arrival_vns),
                            );
                        }
                        freed_vns.push(join_vns);
                    }
                }
            }
        }

        if injected {
            self.faults.injected_batches += 1;
            if crashed {
                self.faults.crashed_batches += 1;
            } else if run.recoveries > 0 || run.corrected_by_vote > 0 {
                self.faults.corrected_batches += 1;
                self.faults.max_corrected_service_ns =
                    self.faults.max_corrected_service_ns.max(service_ns);
            }
        } else if !crashed {
            self.clean_service_sum += service_ns as f64;
            self.clean_batches += 1;
        }

        self.stats.batches += 1;
        self.stats.busy_ns += completion - start;
        if crashed {
            self.stats.crashes += 1;
        } else {
            self.stats.requests += batch.len() as u64;
        }
        self.vclock_ns = completion;

        BatchOutput { ops_accounted: batch.len(), freed_vns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haft::workloads::Workload;
    use haft_apps::{kv_shard, KvSync, WorkloadMix, YcsbGen};
    use haft_vm::VmConfig;

    /// Shard 0's actor over `w`, one write per request.
    fn actor<'w>(w: &'w Workload, cfg: &ServeConfig) -> ShardActor<'w> {
        ShardActor::new(BatchRunner::new(&w.module, w.run_spec(), VmConfig::default()), cfg, 0, 1)
    }

    #[test]
    fn batch_formation_respects_virtual_arrivals() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = ServeConfig { batch: 4, ..Default::default() };
        let a = actor(&w, &cfg);
        let mut gen = YcsbGen::new(3, 100);
        let mk = |op, t| Req { op, arrival_vns: t, saga: None };
        let ops = gen.generate(WorkloadMix::B, 4);
        // Front arrived at 50; 60 is in by t0 = max(0, 50)? No: 60 > 50
        // stays queued; 40 <= 50 is admitted.
        let mut inbox: VecDeque<Req> =
            vec![mk(ops[0], 50), mk(ops[1], 40), mk(ops[2], 60), mk(ops[3], 45)].into();
        let batch = a.form_batch(&mut inbox);
        assert_eq!(batch.len(), 2, "60 ns arrival is in the virtual future at t0 = 50");
        assert_eq!(inbox.len(), 2);
    }

    #[test]
    fn served_batches_advance_the_clock_and_sample_latency() {
        let w = kv_shard(KvSync::Atomics);
        let cfg = ServeConfig::default();
        let mut a = actor(&w, &cfg);
        let mut gen = YcsbGen::new(9, 100);
        let ops = gen.generate(WorkloadMix::B, 3);
        let batch: Vec<Req> =
            ops.iter().map(|&op| Req { op, arrival_vns: 100, saga: None }).collect();
        let out = a.run_one_batch(batch);
        assert_eq!(out.ops_accounted, 3);
        assert_eq!(out.freed_vns.len(), 3);
        assert_eq!(a.counts.served, 3);
        assert_eq!(a.samples.len(), 3);
        assert!(a.vclock_ns > 100, "clock advanced past the arrival");
        assert_eq!(a.stats.requests, 3);
        assert_eq!(a.stats.batches, 1);
        // All requests in one batch complete together.
        assert!(out.freed_vns.iter().all(|&t| t == a.vclock_ns));
        assert_eq!(a.samples[0], a.vclock_ns - 100);
    }

    #[test]
    fn failed_saga_joins_are_counted_not_silently_dropped() {
        use crate::traffic::Saga;
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
        use std::sync::Arc;

        let w = kv_shard(KvSync::Atomics);
        let cfg = ServeConfig::default();
        let mut a = actor(&w, &cfg);
        let mut gen = YcsbGen::new(4, 100);
        let ops = gen.generate(WorkloadMix::B, 2);

        // Saga 1: a sub-batch on another shard already failed — the join
        // here must free the client but withhold the latency sample and
        // count the suppression.
        let failed = Arc::new(Saga {
            remaining: AtomicUsize::new(1),
            latest_vns: AtomicU64::new(0),
            failed: AtomicBool::new(true),
            arrival_vns: 10,
        });
        // Saga 2: clean — joins normally and samples once.
        let clean = Arc::new(Saga {
            remaining: AtomicUsize::new(1),
            latest_vns: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            arrival_vns: 10,
        });
        let batch = vec![
            Req { op: ops[0], arrival_vns: 10, saga: Some(failed) },
            Req { op: ops[1], arrival_vns: 10, saga: Some(clean) },
        ];
        let out = a.run_one_batch(batch);
        assert_eq!(a.suppressed_joins, 1, "the failed join must be counted");
        assert_eq!(a.samples.len(), 1, "only the clean join samples latency");
        assert_eq!(out.freed_vns.len(), 2, "both joins free their clients");
    }
}
