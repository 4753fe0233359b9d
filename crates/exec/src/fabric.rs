//! The supervised, sharded work-stealing fabric one batch runs on.
//!
//! Admitted jobs are partitioned across N shards by their canonical
//! cache key (`fnv64(key) % shards`), each shard owning a deque of
//! pending work and `workers` threads. A worker drains its own shard's
//! deque first and steals from other shards when it runs dry, so a slow
//! or dead shard cannot strand queued work. Every claimed job goes
//! through the batch's [`JobExecutor`] — the fabric schedules, it does
//! not execute.
//!
//! Above the shards sits a *supervisor* thread: every shard heartbeats
//! as it claims and finishes work, and the supervisor quarantines a
//! shard whose workers have all died (injected kill) or gone silent
//! (wedge), re-dispatches its claimed-but-unfinished jobs, and restarts
//! its worker complement one generation up. Results are sent exactly
//! once per job — a faulted worker orphans its claim *before* any
//! attempt runs, and the supervisor re-dispatches only orphans absent
//! from the completed set (the in-memory view of the checkpoint
//! journal) — so the canonical report is byte-identical across shard
//! counts and across injected shard faults (`tests/determinism.rs`,
//! `tests/resilience.rs`).

use crate::attempt::{BatchContext, JobExecutor, QueuedJob};
use crate::cache::CacheKey;
use crate::engine::Checkpoint;
use crate::job::JobResult;
use crate::metrics::{ShardRecord, WorkerRecord};
use chipforge_obs::Tracer;
use chipforge_resil::{fnv64, ShardFault, ShardFaultPlan};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

enum Message {
    Job(JobResult),
    Worker(WorkerRecord),
}

/// Shard liveness latch states set by injected shard faults; a healthy
/// shard's latch stays at its default, 0.
const SHARD_KILLED: u8 = 1;
const SHARD_WEDGED: u8 = 2;

/// Heartbeat staleness (ms) after which the supervisor declares an
/// idle-but-live shard wedged. Healthy workers beat every claim-loop
/// iteration (~1 ms idle) and are exempt while busy, so only a shard
/// that truly went silent crosses this.
const WEDGE_THRESHOLD_MS: u64 = 60;

/// One shard of the execution fabric: its pending-work deque plus the
/// liveness and telemetry state the supervisor reads. The default is an
/// empty, healthy shard.
#[derive(Default)]
struct ShardState {
    queue: Mutex<VecDeque<QueuedJob>>,
    /// Jobs claimed by a worker that was killed or wedged before any
    /// attempt ran. Deliberately *not* stealable: only the supervisor
    /// re-dispatches them, after checking the completed set.
    orphans: Mutex<Vec<QueuedJob>>,
    /// Kill/wedge latch: once set, every original-generation worker of
    /// the shard dies (or goes silent) at its next loop iteration.
    latch: AtomicU8,
    /// Jobs claimed by original-generation workers; drives the
    /// `after_jobs` fault trigger.
    claims: AtomicU64,
    /// Milliseconds since batch start at the last worker heartbeat.
    heartbeat_ms: AtomicU64,
    /// Workers of this shard currently executing a job.
    busy: AtomicUsize,
    /// Live worker threads (any generation).
    live: AtomicUsize,
    jobs_run: AtomicU64,
    steals: AtomicU64,
    quarantines: AtomicU64,
    restarts: AtomicU64,
    redispatched: AtomicU64,
}

/// What every worker of one batch shares besides the queues.
pub(crate) struct Shared {
    pub(crate) executor: Arc<JobExecutor>,
    pub(crate) batch: BatchContext,
    pub(crate) shard_plan: ShardFaultPlan,
    pub(crate) checkpoint: Checkpoint,
    /// One tracer per worker id, parented to the batch span.
    pub(crate) worker_tracers: Vec<Tracer>,
}

/// One worker thread's place in the fabric. Replacement workers reuse
/// their predecessor's `worker_id` one `generation` up.
#[derive(Clone, Copy)]
struct WorkerSlot {
    worker_id: usize,
    shard_id: usize,
    generation: u32,
}

/// The batch-wide sharded fabric shared by workers and the supervisor.
pub(crate) struct Fabric {
    shards: Vec<ShardState>,
    per_shard: usize,
    /// Admitted jobs that have not yet sent a terminal result. Workers
    /// exit when it reaches zero, which is also the supervisor's (and
    /// any wedged thread's) termination signal.
    outstanding: AtomicUsize,
    /// Indices of jobs whose result has been sent — the in-memory view
    /// of the checkpoint journal that makes supervisor re-dispatch
    /// exactly-once.
    completed: Mutex<HashSet<usize>>,
    started: Instant,
    pub(crate) shared: Shared,
}

impl Fabric {
    /// A fabric of `shard_count` shards × `per_shard` workers whose
    /// heartbeats are measured from `started`.
    pub(crate) fn new(
        shard_count: usize,
        per_shard: usize,
        started: Instant,
        shared: Shared,
    ) -> Self {
        Fabric {
            shards: (0..shard_count.max(1))
                .map(|_| ShardState::default())
                .collect(),
            per_shard: per_shard.max(1),
            outstanding: AtomicUsize::new(0),
            completed: Mutex::new(HashSet::new()),
            started,
            shared,
        }
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn beat(&self, shard_id: usize) {
        self.shards[shard_id]
            .heartbeat_ms
            .store(self.elapsed_ms(), Ordering::SeqCst);
    }

    fn heartbeat_age_ms(&self, shard_id: usize) -> u64 {
        self.elapsed_ms()
            .saturating_sub(self.shards[shard_id].heartbeat_ms.load(Ordering::SeqCst))
    }

    /// Whether workers should keep looking for work.
    fn draining(&self) -> bool {
        self.outstanding.load(Ordering::SeqCst) > 0 && !self.shared.checkpoint.is_halted()
    }

    /// Runs `work` to completion (or to the checkpoint's halt) and
    /// returns the terminal results in arrival order plus one merged
    /// record per worker id.
    pub(crate) fn run(
        self: &Arc<Self>,
        work: Vec<QueuedJob>,
    ) -> (Vec<JobResult>, Vec<WorkerRecord>) {
        // Partition admitted work across the shard deques by canonical
        // cache key — a pure function of each job's content, so the
        // partition is identical across runs and shard restarts.
        self.outstanding.store(work.len(), Ordering::SeqCst);
        let shard_count = self.shards.len();
        for item in work {
            self.shards[shard_of(&item.key, shard_count)]
                .queue
                .lock()
                .expect("shard queue lock")
                .push_back(item);
        }

        let (result_tx, result_rx) = mpsc::channel::<Message>();
        let mut handles = Vec::new();
        for shard_id in 0..shard_count {
            for slot in 0..self.per_shard {
                let slot = WorkerSlot {
                    worker_id: shard_id * self.per_shard + slot,
                    shard_id,
                    generation: 0,
                };
                handles.push(spawn_worker(self, slot, &result_tx));
            }
        }
        // The supervisor owns crash recovery: it heartbeat-monitors
        // every shard and holds its own sender clone, so the collector
        // stays open until any replacement workers it spawns report.
        let supervisor = {
            let fabric = Arc::clone(self);
            let result_tx = result_tx.clone();
            thread::Builder::new()
                .name("exec-supervisor".into())
                .spawn(move || supervise(&fabric, &result_tx))
                .expect("spawn supervisor")
        };
        drop(result_tx);

        let mut results = Vec::new();
        // Replacement workers reuse their predecessor's worker id, so
        // records are merged per id rather than appended.
        let mut worker_records: HashMap<usize, WorkerRecord> = HashMap::new();
        while let Ok(message) = result_rx.recv() {
            match message {
                Message::Job(result) => results.push(result),
                Message::Worker(record) => {
                    let entry =
                        worker_records
                            .entry(record.worker)
                            .or_insert_with(|| WorkerRecord {
                                worker: record.worker,
                                jobs_run: 0,
                                busy_ms: 0.0,
                                utilization: 0.0,
                            });
                    entry.jobs_run += record.jobs_run;
                    entry.busy_ms += record.busy_ms;
                }
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
        let _ = supervisor.join();
        (results, worker_records.into_values().collect())
    }

    /// Per-shard telemetry, in shard order.
    pub(crate) fn shard_records(&self) -> Vec<ShardRecord> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard_id, shard)| ShardRecord {
                shard: shard_id,
                jobs_run: shard.jobs_run.load(Ordering::SeqCst),
                steals: shard.steals.load(Ordering::SeqCst),
                quarantines: shard.quarantines.load(Ordering::SeqCst),
                restarts: shard.restarts.load(Ordering::SeqCst),
                redispatched: shard.redispatched.load(Ordering::SeqCst),
                heartbeat_age_ms: self.heartbeat_age_ms(shard_id) as f64,
            })
            .collect()
    }
}

/// The home shard for a job: a pure function of its canonical cache
/// key, so the partition is identical across runs, worker counts and
/// resume boundaries.
pub(crate) fn shard_of(key: &CacheKey, shard_count: usize) -> usize {
    usize::try_from(fnv64(key.to_string().as_bytes()) % shard_count.max(1) as u64).unwrap_or(0)
}

/// Claims the next pending job: the worker's own shard first, then the
/// other shards in ring order (a steal). Returns the item and whether
/// it was stolen.
fn claim(fabric: &Fabric, shard_id: usize) -> Option<(QueuedJob, bool)> {
    let shard_count = fabric.shards.len();
    (0..shard_count).find_map(|offset| {
        fabric.shards[(shard_id + offset) % shard_count]
            .queue
            .lock()
            .expect("shard queue lock")
            .pop_front()
            .map(|item| (item, offset > 0))
    })
}

/// Starts one worker thread in `slot`, counted live on its shard.
fn spawn_worker(
    fabric: &Arc<Fabric>,
    slot: WorkerSlot,
    result_tx: &mpsc::Sender<Message>,
) -> thread::JoinHandle<()> {
    fabric.shards[slot.shard_id]
        .live
        .fetch_add(1, Ordering::SeqCst);
    let fabric = Arc::clone(fabric);
    let result_tx = result_tx.clone();
    let suffix = if slot.generation == 0 { "" } else { "-r" };
    thread::Builder::new()
        .name(format!("exec-worker-{}{suffix}", slot.worker_id))
        .spawn(move || shard_worker_loop(&fabric, slot, &result_tx))
        .expect("spawn worker")
}

fn shard_worker_loop(fabric: &Fabric, slot: WorkerSlot, result_tx: &mpsc::Sender<Message>) {
    let WorkerSlot {
        worker_id,
        shard_id,
        generation,
    } = slot;
    let shared = &fabric.shared;
    let tracer = &shared.worker_tracers[worker_id];
    let mut busy = Duration::ZERO;
    let mut jobs_run = 0u64;
    let shard = &fabric.shards[shard_id];
    // The injected shard fault is decided once, purely from (seed,
    // shard): restarted workers (generation > 0) always run clean, so
    // a killed shard never flaps and every batch terminates.
    let my_fault = if generation == 0 {
        shared.shard_plan.fault_for(shard_id)
    } else {
        ShardFault::None
    };
    // A halted batch (halt_after) stops pulling work: in-flight jobs
    // finish and are journaled, queued jobs are simply dropped —
    // exactly what a kill -9 leaves behind, minus the torn line.
    while fabric.draining() {
        // Once a peer tripped the shard's fault latch, every original
        // worker of the shard follows it down at its next iteration.
        match shard.latch.load(Ordering::SeqCst) {
            SHARD_KILLED if generation == 0 => break,
            SHARD_WEDGED if generation == 0 => {
                wedge_until_done(fabric);
                break;
            }
            _ => {}
        }
        fabric.beat(shard_id);
        let Some((item, stolen)) = claim(fabric, shard_id) else {
            thread::sleep(Duration::from_millis(1));
            continue;
        };
        if stolen {
            shard.steals.fetch_add(1, Ordering::SeqCst);
        }
        match my_fault {
            ShardFault::Kill | ShardFault::Wedge => {
                let claims = shard.claims.fetch_add(1, Ordering::SeqCst) + 1;
                if claims > shared.shard_plan.after_jobs {
                    // The fault fires *at claim time*, before any attempt
                    // runs: the claimed item is orphaned for the
                    // supervisor, never half-executed, so a re-dispatched
                    // job replays from a clean slate and the canonical
                    // report stays byte-identical.
                    let latch = if my_fault == ShardFault::Kill {
                        SHARD_KILLED
                    } else {
                        SHARD_WEDGED
                    };
                    shard.latch.store(latch, Ordering::SeqCst);
                    shard.orphans.lock().expect("orphan lock").push(item);
                    tracer.instant("shard-fault", "exec", &format!("shard-{shard_id}"));
                    if my_fault == ShardFault::Wedge {
                        wedge_until_done(fabric);
                    }
                    break;
                }
            }
            ShardFault::Slow(ms) => {
                // A slow shard is alive: it keeps heartbeating while it
                // crawls, so the supervisor routes around it via work
                // stealing instead of quarantining it.
                let mut remaining = ms;
                while remaining > 0 {
                    let step = remaining.min(10);
                    thread::sleep(Duration::from_millis(step));
                    fabric.beat(shard_id);
                    remaining -= step;
                }
            }
            ShardFault::None => {}
        }
        let picked_up = Instant::now();
        // Busy covers run + journal + send: while any of that is in
        // flight the supervisor must not read this shard as silent.
        shard.busy.fetch_add(1, Ordering::SeqCst);
        let result = shared.executor.run(worker_id, &item, &shared.batch, tracer);
        shared.checkpoint.record(item.key, &result, tracer);
        busy += picked_up.elapsed();
        jobs_run += 1;
        shard.jobs_run.fetch_add(1, Ordering::SeqCst);
        // Exactly-once bookkeeping: record completion *before* sending
        // and before decrementing `outstanding`, so the supervisor can
        // never re-dispatch a job whose result exists.
        fabric
            .completed
            .lock()
            .expect("completed lock")
            .insert(item.index);
        let sent = result_tx.send(Message::Job(result)).is_ok();
        fabric.beat(shard_id);
        shard.busy.fetch_sub(1, Ordering::SeqCst);
        fabric.outstanding.fetch_sub(1, Ordering::SeqCst);
        if !sent {
            break;
        }
    }
    shard.live.fetch_sub(1, Ordering::SeqCst);
    let _ = result_tx.send(Message::Worker(WorkerRecord {
        worker: worker_id,
        jobs_run,
        busy_ms: busy.as_secs_f64() * 1_000.0,
        utilization: 0.0, // filled in by ExecutionReport::build
    }));
}

/// What an injected wedge does: the thread stops heartbeating and stops
/// claiming work but does not exit — a hung tool process. It parks
/// until the batch is over so the test harness never leaks it.
fn wedge_until_done(fabric: &Fabric) {
    while fabric.draining() {
        thread::sleep(Duration::from_millis(2));
    }
}

/// The supervision loop: polls every shard until the batch drains,
/// detects a dead shard (fault latch tripped and all workers gone) or a
/// silent one (live but not heartbeating and not busy), quarantines it,
/// re-dispatches its orphaned in-flight jobs — filtered against the
/// completed set so nothing ever runs twice — and restarts its worker
/// complement one generation up.
fn supervise(fabric: &Arc<Fabric>, result_tx: &mpsc::Sender<Message>) {
    let per_shard = fabric.per_shard;
    let mut handled = vec![false; fabric.shards.len()];
    let mut replacements: Vec<thread::JoinHandle<()>> = Vec::new();
    while fabric.draining() {
        for (shard_id, shard) in fabric.shards.iter().enumerate() {
            if handled[shard_id] {
                continue;
            }
            let dead = shard.latch.load(Ordering::SeqCst) == SHARD_KILLED
                && shard.live.load(Ordering::SeqCst) == 0;
            let silent = shard.live.load(Ordering::SeqCst) > 0
                && shard.busy.load(Ordering::SeqCst) == 0
                && fabric.heartbeat_age_ms(shard_id) > WEDGE_THRESHOLD_MS;
            if !(dead || silent) {
                continue;
            }
            handled[shard_id] = true;
            shard.quarantines.fetch_add(1, Ordering::SeqCst);
            fabric.shared.worker_tracers[shard_id * per_shard].instant(
                "shard-quarantine",
                "exec",
                &format!("shard-{shard_id}"),
            );
            // Re-dispatch the shard's orphaned in-flight jobs. The
            // completed set mirrors the checkpoint journal: anything
            // with a result already sent (and journaled) is skipped,
            // which is what makes recovery exactly-once.
            let mut orphans: Vec<QueuedJob> = {
                let mut list = shard.orphans.lock().expect("orphan lock");
                list.drain(..).collect()
            };
            {
                let completed = fabric.completed.lock().expect("completed lock");
                orphans.retain(|item| !completed.contains(&item.index));
            }
            orphans.sort_by_key(|item| item.index);
            shard
                .redispatched
                .fetch_add(orphans.len() as u64, Ordering::SeqCst);
            {
                let mut queue = shard.queue.lock().expect("shard queue lock");
                for item in orphans.into_iter().rev() {
                    queue.push_front(item);
                }
            }
            // Restart the shard's worker complement one generation up;
            // replacements run clean and reuse their predecessors' ids.
            shard.restarts.fetch_add(1, Ordering::SeqCst);
            fabric.beat(shard_id);
            for slot in 0..per_shard {
                let slot = WorkerSlot {
                    worker_id: shard_id * per_shard + slot,
                    shard_id,
                    generation: 1,
                };
                replacements.push(spawn_worker(fabric, slot, result_tx));
            }
        }
        thread::sleep(Duration::from_millis(2));
    }
    for handle in replacements {
        let _ = handle.join();
    }
}
