//! The traced run: replays the live run's requests in-process on one
//! thread, through the public functions the server calls and in the order
//! it calls them, with a span around each call.
//!
//! * Reads: `protocol::parse_request` → the current epoch's engine → a job
//!   on the `ParPool` → `BatchEngine::answer`'s steps (engine memo,
//!   `CertaintyEngine::new`, `is_certain`, `is_possible`) for Boolean
//!   queries, or `possible_answers` → `EpochManager::answer_engine` →
//!   per `query_chunk` chunk `open_plan` → `prepare` → `eval_tuples` for
//!   open ones → `protocol::render_result`.
//! * Writes: insert/remove on the master database → `index()` →
//!   `snapshot()` → `ViewMaintainer::repair` per view →
//!   `BatchEngine::with_snapshot` → publish.
//!
//! Span names are `<layer>.<phase>`; the layer is the workspace crate.
//! Program counters are `cqa_obs::Registry` snapshot diffs over the
//! replay. The same prefix is replayed twice more from a fresh state, once
//! with `cqa_obs` metrics off and once without spans, for the two overhead
//! ratios.

use crate::drive::{Live, Workload};
use crate::served::Target;
use crate::spans::{self, SpanId, Tracer};
use crate::{metric, stats, Metric};
use cqa_core::answers::{possible_answers, shared_plan_cache, AnswerSets};
use cqa_core::solvers::{CertaintyEngine, CertaintySolver};
use cqa_data::{ChangeSet, Delta, Fact, Schema, UncertainDatabase};
use cqa_exec::cache::fingerprint;
use cqa_exec::ExecMode;
use cqa_par::{BatchEngine, BatchOutcome, BatchResult, ParPool};
use cqa_query::ConjunctiveQuery;
use cqa_serve::{protocol, EpochManager, Request, WriteOp};
use cqa_stream::{MaterializedView, ViewMaintainer};
use rustc_hash::FxHashMap;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The server's default `query_chunk`: candidates decided per batch.
const QUERY_CHUNK: usize = 256;
/// Share of `--seconds` the main traced replay may take.
const REPLAY_SHARE: f64 = 0.5;

pub struct Setup<'a> {
    pub cqdb: &'a Path,
    pub seconds: f64,
    pub workload: Workload,
    pub live: &'a Live,
    pub spans_out: &'a Path,
}

/// One replayed request, in live send order.
#[derive(Clone, Copy)]
enum Item<'a> {
    /// A read, with the live response when it names one epoch and the
    /// live latency when the read was measured.
    Read {
        text: &'a str,
        live: Option<&'a str>,
        live_ms: Option<f64>,
    },
    /// A write; `probe` marks the quiet write probe of a read-only
    /// workload, replayed for its effect but kept out of the budget, the
    /// overhead arms and the layer shares.
    Write {
        text: &'a str,
        target: Target,
        probe: bool,
    },
    Region {
        text: &'a str,
    },
}

/// The live run's requests in the order they were sent: set-up probe,
/// reads and writes merged by send time, then (for a traced `analytic`
/// run) the region probes.
fn items(live: &Live, workload: Workload) -> Vec<(f64, Item<'_>)> {
    let mut out: Vec<(f64, Item)> = Vec::new();
    if let Some(probe) = live.probes.last() {
        out.push((
            -1.0,
            Item::Read {
                text: &probe.text,
                live: Some(&probe.response),
                live_ms: None,
            },
        ));
    }
    for read in &live.reads {
        let exact = read.lo == read.hi;
        out.push((
            read.sent,
            Item::Read {
                text: &read.text,
                live: exact.then_some(read.response.as_str()),
                live_ms: read.measured.then_some(read.latency_ms),
            },
        ));
    }
    for write in &live.writes {
        out.push((
            write.sent,
            Item::Write {
                text: &write.text,
                target: write.target,
                probe: workload != Workload::WriteChurn,
            },
        ));
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    for region in &live.regions {
        out.push((f64::INFINITY, Item::Region { text: &region.text }));
    }
    out
}

type EngineMemo = Arc<Mutex<FxHashMap<String, Arc<CertaintyEngine>>>>;

/// Samples per per-layer metric name.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| stats::median(v))
            .unwrap_or(0.0)
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    fn merge(&mut self, other: Vec<(String, f64)>) {
        for (name, value) in other {
            self.add(&name, value);
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The replay's copy of the server state.
struct Replay {
    tracer: Tracer,
    schema: Arc<Schema>,
    master: UncertainDatabase,
    current: Arc<BatchEngine>,
    memo: Arc<EpochManager>,
    engines: EngineMemo,
    views: Vec<MaterializedView>,
    readings: HashMap<String, String>,
    maintainer: ViewMaintainer,
    pool: ParPool,
    samples: Samples,
    mismatches: usize,
    reads_replayed: usize,
    /// Live minus replayed latency of each replayed measured read, µs.
    transport: Vec<f64>,
}

/// What a read job sends back from the pool worker.
struct JobOut {
    result: BatchResult,
    samples: Vec<(String, f64)>,
}

/// One read's work on the pool, as the server's query job does it.
struct Job {
    engine: Arc<BatchEngine>,
    memo: Arc<EpochManager>,
    engines: EngineMemo,
    tracer: Tracer,
    parent: SpanId,
    request: u64,
    name: String,
    query: ConjunctiveQuery,
    spawned: Instant,
}

fn run_job(job: Job) -> JobOut {
    let started = Instant::now();
    let (t, r) = (&job.tracer, job.request);
    t.record("par.pool_wait", Some(job.parent), r, job.spawned, started);
    let mut samples = vec![("par.pool_wait_us".to_string(), us(started - job.spawned))];
    let db = job.engine.snapshot().database();
    let outcome = if job.query.is_boolean() {
        let (outcome, took) = t.span("par.answer", Some(job.parent), r, |answer| {
            let ((key, cached), _) = t.span("par.engine_memo", Some(answer), r, |_| {
                let key = fingerprint(&job.query);
                let cached = job
                    .engines
                    .lock()
                    .expect("engine memo lock poisoned")
                    .get(&key)
                    .cloned();
                (key, cached)
            });
            samples.push(("par.engine_hit".to_string(), f64::from(cached.is_some())));
            let engine = match cached {
                Some(engine) => engine,
                None => {
                    let (built, took) = t.span("core.engine_new", Some(answer), r, |_| {
                        CertaintyEngine::new(&job.query)
                    });
                    samples.push(("core.engine_new_us".to_string(), us(took)));
                    samples.push(("core.classify_query".to_string(), 0.0));
                    match built {
                        Ok(engine) => {
                            let engine = Arc::new(engine);
                            job.engines
                                .lock()
                                .expect("engine memo lock poisoned")
                                .entry(key)
                                .or_insert_with(|| engine.clone())
                                .clone()
                        }
                        Err(e) => return BatchOutcome::Error(e.to_string()),
                    }
                }
            };
            let solver = engine.solver_name();
            let (certain, took) = t.span(&format!("core.solve.{solver}"), Some(answer), r, |_| {
                engine.is_certain(db)
            });
            samples.push((format!("core.solve_ms.{solver}"), ms(took)));
            let (possible, _) =
                t.span("core.possible", Some(answer), r, |_| engine.is_possible(db));
            BatchOutcome::Boolean {
                certain,
                possible,
                solver,
            }
        });
        samples.push(("par.answer_ms".to_string(), ms(took)));
        outcome
    } else {
        open_query(&job, db, &mut samples)
    };
    JobOut {
        result: BatchResult {
            name: job.name,
            outcome,
        },
        samples,
    }
}

/// The server's chunked open-query path.
fn open_query(job: &Job, db: &UncertainDatabase, samples: &mut Vec<(String, f64)>) -> BatchOutcome {
    let (t, p, r) = (&job.tracer, Some(job.parent), job.request);
    let (possible, took) = t.span("core.enumerate", p, r, |_| possible_answers(&job.query, db));
    samples.push(("core.enumerate_ms".to_string(), ms(took)));
    let possible = match possible {
        Ok(possible) => possible,
        Err(e) => return BatchOutcome::Error(e.to_string()),
    };
    let memo_span = t.begin("serve.memo", p, r);
    let started = Instant::now();
    let before = job.memo.answer_engine_count();
    let engine = job.memo.answer_engine(&job.query);
    let fresh = job.memo.answer_engine_count() > before;
    let took = started.elapsed();
    t.end(memo_span);
    samples.push(("serve.memo_us".to_string(), us(took)));
    samples.push(("serve.memo_hit".to_string(), f64::from(!fresh)));
    if fresh {
        // The lookup built the engine: classification and rewriting.
        t.rename(memo_span, "core.engine_new");
        samples.push(("core.engine_new_us".to_string(), us(took)));
        samples.push(("core.classify_query".to_string(), 0.0));
    }
    let engine = match engine {
        Ok(engine) => engine,
        Err(e) => return BatchOutcome::Error(e),
    };
    let free = job.query.free_vars().to_vec();
    let tuples: Vec<Vec<cqa_data::Value>> = possible.iter().cloned().collect();
    let mut certain = BTreeSet::new();
    let mut eval_total = Duration::ZERO;
    let mut first = true;
    for chunk in tuples.chunks(QUERY_CHUNK) {
        let (plan, took) = t.span("exec.open_plan", p, r, |_| engine.open_plan(db));
        if first && fresh {
            samples.push(("exec.compile_us".to_string(), us(took)));
        }
        first = false;
        let verdicts = match plan {
            Some(plan) => {
                samples.push(("exec.batched_tuples".to_string(), chunk.len() as f64));
                let (prepared, took) = t.span("exec.prepare", p, r, |_| {
                    plan.prepare(&db.index()).with_mode(ExecMode::Auto)
                });
                samples.push(("exec.prepare_us".to_string(), us(took)));
                let (verdicts, took) = t.span("exec.eval_tuples", p, r, |_| {
                    prepared.eval_tuples(&free, chunk)
                });
                eval_total += took;
                Ok(verdicts)
            }
            None => {
                samples.push(("core.fallback_tuples".to_string(), chunk.len() as f64));
                t.span("core.fallback", p, r, |_| engine.verdicts(db, chunk))
                    .0
            }
        };
        match verdicts {
            Ok(verdicts) => {
                for (tuple, verdict) in chunk.iter().zip(verdicts) {
                    if verdict {
                        certain.insert(tuple.clone());
                    }
                }
            }
            Err(e) => return BatchOutcome::Error(e.to_string()),
        }
    }
    samples.push(("exec.eval_tuples_ms".to_string(), ms(eval_total)));
    samples.push(("core.candidates".to_string(), possible.len() as f64));
    samples.push(("core.certain".to_string(), certain.len() as f64));
    BatchOutcome::Answers(AnswerSets { certain, possible })
}

/// Applies one write to the master database, recording the exact deltas
/// the views must see (as the server's writer does).
fn mutate(db: &mut UncertainDatabase, op: &WriteOp) -> Result<(bool, ChangeSet), String> {
    let mut changes = ChangeSet::new();
    let changed = match op {
        WriteOp::Insert(fact) => {
            let inserted = db.insert(fact.clone()).map_err(|e| e.to_string())?;
            if inserted {
                changes.record(Delta::Inserted(fact.clone()));
            }
            inserted
        }
        WriteOp::RemoveFact(fact) => {
            let emptied = db.block_of(fact).is_some_and(cqa_data::Block::is_singleton);
            let removed = db.remove_fact(fact);
            if removed {
                changes.record(Delta::Removed {
                    fact: fact.clone(),
                    emptied_block: emptied,
                });
            }
            removed
        }
        WriteOp::RemoveBlock(fact) => {
            let schema = db.schema().clone();
            let members: Vec<Fact> = db
                .block_with_key(fact.relation(), fact.key(&schema))
                .map(|block| block.facts().to_vec())
                .unwrap_or_default();
            let removed = db.remove_block_of(fact);
            if removed {
                let last = members.len();
                for (i, member) in members.into_iter().enumerate() {
                    changes.record(Delta::Removed {
                        fact: member,
                        emptied_block: i + 1 == last,
                    });
                }
            }
            removed
        }
    };
    Ok((changed, changes))
}

fn render_view(view: &MaterializedView) -> String {
    protocol::render_result(&BatchResult {
        name: view.name().to_string(),
        outcome: BatchOutcome::Answers(view.answer_sets()),
    })
}

impl Replay {
    /// Loads the CQDB file and freezes epoch zero, as `certainty serve`
    /// does before it listens.
    fn start(cqdb: &Path, spans: bool, samples: &mut Samples) -> Result<Replay, String> {
        shared_plan_cache().clear();
        let started = Instant::now();
        let master = cqa_data::store::load(cqdb).map_err(|e| e.to_string())?;
        samples.add("data.load_ms", ms(started.elapsed()));
        let started = Instant::now();
        master.index();
        samples.add("data.index_build_ms", ms(started.elapsed()));
        let pool = ParPool::new(1);
        let schema = master.schema().clone();
        let current = Arc::new(BatchEngine::new(master.snapshot(), pool.clone()));
        let memo = Arc::new(EpochManager::new(
            UncertainDatabase::new(schema.clone()),
            pool.clone(),
        ));
        Ok(Replay {
            tracer: Tracer::new(spans),
            schema,
            master,
            current,
            memo,
            engines: Arc::default(),
            views: Vec::new(),
            readings: HashMap::new(),
            maintainer: ViewMaintainer::new(),
            pool,
            samples: Samples::default(),
            mismatches: 0,
            reads_replayed: 0,
            transport: Vec::new(),
        })
    }

    /// `\subscribe` during set-up: build and initialize the view.
    fn subscribe(&mut self, name: &str, text: &str, request: u64) -> Result<(), String> {
        let Ok(Some(Request::Query { query, .. })) = protocol::parse_request(&self.schema, text, 1)
        else {
            return Err(format!("view {name} does not parse"));
        };
        let t = self.tracer.clone();
        let (view, took) = t.span("request.subscribe", None, request, |root| {
            t.span("stream.initialize", Some(root), request, |_| {
                let mut view = MaterializedView::new(name, &query)?;
                self.maintainer
                    .initialize(&mut view, &self.master.snapshot())?;
                Ok::<_, String>(view)
            })
            .0
        });
        let view = view?;
        self.samples.add("stream.initialize_ms", ms(took));
        self.readings.insert(name.to_string(), render_view(&view));
        self.views.push(view);
        Ok(())
    }

    fn read(&mut self, text: &str, root_name: &str, request: u64) -> String {
        let t = self.tracer.clone();
        let root = t.begin(root_name, None, request);
        let (parsed, took) = t.span("serve.parse", Some(root), request, |_| {
            protocol::parse_request(&self.schema, text, request as usize)
        });
        self.samples.add("serve.parse_us", us(took));
        let response = match parsed {
            Ok(Some(Request::Query { name, query })) => {
                let (engine, _) =
                    t.span("serve.epoch", Some(root), request, |_| self.current.clone());
                let (tx, rx) = mpsc::channel();
                let dispatch = t.begin("par.dispatch", Some(root), request);
                let job = Job {
                    engine,
                    memo: self.memo.clone(),
                    engines: self.engines.clone(),
                    tracer: t.clone(),
                    parent: dispatch,
                    request,
                    name,
                    query: query.clone(),
                    spawned: Instant::now(),
                };
                self.pool.spawn(move || {
                    let _ = tx.send(run_job(job));
                });
                let out = rx.recv().expect("the replay job panicked");
                t.end(dispatch);
                if query.is_boolean() && out.samples.iter().any(|(n, _)| n == "core.classify_query")
                {
                    // A memo miss classified the query: time the
                    // classification alone, outside the request span.
                    let started = Instant::now();
                    let _ = cqa_core::classify(&query);
                    self.samples.add("core.classify_us", us(started.elapsed()));
                }
                self.samples.merge(out.samples);
                let (line, took) = t.span("serve.render", Some(root), request, |_| {
                    protocol::render_result(&out.result)
                });
                self.samples.add("serve.render_us", us(took));
                line
            }
            Ok(Some(Request::View { name })) => {
                t.span("serve.view", Some(root), request, |_| {
                    self.readings.get(&name).cloned().unwrap_or_default()
                })
                .0
            }
            _ => String::new(),
        };
        t.end(root);
        response
    }

    fn write(&mut self, text: &str, target: Target, root_name: &str, request: u64) {
        let t = self.tracer.clone();
        let root = t.begin(root_name, None, request);
        let write_started = Instant::now();
        let mut accounted = Duration::ZERO;
        let (parsed, took) = t.span("serve.parse", Some(root), request, |_| {
            protocol::parse_request(&self.schema, text, request as usize)
        });
        accounted += took;
        self.samples.add("serve.parse_us", us(took));
        let Ok(Some(Request::Write(op))) = parsed else {
            t.end(root);
            return;
        };
        let (mutated, took) = t.span("data.mutate", Some(root), request, |_| {
            mutate(&mut self.master, &op)
        });
        accounted += took;
        self.samples.add("data.mutate_us", us(took));
        let Ok((true, changes)) = mutated else {
            t.end(root);
            return;
        };
        let which = target.name();
        let (_, took) = t.span(
            &format!("data.index_patch.{which}"),
            Some(root),
            request,
            |_| self.master.index(),
        );
        accounted += took;
        self.samples
            .add(&format!("data.index_patch_ms.{which}"), ms(took));
        let (snapshot, took) = t.span(&format!("data.freeze.{which}"), Some(root), request, |_| {
            self.master.snapshot()
        });
        accounted += took;
        self.samples
            .add(&format!("data.freeze_ms.{which}"), ms(took));
        for view in &mut self.views {
            let name = view.name().to_string();
            let (outcome, took) = t.span(
                &format!("stream.repair.{name}"),
                Some(root),
                request,
                |_| self.maintainer.repair(view, &snapshot, &changes),
            );
            accounted += took;
            self.samples
                .add(&format!("stream.repair_ms.{name}"), ms(took));
            if let Ok(outcome) = outcome {
                self.samples
                    .add("stream.retouched", outcome.retouched as f64);
                self.samples
                    .add("stream.full_recompute", f64::from(outcome.full_recompute));
            }
            let (line, took) = t.span("serve.render_view", Some(root), request, |_| {
                render_view(view)
            });
            accounted += took;
            self.readings.insert(name, line);
        }
        let (next, took) = t.span("par.engine_fork", Some(root), request, |_| {
            Arc::new(self.current.with_snapshot(snapshot))
        });
        accounted += took;
        self.samples.add("par.engine_fork_us", us(took));
        t.span("serve.publish", Some(root), request, |_| {
            drop(std::mem::replace(&mut self.current, next));
        });
        t.end(root);
        self.samples.add(
            "serve.publish_us",
            us(write_started.elapsed().saturating_sub(accounted)),
        );
    }

    /// Replays `items` until they run out, `budget` is spent or `limit`
    /// requests were replayed; returns the time spent after each counted
    /// request (probe writes and region probes are replayed uncounted).
    fn run(&mut self, items: &[(f64, Item)], budget: Duration, limit: usize) -> Vec<Duration> {
        let mut spent = Duration::ZERO;
        let mut marks = Vec::new();
        for (request, (_, item)) in items.iter().enumerate() {
            if spent >= budget || marks.len() >= limit {
                break;
            }
            let request = request as u64 + 1;
            let started = Instant::now();
            match item {
                Item::Read {
                    text,
                    live,
                    live_ms,
                } => {
                    let started = Instant::now();
                    let response = self.read(text, "request.read", request);
                    if let Some(live_ms) = live_ms {
                        self.transport.push(live_ms * 1e3 - us(started.elapsed()));
                    }
                    self.reads_replayed += 1;
                    if live.is_some_and(|l| l != response) {
                        self.mismatches += 1;
                    }
                }
                Item::Write {
                    text,
                    target,
                    probe: true,
                } => {
                    self.write(text, *target, "request.probe", request);
                    continue;
                }
                Item::Write { text, target, .. } => {
                    self.write(text, *target, "request.write", request)
                }
                Item::Region { .. } => continue,
            }
            spent += started.elapsed();
            marks.push(spent);
        }
        marks
    }

    fn regions(&mut self, items: &[(f64, Item)]) {
        for (request, (_, item)) in items.iter().enumerate() {
            if let Item::Region { text } = item {
                self.read(text, "request.region", request as u64 + 1);
            }
        }
    }
}

/// Fresh replay of the first `count` items, timed; the arm of an overhead
/// ratio.
fn timed_prefix(setup: &Setup, items: &[(f64, Item)], count: usize, spans: bool) -> f64 {
    let mut scratch = Samples::default();
    let Ok(mut replay) = Replay::start(setup.cqdb, spans, &mut scratch) else {
        return f64::NAN;
    };
    if setup.workload == Workload::WriteChurn {
        for (i, (name, text)) in crate::served::views().into_iter().enumerate() {
            let _ = replay.subscribe(name, text, i as u64);
        }
    }
    // The arms time reads and `write-churn`'s writes only; the quiet write
    // probe would only add the same few seconds to every arm.
    let counted: Vec<(f64, Item)> = items
        .iter()
        .filter(|(_, item)| !matches!(item, Item::Write { probe: true, .. }))
        .copied()
        .collect();
    let marks = replay.run(&counted, Duration::MAX, count);
    marks.last().map_or(f64::NAN, Duration::as_secs_f64)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer metrics, every name in a fixed order so each traced run
/// prints the same set (a layer a workload does not reach reads 0).
pub fn per_layer(setup: &Setup) -> Vec<Metric> {
    let items = items(setup.live, setup.workload);
    let before = cqa_obs::Registry::global().snapshot();
    let mut samples = Samples::default();
    let mut replay = match Replay::start(setup.cqdb, true, &mut samples) {
        Ok(replay) => replay,
        Err(e) => {
            eprintln!("perfbench: traced replay could not start: {e}");
            return Vec::new();
        }
    };
    let started = Instant::now();
    let saved = cqa_data::store::save_to_vec(&replay.master);
    samples.add("data.save_ms", ms(started.elapsed()));
    let bytes_per_fact = saved.len() as f64 / replay.master.fact_count().max(1) as f64;
    if setup.workload == Workload::WriteChurn {
        for (i, (name, text)) in crate::served::views().into_iter().enumerate() {
            if let Err(e) = replay.subscribe(name, text, i as u64) {
                eprintln!("perfbench: replay subscription failed: {e}");
            }
        }
    }
    let budget = Duration::from_secs_f64(setup.seconds * REPLAY_SHARE);
    let marks = replay.run(&items, budget, usize::MAX);
    replay.regions(&items);
    let diff = cqa_obs::Registry::global().snapshot().diff(&before);
    let memo_entries = replay.memo.answer_engine_count()
        + replay
            .engines
            .lock()
            .expect("engine memo lock poisoned")
            .len();
    let spans = replay.tracer.spans();
    if let Err(e) = std::fs::write(setup.spans_out, spans::to_tsv(&spans)) {
        eprintln!("perfbench: {}: {e}", setup.spans_out.display());
    }
    for (name, values) in std::mem::take(&mut replay.samples).0 {
        samples.0.entry(name).or_default().extend(values);
    }
    let (mismatches, reads_replayed) = (replay.mismatches, replay.reads_replayed);
    let transport = std::mem::take(&mut replay.transport);
    drop(replay);

    // The overhead arms: the same prefix from a fresh state with spans and
    // metrics on, with metrics off, and with spans off, alternated twice;
    // each arm keeps its faster time.
    let prefix = (marks.len() / 6).max(1);
    let mut arms = [f64::INFINITY; 3];
    for _ in 0..2 {
        for (arm, (metrics_on, spans_on)) in [(true, true), (false, true), (true, false)]
            .into_iter()
            .enumerate()
        {
            cqa_obs::set_enabled(metrics_on);
            arms[arm] = arms[arm].min(timed_prefix(setup, &items, prefix, spans_on));
        }
    }
    cqa_obs::set_enabled(true);
    let [traced, metrics_off, spans_off] = arms;

    // Request breakdown: the parts sum to the request spans exactly.
    let breakdown = spans::breakdown(&spans);
    for (kind, total) in &breakdown.total {
        let parts = &breakdown.parts[kind];
        let sum: u64 = parts.values().sum();
        let mut line = format!(
            "# trace {kind}: {:.1} ms total (parts sum {:.1} ms)",
            *total as f64 / 1e6,
            sum as f64 / 1e6
        );
        let mut sorted: Vec<(&String, &u64)> = parts.iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(a.1));
        for (name, own) in sorted {
            line.push_str(&format!("; {name} {:.1}", *own as f64 / 1e6));
        }
        println!("{line}");
    }
    println!(
        "# trace replayed {} requests ({} reads, {} differing from the live response)",
        marks.len(),
        reads_replayed,
        mismatches
    );
    let request_roots = ["request.read", "request.write"];
    let layers = spans::layer_self_times(&spans, &request_roots);
    let request_total: u64 = request_roots
        .iter()
        .filter_map(|k| breakdown.total.get(*k))
        .sum();
    let share = |layer: &str| {
        ratio(
            layers.get(layer).copied().unwrap_or(0) as f64,
            request_total as f64,
        )
    };

    let hit_ratio = |name: &str| {
        samples
            .0
            .get(name)
            .map_or(0.0, |v| ratio(v.iter().sum(), v.len() as f64))
    };
    let counter = |name: &str| diff.counter(name) as f64;
    let lazy_ns: u64 = [
        "data.position_index.build_nanos",
        "data.columnar.build_nanos",
        "data.code_index.build_nanos",
    ]
    .iter()
    .filter_map(|n| diff.histogram(n).map(|h| h.sum))
    .sum();
    let decided = samples.sum("exec.batched_tuples") + samples.sum("core.fallback_tuples");
    let repairs = samples.count("stream.full_recompute");

    let mut out = vec![
        metric(
            "serve.parse_us",
            samples.median("serve.parse_us"),
            "us",
            samples.count("serve.parse_us"),
        ),
        metric(
            "serve.render_us",
            samples.median("serve.render_us"),
            "us",
            samples.count("serve.render_us"),
        ),
        metric(
            "serve.memo_us",
            samples.median("serve.memo_us"),
            "us",
            samples.count("serve.memo_us"),
        ),
        metric(
            "serve.memo_hit_ratio",
            hit_ratio("serve.memo_hit"),
            "ratio",
            samples.count("serve.memo_hit"),
        ),
        metric("serve.memo_entries", memo_entries as f64, "count", 1),
        metric(
            "serve.pinned_epochs_max",
            setup.live.pinned_max as f64,
            "count",
            1,
        ),
        metric(
            "serve.transport_us",
            stats::median(&transport).unwrap_or(0.0),
            "us",
            transport.len(),
        ),
        metric(
            "serve.publish_us",
            samples.median("serve.publish_us"),
            "us",
            samples.count("serve.publish_us"),
        ),
        metric(
            "par.pool_wait_us",
            samples.median("par.pool_wait_us"),
            "us",
            samples.count("par.pool_wait_us"),
        ),
        metric(
            "par.answer_ms",
            samples.median("par.answer_ms"),
            "ms",
            samples.count("par.answer_ms"),
        ),
        metric(
            "par.engine_fork_us",
            samples.median("par.engine_fork_us"),
            "us",
            samples.count("par.engine_fork_us"),
        ),
        metric(
            "par.engine_hit_ratio",
            hit_ratio("par.engine_hit"),
            "ratio",
            samples.count("par.engine_hit"),
        ),
        metric(
            "core.enumerate_ms",
            samples.median("core.enumerate_ms"),
            "ms",
            samples.count("core.enumerate_ms"),
        ),
        metric(
            "core.engine_new_us",
            samples.median("core.engine_new_us"),
            "us",
            samples.count("core.engine_new_us"),
        ),
        metric(
            "core.classify_us",
            samples.median("core.classify_us"),
            "us",
            samples.count("core.classify_us"),
        ),
    ];
    // The rewriting solver answers every workload; the others only
    // `analytic`'s region probes, so they are reported when reached.
    for solver in [
        "rewriting",
        "terminal-cycles",
        "cycle-query",
        "exact-oracle",
    ] {
        let name = format!("core.solve_ms.{solver}");
        if solver != "rewriting" && samples.count(&name) == 0 {
            continue;
        }
        out.push(metric(
            &name,
            samples.median(&name),
            "ms",
            samples.count(&name),
        ));
    }
    out.extend([
        metric(
            "core.candidates",
            ratio(
                samples.sum("core.candidates"),
                samples.count("core.candidates") as f64,
            ),
            "count",
            samples.count("core.candidates"),
        ),
        metric(
            "core.certain_share",
            ratio(samples.sum("core.certain"), samples.sum("core.candidates")),
            "ratio",
            samples.count("core.candidates"),
        ),
        metric(
            "core.fallback_share",
            ratio(samples.sum("core.fallback_tuples"), decided),
            "ratio",
            decided as usize,
        ),
        metric(
            "exec.compile_us",
            samples.median("exec.compile_us"),
            "us",
            samples.count("exec.compile_us"),
        ),
        metric(
            "exec.prepare_us",
            samples.median("exec.prepare_us"),
            "us",
            samples.count("exec.prepare_us"),
        ),
        metric(
            "exec.eval_tuples_ms",
            samples.median("exec.eval_tuples_ms"),
            "ms",
            samples.count("exec.eval_tuples_ms"),
        ),
        metric(
            "exec.vec_share",
            ratio(
                counter("exec.fo.eval_tuples.vec"),
                counter("exec.fo.eval_tuples.vec") + counter("exec.fo.eval_tuples.row"),
            ),
            "ratio",
            (counter("exec.fo.eval_tuples.vec") + counter("exec.fo.eval_tuples.row")) as usize,
        ),
        metric(
            "exec.plan_cache_hit_ratio",
            diff.hit_rate("exec.plan_cache").unwrap_or(0.0),
            "ratio",
            (counter("exec.plan_cache.hit") + counter("exec.plan_cache.miss")) as usize,
        ),
        metric(
            "exec.plan_cache_evictions",
            counter("exec.plan_cache.eviction"),
            "count",
            1,
        ),
        metric(
            "exec.plan_stale",
            counter("exec.plan_cache.stale") + counter("core.answers.plan_stale"),
            "count",
            1,
        ),
        metric(
            "data.load_ms",
            samples.median("data.load_ms"),
            "ms",
            samples.count("data.load_ms"),
        ),
        metric(
            "data.index_build_ms",
            samples.median("data.index_build_ms"),
            "ms",
            samples.count("data.index_build_ms"),
        ),
        metric("data.lazy_build_ms", lazy_ns as f64 / 1e6, "ms", 1),
        metric(
            "data.save_ms",
            samples.median("data.save_ms"),
            "ms",
            samples.count("data.save_ms"),
        ),
        metric("data.bytes_per_fact", bytes_per_fact, "B", 1),
        metric(
            "data.mutate_us",
            samples.median("data.mutate_us"),
            "us",
            samples.count("data.mutate_us"),
        ),
    ]);
    for step in ["data.index_patch_ms", "data.freeze_ms"] {
        for target in [Target::Small, Target::Large] {
            let name = format!("{step}.{}", target.name());
            out.push(metric(
                &name,
                samples.median(&name),
                "ms",
                samples.count(&name),
            ));
        }
    }
    out.push(metric(
        "data.delta_fallbacks",
        counter("data.index.delta_fallback_rebuild"),
        "count",
        1,
    ));
    out.push(metric(
        "stream.initialize_ms",
        samples.sum("stream.initialize_ms"),
        "ms",
        samples.count("stream.initialize_ms"),
    ));
    for (view, _) in crate::served::views() {
        let name = format!("stream.repair_ms.{view}");
        out.push(metric(
            &name,
            samples.median(&name),
            "ms",
            samples.count(&name),
        ));
    }
    out.extend([
        metric(
            "stream.retouched_per_repair",
            ratio(samples.sum("stream.retouched"), repairs as f64),
            "count",
            repairs,
        ),
        metric(
            "stream.full_recompute_share",
            ratio(samples.sum("stream.full_recompute"), repairs as f64),
            "ratio",
            repairs,
        ),
        metric(
            "obs.metrics_overhead",
            ratio(traced, metrics_off),
            "ratio",
            prefix,
        ),
        metric(
            "obs.trace_overhead",
            ratio(traced, spans_off),
            "ratio",
            prefix,
        ),
    ]);
    for layer in [
        "serve",
        "par",
        "core",
        "exec",
        "data",
        "stream",
        "unattributed",
    ] {
        out.push(metric(
            &format!("self_share.{layer}"),
            share(layer),
            "ratio",
            1,
        ));
    }
    out.push(metric("trace.requests", marks.len() as f64, "count", 1));
    out.push(metric(
        "trace.replay_mismatches",
        mismatches as f64,
        "count",
        reads_replayed,
    ));
    out
}
