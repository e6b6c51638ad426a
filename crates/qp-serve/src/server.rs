//! The serving loop: a TCP listener speaking newline-delimited JSON,
//! thread-per-connection, with a fair-share worker pool executing jobs
//! through the checkpointed engine.
//!
//! ## Protocol
//!
//! One JSON object per line, one or more JSON lines back:
//!
//! | op         | fields                          | reply                       |
//! |------------|---------------------------------|-----------------------------|
//! | `submit`   | `request`, `wait?`, `stream?`   | job id, result if waited    |
//! | `status`   | `job`                           | state + recent progress     |
//! | `wait`     | `job`, `stream?`                | result (streams progress)   |
//! | `stats`    |                                 | cache/queue/usage counters  |
//! | `preempt`  | `job`                           | ack (checkpointed + requeued)|
//! | `shutdown` |                                 | ack, then the server drains |
//!
//! With `stream: true`, `submit --wait`/`wait` interleave
//! `{"event":"progress","line":...}` records before the final reply.
//!
//! ## Durability
//!
//! With a state dir, every job's request + terminal state is mirrored to
//! `job_<id>.meta.json` and its in-flight engine state to `job_<id>.qpck`.
//! A restarted server re-admits pending jobs (resuming from their
//! checkpoints) and re-seeds the result cache from completed ones, so a
//! `kill -9` mid-job costs at most one checkpoint interval of work and
//! zero correctness: the resumed job reproduces the uninterrupted bits.

use crate::cache::ResultCache;
use crate::engine::{self, EngineOutcome};
use crate::json::{obj, parse, Json};
use crate::request::JobRequest;
use crate::result::JobResultData;
use crate::sched::Scheduler;
use crate::ServeError;
use qp_resil::JobCheckpoint;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Worker threads tag their OS thread with `BASE + job_id` so the span
/// observer can attribute qp-trace phase spans back to the job they ran
/// under (ordinary ranks live far below this).
const JOB_RANK_BASE: usize = 1 << 32;

/// Cap on stored progress lines per job; past it, span-derived lines are
/// dropped (counted) so a pathological job cannot hold the log hostage.
const PROGRESS_CAP: usize = 10_000;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Durability directory for job metadata + checkpoints (`None` =
    /// in-memory only; preemption still works, process death loses jobs).
    pub state_dir: Option<PathBuf>,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Fair-share time slice: a job holding a worker longer than this
    /// yields (at its next iteration boundary) to a hungrier tenant.
    pub slice: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: None,
            workers: 1,
            slice: Duration::from_millis(250),
        }
    }
}

/// Job lifecycle.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Done(JobResultData),
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

struct ProgressLog {
    lines: Vec<String>,
    dropped: usize,
}

struct Job {
    id: u64,
    tenant: String,
    request: JobRequest,
    /// The request as received, for state-dir persistence.
    request_json: Json,
    /// Canonical content address (cache + checkpoint validation).
    canonical: String,
    key: [u64; 2],
    state: Mutex<JobState>,
    progress: Mutex<ProgressLog>,
    cv: Condvar,
    preempt: AtomicBool,
    /// In-memory engine state of a preempted job (file mirror is in the
    /// state dir, when configured).
    ckpt: Mutex<Option<JobCheckpoint>>,
}

impl Job {
    fn push_progress(&self, line: &str, from_span: bool) {
        let mut log = self.progress.lock().unwrap();
        if from_span && log.lines.len() >= PROGRESS_CAP {
            log.dropped += 1;
        } else {
            log.lines.push(line.to_string());
        }
        drop(log);
        self.cv.notify_all();
    }

    /// Change the state and notify under the `progress` lock, the one a
    /// waiter checks the state and sleeps under, so no waiter can miss it.
    fn set_state(&self, s: JobState) {
        let _log = self.progress.lock().unwrap();
        *self.state.lock().unwrap() = s;
        self.cv.notify_all();
    }

    fn state(&self) -> JobState {
        self.state.lock().unwrap().clone()
    }
}

struct Shared {
    cfg: ServerConfig,
    sched: Scheduler,
    cache: ResultCache,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    preemptions: AtomicU64,
    shutdown: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
}

impl Shared {
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(&id).cloned()
    }

    fn meta_path(&self, id: u64) -> Option<PathBuf> {
        self.cfg
            .state_dir
            .as_ref()
            .map(|d| d.join(format!("job_{id}.meta.json")))
    }

    fn ckpt_path(&self, id: u64) -> Option<PathBuf> {
        self.cfg
            .state_dir
            .as_ref()
            .map(|d| d.join(format!("job_{id}.qpck")))
    }

    fn persist_meta(&self, job: &Job) {
        let Some(path) = self.meta_path(job.id) else {
            return;
        };
        let state = job.state();
        let mut pairs = vec![
            ("id", Json::Num(job.id as f64)),
            ("tenant", Json::Str(job.tenant.clone())),
            ("state", Json::Str(state.name().to_string())),
            ("request", job.request_json.clone()),
        ];
        match &state {
            JobState::Done(r) => pairs.push(("result", r.to_json())),
            JobState::Failed(e) => pairs.push(("error", Json::Str(e.clone()))),
            // Running is a transient of this process; a restart re-admits
            // the job from its checkpoint, so persist it as queued.
            JobState::Queued | JobState::Running => pairs[2].1 = Json::Str("queued".to_string()),
        }
        let body = obj(pairs).to_string();
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, body.as_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// A running server: bound address plus the thread handles to join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    listener: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves `:0` ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr.lock().unwrap().expect("server bound")
    }

    /// Request shutdown programmatically (same path as the protocol op).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Block until the listener and all workers have exited.
    pub fn join(mut self) {
        if let Some(l) = self.listener.take() {
            let _ = l.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        qp_trace::clear_span_observer();
    }
}

/// Bind, recover state, install the span observer, and spawn the listener
/// and worker threads.
pub fn start(cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
    if cfg.workers == 0 {
        return Err(ServeError::BadRequest("workers must be >= 1".into()));
    }
    if let Some(d) = &cfg.state_dir {
        std::fs::create_dir_all(d)
            .map_err(|e| ServeError::Internal(format!("state dir {}: {e}", d.display())))?;
    }
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| ServeError::Internal(format!("bind {}: {e}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServeError::Internal(format!("local_addr: {e}")))?;

    let shared = Arc::new(Shared {
        cfg,
        sched: Scheduler::new(),
        cache: ResultCache::new(),
        jobs: Mutex::new(HashMap::new()),
        next_id: AtomicU64::new(1),
        preemptions: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        addr: Mutex::new(Some(addr)),
    });

    recover_state(&shared);

    // Progress streaming: qp-trace spans closed on a worker thread tagged
    // with a job rank become progress lines on that job.
    {
        let obs = Arc::downgrade(&shared);
        qp_trace::set_span_observer(Arc::new(move |ev: &qp_trace::SpanEvent| {
            if ev.rank < JOB_RANK_BASE {
                return;
            }
            let Some(shared) = obs.upgrade() else { return };
            if let Some(job) = shared.job((ev.rank - JOB_RANK_BASE) as u64) {
                job.push_progress(
                    &format!(
                        "span phase={} name={} dur_ms={:.3}",
                        ev.phase.as_str(),
                        ev.name,
                        ev.dur_us / 1000.0
                    ),
                    true,
                );
            }
        }));
    }

    let mut workers = Vec::new();
    for w in 0..shared.cfg.workers {
        let shared = shared.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("qp-serve-worker-{w}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| ServeError::Internal(format!("spawn worker: {e}")))?,
        );
    }

    let listener_shared = shared.clone();
    let listener_handle = std::thread::Builder::new()
        .name("qp-serve-listener".to_string())
        .spawn(move || accept_loop(listener, &listener_shared))
        .map_err(|e| ServeError::Internal(format!("spawn listener: {e}")))?;

    Ok(ServerHandle {
        shared,
        listener: Some(listener_handle),
        workers,
    })
}

/// Re-admit persisted jobs after a restart: completed jobs warm the result
/// cache, pending ones go back on the queue (their `QPCK` checkpoints are
/// picked up by the engine on claim).
fn recover_state(shared: &Arc<Shared>) {
    let Some(dir) = shared.cfg.state_dir.clone() else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    let mut metas: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let id: u64 = name
                .strip_prefix("job_")?
                .strip_suffix(".meta.json")?
                .parse()
                .ok()?;
            Some((id, e.path()))
        })
        .collect();
    metas.sort();
    let mut max_id = 0;
    for (id, path) in metas {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(v) = parse(&text) else { continue };
        let Some(req_json) = v.get("request") else {
            continue;
        };
        let Ok(request) = JobRequest::from_json(req_json) else {
            continue;
        };
        let state = match v.get("state").and_then(|s| s.as_str()) {
            Some("done") => match v.get("result").and_then(JobResultData::from_json) {
                Some(r) => JobState::Done(r),
                None => continue,
            },
            Some("failed") => JobState::Failed(
                v.get("error")
                    .and_then(|e| e.as_str())
                    .unwrap_or("unknown")
                    .to_string(),
            ),
            Some("queued") => JobState::Queued,
            _ => continue,
        };
        max_id = max_id.max(id);
        let canonical = request.canonical();
        let key = request.key();
        if let JobState::Done(r) = &state {
            shared.cache.put(key, &canonical, r.clone());
        }
        let requeue = matches!(state, JobState::Queued);
        let job = Arc::new(Job {
            id,
            tenant: request.tenant.clone(),
            request,
            request_json: req_json.clone(),
            canonical,
            key,
            state: Mutex::new(state),
            progress: Mutex::new(ProgressLog {
                lines: vec!["recovered from state dir".to_string()],
                dropped: 0,
            }),
            cv: Condvar::new(),
            preempt: AtomicBool::new(false),
            ckpt: Mutex::new(None),
        });
        shared.jobs.lock().unwrap().insert(id, job.clone());
        if requeue {
            shared.sched.enqueue(id, &job.tenant);
        }
    }
    shared.next_id.store(max_id + 1, Ordering::Relaxed);
}

fn initiate_shutdown(shared: &Arc<Shared>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.sched.shutdown();
    // Running jobs yield at their next iteration boundary and persist
    // their checkpoints on the way out.
    for job in shared.jobs.lock().unwrap().values() {
        job.preempt.store(true, Ordering::Relaxed);
        job.cv.notify_all();
    }
    // Unblock the accept loop.
    if let Some(addr) = *shared.addr.lock().unwrap() {
        let _ = TcpStream::connect(addr);
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Newline-delimited request/reply: leaving Nagle on costs a
        // delayed-ACK round trip (~40ms) per reply line.
        let _ = stream.set_nodelay(true);
        let shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("qp-serve-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, &shared);
            });
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // EOF
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let reply_err = |writer: &mut TcpStream, msg: String| -> std::io::Result<()> {
            let r = obj(vec![("ok", Json::Bool(false)), ("error", Json::Str(msg))]);
            writeln!(writer, "{}", r)
        };
        let v = match parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                reply_err(&mut writer, format!("malformed request: {e}"))?;
                continue;
            }
        };
        let op = v.get("op").and_then(|o| o.as_str()).unwrap_or("");
        let result = match op {
            "submit" => op_submit(&v, shared, &mut writer),
            "status" => op_status(&v, shared, &mut writer),
            "wait" => op_wait(&v, shared, &mut writer),
            "stats" => op_stats(shared, &mut writer),
            "preempt" => op_preempt(&v, shared, &mut writer),
            "shutdown" => {
                let r = obj(vec![("ok", Json::Bool(true))]);
                writeln!(writer, "{}", r)?;
                initiate_shutdown(shared);
                continue;
            }
            other => Err(ServeError::BadRequest(format!("unknown op '{other}'"))),
        };
        if let Err(e) = result {
            match e {
                ServeError::Io(io) => return Err(io),
                other => reply_err(&mut writer, other.to_string())?,
            }
        }
    }
}

/// Admit a request: validate, serve from cache when allowed, otherwise
/// register + enqueue. Returns the job (None when served purely from
/// cache was still given a job record — always Some).
fn admit(shared: &Arc<Shared>, req_json: &Json) -> Result<(Arc<Job>, bool), ServeError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::Unavailable("server is shutting down".into()));
    }
    let request = JobRequest::from_json(req_json)?;
    let canonical = request.canonical();
    let key = request.key();
    let cached = if request.cache_bypass {
        None
    } else {
        shared.cache.get(key, &canonical)
    };
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let hit = cached.is_some();
    let state = match cached {
        Some(r) => JobState::Done(r),
        None => JobState::Queued,
    };
    let job = Arc::new(Job {
        id,
        tenant: request.tenant.clone(),
        request,
        request_json: req_json.clone(),
        canonical,
        key,
        state: Mutex::new(state),
        progress: Mutex::new(ProgressLog {
            lines: if hit {
                vec!["served from result cache".to_string()]
            } else {
                Vec::new()
            },
            dropped: 0,
        }),
        cv: Condvar::new(),
        preempt: AtomicBool::new(false),
        ckpt: Mutex::new(None),
    });
    shared.jobs.lock().unwrap().insert(id, job.clone());
    shared.persist_meta(&job);
    if !hit {
        shared.sched.enqueue(id, &job.tenant);
    }
    Ok((job, hit))
}

fn final_reply(job: &Job, cached: bool) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("job", Json::Num(job.id as f64)),
        ("cached", Json::Bool(cached)),
    ];
    match job.state() {
        JobState::Done(r) => pairs.push(("result", r.to_json())),
        JobState::Failed(e) => {
            pairs[0].1 = Json::Bool(false);
            pairs.push(("error", Json::Str(e)));
        }
        _ => pairs.push(("queued", Json::Bool(true))),
    }
    obj(pairs)
}

fn op_submit(v: &Json, shared: &Arc<Shared>, w: &mut TcpStream) -> Result<(), ServeError> {
    let req_json = v
        .get("request")
        .ok_or_else(|| ServeError::BadRequest("missing 'request'".into()))?;
    let wait = v.get("wait").and_then(|b| b.as_bool()).unwrap_or(false);
    let stream = v.get("stream").and_then(|b| b.as_bool()).unwrap_or(false);
    let (job, cached) = admit(shared, req_json)?;
    if wait && !cached {
        wait_for_job(&job, shared, stream, w)?;
    }
    writeln!(w, "{}", final_reply(&job, cached)).map_err(ServeError::Io)
}

fn op_status(v: &Json, shared: &Arc<Shared>, w: &mut TcpStream) -> Result<(), ServeError> {
    let job = lookup(v, shared)?;
    let log = job.progress.lock().unwrap();
    let tail: Vec<Json> = log
        .lines
        .iter()
        .rev()
        .take(20)
        .rev()
        .map(|l| Json::Str(l.clone()))
        .collect();
    let progress_total = log.lines.len() + log.dropped;
    drop(log);
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("job", Json::Num(job.id as f64)),
        ("state", Json::Str(job.state().name().to_string())),
        ("progress", Json::Arr(tail)),
        ("progress_total", Json::Num(progress_total as f64)),
    ];
    match job.state() {
        JobState::Done(r) => pairs.push(("result", r.to_json())),
        JobState::Failed(e) => pairs.push(("error", Json::Str(e))),
        _ => {}
    }
    writeln!(w, "{}", obj(pairs)).map_err(ServeError::Io)
}

fn op_wait(v: &Json, shared: &Arc<Shared>, w: &mut TcpStream) -> Result<(), ServeError> {
    let job = lookup(v, shared)?;
    let stream = v.get("stream").and_then(|b| b.as_bool()).unwrap_or(false);
    wait_for_job(&job, shared, stream, w)?;
    writeln!(w, "{}", final_reply(&job, false)).map_err(ServeError::Io)
}

/// Block until the job reaches a terminal state; with `stream`, forward
/// each new progress line as it appears.
fn wait_for_job(
    job: &Arc<Job>,
    shared: &Arc<Shared>,
    stream: bool,
    w: &mut TcpStream,
) -> Result<(), ServeError> {
    let is_terminal = || matches!(job.state(), JobState::Done(_) | JobState::Failed(_));
    let mut sent = 0usize;
    loop {
        // Observe the state *before* draining: lines pushed before a
        // terminal flip are guaranteed to be forwarded.
        let terminal = is_terminal();
        if stream {
            let lines: Vec<String> = {
                let log = job.progress.lock().unwrap();
                log.lines[sent.min(log.lines.len())..].to_vec()
            };
            for l in &lines {
                let ev = obj(vec![
                    ("event", Json::Str("progress".to_string())),
                    ("job", Json::Num(job.id as f64)),
                    ("line", Json::Str(l.clone())),
                ]);
                writeln!(w, "{}", ev).map_err(ServeError::Io)?;
            }
            sent += lines.len();
        }
        if terminal {
            return Ok(());
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::Unavailable(
                "server shut down while waiting".into(),
            ));
        }
        // Check and sleep under the lock that `set_state` and
        // `push_progress` change the job under, so neither a state change
        // nor a new line slips in between. The timeout only bounds the
        // wait on a shutdown.
        let log = job.progress.lock().unwrap();
        if is_terminal() || (stream && log.lines.len() > sent) {
            continue;
        }
        let _ = job.cv.wait_timeout(log, Duration::from_millis(50)).unwrap();
    }
}

fn op_stats(shared: &Arc<Shared>, w: &mut TcpStream) -> Result<(), ServeError> {
    let cache = shared.cache.stats();
    let (mut queued, mut running, mut done, mut failed) = (0, 0, 0, 0);
    for job in shared.jobs.lock().unwrap().values() {
        match job.state() {
            JobState::Queued => queued += 1,
            JobState::Running => running += 1,
            JobState::Done(_) => done += 1,
            JobState::Failed(_) => failed += 1,
        }
    }
    let usage: Vec<(String, Json)> = shared
        .sched
        .usage_snapshot()
        .into_iter()
        .map(|(t, s)| (t, Json::Num(s)))
        .collect();
    let reply = obj(vec![
        ("ok", Json::Bool(true)),
        (
            "jobs",
            obj(vec![
                ("queued", Json::Num(queued as f64)),
                ("running", Json::Num(running as f64)),
                ("done", Json::Num(done as f64)),
                ("failed", Json::Num(failed as f64)),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("entries", Json::Num(cache.entries as f64)),
            ]),
        ),
        (
            "preemptions",
            Json::Num(shared.preemptions.load(Ordering::Relaxed) as f64),
        ),
        ("usage", Json::Obj(usage)),
    ]);
    writeln!(w, "{}", reply).map_err(ServeError::Io)
}

fn op_preempt(v: &Json, shared: &Arc<Shared>, w: &mut TcpStream) -> Result<(), ServeError> {
    let job = lookup(v, shared)?;
    job.preempt.store(true, Ordering::Relaxed);
    let reply = obj(vec![
        ("ok", Json::Bool(true)),
        ("job", Json::Num(job.id as f64)),
    ]);
    writeln!(w, "{}", reply).map_err(ServeError::Io)
}

fn lookup(v: &Json, shared: &Arc<Shared>) -> Result<Arc<Job>, ServeError> {
    let id = v
        .get("job")
        .and_then(|j| j.as_usize())
        .ok_or_else(|| ServeError::BadRequest("missing or invalid 'job'".into()))?
        as u64;
    shared
        .job(id)
        .ok_or_else(|| ServeError::BadRequest(format!("unknown job {id}")))
}

/// One worker: claim fair-share picks, run them through the engine, and
/// route outcomes (done → cache + persist; preempted → requeue; failed →
/// terminal error).
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(entry) = shared.sched.claim_next() {
        let Some(job) = shared.job(entry.job) else {
            shared.sched.release(entry.job, &entry.tenant, 0.0);
            continue;
        };
        job.preempt.store(false, Ordering::Relaxed);
        // Shutdown raced the claim: keep the job queued for the next start.
        if shared.shutdown.load(Ordering::SeqCst) {
            shared.sched.release(entry.job, &entry.tenant, 0.0);
            continue;
        }
        job.set_state(JobState::Running);
        qp_trace::set_thread_rank(JOB_RANK_BASE + job.id as usize);
        let _lease = job.request.threads.map(qp_par::ThreadLease::exactly);

        let started = Instant::now();
        let ckpt_path = shared.ckpt_path(job.id);
        let resume = job.ckpt.lock().unwrap().take().or_else(|| {
            let path = ckpt_path.as_ref()?;
            JobCheckpoint::load(path).ok()
        });
        let outcome = {
            let job_ref = &job;
            let sched = &shared.sched;
            let slice = shared.cfg.slice;
            let mut progress = |line: &str| {
                job_ref.push_progress(line, false);
                // Fair-share preemption decision, taken at the iteration
                // boundary the engine is about to checkpoint on.
                if sched.should_preempt(&job_ref.tenant, started.elapsed(), slice) {
                    job_ref.preempt.store(true, Ordering::Relaxed);
                }
            };
            engine::run_job(
                &job.request,
                resume,
                ckpt_path.as_deref(),
                &job.preempt,
                &mut progress,
            )
        };
        qp_trace::set_thread_rank(0);
        let elapsed = started.elapsed().as_secs_f64();

        match outcome {
            Ok(EngineOutcome::Done(result)) => {
                shared.cache.put(job.key, &job.canonical, result.clone());
                job.set_state(JobState::Done(result));
                shared.persist_meta(&job);
                shared.sched.release(job.id, &job.tenant, elapsed);
            }
            Ok(EngineOutcome::Preempted(ckpt)) => {
                *job.ckpt.lock().unwrap() = Some(*ckpt);
                shared.preemptions.fetch_add(1, Ordering::Relaxed);
                job.set_state(JobState::Queued);
                shared.sched.release(job.id, &job.tenant, elapsed);
                if !shared.sched.is_shutdown() {
                    shared.sched.enqueue(job.id, &job.tenant);
                }
            }
            Err(e) => {
                job.set_state(JobState::Failed(e.to_string()));
                shared.persist_meta(&job);
                shared.sched.release(job.id, &job.tenant, elapsed);
            }
        }
    }
}
