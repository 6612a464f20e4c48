//! The serve workloads, `serve-sweep` and `serve-edit`: closed loops of
//! two clients against an in-process `fsr-serve` daemon over TCP
//! loopback, each client on its own documents.

use crate::client::{request_line, Client, Daemon, Reply};
use crate::gen::{self, SimReq};
use crate::layers::{self, Ledger};
use crate::run::{self, Checker, CoreCounts, Coverage, Opts, Report, Size};
use crate::stats::{self, Digest};
use fsr_core::driver::{Job, PlanSourceSpec};
use fsr_core::PipelineConfig;
use fsr_serve::json::Value;
use fsr_serve::{Output, Server};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Client connections (the load's `nproc`).
const CLIENTS: usize = 2;
const BLOCK: u32 = 128;

/// Fields of the served answers that are pure functions of the request.
/// The wire is append-only, so digests name these fields rather than
/// hash whole payloads; cache bookkeeping (`stats`, `warm`, `evicted`)
/// depends on cache policy and is checked separately, where at all.
const RESULT_KEYS: [&str; 12] = [
    "nproc",
    "plan",
    "sim",
    "per_obj",
    "per_obj_coherence",
    "per_obj_refs",
    "exec_cycles",
    "timing",
    "interp",
    "miss_rate",
    "fs_miss_rate",
    "fs_stall_frac",
];
const LINT_KEYS: [&str; 5] = ["count", "racy", "suppressed_pairs", "suppressed", "refined"];
const PLAN_KEYS: [&str; 2] = ["block", "transformed"];

fn project(v: Option<&Value>, keys: &[&str]) -> String {
    let mut d = Digest::default();
    for k in keys {
        d.str(k);
        d.str(
            &v.and_then(|v| v.get(k))
                .map(|x| x.to_string())
                .unwrap_or_default(),
        );
    }
    d.hex()
}

/// The digest of a served answer, by method (`None`: not digested).
fn answer_digest(method: &str, result: &Value) -> Option<String> {
    match method {
        "simulate" => Some(project(result.get("result"), &RESULT_KEYS)),
        "lint" => Some(project(Some(result), &LINT_KEYS)),
        "plan" => Some(project(Some(result), &PLAN_KEYS)),
        _ => None,
    }
}

fn int(v: Option<&Value>, path: &[&str]) -> u64 {
    let mut v = v;
    for k in path {
        v = v.and_then(|x| x.get(k));
    }
    v.and_then(Value::as_i64).unwrap_or(0) as u64
}

/// One request as sent: enough to replay it in process and to check
/// the layered re-issue against what was served.
struct Sent {
    method: &'static str,
    line: String,
    /// Output cell label (`None`: the answer is not digested).
    label: Option<String>,
    digest: String,
    rtt_s: f64,
    /// The served number the layered re-issue must reproduce: exec
    /// cycles (simulate), diagnostics (lint), transformed objects (plan).
    check: u64,
    /// The driver's jobs, interpretations, trace groups and segments.
    core: [u64; 4],
    /// The edited source (`change` only).
    text: Option<String>,
    /// The document and configuration (`simulate` only).
    sim: Option<(&'static str, SimReq)>,
}

fn call(
    c: &mut Client,
    method: &'static str,
    params: &str,
    label: Option<String>,
) -> Result<(Sent, Reply), String> {
    let id = c.next_id();
    let line = request_line(id, method, params);
    let reply = c.call(&line)?;
    let r = &reply.result;
    let check = match method {
        "simulate" => int(Some(r), &["result", "exec_cycles"]),
        "lint" => int(Some(r), &["count"]),
        "plan" => r
            .get("transformed")
            .and_then(Value::as_arr)
            .map_or(0, |a| a.len() as u64),
        _ => 0,
    };
    let core = ["jobs", "interpretations", "trace_groups", "segments"]
        .map(|k| int(Some(r), &["stats", k]));
    let sent = Sent {
        method,
        label,
        digest: answer_digest(method, r).unwrap_or_default(),
        line,
        rtt_s: reply.rtt_s,
        check,
        core,
        text: None,
        sim: None,
    };
    Ok((sent, reply))
}

/// One `simulate` request of `serve-sweep`.
fn simulate(
    c: &mut Client,
    s: &Size,
    doc: &'static str,
    r: SimReq,
) -> Result<(Sent, Reply), String> {
    let (mut sent, reply) = call(
        c,
        "simulate",
        &sim_params(s, doc, &r),
        Some(sim_label(doc, &r)),
    )?;
    sent.sim = Some((doc, r));
    Ok((sent, reply))
}

fn params_json(s: &Size) -> String {
    format!("{{\"NPROC\": {}, \"SCALE\": {}}}", s.nproc, s.scale)
}

fn open(c: &mut Client, docs: &[&str]) -> Result<Vec<Sent>, String> {
    docs.iter()
        .map(|doc| {
            let p = format!("{{\"name\": \"{doc}\", \"workload\": \"{doc}\"}}");
            Ok(call(c, "open", &p, None)?.0)
        })
        .collect()
}

struct Session {
    daemon: Daemon,
    clients: Vec<Client>,
}

impl Session {
    fn end(self) -> Result<(), String> {
        let mut clients = self.clients;
        let last = clients.remove(0);
        drop(clients);
        self.daemon.shutdown(last)
    }
}

type ClientFn<'a, T> = dyn Fn(usize, &mut Client) -> T + Sync + 'a;

/// Run `f` on every client at once, one thread per client.
fn on_clients<T: Send>(clients: &mut [Client], f: &ClientFn<'_, T>) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| scope.spawn(move || f(i, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Boot a daemon, connect the clients and run `setup` on each, as
/// `run::setups` repeats it; every session but the last is shut down
/// again, outside the timing. Returns the median set-up time, the live
/// session and its set-up requests.
fn set_up(
    s: &Size,
    setup: &ClientFn<'_, Result<Vec<Sent>, String>>,
) -> Result<(f64, Session, Vec<Vec<Sent>>), String> {
    let (secs, (session, sent)) = run::setups(
        s.setups,
        s.setup_secs,
        || {
            let daemon = Daemon::boot()?;
            let mut clients = (0..CLIENTS)
                .map(|_| Client::connect(daemon.addr))
                .collect::<Result<Vec<_>, _>>()?;
            let sent = on_clients(&mut clients, setup)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?;
            Ok((Session { daemon, clients }, sent))
        },
        |(session, _)| session.end(),
    )?;
    Ok((secs, session, sent))
}

/// What the timed region of a serve workload produced.
struct Timed {
    sent: Vec<Vec<Sent>>,
    failed: u64,
    problems: Vec<String>,
    wall_s: f64,
    /// Peak RSS once every client had sent its requests.
    rss_mb: f64,
}

/// One client's part of the timed region: it sends its fixed share of
/// requests and checks the answers as they arrive.
type TimedFn<'a> = dyn Fn(usize, &mut Client, &mut Checker) -> Vec<Sent> + Sync + 'a;

fn timed_region(session: &mut Session, opts: &Opts, client: &TimedFn<'_>) -> Timed {
    let start = Instant::now();
    let logs = on_clients(&mut session.clients, &|i, c| {
        let mut ck = Checker::new(opts.pinned);
        let sent = client(i, c, &mut ck);
        (sent, ck.failed, ck.problems)
    });
    let mut t = Timed {
        sent: Vec::new(),
        failed: 0,
        problems: Vec::new(),
        wall_s: start.elapsed().as_secs_f64(),
        rss_mb: stats::peak_rss_mb(),
    };
    for (sent, failed, problems) in logs {
        t.sent.push(sent);
        t.failed += failed;
        t.problems.extend(problems);
    }
    t
}

/// The whole serve workload around its set-up and timed region: checks
/// the client floor, measures, shuts the daemon down and runs `verify`
/// on the answers; a traced run then replays them in process and
/// re-issues them layer by layer with `layered`.
fn serve_workload(
    opts: &Opts,
    setup: &ClientFn<'_, Result<Vec<Sent>, String>>,
    client: &TimedFn<'_>,
    verify: impl FnOnce(&[Vec<Sent>], &[Vec<Sent>]) -> Vec<String>,
    layered: impl FnOnce(&[Vec<Sent>], &[Vec<Sent>], &mut Ledger) -> Result<Vec<String>, String>,
) -> Result<Report, String> {
    let floor = crate::client::client_floor_ms(200)?;
    let (setup_s, mut session, setup_sent) = set_up(opts.size, setup)?;
    let timed = timed_region(&mut session, opts, client);
    let requests = timed.sent.iter().map(Vec::len).sum::<usize>();
    let rtts: Vec<f64> = timed.sent.iter().flatten().map(|s| s.rtt_s).collect();
    let mut ck = Checker::new(None);
    ck.failed = timed.failed;
    ck.problems = timed.problems;
    if floor > 1.0 {
        ck.fail(format!(
            "client floor {floor:.3} ms > 1 ms: the client, not the daemon, would own the wire time"
        ));
    }
    if rtts.is_empty() {
        return Err("no request completed in the timed region".to_string());
    }
    let e2e = run::end_to_end(setup_s, timed.wall_s, &rtts, timed.rss_mb);
    let world = if opts.trace {
        let c = &mut session.clients[0];
        let id = c.next_id();
        Some(c.call(&request_line(id, "stats", "{}"))?.result)
    } else {
        None
    };
    session.end()?;

    // One cell per label: a repeated label must have been answered alike,
    // which `client` and `verify` check.
    let mut cells = Vec::new();
    let mut labels = HashSet::new();
    for (setup, timed) in setup_sent.iter().zip(&timed.sent) {
        for s in setup.iter().chain(timed) {
            if let Some(l) = s.label.as_ref().filter(|l| labels.insert(l.as_str())) {
                cells.push((l.clone(), s.digest.clone()));
            }
        }
    }
    for p in verify(&setup_sent, &timed.sent) {
        ck.fail(p);
    }
    if !opts.trace {
        return Ok(Report {
            attempted: requests as u64,
            failed: ck.failed,
            problems: ck.problems,
            metrics: e2e,
            cells,
            spans: None,
        });
    }

    // Traced: the same stream through an in-process `Server::handle`,
    // then layer by layer.
    let (mut serve, replay_wall, mismatches) = replay(&setup_sent, &timed.sent);
    for m in mismatches {
        ck.fail(m);
    }
    let caches = world.as_ref().and_then(|w| w.get("caches"));
    let ratio = |hits: &str, misses: &str| {
        let (h, m) = (int(caches, &[hits]), int(caches, &[misses]));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    serve.fe_hit_ratio = ratio("fe_hits", "fe_misses");
    serve.trace_hit_ratio = ratio("trace_hits", "trace_misses");
    serve.result_hit_ratio = ratio("result_hits", "result_misses");
    serve.lint_hit_ratio = ratio("lint_hits", "lint_misses");
    serve.entries = ["front_ends", "lints", "traces", "results"]
        .iter()
        .map(|k| int(caches, &[k]))
        .sum::<u64>() as f64;
    let handles = serve.handle_secs(&["simulate", "lint", "change", "plan"]);
    serve.wire_p50_ms = (stats::median(&rtts) - stats::median(&handles)) * 1e3;

    let mut core = CoreCounts::default();
    for s in setup_sent.iter().chain(&timed.sent).flatten() {
        core.jobs += s.core[0];
        core.interpretations += s.core[1];
        core.trace_groups += s.core[2];
        core.segments += s.core[3];
    }
    let mut ledger = Ledger::default();
    for p in layered(&setup_sent, &timed.sent, &mut ledger)? {
        ck.fail(p);
    }
    // Every client spends the whole timed region in its loop. Measured
    // spans explain the daemon's handling and the client's own work on
    // each answer, and the echo floor the client and loopback add to
    // each round trip. The rest of the round trip, `serve.wire_p50_ms`,
    // stays unattributed: no layer's span measures it.
    let handled = serve.ledger.total_secs();
    let metrics = run::per_layer(
        &ledger,
        &core,
        &serve,
        Coverage {
            untraced: timed.wall_s * CLIENTS as f64,
            attributed: handled + rtts.len() as f64 * floor / 1e3,
            traced_wall: replay_wall,
            traced_spans: handled,
        },
        floor,
    );
    let mut spans = ledger.to_jsonl();
    spans.push_str(&serve.ledger.to_jsonl());
    Ok(Report {
        attempted: requests as u64,
        failed: ck.failed,
        problems: ck.problems,
        metrics,
        cells,
        spans: Some(spans),
    })
}

/// Daemon-side numbers of a traced serve run.
#[derive(Default)]
pub struct ServeLayers {
    /// Per timed request: its handling and the client's work on the
    /// answer.
    ledger: Ledger,
    pub wire_p50_ms: f64,
    pub response_bytes: f64,
    pub fe_hit_ratio: f64,
    pub trace_hit_ratio: f64,
    pub result_hit_ratio: f64,
    pub lint_hit_ratio: f64,
    pub entries: f64,
}

/// The span layer of handling one request of `method`.
fn handle_layer(method: &str) -> &'static str {
    match method {
        "simulate" => "serve.simulate.handle",
        "lint" => "serve.lint.handle",
        "change" => "serve.change.handle",
        "plan" => "serve.plan.handle",
        other => unreachable!("no timed `{other}` requests"),
    }
}

impl ServeLayers {
    /// Every handle span's seconds, for the methods given.
    fn handle_secs(&self, methods: &[&str]) -> Vec<f64> {
        let layers: Vec<&str> = methods.iter().map(|m| handle_layer(m)).collect();
        self.ledger
            .spans
            .iter()
            .filter(|s| layers.contains(&s.layer))
            .map(|s| s.secs)
            .collect()
    }

    pub fn handle_p50_ms(&self, method: &str) -> f64 {
        let v = self.handle_secs(&[method]);
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v) * 1e3
        }
    }
}

/// `Output` target that keeps what the daemon wrote.
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("capture buffer lock")
            .extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pass the served request stream through an in-process
/// `Server::handle`: set-ups untimed, then the timed requests with the
/// clients interleaved, each handle call a span and the client-side
/// parse of its answer another. Answers must equal the TCP ones.
fn replay(setup: &[Vec<Sent>], timed: &[Vec<Sent>]) -> (ServeLayers, f64, Vec<String>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let out = Output::new(Captured(buf.clone()));
    let server = Server::new();
    let take = || std::mem::take(&mut *buf.lock().expect("capture buffer lock"));
    for s in setup.iter().flatten() {
        server.handle(&s.line, &out);
        take();
    }
    let mut layers = ServeLayers::default();
    let mut mismatches = Vec::new();
    let mut bytes = 0usize;
    let n = timed.iter().map(Vec::len).max().unwrap_or(0);
    let start = Instant::now();
    for i in 0..n {
        for s in timed.iter().filter_map(|c| c.get(i)) {
            let t0 = Instant::now();
            server.handle(&s.line, &out);
            let t1 = Instant::now();
            let written = take();
            bytes += written.len();
            let text = String::from_utf8_lossy(&written);
            let result = text
                .lines()
                .find(|l| l.starts_with("{\"id\""))
                .and_then(|l| fsr_serve::json::parse(l).ok())
                .and_then(|v| v.get("result").cloned());
            let digest = result.as_ref().and_then(|r| answer_digest(s.method, r));
            let t2 = Instant::now();
            let unit = s.label.as_deref().unwrap_or(s.method);
            layers
                .ledger
                .add(handle_layer(s.method), unit, (t1 - t0).as_secs_f64());
            layers
                .ledger
                .add("bench.client", unit, (t2 - t1).as_secs_f64());
            if result.is_none() {
                mismatches.push(format!("in-process {unit}: no result"));
            } else if s.label.is_some() && digest.as_deref() != Some(&s.digest) {
                mismatches.push(format!(
                    "in-process {unit}: answer differs from the TCP one"
                ));
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let count = timed.iter().map(Vec::len).sum::<usize>().max(1);
    layers.response_bytes = bytes as f64 / count as f64;
    (layers, wall, mismatches)
}

// ---------------------------------------------------------------- serve-sweep

fn sim_label(doc: &str, r: &SimReq) -> String {
    format!(
        "{doc}/{}/{}/{}/{}/{}",
        if r.compiler { "C" } else { "N" },
        r.protocol.name(),
        r.interconnect.name(),
        r.cache_bytes,
        r.assoc
    )
}

fn sim_params(s: &Size, doc: &str, r: &SimReq) -> String {
    format!(
        "{{\"name\": \"{doc}\", \"plan\": \"{}\", \"params\": {}, \"config\": {{\"block\": {BLOCK}, \
         \"cache_bytes\": {}, \"assoc\": {}, \"protocol\": \"{}\", \"interconnect\": \"{}\"}}}}",
        if r.compiler { "compiler" } else { "unoptimized" },
        params_json(s),
        r.cache_bytes,
        r.assoc,
        r.protocol.name(),
        r.interconnect.name()
    )
}

fn sim_job(s: &Size, doc: &str, r: &SimReq) -> Job<String> {
    let w = fsr_workloads::by_name(doc).expect("served documents are workloads");
    let mut cfg = PipelineConfig::with_block(BLOCK).with_backends(r.protocol, r.interconnect);
    cfg.cache_bytes = r.cache_bytes;
    cfg.assoc = r.assoc;
    let plan = if r.compiler {
        PlanSourceSpec::Compiler
    } else {
        PlanSourceSpec::Unoptimized
    };
    Job::new(
        sim_label(doc, r),
        w.source,
        &[("NPROC", s.nproc), ("SCALE", s.scale)],
        plan,
        cfg,
    )
}

/// Every distinct configuration served, in first-served order, as a
/// driver job with the served exec cycles and answer digest.
fn served_jobs(
    s: &Size,
    setup: &[Vec<Sent>],
    timed: &[Vec<Sent>],
) -> Vec<(Job<String>, u64, String)> {
    let mut seen = HashSet::new();
    setup
        .iter()
        .zip(timed)
        .flat_map(|(su, ti)| su.iter().chain(ti))
        .filter_map(|sent| {
            let (doc, r) = sent.sim?;
            seen.insert(sent.label.clone())
                .then(|| (sim_job(s, doc, &r), sent.check, sent.digest.clone()))
        })
        .collect()
}

pub fn sweep(opts: &Opts) -> Result<Report, String> {
    let s = opts.size;
    let setup = |c: usize, client: &mut Client| -> Result<Vec<Sent>, String> {
        let docs = gen::client_docs(c, CLIENTS);
        let mut sent = open(client, &docs)?;
        for (d, doc) in docs.iter().enumerate() {
            for compiler in [false, true] {
                sent.push(simulate(client, s, doc, SimReq::prime(d, compiler))?.0);
            }
        }
        Ok(sent)
    };
    let client = |c: usize, client: &mut Client, ck: &mut Checker| {
        let docs = gen::client_docs(c, CLIENTS);
        let mut first: HashMap<String, String> = HashMap::new();
        let mut sent = Vec::new();
        for r in gen::sweep_requests(opts.seed, c, docs.len(), s.requests) {
            let doc = docs[r.sim.doc];
            let label = sim_label(doc, &r.sim);
            match simulate(client, s, doc, r.sim) {
                Ok((out, reply)) => {
                    let st = reply.result.get("stats");
                    // New configurations replay the primed trace; repeats
                    // are answered whole from the result cache.
                    if r.repeat && int(st, &["result_hits"]) != 1 {
                        ck.fail(format!("{label}: repeat missed the result cache"));
                    }
                    if !r.repeat && int(st, &["interpretations"]) != 0 {
                        ck.fail(format!("{label}: new configuration re-interpreted"));
                    }
                    ck.cell(&label, &out.digest);
                    let want = first.entry(label.clone()).or_insert(out.digest.clone());
                    if *want != out.digest {
                        ck.fail(format!("{label}: repeat answered differently"));
                    }
                    sent.push(out);
                }
                Err(e) => ck.fail(format!("{label}: {e}")),
            }
        }
        sent
    };
    // Independent oracle: every distinct configuration served, run
    // again through the one-shot batch driver on a transient world
    // (fresh interpretation, no caches) and rendered as the daemon
    // renders it.
    let verify = |setup: &[Vec<Sent>], timed: &[Vec<Sent>]| -> Vec<String> {
        let jobs = served_jobs(s, setup, timed);
        let mut problems = Vec::new();
        let mut progs: HashMap<String, fsr_lang::Program> = HashMap::new();
        let want: Vec<String> = jobs.iter().map(|j| j.2.clone()).collect();
        let batch: Vec<Job<String>> = jobs.into_iter().map(|j| j.0).collect();
        for ((job, r), digest) in fsr_core::driver::run_batch(batch, s.threads)
            .into_iter()
            .zip(want)
        {
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{}: oracle failed: {e}", job.meta));
                    continue;
                }
            };
            let doc = job.meta.split('/').next().unwrap_or_default().to_string();
            let prog = progs.entry(doc).or_insert_with(|| {
                fsr_lang::compile_with_params(&job.src, &[("NPROC", s.nproc), ("SCALE", s.scale)])
                    .expect("served sources compile")
            });
            let json = fsr_serve::proto::run_result_json(&r, prog);
            if project(Some(&json), &RESULT_KEYS) != digest {
                problems.push(format!(
                    "{}: served answer differs from the one-shot pipeline",
                    job.meta
                ));
            }
        }
        problems
    };
    let layered = |setup: &[Vec<Sent>], timed: &[Vec<Sent>], ledger: &mut Ledger| {
        let jobs = served_jobs(s, setup, timed);
        let want: Vec<u64> = jobs.iter().map(|j| j.1).collect();
        let batch: Vec<Job<String>> = jobs.into_iter().map(|j| j.0).collect();
        let out = layers::run_batch(&batch, String::clone, ledger)?;
        Ok(batch
            .iter()
            .zip(&out.results)
            .zip(want)
            .filter(|((_, got), want)| got.exec_cycles != *want)
            .map(|((job, got), want)| {
                format!(
                    "{}: layered replay gives {} exec cycles, the daemon {want}",
                    job.meta, got.exec_cycles
                )
            })
            .collect())
    };
    serve_workload(opts, &setup, &client, verify, layered)
}

// ----------------------------------------------------------------- serve-edit

fn edit_setup(s: &Size, c: usize, client: &mut Client) -> Result<Vec<Sent>, String> {
    let docs = gen::client_docs(c, CLIENTS);
    let mut sent = open(client, &docs)?;
    for doc in &docs {
        let (lint, plan) = lint_plan(s, client, doc)?;
        sent.push(lint);
        sent.push(plan);
    }
    Ok(sent)
}

fn lint_plan(s: &Size, client: &mut Client, doc: &str) -> Result<(Sent, Sent), String> {
    let params = params_json(s);
    let lint = call(
        client,
        "lint",
        &format!("{{\"name\": \"{doc}\", \"params\": {params}}}"),
        Some(format!("lint/{doc}")),
    )?
    .0;
    let plan = call(
        client,
        "plan",
        &format!(
            "{{\"name\": \"{doc}\", \"params\": {params}, \"config\": {{\"block\": {BLOCK}}}}}"
        ),
        Some(format!("plan/{doc}")),
    )?
    .0;
    Ok((lint, plan))
}

pub fn edit(opts: &Opts) -> Result<Report, String> {
    let s = opts.size;
    let setup = |c: usize, client: &mut Client| edit_setup(s, c, client);
    let client = |c: usize, client: &mut Client, ck: &mut Checker| {
        let docs = gen::client_docs(c, CLIENTS);
        let originals: Vec<&str> = docs
            .iter()
            .map(|d| {
                fsr_workloads::by_name(d)
                    .expect("documents are workloads")
                    .source
            })
            .collect();
        let mut sent = Vec::new();
        for e in gen::edits(opts.seed, c, docs.len(), s.requests / 3) {
            let doc = docs[e.doc];
            let text = gen::edited(originals[e.doc], e.salt);
            let params = format!("{{\"name\": \"{doc}\", \"text\": {}}}", Value::str(&text));
            let triple = call(client, "change", &params, None).and_then(|(mut change, _)| {
                change.text = Some(text);
                let (lint, plan) = lint_plan(s, client, doc)?;
                Ok([change, lint, plan])
            });
            match triple {
                Ok(triple) => {
                    for out in triple {
                        if let Some(label) = &out.label {
                            ck.cell(label, &out.digest);
                        }
                        sent.push(out);
                    }
                }
                Err(e) => ck.fail(format!("{doc}: {e}")),
            }
        }
        sent
    };
    // A comment changes no answer: every edited lint and plan must equal
    // the unedited document's, answered during set-up.
    let verify = |setup: &[Vec<Sent>], timed: &[Vec<Sent>]| -> Vec<String> {
        let mut base: HashMap<&str, &str> = HashMap::new();
        for s in setup.iter().flatten() {
            if let Some(l) = &s.label {
                base.insert(l, &s.digest);
            }
        }
        timed
            .iter()
            .flatten()
            .filter_map(|s| {
                let l = s.label.as_deref()?;
                (base.get(l) != Some(&s.digest.as_str()))
                    .then(|| format!("{l}: edited answer differs from the unedited one"))
            })
            .collect()
    };
    let layered = |_: &[Vec<Sent>], timed: &[Vec<Sent>], ledger: &mut Ledger| {
        let params = [("NPROC", s.nproc), ("SCALE", s.scale)];
        let plan_cfg = PipelineConfig::with_block(BLOCK).plan_cfg;
        let mut problems = Vec::new();
        for sent in timed {
            for t in sent.chunks(3) {
                let [change, lint, plan] = t else { continue };
                let text = change.text.as_deref().unwrap_or_default();
                let unit = lint.label.as_deref().unwrap_or("lint");
                let (diags, objs) = layers::edit_triple(text, &params, plan_cfg, unit, ledger)?;
                if (diags as u64, objs as u64) != (lint.check, plan.check) {
                    problems.push(format!(
                        "{unit}: layered re-issue finds {diags} diagnostics / {objs} transformed \
                         objects, the daemon {} / {}",
                        lint.check, plan.check
                    ));
                }
            }
        }
        Ok(problems)
    };
    serve_workload(opts, &setup, &client, verify, layered)
}
