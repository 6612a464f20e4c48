//! The daemon must be an *observationally transparent* cache: every
//! result it serves — to any number of concurrent clients, in any
//! interleaving, warm or cold — must be bit-identical to what the
//! one-shot `run_batch` pipeline computes for the same cell. The matrix
//! is the `tests/oracle.rs` acceptance grid: all ten workloads × all
//! three protocol backends.

use fsr_core::driver::{Job, PlanSourceSpec};
use fsr_core::{InterconnectKind, PipelineConfig, ProtocolKind, World};
use fsr_serve::json::Value;
use fsr_serve::proto::run_result_json;
use fsr_serve::{serve_tcp_on, Flow, Output, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

const NPROC: i64 = 4;
const SCALE: i64 = 1;
const BLOCK: u32 = 128;
const CLIENTS: usize = 3;

fn backend_pairs() -> [(ProtocolKind, InterconnectKind); 3] {
    [
        (ProtocolKind::Msi, InterconnectKind::Ksr2Ring),
        (ProtocolKind::Mesi, InterconnectKind::Bus),
        (ProtocolKind::Directory, InterconnectKind::HomeDir),
    ]
}

/// The serial reference: one-shot `run_batch` on a transient world,
/// rendered through the same wire serializer the daemon uses.
fn reference_cells() -> BTreeMap<String, String> {
    let world = World::transient();
    let snapshot = world.snapshot();
    let mut expected = BTreeMap::new();
    for w in fsr_workloads::all() {
        for (protocol, ic) in backend_pairs() {
            let src: Arc<str> = Arc::from(w.source);
            let params = vec![("NPROC".to_string(), NPROC), ("SCALE".to_string(), SCALE)];
            let job = Job {
                meta: (),
                src: src.clone(),
                params: params.clone(),
                plan: PlanSourceSpec::Unoptimized,
                cfg: PipelineConfig::with_block(BLOCK).with_backends(protocol, ic),
            };
            let (mut out, _) = snapshot.run_batch_with_stats(vec![job], 1);
            let r = out.remove(0).1.expect("reference cell runs clean");
            let fe = snapshot.front_end(&src, &params).expect("compiles");
            expected.insert(
                format!("{}/{}", w.name, protocol.name()),
                run_result_json(&r, &fe.prog).to_string(),
            );
        }
    }
    expected
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(conn.try_clone().expect("clone")),
            writer: conn,
        }
    }

    /// Send one request in one write; collect streamed notifications
    /// until the response arrives. Returns (notifications, response).
    fn rpc(&mut self, req: &str) -> (Vec<Value>, Value) {
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        let mut notes = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).expect("read");
            assert!(n > 0, "daemon hung up");
            let v = fsr_serve::json::parse(line.trim()).expect("valid JSON line");
            if v.get("id").is_some() {
                assert!(v.get("error").is_none(), "request failed: {line}");
                return (notes, v);
            }
            notes.push(v);
        }
    }

    fn open_all(&mut self) {
        for w in fsr_workloads::all() {
            let req = format!(
                r#"{{"id": 0, "method": "open", "params": {{"name": "{0}", "workload": "{0}"}}}}"#,
                w.name
            );
            self.rpc(&req);
        }
    }

    fn simulate(&mut self, workload: &str, protocol: ProtocolKind, ic: InterconnectKind) -> Value {
        let req = format!(
            r#"{{"id": 1, "method": "simulate", "params": {{"name": "{workload}", "params": {{"NPROC": {NPROC}, "SCALE": {SCALE}}}, "config": {{"block": {BLOCK}, "protocol": "{}", "interconnect": "{}"}}}}}}"#,
            protocol.name(),
            ic.name()
        );
        let (_, resp) = self.rpc(&req);
        resp
    }
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let expected = Arc::new(reference_cells());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || {
        serve_tcp_on(Arc::new(Server::new()), listener).expect("daemon runs");
    });

    // One client opens the docs; the worker clients then race over the
    // full matrix concurrently, each from a different starting offset so
    // their cold misses overlap on *different* cells.
    let mut setup = Client::connect(addr);
    setup.open_all();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let workloads = fsr_workloads::all();
                let backends = backend_pairs();
                let cells: Vec<(usize, usize)> = (0..workloads.len())
                    .flat_map(|w| (0..backends.len()).map(move |b| (w, b)))
                    .collect();
                for i in 0..cells.len() {
                    let (wi, bi) = cells[(i + k * cells.len() / CLIENTS) % cells.len()];
                    let w = &workloads[wi];
                    let (protocol, ic) = backends[bi];
                    // Interleave lint traffic with the simulations.
                    if bi == 0 {
                        let req = format!(
                            r#"{{"id": 2, "method": "lint", "params": {{"name": "{}", "params": {{"NPROC": {NPROC}, "SCALE": {SCALE}}}}}}}"#,
                            w.name
                        );
                        let (notes, resp) = client.rpc(&req);
                        let count = resp
                            .get("result")
                            .and_then(|r| r.get("count"))
                            .and_then(Value::as_i64)
                            .expect("lint count");
                        assert_eq!(
                            notes.len() as i64,
                            count,
                            "{}: streamed diagnostics must match the summary",
                            w.name
                        );
                    }
                    let resp = client.simulate(w.name, protocol, ic);
                    let got = resp
                        .get("result")
                        .and_then(|r| r.get("result"))
                        .expect("simulate result")
                        .to_string();
                    let key = format!("{}/{}", w.name, protocol.name());
                    assert_eq!(
                        got, expected[&key],
                        "client {k}: {key} diverged from one-shot run_batch"
                    );
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("client thread");
    }

    // The daemon is now warm on every cell: a repeat request must be a
    // pure result-cache hit — zero interpreter passes, by its own
    // accounting.
    let w0 = &fsr_workloads::all()[0];
    let (protocol, ic) = backend_pairs()[0];
    let resp = setup.simulate(w0.name, protocol, ic);
    let stats = resp
        .get("result")
        .and_then(|r| r.get("stats"))
        .expect("stats")
        .clone();
    let stat = |key: &str| stats.get(key).and_then(Value::as_i64).unwrap();
    assert_eq!(stat("interpretations"), 0, "warm daemon re-interpreted");
    assert_eq!(stat("front_ends"), 0, "warm daemon recompiled");
    assert_eq!(stat("result_hits"), 1);

    let (_, _) = setup.rpc(r#"{"id": 9, "method": "shutdown"}"#);
    daemon.join().expect("daemon exits");
}

/// `plan` and a compiler-plan `simulate` build their plan through the
/// same builder, so for the same params and config the `plan` answer is
/// exactly the plan the simulation ran.
#[test]
fn plan_answers_the_plan_a_compiler_simulate_runs() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || {
        serve_tcp_on(Arc::new(Server::new()), listener).expect("daemon runs");
    });
    let mut client = Client::connect(addr);
    client.open_all();
    for name in ["maxflow", "raytrace"] {
        for block in [16, 128] {
            let args = format!(
                r#""name": "{name}", "params": {{"NPROC": {NPROC}, "SCALE": {SCALE}}}, "config": {{"block": {block}}}"#
            );
            let (_, plan) = client.rpc(&format!(
                r#"{{"id": 1, "method": "plan", "params": {{{args}}}}}"#
            ));
            let (_, sim) = client.rpc(&format!(
                r#"{{"id": 2, "method": "simulate", "params": {{{args}, "plan": "compiler"}}}}"#
            ));
            let got = plan.get("result").expect("plan result");
            let want = sim
                .get("result")
                .and_then(|r| r.get("result"))
                .and_then(|r| r.get("plan"))
                .expect("simulate result carries its plan");
            assert_eq!(got, want, "{name} @ {block}B");
            assert_eq!(got.get("block").and_then(Value::as_i64), Some(block));
            let transformed = got.get("transformed").and_then(Value::as_arr);
            assert!(
                !transformed.unwrap_or(&[]).is_empty(),
                "{name} @ {block}B: untransformed"
            );
        }
    }
    client.rpc(r#"{"id": 9, "method": "shutdown"}"#);
    daemon.join().expect("daemon exits");
}

/// An [`Output`] destination the test reads back.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every line `server` writes while handling `lines`, parsed.
fn handle_all(server: &Server, lines: &[String]) -> Vec<Value> {
    let buf = Captured::default();
    let out = Output::new(buf.clone());
    for line in lines {
        assert_eq!(server.handle(line, &out), Flow::Continue);
    }
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf-8 output");
    text.lines()
        .map(|l| fsr_serve::json::parse(l).expect("one JSON value per line"))
        .collect()
}

/// The `stats` counter `key` of a world, from a `stats` response.
fn cache_stat(stats: &Value, key: &str) -> i64 {
    let v = stats.get("result").and_then(|r| r.get("caches"));
    v.and_then(|c| c.get(key))
        .and_then(Value::as_i64)
        .expect(key)
}

/// The `message` of an error response.
fn error_message(v: &Value) -> &str {
    let e = v.get("error").and_then(|e| e.get("message"));
    e.and_then(Value::as_str).expect("error response")
}

/// A hostile line nested far deeper than any protocol message is
/// answered with an error response, and the server keeps serving.
#[test]
fn deeply_nested_request_is_answered_with_an_error() {
    let stats = r#"{"id": 1, "method": "stats"}"#.to_string();
    let lines = handle_all(&Server::new(), &["[".repeat(100_000), stats]);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(lines[0].get("id"), Some(&Value::Null));
    let msg = error_message(&lines[0]);
    assert!(msg.contains("nesting deeper than"), "{msg}");
    assert_eq!(lines[1].get("id"), Some(&Value::Int(1)));
    assert!(lines[1].get("result").is_some(), "{lines:?}");
}

/// `batch` streams exactly one `cell` per job and answers with the
/// results `simulate` gives the same jobs. A `threads` count outside
/// `0..=available parallelism` is refused before any job runs.
#[test]
fn batch_streams_one_cell_per_job_and_bounds_threads() {
    let open = r#"{"id": 0, "method": "open", "params": {"name": "mf", "workload": "maxflow"}}"#;
    let p = format!(r#""name": "mf", "params": {{"NPROC": {NPROC}, "SCALE": {SCALE}}}"#);
    let jobs = [
        format!(r#"{{{p}, "config": {{"block": 16}}}}"#),
        format!(r#"{{{p}, "plan": "compiler", "config": {{"block": {BLOCK}}}}}"#),
    ];
    let rpc = |method: &str, params: &str| {
        format!(r#"{{"id": 1, "method": "{method}", "params": {params}}}"#)
    };
    let batch = |extra: &str| {
        let req = rpc(
            "batch",
            &format!(r#"{{"jobs": [{}]{extra}}}"#, jobs.join(", ")),
        );
        handle_all(&Server::new(), &[open.to_string(), req])
    };

    // The same jobs as single `simulate`s, on a world of their own.
    let mut sims = vec![open.to_string()];
    sims.extend(jobs.iter().map(|j| rpc("simulate", j)));
    let want: Vec<String> = handle_all(&Server::new(), &sims)[1..]
        .iter()
        .map(|v| {
            let r = v.get("result").and_then(|r| r.get("result"));
            r.expect("simulate result").to_string()
        })
        .collect();

    for extra in ["", r#", "threads": 0"#, r#", "threads": 1"#] {
        let lines = batch(extra);
        let (resp, cells) = lines[1..].split_last().expect("a batch response");
        let mut indices: Vec<i64> = cells
            .iter()
            .map(|n| {
                assert_eq!(n.get("method").and_then(Value::as_str), Some("cell"));
                let p = n.get("params").and_then(|p| p.get("index"));
                p.and_then(Value::as_i64).expect("cell index")
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, [0, 1], "one cell per job ({extra})");
        let cells = resp.get("result").and_then(|r| r.get("cells"));
        let got: Vec<String> = cells
            .and_then(Value::as_arr)
            .expect("batch cells")
            .iter()
            .map(|c| c.get("result").expect("ok cell").to_string())
            .collect();
        assert_eq!(got, want, "{extra}");
    }

    for bad in ["-1", "1000000"] {
        let lines = batch(&format!(r#", "threads": {bad}"#));
        assert_eq!(lines.len(), 2, "threads {bad}: one error response, no cell");
        let msg = error_message(&lines[1]);
        assert!(
            msg.contains("`threads` must be an integer in 0..="),
            "{msg}"
        );
    }
}

/// A program whose every run fails at run time, on process 2.
const OUT_OF_BOUNDS: &str = "shared int a[2]; fn main() { forall p in 0 .. 4 { a[p] = 1; } }";

/// A run that fails is answered with a plain-text `message` and the
/// structured error as `data`, the same on every repeat, and a failed
/// `batch` cell carries that object as its `error`.
#[test]
fn failed_runs_answer_structured_errors() {
    let simulate = r#"{"id": 2, "method": "simulate", "params": {"name": "oob"}}"#.to_string();
    let lines = handle_all(
        &Server::new(),
        &[
            format!(
                r#"{{"id": 1, "method": "open", "params": {{"name": "oob", "text": "{OUT_OF_BOUNDS}"}}}}"#
            ),
            simulate.clone(),
            simulate.clone(),
            simulate,
            r#"{"id": 3, "method": "batch", "params": {"jobs": [{"name": "oob"}]}}"#.to_string(),
        ],
    );
    assert_eq!(lines[1], lines[2]);
    assert_eq!(lines[1], lines[3]);
    let msg = error_message(&lines[1]);
    assert!(!msg.starts_with('{'), "plain-text message: {msg}");
    assert!(msg.contains("out of bounds"), "{msg}");
    let data = lines[1].get("error").and_then(|e| e.get("data"));
    let data = data.expect("structured error data");
    assert_eq!(data.get("message").and_then(Value::as_str), Some(msg));
    assert_eq!(data.get("kind").and_then(Value::as_str), Some("runtime"));
    assert_eq!(data.get("pid").and_then(Value::as_i64), Some(2));
    let cells = lines[5].get("result").and_then(|r| r.get("cells"));
    let cells = cells.and_then(Value::as_arr).expect("batch cells");
    assert_eq!(cells[0].get("error"), Some(data));
}

/// Naming a result's objects reuses no front end, so a `simulate` and
/// its repeat (a result-cache hit) count one front-end miss and no hit.
#[test]
fn naming_a_result_counts_no_front_end_lookup() {
    let simulate = format!(
        r#"{{"id": 2, "method": "simulate", "params": {{"name": "mf", "params": {{"NPROC": {NPROC}, "SCALE": {SCALE}}}}}}}"#
    );
    let lines = handle_all(
        &Server::new(),
        &[
            r#"{"id": 1, "method": "open", "params": {"name": "mf", "workload": "maxflow"}}"#
                .into(),
            simulate.clone(),
            simulate,
            r#"{"id": 3, "method": "stats"}"#.to_string(),
        ],
    );
    let stats = &lines[3];
    assert_eq!(cache_stat(stats, "result_hits"), 1);
    assert_eq!(cache_stat(stats, "fe_hits"), 0);
    assert_eq!(cache_stat(stats, "fe_misses"), 1);
}
