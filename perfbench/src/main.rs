//! `perf`: the session benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! perf run   [--seed n] [--seconds s] [--repeats k] [--quick] [--out file.json]
//! perf trace [--seed n] [--seconds s] [--quick] [--workload name]
//! perf compare parent.json change.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command invokes. `run`
//! and `trace` re-execute this binary once per workload, so peak
//! memory, allocator state and TIME_WAIT sockets of one workload do not
//! bleed into the next. See the README beside this crate for what each
//! metric means on each workload.

mod compare;
mod gen;
mod host;
mod ladder;
mod measure;
mod reference;
mod report;
mod rounds;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use armada_json::Json;

use report::{MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::session::Shape;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Variables the runtime reads its wire, reactor and tracing choices
/// from. A benchmark whose inputs depend on the caller's shell is not
/// one benchmark.
const FORBIDDEN_ENV: [&str; 4] = [
    "ARMADA_WIRE",
    "ARMADA_WIRE_PROBES",
    "ARMADA_REACTOR",
    "ARMADA_TRACE",
];

/// One invocation of one workload.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub trace: bool,
}

/// Writes the run's spans beside the process, counts them, and notes
/// where each kind of span spent its time.
pub fn finish_spans(out: &mut Outcome, cfg: &RunCfg, spans: spans::Spans) {
    let path = format!("PERF_TRACE_{}.jsonl", cfg.workload);
    out.put("gen.spans", spans.spans().len() as f64);
    for (name, count, total_us, self_us) in spans.summary() {
        out.notes.push(format!(
            "span {name:<16} x{count:<7} mean {:>12.1} us, of which self {:>12.1} us",
            total_us / count as f64,
            self_us / count as f64
        ));
    }
    match spans.write_jsonl(std::path::Path::new(&path)) {
        Ok(()) => out
            .notes
            .push(format!("{} spans written to {path}", spans.spans().len())),
        Err(e) => out.problems.push(format!("could not write {path}: {e}")),
    }
}

fn run_workload(cfg: &RunCfg) -> Option<Outcome> {
    Some(match cfg.workload.as_str() {
        "session_setup" => workloads::session::run(cfg, Shape::Setup),
        "frame_stream" => workloads::session::run(cfg, Shape::Stream),
        "fleet_mixed" => workloads::fleet::run(cfg),
        "sim_metro" => workloads::sim::run(cfg),
        _ => return None,
    })
}

fn print_metrics(out: &Outcome, defs: &[MetricDef]) {
    for d in defs {
        let Some(value) = out.values.get(d.name) else {
            continue;
        };
        let spread = out.spreads.get(d.name).map_or(String::new(), |s| {
            format!("  (rounds' quartile spread {:.1} %)", s * 100.0)
        });
        println!("  {:<40} {:>16.4} {}{spread}", d.name, value, d.unit);
    }
}

/// The driver's form: one workload, human-readable lines, then the
/// result object as the last line of standard output.
fn single(cfg: &RunCfg) -> ExitCode {
    // Before the first thread starts, so that every thread inherits
    // the CPU and none has asked for an arena yet.
    let pinned = host::pin_to_one_cpu();
    let one_arena = host::single_malloc_arena();
    let Some(mut out) = run_workload(cfg) else {
        eprintln!("unknown workload `{}`; known: {WORKLOADS:?}", cfg.workload);
        return ExitCode::from(2);
    };
    let defs: &[MetricDef] = if cfg.trace {
        ladder::climb(&mut out, cfg);
        // What `LiveClient` adds on top of the node it drives, per
        // frame: only the frame workload has a frame RTT to compare.
        let overhead = match (
            cfg.workload.as_str(),
            out.values.get("live.node.frame_rtt_us_p50"),
        ) {
            ("frame_stream", Some(node)) => out.values["raw.op_latency_us_p50"] - node,
            _ => 0.0,
        };
        out.put("live.client.frame_overhead_us", overhead);
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!(
        "{} seed {} seconds {} trace {}{} ({}, {})",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick { " quick" } else { "" },
        match pinned {
            Some(cpu) => format!("pinned to cpu {cpu}"),
            None => "NOT PINNED: the kernel refused an affinity mask".to_string(),
        },
        if one_arena {
            "one malloc arena"
        } else {
            "the allocator's default arenas"
        },
    );
    print_metrics(&out, defs);
    // The other table's numbers this run happens to have, for the
    // record only: a traced run's end-to-end values include tracing,
    // an untraced run has no ladder.
    println!("  not in the result line:");
    print_metrics(&out, if cfg.trace { &END_TO_END } else { &PER_LAYER });
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  attempted {} failed {} fail_ratio {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for problem in &out.problems {
        println!("  CHECK FAILED: {problem}");
    }
    // With `--quick`, or in a traced run, round spreads ride along so
    // `run --out` can record them; the driver ignores extra lines.
    let spreads: Vec<(String, Json)> = out
        .spreads
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Float(*v)))
        .collect();
    println!(
        "  spreads {}",
        armada_json::to_string(&Json::object(vec![
            ("noisy", Json::Bool(out.noisy)),
            ("round_spread", Json::Object(spreads)),
        ]))
    );
    println!("{}", out.result_line(defs));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed, parsed back.
struct ChildResult {
    result: Json,
    spreads: Json,
    ok: bool,
}

fn run_child(cfg: &RunCfg) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (last, rest) = lines.split_last()?;
    let mut spreads = Json::Null;
    for line in rest {
        match line.trim_start().strip_prefix("spreads ") {
            Some(json) => spreads = Json::parse(json).unwrap_or(Json::Null),
            None => println!("{line}"),
        }
    }
    Some(ChildResult {
        result: Json::parse(last).ok()?,
        spreads,
        ok: output.status.success(),
    })
}

struct Options {
    seed: u64,
    seconds: u64,
    repeats: u64,
    quick: bool,
    out: Option<String>,
    workload: Option<String>,
    trace: Option<bool>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 7,
        seconds: 20,
        repeats: 1,
        quick: false,
        out: None,
        workload: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?,
            "--repeats" => o.repeats = number(value()?)?.max(1),
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?.clone()),
            "--workload" => o.workload = Some(value()?.clone()),
            "--trace" => o.trace = Some(number(value()?)? != 0),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

/// `perf run` / `perf trace`: every workload (or the one named), each
/// in a process of its own.
fn all(options: &Options, trace: bool) -> ExitCode {
    let mut ok = true;
    let mut record: Vec<(String, Json)> = Vec::new();
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| options.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    if names.is_empty() {
        eprintln!("unknown workload; known: {WORKLOADS:?}");
        return ExitCode::from(2);
    }
    for workload in names {
        let mut values: Vec<(String, Vec<Json>)> = Vec::new();
        let mut last: Option<ChildResult> = None;
        for repeat in 0..options.repeats {
            let cfg = RunCfg {
                workload: workload.to_string(),
                seed: options.seed + repeat,
                seconds: options.seconds,
                quick: options.quick,
                trace,
            };
            let Some(child) = run_child(&cfg) else {
                eprintln!("{workload}: the run printed no result");
                ok = false;
                continue;
            };
            ok &= child.ok && child.result.get("correct").and_then(Json::as_bool) == Some(true);
            if let Some(Json::Object(metrics)) = child.result.get("metrics") {
                for (name, m) in metrics {
                    let value = m.get("value").cloned().unwrap_or(Json::Null);
                    match values.iter_mut().find(|(n, _)| n == name) {
                        Some((_, vs)) => vs.push(value),
                        None => values.push((name.clone(), vec![value])),
                    }
                }
            }
            last = Some(child);
        }
        let Some(last) = last else { continue };
        let metrics: Vec<(String, Json)> = values
            .into_iter()
            .map(|(name, vs)| {
                let mut members = vec![
                    ("values", Json::Array(vs)),
                    ("unit", Json::Str(report::unit_of(&name).to_string())),
                ];
                if let Some(s) = last.spreads.get("round_spread").and_then(|r| r.get(&name)) {
                    members.push(("round_spread", s.clone()));
                }
                (name, Json::object(members))
            })
            .collect();
        record.push((
            workload.to_string(),
            Json::object(vec![
                (
                    "correct",
                    last.result.get("correct").cloned().unwrap_or(Json::Null),
                ),
                (
                    "attempted",
                    last.result.get("attempted").cloned().unwrap_or(Json::Null),
                ),
                (
                    "failed",
                    last.result.get("failed").cloned().unwrap_or(Json::Null),
                ),
                (
                    "noisy",
                    last.spreads.get("noisy").cloned().unwrap_or(Json::Null),
                ),
                ("metrics", Json::Object(metrics)),
            ]),
        ));
    }
    if let Some(path) = &options.out {
        let doc = Json::object(vec![
            ("seed", Json::Int(options.seed as i64)),
            ("seconds", Json::Int(options.seconds as i64)),
            ("quick", Json::Bool(options.quick)),
            ("trace", Json::Bool(trace)),
            (
                "hardware_threads",
                Json::Int(std::thread::available_parallelism().map_or(0, usize::from) as i64),
            ),
            ("workloads", Json::Object(record)),
        ]);
        if let Err(e) = std::fs::write(path, armada_json::to_string(&doc) + "\n") {
            eprintln!("could not write {path}: {e}");
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "all output checks held"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(paths: &[String]) -> ExitCode {
    let [parent, change] = paths else {
        eprintln!("usage: perf compare parent.json change.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(parent), load(change)) {
        (Ok(a), Ok(b)) => {
            if compare::compare(&a, &b) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            eprintln!("{name} is set: the benchmark fixes the wire, reactor and tracing configuration itself; unset it");
            return ExitCode::from(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.as_str(), rest),
        _ => ("single", &args[..]),
    };
    if mode == "compare" {
        return compare_files(rest);
    }
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "run" => all(&options, false),
        "trace" => all(&options, true),
        "single" => match &options.workload {
            Some(workload) => single(&RunCfg {
                workload: workload.clone(),
                seed: options.seed,
                seconds: options.seconds,
                quick: options.quick,
                trace: options.trace.unwrap_or(false),
            }),
            None => {
                eprintln!("usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | trace | compare");
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!("unknown command `{other}`; known: run, trace, compare");
            ExitCode::from(2)
        }
    }
}
