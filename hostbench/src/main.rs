//! Host-time benchmark for the HAFT simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <campaign|overhead|serve_sim|serve_native|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Host time is the system under test; simulated numbers are the model,
//! which must repeat exactly for a seed. An untraced run (`--trace 0`)
//! prints the end-to-end metrics; a traced run (`--trace 1`) times calls
//! into each layer's public functions from outside, writes the spans as
//! a Chrome trace and prints the per-layer metrics. The last line of
//! standard output is always the JSON result. See `README.md`.

mod metrics;
mod stats;
mod tracer;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use haft::trace::json::Json;
use haft::trace::{validate_chrome_trace, write_chrome};

use metrics::Metrics;
use stats::{self_times, Digest};
use workloads::{campaign, overhead, serving, Args, Run};

const WORKLOADS: [&str; 4] = ["campaign", "overhead", "serve_sim", "serve_native"];

const USAGE: &str = "usage: hostbench --workload <campaign|overhead|serve_sim|serve_native|all> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err(format!("--seconds {} is not a duration", a.seconds));
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

/// The repository checkout the benchmark was built from.
fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("hostbench sits in the checkout").into()
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may also run from an export with no history.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.into() };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().into();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV hash of the sources the benchmark builds against (every file
/// under `crates/` and `shims/`, plus the root manifest), identifying
/// the code under test when no commit is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        d.words(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().bytes().map(u64::from));
        d.words(bytes.iter().map(|&b| u64::from(b)));
    }
    d.hex()
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default().lines().next().unwrap_or("").trim().into()
}

/// Seed, code identity, host, core count and load average at start.
fn provenance(a: &Args, root: &Path) -> String {
    let loadavg = first_line("/proc/loadavg");
    let load: Vec<&str> = loadavg.split_whitespace().take(3).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"source_digest\": \"{}\", \"host\": \"{}\", \"nproc\": {nproc}, \
         \"loadavg\": \"{}\"}}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        commit(root),
        source_digest(root),
        first_line("/proc/sys/kernel/hostname"),
        load.join(" ")
    )
}

fn describe(workload: &str) -> String {
    match workload {
        "campaign" => campaign::describe(),
        "overhead" => overhead::describe(),
        "serve_sim" => serving::describe_sim(),
        _ => serving::describe_native(),
    }
}

fn run_workload(a: &Args) -> Run {
    match a.workload.as_str() {
        "campaign" => campaign::run(a),
        "overhead" => overhead::run(a),
        "serve_sim" => serving::run_sim(a),
        _ => serving::run_native(a),
    }
}

/// Writes the traced run's spans as a Chrome trace, re-reads and
/// validates it, and prints where host time went, by span self time.
fn write_trace(run: &mut Run, root: &Path, workload: &str) {
    let dir = root.join(".hostbench");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| write_chrome(&path, &run.events))
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
        .and_then(|text| validate_chrome_trace(&text));
    match &written {
        Ok(counts) => println!("trace {} {counts:?}", path.display()),
        Err(e) => println!("trace {}: {e}", path.display()),
    }
    run.ledger.check("chrome trace validates", written.is_ok(), || format!("{written:?}"));

    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    let selves = self_times(&run.events);
    for ev in &run.events {
        if let Some(span) = stats::num_arg(ev, "span") {
            *by_name.entry(format!("{}.{}", ev.cat, ev.name)).or_default() +=
                selves.get(&(span as u64)).copied().unwrap_or(0);
        }
    }
    let total: u64 = by_name.values().sum();
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    println!("self time by span (first traced round and set-up):");
    for (name, ns) in rows {
        println!(
            "  {name:<24} {:>10.3} ms {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}

fn print_metrics(m: &Metrics, units: &BTreeMap<String, String>) {
    for (name, v) in m.iter() {
        println!("  {name:<34} {v:>16.6} {}", units.get(name).map_or("", String::as_str));
    }
}

/// Runs every workload in its own process, so each reports its own
/// peak memory, and prints a combined result.
fn run_all(a: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
            .output();
        let Ok(out) = out else {
            eprintln!("{w}: could not start");
            return 1;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let Some(doc) = text.lines().last().and_then(|l| Json::parse(l).ok()) else {
            eprintln!("{w}: no result");
            return 1;
        };
        correct &= doc.get("correct") == Some(&Json::Bool(true));
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if let Some(Json::Obj(ms)) = doc.get("metrics") {
            for (name, m) in ms {
                merged.push((format!("{w}/{name}"), m.render().replace(['\n', ' '], "")));
            }
        }
    }
    let body: Vec<String> = merged.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    0
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if a.workload == "all" {
        std::process::exit(run_all(&a));
    }
    let root = checkout();
    println!("{}", provenance(&a, &root));
    println!("config {}", describe(&a.workload));
    let mut run = run_workload(&a);
    if a.trace {
        write_trace(&mut run, &root, &a.workload);
    }
    println!("model {}", run.model.join(" "));
    let problems = run.metrics.problems();
    for p in &problems {
        eprintln!("FAILED metric set: {p}");
    }
    let section = if a.trace { "per_layer" } else { "end_to_end" };
    let units: BTreeMap<String, String> = metrics::declared(section).into_iter().collect();
    println!("{section} metrics:");
    print_metrics(&run.metrics, &units);
    let l = &run.ledger;
    println!("operations: {} attempted, {} failed", l.attempted, l.failed);
    let correct = l.failed == 0 && problems.is_empty();
    println!("{}", run.metrics.result_line(correct, l.attempted, l.failed));
}
