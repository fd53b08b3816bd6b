//! `scmp-runbench` — the end-to-end SCMP run benchmark.
//!
//! ```text
//! scmp-runbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! scmp-runbench compare <baseline-result> <candidate-result>
//! scmp-runbench record <first-seed> <last-seed>
//! ```
//!
//! A run builds its workload's inputs from the seed, runs one pass on
//! the reference seed (a warm-up whose simulated digest must match
//! `runbench/expected.json`), then repeats passes for `--seconds`. Every
//! pass builds and runs real SCMP engines through their public API and
//! times construction (`setup_s`) and the run (`run_s`) from outside;
//! wall times are medians over passes. With `--trace 1` the passes
//! alternate between untraced and traced ones, and the result carries
//! the per-layer split instead of the end-to-end metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A full record
//! (provenance, per-pass values, checks, spans) is written under
//! `.bench_out/`. Any oracle or digest mismatch makes the run incorrect
//! and the exit code 1.
//!
//! See `runbench/WORKLOADS.md` for what each workload exercises.

mod alloc;
mod compare;
mod pass;
mod provenance;
mod trace;
mod workload;

use pass::{Digest, PassOut};
use serde::Value;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Kind;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed every run also executes once and checks against the
/// recorded digest, whatever seed it measures.
const REFERENCE_SEED: u64 = 0;
/// Passes per mode, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Recorded simulated digests, by workload and seed.
const EXPECTED: &str = include_str!("../expected.json");
const EXPECTED_PATH: &str = "runbench/expected.json";
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(REFERENCE_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        _ => match parse_args(&args) {
            Ok(a) => cmd_run(&a),
            Err(e) => {
                eprintln!("scmp-runbench: {e}");
                eprintln!(
                    "usage: scmp-runbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                    Kind::ALL.map(Kind::name).join("|")
                );
                2
            }
        },
    };
    std::process::exit(code);
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn med_of(passes: &[PassOut], f: impl Fn(&PassOut) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

/// The highest of p75/p90/p95/p99 (nearest rank) with at least ten
/// samples above it, as `(percentile, value)`.
fn high_percentile(v: &[f64]) -> Option<(usize, f64)> {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [99, 95, 90, 75].into_iter().find_map(|p| {
        let idx = (n * p).div_ceil(100).saturating_sub(1);
        (n - 1 - idx >= 10).then(|| (p, sorted[idx]))
    })
}

/// "median M s, p90 X s over N passes" for a per-pass series.
fn timing_line(name: &str, v: &[f64]) -> String {
    let tail = high_percentile(v).map_or(String::new(), |(p, x)| format!(", p{p} {x:.6} s"));
    format!(
        "{name}: median {:.6} s{tail} over {} passes",
        median(v.to_vec()),
        v.len()
    )
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `VmHWM` of this process in MB (10^6 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

// ---------------------------------------------------------------------
// Recorded digests
// ---------------------------------------------------------------------

fn digest_json(d: &Digest) -> Value {
    Value::Object(vec![
        ("fnv".into(), Value::Str(format!("{:016x}", d.fnv))),
        (
            "fields".into(),
            Value::Object(
                d.fields
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Value::U64(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Compare a produced digest with the recorded one. `Ok(false)` when
/// nothing is recorded for this (workload, seed).
fn check_recorded(kind: Kind, seed: u64, d: &Digest) -> Result<bool, String> {
    let doc: Value =
        serde_json::from_str(EXPECTED).map_err(|e| format!("{EXPECTED_PATH}: {e:?}"))?;
    let Some(rec) = doc.get(kind.name()).and_then(|w| w.get(&seed.to_string())) else {
        return Ok(false);
    };
    let want = rec
        .get("fields")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{EXPECTED_PATH}: {}/{seed} has no fields", kind.name()))?;
    let mut diffs = Vec::new();
    for (k, v) in want {
        match (d.get(k), v.as_u64()) {
            (Some(got), Some(v)) if got == v => {}
            (got, v) => diffs.push(format!("{k}: recorded {v:?}, produced {got:?}")),
        }
    }
    for (k, _) in &d.fields {
        if !want.iter().any(|(w, _)| w == k) {
            diffs.push(format!("{k}: produced but not recorded"));
        }
    }
    let fnv = format!("{:016x}", d.fnv);
    if rec.get("fnv").and_then(Value::as_str) != Some(fnv.as_str()) {
        diffs.push(format!(
            "per-cell fnv: recorded {:?}, produced {fnv}",
            rec.get("fnv")
        ));
    }
    if diffs.is_empty() {
        Ok(true)
    } else {
        Err(format!(
            "{} seed {seed}: simulated digest differs from {EXPECTED_PATH}: {}",
            kind.name(),
            diffs.join("; ")
        ))
    }
}

/// `record <first> <last>`: one pass per workload and seed, written to
/// `runbench/expected.json`. Refuses to record a run the oracle fails.
fn cmd_record(args: &[String]) -> i32 {
    let range = match args {
        [a, b] => a.parse::<u64>().ok().zip(b.parse::<u64>().ok()),
        _ => None,
    };
    let Some((first, last)) = range else {
        eprintln!("usage: scmp-runbench record <first-seed> <last-seed>");
        return 2;
    };
    let mut doc = vec![(
        "note".to_string(),
        Value::Str(
            "Simulated digests by workload and seed, written by `scmp-runbench record`. \
             A change meant only to speed the program up must leave every entry identical."
                .into(),
        ),
    )];
    for kind in Kind::ALL {
        let mut seeds = Vec::new();
        for seed in first..=last {
            let out = pass::run_pass(&workload::build(kind, seed), None);
            if out.oracle.failed() > 0 {
                eprintln!(
                    "{} seed {seed}: oracle failed {:?}",
                    kind.name(),
                    out.oracle
                );
                return 1;
            }
            eprintln!("{} seed {seed}: {:016x}", kind.name(), out.digest.fnv);
            seeds.push((seed.to_string(), digest_json(&out.digest)));
        }
        doc.push((kind.name().to_string(), Value::Object(seeds)));
    }
    let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("serialise") + "\n";
    if let Err(e) = std::fs::write(EXPECTED_PATH, text) {
        eprintln!("{EXPECTED_PATH}: {e}");
        return 1;
    }
    0
}

/// `compare <baseline> <candidate>`: each file holds a result line (the
/// last line of a run's output); exit 1 on any finding.
fn cmd_compare(args: &[String]) -> i32 {
    let [base, cand] = args else {
        eprintln!("usage: scmp-runbench compare <baseline-result> <candidate-result>");
        return 2;
    };
    let load = |p: &String| -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        compare::metrics_of(line).map_err(|e| format!("{p}: {e}"))
    };
    let result = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|doc| compare::specs_from_benchmark(&doc))
        .and_then(|specs| Ok(compare::compare(&specs, &load(base)?, &load(cand)?)));
    match result {
        Ok(findings) if findings.is_empty() => {
            println!("no regressions");
            0
        }
        Ok(findings) => {
            for f in findings {
                println!("REGRESSION {f}");
            }
            1
        }
        Err(e) => {
            eprintln!("scmp-runbench compare: {e}");
            2
        }
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Wall times and memory come from the measured passes; the four
/// simulated metrics come from the reference pass, so they are the same
/// on every run whatever the seed (the measured instance's own outcome
/// is checked by the oracle and written to the record).
fn end_to_end(untraced: &[PassOut], reference: &PassOut) -> Vec<Metric> {
    let o = &reference.oracle;
    vec![
        m(
            "setup_s",
            "s",
            med_of(untraced, |p| p.setup_ns as f64 / 1e9),
        ),
        m("run_s", "s", med_of(untraced, |p| p.run_ns as f64 / 1e9)),
        m("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
        m(
            "delivery_ratio",
            "ratio",
            o.delivered as f64 / o.attempted as f64,
        ),
        m("data_overhead", "cost", reference.data_overhead),
        m("protocol_overhead", "cost", reference.protocol_overhead),
        m("max_e2e_delay_ticks", "ticks", reference.max_e2e_delay),
    ]
}

/// Components of `run_s` the split attributes, in ms (medians over the
/// traced passes): dispatch self time, DCDM, repair scans, fault
/// windows net of the DCDM/repair time nested in them.
fn run_components(p: &PassOut) -> [(&'static str, f64); 4] {
    let l = &p.layers;
    let fault_net = l.fault_window_ns.saturating_sub(l.fault_window_nested_ns);
    let self_ns = l.dispatch.total_ns as f64
        - l.dcdm.total_ns as f64
        - l.repair.total_ns as f64
        - fault_net as f64;
    [
        ("dispatch.self_ms", self_ns / 1e6),
        ("dcdm.ms", ms(l.dcdm.total_ns)),
        ("repair.ms", ms(l.repair.total_ns)),
        ("fault_window_ms", ms(l.fault_window_ns)),
    ]
}

/// [`run_components`], each the median over `traced`.
fn median_components(traced: &[PassOut]) -> [(&'static str, f64); 4] {
    let mut out = run_components(&traced[0]);
    for (i, c) in out.iter_mut().enumerate() {
        c.1 = med_of(traced, |p| run_components(p)[i].1);
    }
    out
}

fn per_layer(untraced: &[PassOut], traced: &[PassOut]) -> Vec<Metric> {
    let t0 = &traced[0];
    let l = &t0.layers;
    let field = |k: &str| t0.digest.get(k).map_or(f64::NAN, |v| v as f64);
    let comps = median_components(traced);
    let comp = |i: usize| comps[i].1;
    let overhead =
        med_of(traced, |p| p.run_ns as f64) / med_of(untraced, |p| p.run_ns as f64) - 1.0;
    vec![
        m(
            "domain.new_ms",
            "ms",
            med_of(traced, |p| ms(p.layers.domain_ns)),
        ),
        m(
            "engine.new_ms",
            "ms",
            med_of(traced, |p| ms(p.layers.engine_ns)),
        ),
        m(
            "routing.compute_ms",
            "ms",
            med_of(traced, |p| ms(p.layers.routing_compute_ns)),
        ),
        m("routing.recomputes", "count", l.link_events as f64),
        m("fault_window_ms", "ms", comp(3)),
        m("engine.events", "count", l.events as f64),
        m("engine.peak_queue_depth", "count", l.peak_queue as f64),
        m(
            "dispatch.ms",
            "ms",
            med_of(traced, |p| ms(p.layers.dispatch.total_ns)),
        ),
        m("dispatch.self_ms", "ms", comp(0)),
        m("dcdm.builds", "count", l.dcdm.count as f64),
        m("dcdm.ms", "ms", comp(1)),
        m(
            "dcdm.max_us",
            "us",
            med_of(traced, |p| p.layers.dcdm.max_ns as f64 / 1e3),
        ),
        m("repair.scans", "count", l.repair.count as f64),
        m("repair.ms", "ms", comp(2)),
        m(
            "paths.resident_bytes",
            "bytes",
            l.resident_path_bytes as f64,
        ),
        m("channel.dropped", "count", field("channel_dropped")),
        m("channel.duplicated", "count", field("channel_duplicated")),
        m("retransmissions", "count", field("retransmissions")),
        m("reliability.nacks_sent", "count", field("nacks_sent")),
        m(
            "reliability.cache_hits",
            "count",
            field("repair_cache_hits"),
        ),
        m("reliability.recoveries", "count", field("recoveries")),
        m("telemetry.events", "count", l.telemetry_events as f64),
        m("telemetry.overhead", "ratio", overhead),
        m(
            "alloc.setup_count",
            "count",
            med_of(untraced, |p| p.alloc_setup.count as f64),
        ),
        m(
            "alloc.run_count",
            "count",
            med_of(untraced, |p| p.alloc_run.count as f64),
        ),
        m(
            "alloc.run_bytes",
            "bytes",
            med_of(untraced, |p| p.alloc_run.bytes as f64),
        ),
    ]
}

/// Work counters that must repeat exactly from pass to pass.
fn work_counters(p: &PassOut) -> [(&'static str, u64); 9] {
    let l = &p.layers;
    [
        ("engine.events", l.events),
        ("engine.peak_queue_depth", l.peak_queue),
        ("routing.recomputes", l.link_events),
        ("dispatch.batches", l.dispatch.count),
        ("dcdm.builds", l.dcdm.count),
        ("repair.scans", l.repair.count),
        ("paths.resident_bytes", l.resident_path_bytes),
        ("telemetry.events", l.telemetry_events),
        ("oracle.attempted", p.oracle.attempted),
    ]
}

/// The predicted dominant layers, checked against the measured split.
fn predictions(kind: Kind, untraced: &[PassOut], traced: &[PassOut]) -> Vec<String> {
    let setup_ms = med_of(traced, |p| ms(p.setup_ns));
    let run_ms = med_of(traced, |p| ms(p.run_ns));
    let comps = median_components(traced);
    let share = |name: &str, of: f64, of_name: &str, value: f64| {
        let verdict = if value > 0.5 * of {
            "confirmed"
        } else {
            "WRONG"
        };
        format!(
            "prediction {name} is most of {of_name}: {verdict} ({value:.2} of {of:.2} ms = {:.0}%)",
            100.0 * value / of
        )
    };
    let mut out = Vec::new();
    match kind {
        Kind::Waxman1kChurn => {
            let engine = med_of(traced, |p| ms(p.layers.engine_ns));
            out.push(share("engine.new_ms", setup_ms, "setup_s", engine));
            out.push(share("dcdm.ms", run_ms, "run_s", comps[1].1));
        }
        Kind::FlapStorm => out.push(share("fault_window_ms", run_ms, "run_s", comps[3].1)),
        Kind::PaperFig89 => {
            let (top, v) = comps
                .iter()
                .copied()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("four components");
            let verdict = if top == "dispatch.self_ms" {
                "confirmed"
            } else {
                "WRONG"
            };
            let listed: Vec<String> = comps.iter().map(|(k, v)| format!("{k} {v:.2}")).collect();
            out.push(format!(
                "prediction dispatch.self_ms is the largest run_s component: {verdict} \
                 (largest {top} {v:.2} of {run_ms:.2} ms; {})",
                listed.join(", ")
            ));
        }
    }
    let untraced_run = med_of(untraced, |p| ms(p.run_ns));
    out.push(format!(
        "tracing overhead: traced run {run_ms:.2} ms vs untraced {untraced_run:.2} ms ({:+.1}%)",
        100.0 * (run_ms / untraced_run - 1.0)
    ));
    out
}

/// Whether each allocator counter repeated exactly across `passes`.
fn alloc_repeats(passes: &[PassOut]) -> Vec<String> {
    let series: [(&str, Vec<u64>); 4] = [
        (
            "alloc.setup_count",
            passes.iter().map(|p| p.alloc_setup.count).collect(),
        ),
        (
            "alloc.setup_bytes",
            passes.iter().map(|p| p.alloc_setup.bytes).collect(),
        ),
        (
            "alloc.run_count",
            passes.iter().map(|p| p.alloc_run.count).collect(),
        ),
        (
            "alloc.run_bytes",
            passes.iter().map(|p| p.alloc_run.bytes).collect(),
        ),
    ];
    series
        .iter()
        .map(|(name, v)| {
            let (lo, hi) = (v.iter().min().unwrap(), v.iter().max().unwrap());
            if lo == hi {
                format!("{name} repeats exactly over {} passes ({lo})", v.len())
            } else {
                format!(
                    "{name} does NOT repeat over {} passes (min {lo}, max {hi})",
                    v.len()
                )
            }
        })
        .collect()
}

fn cmd_run(a: &Args) -> i32 {
    let name = a.kind.name();
    let mut problems: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();

    let built = Instant::now();
    let reference = (a.seed != REFERENCE_SEED).then(|| workload::build(a.kind, REFERENCE_SEED));
    let w = workload::build(a.kind, a.seed);
    eprintln!(
        "{name} seed {}: inputs built in {:.2} s ({} cells)",
        a.seed,
        built.elapsed().as_secs_f64(),
        w.cells.len()
    );

    // Reference pass: warm-up, and the recorded-digest check every run
    // makes whatever seed it measures.
    let ref_out = pass::run_pass(reference.as_ref().unwrap_or(&w), None);
    drop(reference);
    match check_recorded(a.kind, REFERENCE_SEED, &ref_out.digest) {
        Ok(true) => {}
        Ok(false) => problems.push(format!(
            "{EXPECTED_PATH} has no {name} seed {REFERENCE_SEED}"
        )),
        Err(e) => problems.push(e),
    }
    let mut attempted = ref_out.oracle.attempted;
    let mut failed = ref_out.oracle.failed();
    if ref_out.oracle.failed() > 0 {
        problems.push(format!("reference pass oracle: {:?}", ref_out.oracle));
    }

    let mut untraced: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let budget = Duration::from_secs(a.seconds);
    loop {
        if !a.trace || untraced.len() <= traced.len() {
            untraced.push(pass::run_pass(&w, None));
        } else {
            traced.push(pass::run_pass(&w, Some(&mut tracer)));
        }
        let enough = untraced.len() >= MIN_PASSES && (!a.trace || traced.len() >= MIN_PASSES);
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    // Correctness: the oracle on every pass, one digest across passes
    // (traced, stepped passes included), the recorded digest if any.
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        attempted += p.oracle.attempted;
        failed += p.oracle.failed();
        if p.oracle.failed() > 0 {
            problems.push(format!("pass {i} oracle: {:?}", p.oracle));
        }
    }
    let digest = &untraced[0].digest;
    if let Some(i) = untraced.iter().position(|p| &p.digest != digest) {
        problems.push(format!("untraced pass {i} digest differs from pass 0"));
    }
    if let Some(i) = traced.iter().position(|p| &p.digest != digest) {
        problems.push(format!(
            "traced (stepped) pass {i} digest {:016x} differs from the untraced run {:016x}",
            traced[i].digest.fnv, digest.fnv
        ));
    } else if a.trace {
        let ticks: usize = w.cells.iter().map(|c| c.link_ticks.len()).sum();
        notes.push(format!(
            "stepped-run identity: {} traced passes, each stepped to {ticks} link-event ticks, \
             reproduce the untraced digest {:016x}",
            traced.len(),
            digest.fnv
        ));
    }
    for group in [&untraced, &traced] {
        if let Some(p) = group
            .iter()
            .find(|p| work_counters(p) != work_counters(&group[0]))
        {
            problems.push(format!(
                "work counters did not repeat: {:?} vs {:?}",
                work_counters(p),
                work_counters(&group[0])
            ));
        }
    }
    match check_recorded(a.kind, a.seed, digest) {
        Ok(true) => notes.push(format!(
            "digest matches {EXPECTED_PATH} for seed {}",
            a.seed
        )),
        Ok(false) => notes.push(format!(
            "{EXPECTED_PATH} records no digest for seed {}",
            a.seed
        )),
        Err(e) => problems.push(e),
    }

    notes.extend(alloc_repeats(&untraced));
    let metrics = if a.trace {
        notes.extend(predictions(a.kind, &untraced, &traced));
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced, &ref_out)
    };
    for mt in &metrics {
        if !mt.value.is_finite() {
            problems.push(format!("metric {} was not produced", mt.name));
        }
    }
    let correct = problems.is_empty();

    // The record.
    let per_pass = |passes: &[PassOut], f: fn(&PassOut) -> u64| {
        Value::Array(
            passes
                .iter()
                .map(|p| Value::F64(f(p) as f64 / 1e9))
                .collect(),
        )
    };
    let mut record = vec![
        ("workload".to_string(), Value::Str(name.into())),
        ("seed".into(), Value::U64(a.seed)),
        ("seconds".into(), Value::U64(a.seconds)),
        ("trace".into(), Value::Bool(a.trace)),
        ("provenance".into(), provenance::record()),
        ("correct".into(), Value::Bool(correct)),
        (
            "problems".into(),
            Value::Array(problems.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
        (
            "notes".into(),
            Value::Array(notes.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
        ("digest".into(), digest_json(digest)),
        (
            "untraced_setup_s".into(),
            per_pass(&untraced, |p| p.setup_ns),
        ),
        ("untraced_run_s".into(), per_pass(&untraced, |p| p.run_ns)),
        ("traced_setup_s".into(), per_pass(&traced, |p| p.setup_ns)),
        ("traced_run_s".into(), per_pass(&traced, |p| p.run_ns)),
    ];
    let metrics_json = Value::Object(
        metrics
            .iter()
            .map(|mt| {
                let value = if mt.value.is_finite() {
                    Value::F64(mt.value)
                } else {
                    Value::Null
                };
                let entry = vec![
                    ("value".to_string(), value),
                    ("unit".to_string(), Value::Str(mt.unit.into())),
                ];
                (mt.name.to_string(), Value::Object(entry))
            })
            .collect(),
    );
    record.push(("metrics".into(), metrics_json.clone()));
    if a.trace {
        let summary = tracer
            .summary()
            .into_iter()
            .map(|(n, count, total, own)| {
                Value::Object(vec![
                    ("span".into(), Value::Str(n.into())),
                    ("count".into(), Value::U64(count)),
                    ("total_ms".into(), Value::F64(total)),
                    ("self_ms".into(), Value::F64(own)),
                ])
            })
            .collect();
        record.push(("span_summary".into(), Value::Array(summary)));
        record.push(("spans".into(), tracer.to_json()));
    }
    let path = format!(
        "{OUT_DIR}/{name}-seed{}-trace{}.json",
        a.seed, a.trace as u8
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|_| {
        std::fs::write(
            &path,
            serde_json::to_string(&Value::Object(record)).expect("serialise"),
        )
    });
    if let Err(e) = written {
        eprintln!("{path}: {e}");
    }

    // Human-readable summary, then the result line.
    println!(
        "{name} seed {}: {} untraced + {} traced passes, record {path}",
        a.seed,
        untraced.len(),
        traced.len()
    );
    for mt in &metrics {
        println!("  {:<26} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    if a.trace {
        println!("  span self time (ms, all traced passes):");
        for (n, count, total, own) in tracer.summary() {
            println!("    {n:<18} x{count:<7} total {total:>10.2}  self {own:>10.2}");
        }
    }
    for n in &notes {
        println!("  note: {n}");
    }
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    for (label, passes) in [("untraced", &untraced), ("traced", &traced)] {
        if passes.is_empty() {
            continue;
        }
        let series = |f: fn(&PassOut) -> u64| -> Vec<f64> {
            passes.iter().map(|p| f(p) as f64 / 1e9).collect()
        };
        println!(
            "  {label} {}",
            timing_line("setup_s", &series(|p| p.setup_ns))
        );
        println!("  {label} {}", timing_line("run_s", &series(|p| p.run_ns)));
    }
    println!("  operations: {failed} failed of {attempted} attempted");
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics_json),
    ]);
    println!("{}", serde_json::to_string(&result).expect("serialise"));
    if correct {
        0
    } else {
        1
    }
}
