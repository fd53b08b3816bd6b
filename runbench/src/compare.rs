//! Comparing a candidate result against a baseline.
//!
//! End-to-end metrics are flagged when they get worse than the baseline
//! by more than their `bound` (a share of the baseline value, taken
//! from `BENCHMARK.json`). Deterministic work counters — per-layer
//! metrics in a counting unit — are flagged on any change at all: they
//! are identical on every host, so a different value means different
//! work, never noise. Per-layer wall times carry no bound.

use serde::Value;

/// Units whose per-layer values are exact, host-independent counts.
pub const EXACT_UNITS: [&str; 2] = ["count", "bytes"];

/// Per-layer counters that repeat exactly on one build but count the
/// standard library's own allocations too, so a toolchain change can
/// move them: reported, not gated.
pub const UNGATED: [&str; 3] = ["alloc.setup_count", "alloc.run_count", "alloc.run_bytes"];

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `Some` for end-to-end metrics.
    pub bound: Option<f64>,
}

/// Every metric declared in a `BENCHMARK.json` document.
pub fn specs_from_benchmark(doc: &str) -> Result<Vec<MetricSpec>, String> {
    let v: Value = serde_json::from_str(doc).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = v
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {section} list"))?;
        for m in list {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: {section} entry without {k}"))
            };
            let better = field("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("BENCHMARK.json: better = {better:?}"));
            }
            let bound = if section == "end_to_end" {
                Some(
                    m.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("BENCHMARK.json: end_to_end entry without bound")?,
                )
            } else {
                None
            };
            out.push(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: better == "lower",
                bound,
            });
        }
    }
    Ok(out)
}

/// The `metrics` object of a result line, as `(name, value)` pairs.
pub fn metrics_of(line: &str) -> Result<Vec<(String, f64)>, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result: {e:?}"))?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without a metrics object")?;
    metrics
        .iter()
        .map(|(k, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("metric {k} without a numeric value"))
        })
        .collect()
}

/// Every way `candidate` falls short of `baseline`, one line each.
/// Metrics present in the baseline but missing from the candidate are
/// findings too: a count that was never produced is not a zero.
pub fn compare(
    specs: &[MetricSpec],
    baseline: &[(String, f64)],
    candidate: &[(String, f64)],
) -> Vec<String> {
    let mut findings = Vec::new();
    for (name, base) in baseline {
        let Some(spec) = specs.iter().find(|s| &s.name == name) else {
            findings.push(format!("{name}: not declared in BENCHMARK.json"));
            continue;
        };
        let Some(&(_, cand)) = candidate.iter().find(|(k, _)| k == name) else {
            findings.push(format!("{name}: missing from the candidate"));
            continue;
        };
        match spec.bound {
            Some(bound) => {
                let worse = if spec.lower_is_better {
                    cand - base
                } else {
                    base - cand
                };
                if worse > bound * base.abs() {
                    findings.push(format!(
                        "{name}: {base} -> {cand} is worse by more than the {:.0}% bound",
                        bound * 100.0
                    ));
                }
            }
            None if EXACT_UNITS.contains(&spec.unit.as_str())
                && !UNGATED.contains(&name.as_str())
                && cand != *base =>
            {
                findings.push(format!("{name}: work counter changed {base} -> {cand}"));
            }
            None => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shipped_specs() -> Vec<MetricSpec> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        specs_from_benchmark(&doc).expect("BENCHMARK.json parses")
    }

    fn record(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn baseline_e2e() -> Vec<(String, f64)> {
        record(&[
            ("setup_s", 0.30),
            ("run_s", 0.15),
            ("peak_rss_mb", 40.0),
            ("delivery_ratio", 1.0),
            ("data_overhead", 5000.0),
            ("protocol_overhead", 9000.0),
            ("max_e2e_delay_ticks", 70000.0),
        ])
    }

    fn baseline_layers() -> Vec<(String, f64)> {
        record(&[
            ("dcdm.builds", 345.0),
            ("dcdm.ms", 120.0),
            ("engine.events", 81234.0),
            ("alloc.run_count", 1000.0),
        ])
    }

    fn with(base: &[(String, f64)], name: &str, f: impl Fn(f64) -> f64) -> Vec<(String, f64)> {
        base.iter()
            .map(|(k, v)| (k.clone(), if k == name { f(*v) } else { *v }))
            .collect()
    }

    #[test]
    fn identical_results_pass() {
        let specs = shipped_specs();
        assert!(compare(&specs, &baseline_e2e(), &baseline_e2e()).is_empty());
        assert!(compare(&specs, &baseline_layers(), &baseline_layers()).is_empty());
    }

    #[test]
    fn run_s_thirty_percent_slower_trips() {
        let specs = shipped_specs();
        let slow = with(&baseline_e2e(), "run_s", |v| v * 1.3);
        let findings = compare(&specs, &baseline_e2e(), &slow);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("run_s:"), "{findings:?}");
    }

    #[test]
    fn run_s_within_bound_passes() {
        let specs = shipped_specs();
        let bound = specs
            .iter()
            .find(|s| s.name == "run_s")
            .unwrap()
            .bound
            .unwrap();
        let slightly = with(&baseline_e2e(), "run_s", |v| v * (1.0 + bound / 2.0));
        assert!(compare(&specs, &baseline_e2e(), &slightly).is_empty());
        let faster = with(&baseline_e2e(), "run_s", |v| v * 0.5);
        assert!(compare(&specs, &baseline_e2e(), &faster).is_empty());
    }

    #[test]
    fn higher_is_better_metrics_trip_downward() {
        let specs = shipped_specs();
        let lossy = with(&baseline_e2e(), "delivery_ratio", |v| v * 0.5);
        let findings = compare(&specs, &baseline_e2e(), &lossy);
        assert!(
            findings.iter().any(|f| f.starts_with("delivery_ratio:")),
            "{findings:?}"
        );
    }

    #[test]
    fn changed_dcdm_builds_trips() {
        let specs = shipped_specs();
        for delta in [-1.0, 1.0] {
            let changed = with(&baseline_layers(), "dcdm.builds", |v| v + delta);
            let findings = compare(&specs, &baseline_layers(), &changed);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(findings[0].starts_with("dcdm.builds:"), "{findings:?}");
        }
        // Per-layer wall times and the allocator counters are not gated.
        let noisy = with(&baseline_layers(), "dcdm.ms", |v| v * 3.0);
        let noisy = with(&noisy, "alloc.run_count", |v| v + 7.0);
        assert!(compare(&specs, &baseline_layers(), &noisy).is_empty());
    }

    #[test]
    fn a_missing_metric_trips() {
        let specs = shipped_specs();
        let mut gone = baseline_layers();
        gone.retain(|(k, _)| k != "engine.events");
        let findings = compare(&specs, &baseline_layers(), &gone);
        assert_eq!(
            findings,
            vec!["engine.events: missing from the candidate".to_string()]
        );
    }

    #[test]
    fn result_lines_parse() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"run_s": {"value": 0.25, "unit": "s"}}}"#;
        assert_eq!(metrics_of(line).unwrap(), vec![("run_s".to_string(), 0.25)]);
        assert!(metrics_of(r#"{"metrics": {"run_s": {"unit": "s"}}}"#).is_err());
    }
}
