//! `benchmark compare <a.jsonl> <b.jsonl>`: two sets of runs written with
//! `--out`, side by side. End-to-end metrics gate; per-layer metrics are
//! listed and never do.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::report::{median, Spec, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// metric values by (workload, metric name), in run order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let Some(Json::Object(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them, which is what the driver uses.
fn quartiles(sample: &[f64]) -> (f64, f64) {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let at = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two runs, which have no spread to show.
fn spread(sample: &[f64]) -> f64 {
    if sample.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(sample);
    (q3 - q1) / median(sample).abs()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// `b` against `a` for one metric: the share by which `b`'s median is
/// worse (negative when better), and what that means under `bound`.
pub fn judge(spec: &Spec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if spec.higher_is_better {
        ma - mb
    } else {
        mb - ma
    } / ma.abs();
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints the comparison; `Ok(true)` when no end-to-end metric regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read(path_a)?, read(path_b)?);
    let mut clean = true;
    for workload in Workload::ALL {
        for (specs, gates) in [(END_TO_END, true), (PER_LAYER, false)] {
            for spec in specs {
                let key = (workload.name().to_string(), spec.name.to_string());
                let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                    continue;
                };
                let (worse, verdict) = judge(spec, va, vb);
                clean &= verdict != Verdict::Regressed;
                println!(
                    "{:<7} {:<34} {:>14.6} {:>14.6} {:<6} {:>+8.2}% worse  n={}/{}  {}",
                    workload.name(),
                    spec.name,
                    median(va),
                    median(vb),
                    spec.unit,
                    worse * 100.0,
                    va.len(),
                    vb.len(),
                    if gates {
                        format!("{verdict:?}").to_lowercase()
                    } else {
                        "listed".into()
                    },
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let spec = |higher_is_better| Spec {
            name: "m",
            unit: "x",
            higher_is_better,
            bound: Some(0.10),
        };
        let (latency, rate) = (&spec(false), &spec(true));
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(latency, &steady, &[10.5, 10.4, 10.6, 10.5]).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(latency, &steady, &[12.0, 12.1, 11.9, 12.0]).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(latency, &steady, &[8.0, 8.1, 7.9, 8.0]).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(rate, &steady, &[8.0, 8.1, 7.9, 8.0]).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, &steady, &[12.0, 12.1, 11.9, 12.0]).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(latency, &steady, &[8.0, 12.0, 16.0, 10.0]).1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(latency, &[10.0], &[11.0]);
        assert!((worse - 0.1).abs() < 1e-12);
    }
}
