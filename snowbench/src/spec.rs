//! The benchmark's declaration, `BENCHMARK.json` at the repository root:
//! its workloads, and each metric's name, unit, direction and bound.
//! The binary reads it so that what it prints, and how `compare` judges
//! it, cannot drift from what the file promises.

use crate::json::{self, Value};
use crate::stats::{valid_name, Better};

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Where the declaration sits relative to this package.
const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("cannot read {PATH}: {e}"))?;
        let v = json::parse(&text).map_err(|e| format!("{PATH}: {e}"))?;
        Spec::from_json(&v).map_err(|e| format!("{PATH}: {e}"))
    }

    pub fn from_json(v: &Value) -> Result<Spec, String> {
        let run_seconds = v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("missing run_seconds")?;
        let workloads: Vec<String> = v
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .filter(|n| valid_name(n))
                    .map(str::to_owned)
                    .ok_or_else(|| format!("bad workload entry {w}"))
            })
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            v.get(key)
                .map(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Value::as_str);
                    let name = field("name").filter(|n| valid_name(n));
                    let unit = field("unit");
                    let better = match field("better") {
                        Some("lower") => Some(Better::Lower),
                        Some("higher") => Some(Better::Higher),
                        _ => None,
                    };
                    let bound = m.get("bound").and_then(Value::as_f64);
                    match (name, unit, better) {
                        (Some(name), Some(unit), Some(better)) if bound.is_some() == bounded => {
                            Ok(MetricSpec {
                                name: name.to_owned(),
                                unit: unit.to_owned(),
                                better,
                                bound,
                            })
                        }
                        _ => Err(format!("bad {key} entry {m}")),
                    }
                })
                .collect()
        };
        let spec = Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        };
        if spec.workloads.is_empty() || spec.end_to_end.is_empty() {
            return Err("no workloads or no end-to-end metrics".to_owned());
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declaration obeys the rules the benchmark is accepted under.
    #[test]
    fn benchmark_json_is_well_formed() {
        let spec = Spec::load().unwrap();
        let v = json::parse(&std::fs::read_to_string(PATH).unwrap()).unwrap();
        let keys: Vec<&str> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        names.extend(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| m.name.as_str()),
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "names are used once");
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }
}
