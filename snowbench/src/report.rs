//! Everything after a workload ran: printing and writing its result,
//! and the `all`, `check` and `compare` commands over result files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::{self, obj, Value};
use crate::spec::Spec;
use crate::stats::{self, verdict, Verdict};
use crate::workload::{Ctx, Outcome};

/// Spans written per traced run (the first ones recorded, which cover
/// the first campaign or harvest unit, or the first light-phase
/// queries, in full); every span still counts in the metrics.
const SPANS_WRITTEN: usize = 50_000;

/// Default directory for result files.
pub const OUT_DIR: &str = "target/snowbench";

/// Prints a workload's metrics, writes its result file (and spans when
/// traced) under `dir`, and prints the one-line JSON result last.
/// Returns the exit code: 0 only when every check passed.
pub fn emit(spec: &Spec, ctx: &Ctx, mut out: Outcome, dir: &Path) -> Result<i32, String> {
    let workload = ctx.workload.as_str();
    let declared = if ctx.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    let mut unreached = Vec::new();
    for m in declared {
        let value = match out.metrics.get(&m.name) {
            Some(&(v, unit)) if unit == m.unit && v.is_finite() => v,
            Some(&(v, unit)) => {
                out.fail(format!(
                    "{} measured {v} {unit}, declared in {}",
                    m.name, m.unit
                ));
                continue;
            }
            // A layer this workload never reaches reads 0.
            None if ctx.trace => {
                unreached.push(Value::from(m.name.as_str()));
                0.0
            }
            None => {
                out.fail(format!("{} was not measured", m.name));
                continue;
            }
        };
        metrics.push((
            m.name.clone(),
            obj([("value", value.into()), ("unit", m.unit.as_str().into())]),
        ));
    }

    let mode = if ctx.trace { "traced" } else { "untraced" };
    println!(
        "== {workload} seed {} ({mode}, {} s window) ==",
        ctx.seed, ctx.seconds
    );
    for (name, (v, unit)) in &out.metrics {
        println!("  {name:<42} {v:>16.4} {unit}");
    }
    for why in &out.failures {
        println!("  FAILED: {why}");
    }

    let correct = out.failures.is_empty();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!(
        "{workload}-s{}{}",
        ctx.seed,
        if ctx.trace { "-trace" } else { "" }
    );
    let all_metrics = out.metrics.iter().map(|(k, (v, unit))| {
        (
            k.clone(),
            obj([("value", (*v).into()), ("unit", (*unit).into())]),
        )
    });
    let detail = obj([
        ("workload", Value::from(workload)),
        ("seed", Value::from(ctx.seed)),
        ("seconds", Value::from(ctx.seconds)),
        ("trace", Value::from(ctx.trace)),
        ("correct", Value::from(correct)),
        ("attempted", Value::from(out.attempted)),
        ("failed", Value::from(out.failed)),
        (
            "failures",
            Value::Arr(out.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("metrics", obj(all_metrics)),
        ("unreached", Value::Arr(unreached)),
        (
            "digests",
            obj(out
                .digests
                .iter()
                .map(|(k, d)| (k.to_string(), Value::from(format!("{d:016x}"))))),
        ),
    ]);
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{detail}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if let Some(t) = &out.tracer {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        t.write_jsonl(&path, SPANS_WRITTEN)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let result = obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(out.attempted)),
        ("failed", Value::from(out.failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{result}");
    Ok(if correct { 0 } else { 1 })
}

/// Parses `--name value` flags, accepting only `allowed` names. A flag
/// given last, or followed by another flag, reads as `1`.
pub fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
            _ => "1".to_owned(),
        };
        out.insert(name.to_owned(), value);
    }
    Ok(out)
}

pub fn parse_flag<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    f.get(name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad --{name} `{v}`"))
    })
}

/// `snowbench all`: every workload in its own child process, so no
/// process-wide cache or clock state of one leaks into the next; then a
/// summary and `check` over the results.
pub fn all(args: &[String]) -> Result<i32, String> {
    let spec = Spec::load()?;
    let f = flags(args, &["seed", "seconds", "trace", "out"])?;
    let seed: u64 = parse_flag(&f, "seed", 1)?;
    let seconds: f64 = parse_flag(&f, "seconds", spec.run_seconds)?;
    let trace = f.get("trace").is_some_and(|t| t != "0");
    let dir = f.get("out").map_or(OUT_DIR, String::as_str);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut passed = true;
    let mut rows = Vec::new();
    for w in &spec.workloads {
        let t = Instant::now();
        let child = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if trace { "1" } else { "0" }, "--out", dir])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        passed &= child.status.success() && result.is_some();
        rows.push((w, child.status, t.elapsed(), result));
    }

    println!(
        "\n== summary, seed {seed} ({}) ==",
        if trace { "traced" } else { "untraced" }
    );
    for (w, status, wall, result) in &rows {
        let state = match result
            .as_ref()
            .and_then(|r| r.get("correct"))
            .and_then(Value::as_bool)
        {
            Some(true) if status.success() => "ok".to_owned(),
            _ => format!("FAILED ({status})"),
        };
        println!("{w} — {state}, {:.1} s", wall.as_secs_f64());
        let metrics = result
            .as_ref()
            .and_then(|r| r.get("metrics"))
            .map(Value::as_obj)
            .unwrap_or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("  {name:<42} {value:>16.4} {unit}");
        }
    }
    passed &= check(Path::new(dir))?;
    Ok(if passed { 0 } else { 1 })
}

/// Every result file (`*.json`) under `dir`, recursively.
fn load_results(dir: &Path) -> Result<Vec<(PathBuf, Value)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "json") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let v = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
                if v.get("workload").is_some() {
                    out.push((path, v));
                }
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Which workloads must agree on the output of one input seed: the
/// Snowplow campaigns run standalone and in the fleet on the same model.
fn family(workload: &str) -> &str {
    match workload {
        "fleet_shared" => "campaign_snowplow",
        w => w,
    }
}

/// `snowbench check DIR`.
pub fn check_cmd(args: &[String]) -> Result<i32, String> {
    match args {
        [dir] => Ok(if check(Path::new(dir))? { 0 } else { 1 }),
        _ => Err("check takes one directory".to_owned()),
    }
}

/// Checks the result files under `dir` against each other: every run
/// passed its own checks, and every digest of one input agrees across
/// runs, traced or not, and between `fleet_shared` and
/// `campaign_snowplow`.
pub fn check(dir: &Path) -> Result<bool, String> {
    let results = load_results(dir)?;
    let mut ok = true;
    // (family, input seed) -> (digest, workload and file that first
    // reported it)
    let mut seen: BTreeMap<(&str, &str), (&str, &str, &Path)> = BTreeMap::new();
    let (mut compared, mut across) = (0, 0);
    for (path, r) in &results {
        let workload = r.get("workload").and_then(Value::as_str).unwrap_or("?");
        if r.get("correct").and_then(Value::as_bool) != Some(true) {
            println!("check: {} reports failed checks", path.display());
            ok = false;
        }
        let digests = r.get("digests").map(Value::as_obj).unwrap_or_default();
        for (input, d) in digests {
            let d = d.as_str().unwrap_or("?");
            let Some(&(first, first_workload, first_path)) = seen.get(&(family(workload), input))
            else {
                seen.insert((family(workload), input), (d, workload, path));
                continue;
            };
            compared += 1;
            across += usize::from(first_workload != workload);
            if first != d {
                println!(
                    "check: input {input}: {} ({workload}) digests {d}, {} ({first_workload}) {first}",
                    path.display(),
                    first_path.display()
                );
                ok = false;
            }
        }
    }
    println!(
        "check: {} result files, {compared} digest comparisons ({across} across workloads): {}",
        results.len(),
        if ok { "all agree" } else { "MISMATCH" }
    );
    Ok(ok)
}

/// `snowbench compare DIR_A DIR_B`: per workload and end-to-end metric,
/// each side's median and quartiles over its untraced runs, and the
/// verdict under the metric's bound with A as the baseline.
pub fn compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes two directories".to_owned());
    };
    let spec = Spec::load()?;
    let (ra, rb) = (load_results(Path::new(a))?, load_results(Path::new(b))?);
    let values = |results: &[(PathBuf, Value)], workload: &str, metric: &str| -> Vec<f64> {
        results
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
            .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(false))
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    };
    println!(
        "{:<20} {:<14} {:>3} {:>30} {:>3} {:>30} {:>8}  verdict",
        "workload", "metric", "n", "A median [q1, q3]", "n", "B median [q1, q3]", "B/A"
    );
    let mut regressed = false;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&ra, w, &m.name), values(&rb, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<20} {:<14} missing runs", m.name);
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let v = verdict(&va, &vb, m.better, bound);
            regressed |= v == Verdict::Regressed;
            let [a1, am, a3] = stats::quartiles(&va);
            let [b1, bm, b3] = stats::quartiles(&vb);
            println!(
                "{w:<20} {:<14} {:>3} {:>30} {:>3} {:>30} {:>8.3}  {} (bound {:.0}%, A spread {:.1}%)",
                m.name,
                va.len(),
                format!("{am:.4} [{a1:.4}, {a3:.4}]"),
                vb.len(),
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                bm / am,
                v.label(),
                bound * 100.0,
                stats::rel_spread(&va) * 100.0,
            );
        }
        // The host, not the program: read these before blaming a commit.
        for (name, what) in [
            ("host.calib_ms", "calibration loop ms"),
            ("host.steal_pct", "steal %"),
        ] {
            let (ha, hb) = (values(&ra, w, name), values(&rb, w, name));
            if !ha.is_empty() && !hb.is_empty() {
                let (ma, mb) = (stats::median(ha), stats::median(hb));
                println!("{w:<20} host {what}: A {ma:.3}, B {mb:.3} (not judged)");
            }
        }
    }
    Ok(if regressed { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_values_and_bare_switches() {
        let args: Vec<String> = ["--seed", "4", "--trace", "--out", "d"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = flags(&args, &["seed", "trace", "out"]).unwrap();
        assert_eq!(f["seed"], "4");
        assert_eq!(f["trace"], "1");
        assert_eq!(f["out"], "d");
        assert!(flags(&args, &["seed"]).is_err());
        assert_eq!(parse_flag(&f, "seed", 1u64), Ok(4));
        assert_eq!(parse_flag(&f, "seconds", 2.5), Ok(2.5));
        assert!(parse_flag::<u64>(&f, "out", 1).is_err());
    }
}
