//! `fdn-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ring-flood|chorded-replay|standard-campaign \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one line per metric, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`; with `--trace 1` the
//! per-layer ones. Exits 1 when an output deviates from its pinned value and
//! 2 on a usage or set-up error (without printing a result).

mod clock;
mod drive;
mod estimate;
mod layers;
mod trace;
mod workloads;

use workloads::{Metric, Outcome, Settings, Workload};

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("ns_per_delivery", "ns"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pulses", "count"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 23] = [
    ("scheduler.next_link_ns", "ns"),
    ("noise.deliver_ns", "ns"),
    ("sim.self_ns", "ns"),
    ("links.push_pop_ns_d3", "ns"),
    ("links.push_pop_ns_d128", "ns"),
    ("links.max_inflight", "count"),
    ("links.queue_ops", "count"),
    ("stats.record_ns", "ns"),
    ("engine.on_message_ns", "ns"),
    ("engine.pulses_per_inner_msg", "ratio"),
    ("construction.on_message_ns", "ns"),
    ("construction.cc_init", "count"),
    ("checkpoint.restore_ms", "ms"),
    ("graph.topology_ms", "ms"),
    ("inner.on_deliver_ns", "ns"),
    ("baseline.run_ms", "ms"),
    ("runner.scenario_ms", "ms"),
    ("cache.baseline_hit_ratio", "ratio"),
    ("report.render_ms", "ms"),
    ("report.bytes", "bytes"),
    ("rayon.busy_frac", "ratio"),
    ("trace.step_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: Workload,
    settings: Settings,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1 to 600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        settings: Settings {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")? as f64,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// The commit of the checkout when it is a git work tree, else `none`.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "none".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none".to_string(),
    }
}

/// FNV-1a 64 over every file under `crates/` (sorted paths, then contents):
/// identifies the measured code where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fdn_core::fnv1a64(&bytes))
}

/// The metrics a run must report, in order, with every declared name present
/// exactly once and its declared unit.
fn select(metrics: &[Metric], declared: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    declared
        .iter()
        .map(|&(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit || !m.value.is_finite() {
                return Err(format!("metric {name} = {} {}", m.value, m.unit));
            }
            Ok(m.clone())
        })
        .collect()
}

/// The result object, on one line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fdn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# fdn-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={} source_fnv={}",
        args.workload.name(),
        args.settings.seed,
        args.settings.seconds,
        u8::from(args.settings.trace),
        commit(),
        source_digest(),
    );
    let outcome: Outcome = match workloads::run(args.workload, args.settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fdn-perfbench: {}: {e}", args.workload.name());
            std::process::exit(2);
        }
    };
    let declared: &[(&str, &str)] = if args.settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics = match select(&outcome.metrics, declared) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fdn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &metrics {
        println!("{:<28} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for m in outcome
        .metrics
        .iter()
        .filter(|m| !declared.iter().any(|&(name, _)| name == m.name))
    {
        println!(
            "# unbounded {:<18} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let error_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# unbounded {:<18} {:>16.4} {:<6} {} of {} checked units deviated",
        "error_frac", error_frac, "ratio", outcome.failed, outcome.attempted
    );
    for d in &outcome.deviations {
        println!("# deviation: {d}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdn_lab::Json;

    fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    #[test]
    fn result_line_parses_with_the_declared_keys() {
        let measured: Vec<Metric> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &(n, u))| metric(n, 0.1 + i as f64 * 1234.56789, u))
            .collect();
        let line = result_line(true, 12, 0, &select(&measured, &END_TO_END).unwrap());
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(12));
        let metrics = json.get("metrics").unwrap();
        for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert_eq!(v, 0.1 + i as f64 * 1234.56789, "all digits survive");
        }
    }

    #[test]
    fn select_rejects_missing_or_mislabelled_metrics() {
        let one = [metric("ns_per_delivery", 1.0, "ns")];
        assert!(select(&one, &END_TO_END).is_err());
        let wrong_unit = [metric("ns_per_delivery", 1.0, "ms")];
        assert!(select(&wrong_unit, &END_TO_END[..1]).is_err());
        let nan = [metric("ns_per_delivery", f64::NAN, "ns")];
        assert!(select(&nan, &END_TO_END[..1]).is_err());
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let ok: Vec<String> = [
            "--workload",
            "ring-flood",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!(a.workload, Workload::RingFlood);
        assert_eq!(a.settings.seed, 3);
        assert!(a.settings.trace);
        let mut bad = ok.clone();
        bad[7] = "2".to_string();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_err());
    }
}
