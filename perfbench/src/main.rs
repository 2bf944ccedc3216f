//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the release `dp-server` from the tree in the working
//! directory, generates the workload's inputs from the seed, drives a
//! real server process over loopback TCP, checks every answer, and
//! prints the metrics — end-to-end with `--trace 0`, per-layer with
//! `--trace 1` — as one JSON object on the last line of standard output.
//! Exits 1 when any correctness or accuracy check fails, 2 on a usage or
//! set-up error (without printing a result).
//!
//! `--tiny` shrinks every store and schedule (for the smoke test).

use perfbench::check::{check_pass, Verdict};
use perfbench::inputs::Inputs;
use perfbench::metrics::{end_to_end, Metric};
use perfbench::replay::{per_layer, LayerReport};
use perfbench::server::{self, SCRUBBED_ENV};
use perfbench::trace::{merge, write_tsv};
use perfbench::workload::{run_pass, Plan, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Server starts per untraced run; `setup_s` is their median.
const SETUP_STARTS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).cloned();
        let need = |v: Option<String>| v.ok_or_else(|| format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => {
                let name = need(value)?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(need(value)?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = need(value)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match need(value)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--tiny" => {
                tiny = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn report_verdict(label: &str, verdict: &Verdict) {
    let (m, mean, rms) = verdict.accuracy;
    println!("check[{label}]: accuracy over {m} disjoint pairs: mean z {mean:.4}, rms z {rms:.4}");
    for (code, count) in &verdict.failures_by_code {
        println!("check[{label}]: ops_failed.{code} = {count}");
    }
    for message in &verdict.messages {
        println!("check[{label}]: FAIL {message}");
    }
}

/// Run the benchmark; `Ok(true)` when every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let bin = server::build(&root)?;
    let plan = Plan::new(args.workload, args.seconds, args.tiny);
    let inputs = Inputs::generate(args.seed, plan.preload, plan.max_releases())?;
    let work = server::target_dir(&root).join("perfbench").join(format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let data_dir = work.join("data");
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let outcome = measure(args, &root, &bin, &plan, &inputs, &work, &data_dir);
    let _ = std::fs::remove_dir_all(&data_dir);
    // Gone unless a traced run left its spans there.
    let _ = std::fs::remove_dir(&work);
    outcome
}

fn measure(
    args: &Args,
    root: &std::path::Path,
    bin: &std::path::Path,
    plan: &Plan,
    inputs: &Inputs,
    work: &std::path::Path,
    data_dir: &std::path::Path,
) -> Result<bool, String> {
    println!(
        "perfbench: workload {} ({}), preload {} parties, {} run",
        args.workload.name(),
        if args.tiny { "tiny" } else { "full" },
        plan.preload,
        if args.trace { "traced" } else { "untraced" }
    );
    for (key, value) in
        perfbench::header::lines(root, data_dir, args.seed, inputs.spec.kernel().name())
    {
        println!("  {key}: {value}");
    }
    let (metrics, verdicts, attempted) = if args.trace {
        let untraced = run_pass(bin, data_dir, inputs, plan, false, 1)?;
        let traced = run_pass(bin, data_dir, inputs, plan, true, 1)?;
        let v1 = check_pass(args.workload, inputs, &untraced.records)?;
        let mut v2 = check_pass(args.workload, inputs, &traced.records)?;
        let report = if v1.ok() && v2.ok() {
            per_layer(args.workload, inputs, &untraced, &traced)?
        } else {
            LayerReport::default()
        };
        for (id, reason) in &report.mismatches {
            if let Some(rec) = traced.records.iter().find(|r| r.id == *id) {
                v2.fail(rec, "replay", reason.clone());
            }
        }
        let path = work.join("spans.tsv");
        let spans = merge(vec![traced.spans, report.spans]);
        write_tsv(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans written to {}", spans.len(), path.display());
        for row in &report.table {
            let sum: f64 = row.layers.iter().map(|(_, us)| us).sum();
            println!(
                "decomposition {}: traced mean {:.2} us = sum of layers {:.2} us",
                row.kind, row.total_us, sum
            );
            for (layer, us) in &row.layers {
                println!("    {layer:<36} {us:>12.2} us");
            }
        }
        let attempted = untraced.records.len() + traced.records.len() + 2;
        (
            report.metrics,
            vec![("untraced", v1), ("traced", v2)],
            attempted,
        )
    } else {
        let pass = run_pass(bin, data_dir, inputs, plan, false, SETUP_STARTS)?;
        let verdict = check_pass(args.workload, inputs, &pass.records)?;
        for (kind, n, p50, p99) in perfbench::metrics::latency_summary(&pass.records) {
            let ms =
                |v: Option<f64>| v.map_or_else(|| "refused".to_string(), |v| format!("{v:.3} ms"));
            println!(
                "latency {kind}: {n} samples, p50 {}, p99 {}",
                ms(p50),
                ms(p99)
            );
            // The p99s are ungated (see the README), so not in the JSON.
            let (name, scale, unit) = match kind {
                "pair" => ("pair_p99_us", 1e3, "us"),
                "knn" => ("knn_p99_ms", 1.0, "ms"),
                _ => ("release_p99_ms", 1.0, "ms"),
            };
            if let Some(v) = p99 {
                println!(
                    "metric {name:<40} {:>16} {unit} (ungated)",
                    json_number(v * scale)
                );
            }
        }
        let late: Vec<f64> = pass
            .records
            .iter()
            .map(|r| r.timing.late_ns() as f64 / 1e6)
            .collect();
        if let Some(steal) = pass.steal_frac {
            println!("host: cpu steal {:.1}% during the phases", steal * 100.0);
        }
        println!(
            "loadgen: {} ops, late mean {:.3} ms, max {:.3} ms",
            late.len(),
            perfbench::stats::mean(&late),
            late.iter().copied().fold(0.0, f64::max)
        );
        let metrics = if verdict.ok() {
            end_to_end(&pass, plan.read_slo_ms)?
        } else {
            Vec::new()
        };
        let attempted = pass.records.len() + 1;
        (metrics, vec![("run", verdict)], attempted)
    };
    let mut failed = 0;
    for (label, verdict) in &verdicts {
        report_verdict(label, verdict);
        failed += verdict.failed_ops.len() + usize::from(!verdict.accurate);
    }
    // Not in the JSON: it is 0 on every correct run.
    println!(
        "metric {:<40} {:>16} fraction (failed / attempted)",
        "error_rate",
        json_number(failed as f64 / attempted as f64)
    );
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && finite && !metrics.is_empty();
    for m in &metrics {
        println!(
            "metric {:<40} {:>16} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    // Before anything reads `Parallelism::from_env`.
    for key in SCRUBBED_ENV {
        std::env::remove_var(key);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
