//! `rodentbench` — see `README.md` in this directory.
//!
//! ```text
//! rodentbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--append <set.jsonl>]
//! rodentbench compare <setA.jsonl> <setB.jsonl> [--benchmark <BENCHMARK.json>]
//! ```

use rodentbench::alloc::CountingAlloc;
use rodentbench::compare::compare;
use rodentbench::json::Json;
use rodentbench::runner::{run, Outcome, RunConfig};
use rodentbench::scratch::{free_bytes, MIN_FREE_BYTES, SCRATCH_ROOT};
use rodentbench::workloads::{find, WORKLOADS};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  rodentbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick] [--append <set.jsonl>]
  rodentbench compare <setA.jsonl> <setB.jsonl> [--benchmark <BENCHMARK.json>]";

/// Environment switches that would change what is measured.
const REFUSED_ENV: [&str; 2] = ["RODENTSTORE_MMAP", "RODENTSTORE_BENCH_SMOKE"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_sets(&args[1..]),
        Some(_) => run_workload(&args),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rodentbench: {message}");
            ExitCode::from(2)
        }
    }
}

struct Cli {
    config: RunConfig,
    append: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut append) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--append" => append = Some(value()?.clone()),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let name = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload = find(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Cli {
        config: RunConfig {
            workload,
            seed: seed.unwrap_or(0xF162),
            seconds,
            trace: trace.unwrap_or(false),
            quick,
        },
        append,
    })
}

fn result_json(outcome: &Outcome) -> Vec<(String, Json)> {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_run_args(args)?;
    let cfg = &cli.config;
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; the benchmark measures the default read path at full size — unset it"
            ));
        }
    }
    std::fs::create_dir_all(SCRATCH_ROOT).map_err(|e| format!("{SCRATCH_ROOT}: {e}"))?;
    match free_bytes(Path::new(SCRATCH_ROOT)) {
        Some(free) if free < MIN_FREE_BYTES => {
            return Err(format!(
                "only {} MiB free under {SCRATCH_ROOT}; need {} MiB",
                free >> 20,
                MIN_FREE_BYTES >> 20
            ));
        }
        Some(_) => {}
        None => eprintln!("rodentbench: could not read free space (no `df`?); continuing"),
    }

    let outcome = run(cfg)?;

    // Context a reader of the numbers needs, kept off the result line.
    let w = cfg.workload;
    eprintln!(
        "rodentbench: workload={} seed={} trace={} quick={} nproc={} page_size={} initial_rows={} batch_rows={} ops_per_cycle={} cycles={} op_hash={:016x}{}",
        w.name,
        cfg.seed,
        cfg.trace as u8,
        cfg.quick,
        std::thread::available_parallelism().map_or(0, usize::from),
        w.page_size(),
        w.initial(cfg.quick),
        w.batch(cfg.quick),
        w.ops,
        outcome.cycles,
        outcome.op_hash,
        outcome
            .trace_file
            .as_ref()
            .map_or(String::new(), |p| format!(" spans={}", p.display())),
    );

    let result = result_json(&outcome);
    if let Some(path) = &cli.append {
        let mut record = vec![
            ("workload".to_string(), Json::Str(w.name.into())),
            ("seed".to_string(), Json::Num(cfg.seed as f64)),
            ("trace".to_string(), Json::Num(cfg.trace as u8 as f64)),
            (
                "op_hash".to_string(),
                Json::Str(format!("{:016x}", outcome.op_hash)),
            ),
        ];
        record.extend(result.clone());
        let per_cycle = outcome
            .per_cycle
            .iter()
            .map(|(name, values)| {
                let values = values.iter().map(|v| Json::Num(*v)).collect();
                (name.to_string(), Json::Arr(values))
            })
            .collect();
        record.push(("per_cycle".to_string(), Json::Obj(per_cycle)));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", Json::Obj(record).render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", Json::Obj(result).render());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err(format!("compare takes two set files\n{USAGE}"));
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = Json::parse(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
    let comparison = compare(&read(a)?, &read(b)?, &spec)?;
    print!("{}", comparison.render());
    Ok(if comparison.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
