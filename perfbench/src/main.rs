//! End-to-end and per-layer benchmark of the coupled DSMC/PIC solver.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats closed batch runs of one workload for about `--seconds`,
//! checks every run's outputs, prints each metric with its unit, a
//! provenance line, and as the last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and the metric map.

mod alloc;
mod pin;
mod probes;
mod workloads;

use obs::json::{obj, Json};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Outcome, Size, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics, `(name, unit)`, from untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("step_s", "s"),
    ("ns_per_particle_step", "ns"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, from traced runs.
const PER_LAYER: [(&str, &str); 34] = [
    ("phase.inject_s", "s"),
    ("phase.dsmc_move_s", "s"),
    ("phase.dsmc_exchange_s", "s"),
    ("phase.colli_react_s", "s"),
    ("phase.pic_move_s", "s"),
    ("phase.pic_exchange_s", "s"),
    ("phase.poisson_solve_s", "s"),
    ("phase.reindex_s", "s"),
    ("phase.rebalance_s", "s"),
    ("coupled.unattributed_frac", "frac"),
    ("dsmc.move_ns_per_particle_step", "ns"),
    ("dsmc.collide_ns_per_particle_step", "ns"),
    ("dsmc.collision_accept_ratio", "frac"),
    ("pic.move_ns_per_particle_step", "ns"),
    ("pic.deposit_s", "s"),
    ("sparse.cg_iters_per_solve", "count"),
    ("sparse.cg_solve_s", "s"),
    ("sparse.cg_s_per_iter", "s"),
    ("kernels.pool_busy_frac", "frac"),
    ("vmpi.transactions_per_step", "count"),
    ("vmpi.bytes_per_step", "B"),
    ("vmpi.exchange_s", "s"),
    ("balance.rebalances", "count"),
    ("balance.migrated_particles", "count"),
    ("balance.lii_mean", "ratio"),
    ("partition.kway_s", "s"),
    ("balance.remap_km_s", "s"),
    ("partition.initial_kway_s", "s"),
    ("mesh.build_s", "s"),
    ("alloc.count_per_step", "count"),
    ("alloc.bytes_per_step", "B"),
    ("alloc.exchange_count_per_step", "count"),
    ("rebalance_step_s", "s"),
    ("obs.trace_overhead_frac", "frac"),
];

/// Repeats measured at least, whatever the time budget.
const MIN_UNTRACED: usize = 3;
const MIN_TRACED: usize = 2;
/// Seconds of set-up-only constructions timed in a fresh child
/// process after each untraced run. Set-up takes milliseconds on most
/// workloads, and its speed differs from process to process (address-
/// space layout) and from second to second, so `setup_s` is a median
/// over many samples from many processes spread across the whole run.
const SETUP_SECONDS: f64 = 0.25;
/// `coupled.unattributed_frac` above this is flagged (not failed).
const CLOSURE_LIMIT: f64 = 0.02;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when the process is one of the benchmark's own children.
    child: Option<Child>,
}

/// What a child process of the benchmark does and prints.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Child {
    /// One run, traced or not; prints its [`Outcome`].
    Run { traced: bool },
    /// Set-up-only constructions; prints their seconds.
    Setup,
}

impl Child {
    fn flag(self) -> &'static str {
        match self {
            Child::Run { traced: false } => "untraced",
            Child::Run { traced: true } => "traced",
            Child::Setup => "setup",
        }
    }
}

fn flag01(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not {value}")),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child) = (1, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => trace = flag01(flag, value)?,
            "--child" => {
                child = Some(
                    [
                        Child::Run { traced: false },
                        Child::Run { traced: true },
                        Child::Setup,
                    ]
                    .into_iter()
                    .find(|c| c.flag() == value)
                    .ok_or(format!("unknown child mode {value}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn median_of(outs: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    median(&mut outs.iter().map(f).collect::<Vec<_>>())
}

/// All runs of one invocation.
#[derive(Debug, Default)]
struct Measurement {
    untraced: Vec<Outcome>,
    traced: Vec<Outcome>,
    /// One-off cross-driver checks (`plume` against `run_serial`).
    extra: Vec<Result<(), String>>,
}

/// Where repeats run. The benchmark runs each in a fresh child
/// process, so a run that panics counts as failed instead of ending
/// the benchmark, and each run's heap peak starts from a clean
/// process, as a user's run does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Runner {
    /// The benchmark's own tests run repeats in the test process.
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
    Child {
        seed: u64,
    },
}

/// Run the benchmark's own binary as a `child` and parse the last
/// line it prints.
fn child_line(wl: Workload, seed: u64, child: Child) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", wl.name(), "--seed", &seed.to_string()])
        .args(["--child", child.flag()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|l| obs::json::parse(l).ok())
        .ok_or_else(|| "child run printed no result".into())
}

fn run_child(wl: Workload, seed: u64, traced: bool) -> Outcome {
    let names: Vec<&'static str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
    child_line(wl, seed, Child::Run { traced })
        .and_then(|j| Outcome::from_json(&j, &names).ok_or("child run printed no outcome".into()))
        .unwrap_or_else(|why| Outcome {
            problems: vec![why],
            ..Outcome::default()
        })
}

fn setup_child(wl: Workload, seed: u64) -> Result<Vec<f64>, String> {
    child_line(wl, seed, Child::Setup)?
        .as_array()
        .and_then(|a| a.iter().map(Json::as_f64).collect())
        .ok_or_else(|| "set-up child printed no samples".into())
}

fn repeat(
    wl: Workload,
    run: &coupled::RunConfig,
    runner: Runner,
    traced: bool,
    setups: bool,
    min: usize,
    until: Instant,
) -> Vec<Outcome> {
    let mut outs = Vec::new();
    let mut took = Vec::new();
    loop {
        let t = Instant::now();
        let mut out = match runner {
            Runner::InProcess => wl.run_once(run, traced),
            Runner::Child { seed } => run_child(wl, seed, traced),
        };
        if setups {
            let setups = match runner {
                Runner::InProcess => Ok(wl.setup_samples(run, 0.0)),
                Runner::Child { seed } => setup_child(wl, seed),
            };
            match setups {
                Ok(s) => out.extra_setups = s,
                Err(why) => out.problems.push(why),
            }
        }
        outs.push(out);
        took.push(t.elapsed().as_secs_f64());
        let typical = Duration::from_secs_f64(median(&mut took.clone()));
        if outs.len() >= min && Instant::now() + typical > until {
            return outs;
        }
    }
}

fn measure(
    wl: Workload,
    run: &coupled::RunConfig,
    runner: Runner,
    seconds: f64,
    trace: bool,
) -> Measurement {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut m = Measurement::default();
    let untraced_until = start + if trace { budget / 2 } else { budget };
    // set-up is timed for `setup_s`, an end-to-end metric
    m.untraced = repeat(wl, run, runner, false, !trace, MIN_UNTRACED, untraced_until);
    if trace {
        m.traced = repeat(wl, run, runner, true, false, MIN_TRACED, start + budget);
    }
    if wl == Workload::Plume {
        let report = coupled::run_serial(run);
        m.extra.push(
            if workloads::digest(&report.density_h, report.population) == m.untraced[0].digest {
                Ok(())
            } else {
                Err("bench-driven pipeline digest differs from run_serial's".into())
            },
        );
    }
    m
}

/// Every failed check of the invocation, one line per failed run. A
/// run fails on any problem of its own, or when its digest (or its
/// modelled trajectory) differs from the first run's: the same seed
/// must give the same outputs on every repeat and through every
/// driver path.
fn failures(m: &Measurement) -> Vec<String> {
    let runs: Vec<&Outcome> = m.untraced.iter().chain(&m.traced).collect();
    let mut failed = Vec::new();
    for (i, o) in runs.iter().enumerate() {
        let mut why = o.problems.clone();
        if o.digest != runs[0].digest {
            why.push(format!(
                "digest {:016x} != first run's {:016x}",
                o.digest, runs[0].digest
            ));
        }
        if o.trajectory != runs[0].trajectory {
            why.push("modelled lii/step-time trajectory differs from the first run's".into());
        }
        if !why.is_empty() {
            failed.push(format!("run {i}: {}", why.join("; ")));
        }
    }
    failed.extend(m.extra.iter().filter_map(|r| r.clone().err()));
    failed
}

fn end_to_end(m: &Measurement) -> Vec<(&'static str, f64)> {
    let u = &m.untraced;
    let stepping = |o: &Outcome| o.wall_s - o.setup_s;
    vec![
        ("wall_s", median_of(u, |o| o.wall_s)),
        (
            "setup_s",
            median(
                &mut u
                    .iter()
                    .flat_map(|o| [o.setup_s].into_iter().chain(o.extra_setups.clone()))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("step_s", median_of(u, |o| stepping(o) / o.steps as f64)),
        (
            "ns_per_particle_step",
            median_of(u, |o| {
                stepping(o) * 1e9 / (o.steps * o.population.max(1)) as f64
            }),
        ),
        (
            "peak_heap_mib",
            median_of(u, |o| o.peak_heap as f64 / (1u64 << 20) as f64),
        ),
    ]
}

fn per_layer(m: &Measurement) -> Vec<(&'static str, f64)> {
    let t = &m.traced;
    let overhead = median_of(t, |o| o.wall_s) / median_of(&m.untraced, |o| o.wall_s) - 1.0;
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            if name == "obs.trace_overhead_frac" {
                return (name, overhead);
            }
            // a failed child run carries no layers; it is already
            // counted in `failed`
            let mut v: Vec<f64> = t
                .iter()
                .filter_map(|o| o.layers.iter().find(|l| l.0 == name).map(|l| l.1))
                .collect();
            (
                name,
                if v.is_empty() {
                    f64::NAN
                } else {
                    median(&mut v)
                },
            )
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("?", |&(_, u)| u)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let run = args.workload.config(args.seed, Size::Full);
    match args.child {
        Some(Child::Run { traced }) => {
            println!("{}", args.workload.run_once(&run, traced).to_json());
            return ExitCode::SUCCESS;
        }
        Some(Child::Setup) => {
            let samples = args.workload.setup_samples(&run, SETUP_SECONDS);
            println!(
                "{}",
                Json::Arr(samples.into_iter().map(Json::Num).collect())
            );
            return ExitCode::SUCCESS;
        }
        None => {}
    }
    // measured before pinning, which narrows what the process may use
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // End-to-end runs are pinned (see pin.rs). Traced runs are not:
    // on one CPU the kernel pool's lanes would time-slice, and each
    // lane's busy time would include the other's turns.
    let pinned = if args.trace {
        None
    } else {
        pin::to_one_cpu()
            .inspect_err(|e| eprintln!("perfbench: runs not pinned to one CPU: {e}"))
            .ok()
    };
    let runner = Runner::Child { seed: args.seed };
    let m = measure(args.workload, &run, runner, args.seconds, args.trace);
    let failed = failures(&m);
    for (kind, runs) in [("untraced", &m.untraced), ("traced", &m.traced)] {
        let walls: Vec<String> = runs.iter().map(|o| format!("{:.4}", o.wall_s)).collect();
        eprintln!("perfbench: {kind} run walls (s): {}", walls.join(" "));
    }
    for f in &failed {
        eprintln!("perfbench: check failed: {f}");
    }
    let metrics = if args.trace {
        per_layer(&m)
    } else {
        end_to_end(&m)
    };

    let mut closure_flagged = false;
    let mut finite = true;
    let mut fields = Vec::new();
    for &(name, value) in &metrics {
        println!("{name:<36} {value:>16.6} {}", unit_of(name));
        if name == "coupled.unattributed_frac" && value > CLOSURE_LIMIT {
            closure_flagged = true;
            eprintln!(
                "perfbench: closure flagged: {:.2}% of wall time is in no phase",
                value * 100.0
            );
        }
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        let unit = Json::Str(unit_of(name).into());
        fields.push((name, obj(vec![("value", Json::Num(value)), ("unit", unit)])));
    }
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    let provenance = obj(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::U64(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::U64(nproc as u64)),
        (
            "pinned_cpu",
            pinned.map_or(Json::Null, |c| Json::U64(c as u64)),
        ),
        ("git_rev", Json::Str(env!("PERFBENCH_GIT_REV").into())),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("config_hash", Json::Str(run.config_hash_hex())),
        ("population", Json::U64(m.untraced[0].population as u64)),
        ("untraced_runs", Json::U64(m.untraced.len() as u64)),
        ("traced_runs", Json::U64(m.traced.len() as u64)),
        ("closure_flagged", Json::Bool(closure_flagged)),
    ]);
    println!("{}", obj(vec![("provenance", provenance)]));

    let attempted = m.untraced.len() + m.traced.len() + m.extra.len();
    let n_failed = failed.len() + usize::from(!finite);
    let result = obj(vec![
        ("correct", Json::Bool(n_failed == 0)),
        ("attempted", Json::U64(attempted as u64)),
        ("failed", Json::U64(n_failed as u64)),
        ("metrics", obj(fields)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        obs::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON")
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        match j {
            Json::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn names_units(j: &Json) -> Vec<(String, String)> {
        let Json::Arr(items) = j else {
            panic!("not an array")
        };
        items
            .iter()
            .map(|m| {
                let s = |k| match field(m, k) {
                    Json::Str(s) => s.clone(),
                    _ => panic!("{k} is not a string"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_and_workload_names_follow_the_grammar() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(name), "bad metric name {name}");
            assert!(is_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for w in Workload::ALL {
            assert!(is_name(w.name()) && seen.insert(w.name()));
        }
        assert!(!is_name("_x") && !is_name("a b") && !is_name(&"a".repeat(65)));
        assert!(!is_unit("") && !is_unit("m s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let j = declared();
        assert_eq!(names_units(field(&j, "end_to_end")), owned(&END_TO_END));
        assert_eq!(names_units(field(&j, "per_layer")), owned(&PER_LAYER));
        let Json::Arr(wls) = field(&j, "workloads") else {
            panic!()
        };
        let names: Vec<&Json> = wls.iter().map(|w| field(w, "name")).collect();
        let expect: Vec<Json> = Workload::ALL
            .iter()
            .map(|w| Json::Str(w.name().into()))
            .collect();
        assert_eq!(names, expect.iter().collect::<Vec<_>>());
    }

    #[test]
    fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
        for wl in Workload::ALL {
            let run = wl.config(3, Size::Tiny);
            let m = measure(wl, &run, Runner::InProcess, 0.0, true);
            assert_eq!(failures(&m), Vec::<String>::new(), "{}", wl.name());
            let names =
                |v: Vec<(&'static str, f64)>| v.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
            let declared =
                |v: &[(&'static str, &str)]| v.iter().map(|&(n, _)| n).collect::<Vec<_>>();
            assert_eq!(
                names(end_to_end(&m)),
                declared(&END_TO_END),
                "{}",
                wl.name()
            );
            assert_eq!(names(per_layer(&m)), declared(&PER_LAYER), "{}", wl.name());
            for (name, v) in end_to_end(&m).into_iter().chain(per_layer(&m)) {
                assert!(v.is_finite(), "{} {name} = {v}", wl.name());
            }
        }
    }

    #[test]
    fn a_corrupted_digest_fails_its_check() {
        let run = Workload::Plume.config(5, Size::Tiny);
        let mut m = measure(Workload::Plume, &run, Runner::InProcess, 0.0, false);
        assert!(failures(&m).is_empty());
        m.untraced[1].digest ^= 1;
        let failed = failures(&m);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("digest"));
    }

    #[test]
    fn a_cg_solve_at_the_engines_cap_fails_its_check() {
        let cap = probes::ENGINE_CG.max_iters;
        let mut problems = Vec::new();
        workloads::check_cg(&[12, cap - 1], 0, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        workloads::check_cg(&[12, cap], 3, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("step 3"));
    }

    #[test]
    fn setup_child_mode_parses() {
        let a: Vec<String> = "--workload plume --child setup"
            .split(' ')
            .map(String::from)
            .collect();
        assert_eq!(parse_args(&a).map(|a| a.child), Ok(Some(Child::Setup)));
    }

    #[test]
    fn an_outcome_survives_the_trip_from_a_child_process() {
        let run = Workload::Paper192.config(2, Size::Tiny);
        let out = Workload::Paper192.run_once(&run, true);
        let names: Vec<&'static str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        let line = out.to_json().to_string();
        let back = Outcome::from_json(&obs::json::parse(&line).unwrap(), &names).unwrap();
        assert_eq!(back.to_json().to_string(), line);
    }

    #[test]
    fn a_changed_seed_changes_the_digest() {
        let a = Workload::Plume.run_once(&Workload::Plume.config(1, Size::Tiny), false);
        let b = Workload::Plume.run_once(&Workload::Plume.config(2, Size::Tiny), false);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = "--workload paper_192 --seed 7 --seconds 5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        assert_eq!(
            parse_args(&a),
            Ok(Args {
                workload: Workload::Paper192,
                seed: 7,
                seconds: 5.0,
                trace: true,
                child: None,
            })
        );
        for bad in [
            "--workload nope",
            "--seed",
            "--trace 2 --workload plume",
            "--workload plume --x 1",
            "--workload plume --seconds inf",
            "--workload plume --seconds -1",
            "--workload plume --child once",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}
