//! Runs a workload for a time budget and turns the runs into metrics.
//!
//! `--trace 0` times whole training runs per strategy, with telemetry
//! off. `--trace 1` runs each strategy untraced once and then replays it
//! with every layer timed, and fails the run unless the replay reproduces
//! the untraced history bit for bit.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fare_core::{EpochStats, TrainOutcome};
use fare_graph::datasets::Dataset;

use crate::replay::{replay, Ledger};
use crate::workload::{train, Strategy, Workload};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: picks the run's datasets and training seeds.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Run the traced per-layer replay instead of the end-to-end timing.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// The result line: run counts plus every metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every run passed its output checks.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked or failed an output check.
    pub failed: u64,
    /// `(name, unit, value)` in the order of the metric table.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable notes on failed checks.
    pub problems: Vec<String>,
}

impl Report {
    /// The single JSON line the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                // A missing or non-finite value (the run is then not
                // correct) prints as `null` so the line stays JSON.
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Dataset generation is repeated at least this many times, and until
/// [`SETUP_BUDGET_S`] has passed; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 5;
/// Time budget for the setup repeats, in seconds.
const SETUP_BUDGET_S: f64 = 0.25;

/// One input of a run: a generated dataset and the seed its training
/// runs use.
struct Input {
    /// Dataset and training seed.
    seed: u64,
    /// The generated dataset.
    dataset: Dataset,
}

/// Generates the workload's inputs repeatedly. Returns them, the median
/// time to generate one dataset, the number of repeats, and whether
/// every repeat was identical.
fn setup(workload: &Workload, seed: u64) -> (Vec<Input>, f64, usize, bool) {
    let seeds = workload.input_seeds(seed);
    let mut times = Vec::new();
    let mut first: Option<Vec<Input>> = None;
    let mut identical = true;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPEATS || start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = cpu_seconds();
        let inputs: Vec<Input> = seeds
            .iter()
            .map(|&seed| Input {
                seed,
                dataset: std::hint::black_box(workload.dataset(seed)),
            })
            .collect();
        times.push((cpu_seconds() - t) / seeds.len() as f64);
        match &first {
            None => first = Some(inputs),
            Some(f) => {
                identical &= f.iter().zip(&inputs).all(|(a, b)| {
                    let (a, b) = (&a.dataset, &b.dataset);
                    a.graph == b.graph
                        && a.features == b.features
                        && a.labels == b.labels
                        && a.train_mask == b.train_mask
                });
            }
        }
    }
    (
        first.expect("at least one repeat"),
        median(&times),
        times.len(),
        identical,
    )
}

/// What a run must reproduce exactly: the history's bits, the final
/// mapping cost and the normalised time's bits.
type Fingerprint = (Vec<[u64; 4]>, usize, u64);

fn fingerprint(history: &[EpochStats], mapping_cost: usize, normalized_time: f64) -> Fingerprint {
    let bits = history
        .iter()
        .map(|e| {
            [
                e.epoch as u64,
                e.loss.to_bits(),
                e.train_accuracy.to_bits(),
                e.test_accuracy.to_bits(),
            ]
        })
        .collect();
    (bits, mapping_cost, normalized_time.to_bits())
}

fn outcome_fingerprint(o: &TrainOutcome) -> Fingerprint {
    fingerprint(&o.history, o.final_mapping_cost, o.normalized_time)
}

/// Output checks on one finished run. `first` is the same strategy's
/// first outcome of this process; outcomes are deterministic, so a
/// repeat must match it bit for bit.
fn check(
    workload: &Workload,
    out: &TrainOutcome,
    first: Option<&TrainOutcome>,
) -> Result<(), String> {
    if out.history.len() != workload.epochs {
        return Err(format!(
            "history has {} epochs, expected {}",
            out.history.len(),
            workload.epochs
        ));
    }
    let in_unit = |x: f64| (0.0..=1.0).contains(&x);
    for e in &out.history {
        if !(in_unit(e.train_accuracy) && in_unit(e.test_accuracy) && e.loss.is_finite()) {
            return Err(format!("epoch {} out of range: {e:?}", e.epoch));
        }
    }
    if !(in_unit(out.final_test_accuracy)
        && out.normalized_time.is_finite()
        && out.normalized_time >= 1.0)
    {
        return Err(format!(
            "final accuracy {} or normalised time {} out of range",
            out.final_test_accuracy, out.normalized_time
        ));
    }
    if first.is_some_and(|f| outcome_fingerprint(f) != outcome_fingerprint(out)) {
        return Err("outcome differs from an earlier run of the same seed".into());
    }
    Ok(())
}

/// Runs `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the process CPU clock of 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU seconds of this process so far, over all its threads. Unlike
/// wall time it leaves out time a thread waited for a CPU, which on a
/// shared machine is mostly other tenants' load.
#[allow(unsafe_code)]
fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above), the only memory
    // `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`); NaN, which
/// fails the run, if `/proc` does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The time one run took.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Timing {
    cpu_s: f64,
    wall_s: f64,
}

/// Bookkeeping shared by both modes.
struct Runs {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// First outcome per (input, strategy); repeats must equal it.
    first: BTreeMap<(usize, &'static str), TrainOutcome>,
}

impl Runs {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            first: BTreeMap::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// One timed, checked, untraced run. Returns its on-CPU and wall
    /// seconds on success.
    fn run(
        &mut self,
        workload: &Workload,
        s: Strategy,
        idx: usize,
        input: &Input,
    ) -> Option<(Timing, TrainOutcome)> {
        self.attempted += 1;
        let (cpu, wall) = (cpu_seconds(), Instant::now());
        let out = guarded(|| train(workload, s, input.seed, &input.dataset));
        let secs = Timing {
            cpu_s: cpu_seconds() - cpu,
            wall_s: wall.elapsed().as_secs_f64(),
        };
        let key = (idx, s.name());
        let checked = out.and_then(|o| check(workload, &o, self.first.get(&key)).map(|()| o));
        match checked {
            Ok(o) => {
                self.first.entry(key).or_insert_with(|| o.clone());
                Some((secs, o))
            }
            Err(e) => {
                self.fail(format!("{} on input seed {}: {e}", s.name(), input.seed));
                None
            }
        }
    }

    /// Final test accuracy of `s` averaged over the inputs, if every
    /// input has a successful run.
    fn accuracy(&self, s: Strategy, inputs: usize) -> Option<f64> {
        let accs: Option<Vec<f64>> = (0..inputs)
            .map(|i| {
                self.first
                    .get(&(i, s.name()))
                    .map(|o| o.final_test_accuracy)
            })
            .collect();
        accs.map(|a| a.iter().sum::<f64>() / inputs as f64)
    }

    /// The paper-claim band of Fig. 5 (`tests/paper_claims.rs`), per
    /// input, on the Fig. 5 workload: FARe must not lose to
    /// fault-unaware training by more than 0.01.
    fn check_band(&mut self, workload: &Workload, inputs: usize) {
        if workload.name != "ppi_fig5" {
            return;
        }
        for i in 0..inputs {
            let acc = |s: Strategy| {
                self.first
                    .get(&(i, s.name()))
                    .map(|o| o.final_test_accuracy)
            };
            if let (Some(fare), Some(unaware)) = (acc(Strategy::Fare), acc(Strategy::Unaware)) {
                if fare < unaware - 0.01 {
                    self.fail(format!(
                        "input {i}: acc.fare {fare} < acc.unaware {unaware} - 0.01"
                    ));
                }
            }
        }
    }

    fn report(self, metrics: Vec<(&'static str, &'static str, f64)>) -> Report {
        let finite = metrics.iter().all(|m| m.2.is_finite());
        Report {
            correct: self.failed == 0 && self.attempted > 0 && finite,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
        }
    }
}

/// The calibration task's on-CPU time on the machine the benchmark was
/// tuned on, in its usual state. Times are reported at this speed.
pub const CALIBRATION_REFERENCE_S: f64 = 0.00105;

/// A fixed CPU task that belongs to the benchmark, not to the program:
/// dense `f32` multiply-adds on a 64×64 matrix, then a dependent
/// pseudo-random walk with popcounts over a 1 MiB table. It takes about
/// a millisecond, and no change to the program can change its time.
fn calibration_task() -> u64 {
    let n = 64;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 * 0.25).collect();
    let mut acc = vec![0f32; n * n];
    for _ in 0..4 {
        for i in 0..n {
            for k in 0..n {
                let x = a[i * n + k];
                for j in 0..n {
                    acc[i * n + j] += x * a[k * n + j];
                }
            }
        }
    }
    let table: Vec<u64> = (0..1u64 << 17)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let (mut idx, mut bits) = (0usize, 0u64);
    for _ in 0..200_000 {
        let v = table[idx];
        bits += u64::from(v.count_ones());
        idx = ((v >> 7) as usize ^ idx.wrapping_mul(31)) & (table.len() - 1);
    }
    bits + acc.iter().sum::<f32>() as u64
}

/// Median on-CPU seconds of five runs of [`calibration_task`].
fn calibrate() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = cpu_seconds();
            std::hint::black_box(calibration_task());
            cpu_seconds() - start
        })
        .collect();
    median(&times)
}

/// What a measurement produced, with the settings the provenance line
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The metrics and run counts.
    pub report: Report,
    /// Complete rounds (samples per timing).
    pub rounds: usize,
    /// Dataset generations `setup_s` is the median of.
    pub setup_repeats: usize,
    /// Median on-CPU seconds of the calibration task in this run.
    pub calibration_s: f64,
}

/// Runs `round` at least `min_rounds` times and then while another
/// round fits the time budget. Reports the median of each value, in the
/// order of `table`.
fn measure<F>(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    table: &'static [(&'static str, &'static str)],
    mut round: F,
) -> Measured
where
    F: FnMut(&mut Runs, &[Input]) -> Option<BTreeMap<&'static str, f64>>,
{
    fare_obs::set_mode(fare_obs::Mode::Off);
    // The machine's speed drifts by tens of per cent over minutes, and
    // CPU time drifts with it. The calibration task, timed before and
    // after the set-up and after every round, measures that speed, and
    // the end-to-end times are scaled to the reference speed.
    let mut calibrations = vec![calibrate()];
    let (inputs, setup_s, setup_repeats, identical) = setup(workload, seed);
    calibrations.push(calibrate());
    let mut runs = Runs::new();
    if !identical {
        runs.fail("dataset generation is not deterministic".into());
    }
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut rounds = 0;
    // Stop before a round that would likely end past the budget.
    while rounds < min_rounds || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed * (rounds + 1) as f64 / rounds as f64 <= seconds
    } {
        if let Some(values) = round(&mut runs, &inputs) {
            for (k, v) in values {
                samples.entry(k).or_default().push(v);
            }
        }
        rounds += 1;
        calibrations.push(calibrate());
    }
    runs.check_band(workload, inputs.len());
    let calibration_s = median(&calibrations);
    let to_reference = CALIBRATION_REFERENCE_S / calibration_s;
    for (name, v) in samples.iter_mut() {
        match *name {
            "epochs_per_s" => v.iter_mut().for_each(|x| *x /= to_reference),
            n if n.starts_with("run_s.") => v.iter_mut().for_each(|x| *x *= to_reference),
            _ => {}
        }
    }
    samples.insert("setup_s", vec![setup_s * to_reference]);
    samples.insert("peak_rss_mb", vec![peak_rss_mb()]);
    let ok = (runs.attempted - runs.failed) as f64 / runs.attempted as f64;
    samples.insert("ok_share", vec![ok]);
    for s in Strategy::ALL {
        if let Some(acc) = runs.accuracy(s, inputs.len()) {
            samples.insert(acc_metric(s), vec![acc]);
        }
    }
    if let Some(o) = runs.first.get(&(0, Strategy::Fare.name())) {
        samples.insert("norm_time.fare", vec![o.normalized_time]);
    }
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                unit,
                samples.get(name).map_or(f64::NAN, |v| median(v)),
            )
        })
        .collect();
    Measured {
        report: runs.report(metrics),
        rounds,
        setup_repeats,
        calibration_s,
    }
}

/// End-to-end mode: whole untraced runs of every strategy on every
/// input, at least two rounds.
pub fn measure_end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Measured {
    measure(
        workload,
        seed,
        seconds,
        2,
        &crate::END_TO_END,
        |runs, inputs| {
            let mut per_strategy: BTreeMap<&'static str, f64> = BTreeMap::new();
            let (mut epochs, mut run_s) = (0usize, 0.0f64);
            let mut ok = true;
            for (idx, input) in inputs.iter().enumerate() {
                for s in Strategy::ALL {
                    match runs.run(workload, s, idx, input) {
                        Some((t, out)) => {
                            *per_strategy.entry(run_metric(s)).or_default() +=
                                t.cpu_s / inputs.len() as f64;
                            epochs += out.history.len();
                            run_s += t.cpu_s;
                        }
                        None => ok = false,
                    }
                }
            }
            per_strategy.insert("epochs_per_s", epochs as f64 / run_s);
            ok.then_some(per_strategy)
        },
    )
}

/// Traced mode: every strategy on every input untraced, then replayed;
/// each per-layer metric is the median over rounds (at least one).
pub fn measure_traced(workload: &Workload, seed: u64, seconds: f64) -> Measured {
    measure(
        workload,
        seed,
        seconds,
        1,
        &crate::PER_LAYER,
        |runs, inputs| traced_round(runs, workload, inputs),
    )
}

fn run_metric(s: Strategy) -> &'static str {
    match s {
        Strategy::Free => "run_s.free",
        Strategy::Unaware => "run_s.unaware",
        Strategy::Nr => "run_s.nr",
        Strategy::Clip => "run_s.clip",
        Strategy::Fare => "run_s.fare",
    }
}

fn acc_metric(s: Strategy) -> &'static str {
    match s {
        Strategy::Free => "acc.free",
        Strategy::Unaware => "acc.unaware",
        Strategy::Nr => "acc.nr",
        Strategy::Clip => "acc.clip",
        Strategy::Fare => "acc.fare",
    }
}

/// One traced round: every strategy run untraced, then replayed. Returns
/// the per-layer values of the round, or `None` if any run failed.
fn traced_round(
    runs: &mut Runs,
    workload: &Workload,
    inputs: &[Input],
) -> Option<BTreeMap<&'static str, f64>> {
    let mut ledger = Ledger::default();
    let (mut untraced_s, mut wall_s) = (0.0, 0.0);
    let (mut mismatch_cost, mut fare_wall_s) = (0.0, 0.0);
    let mut batch_nodes_max = 0usize;
    let mut ok = true;
    for (idx, input) in inputs.iter().enumerate() {
        for s in Strategy::ALL {
            let Some((t, out)) = runs.run(workload, s, idx, input) else {
                ok = false;
                continue;
            };
            runs.attempted += 1;
            let cfg = workload.config(s);
            match guarded(|| replay(&cfg, s == Strategy::Free, input.seed, &input.dataset)) {
                Ok(r)
                    if fingerprint(&r.history, r.final_mapping_cost, r.normalized_time)
                        == outcome_fingerprint(&out) =>
                {
                    untraced_s += t.wall_s;
                    wall_s += r.wall_s;
                    ledger.merge(&r.ledger);
                    batch_nodes_max = batch_nodes_max.max(r.batch_nodes_max);
                    if s == Strategy::Fare {
                        mismatch_cost += r.final_mapping_cost as f64;
                        fare_wall_s += r.wall_s;
                    }
                }
                Ok(_) => {
                    runs.fail(format!("{}: replay diverged from Trainer::run", s.name()));
                    ok = false;
                }
                Err(e) => {
                    runs.fail(format!("{}: replay panicked: {e}", s.name()));
                    ok = false;
                }
            }
        }
    }
    if !ok {
        return None;
    }
    let secs = |k: &str| ledger.seconds.get(k).copied().unwrap_or(0.0);
    let calls = |k: &str| ledger.calls.get(k).copied().unwrap_or(0) as f64;
    let count = |k: &str| ledger.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = count("mapping.remap_hits");
    let lookups = hits + count("mapping.remap_misses");
    let values = [
        ("graph.partition_s", secs("graph.partition")),
        ("graph.batch_s", secs("graph.batch")),
        ("graph.batch_nodes_max", batch_nodes_max as f64),
        ("graph.view_s", secs("graph.view")),
        ("graph.view_calls", calls("graph.view")),
        ("faulty.corrupt_s", secs("faulty.corrupt")),
        ("faulty.corrupt_calls", calls("faulty.corrupt")),
        ("reram.inject_s", secs("reram.inject")),
        (
            "reram.faults_injected",
            count("reram.faults_injected_sa0") + count("reram.faults_injected_sa1"),
        ),
        ("mapping.map_s", secs("mapping.map")),
        ("mapping.map_calls", calls("mapping.map")),
        ("mapping.map_share", ratio(secs("mapping.map"), fare_wall_s)),
        ("mapping.pairs_solved", count("mapping.pairs_solved")),
        (
            "mapping.empty_block_share",
            ratio(count("mapping.empty_blocks"), count("mapping.blocks")),
        ),
        ("mapping.refresh_s", secs("mapping.refresh")),
        ("mapping.refresh_calls", calls("mapping.refresh")),
        ("mapping.remap_hit_ratio", ratio(hits, lookups)),
        ("mapping.reorder_s", secs("mapping.reorder")),
        ("mapping.sequential_s", secs("mapping.sequential")),
        ("mapping.mismatch_cost", mismatch_cost),
        ("gnn.init_s", secs("gnn.init")),
        ("gnn.forward_s", secs("gnn.forward")),
        ("gnn.backward_s", secs("gnn.backward")),
        ("gnn.step_s", secs("gnn.step")),
        ("gnn.eval_s", secs("gnn.eval")),
        ("gnn.forward_calls", count("gnn.forward_calls")),
        ("trainer.loss_s", secs("trainer.loss")),
        ("replay.wall_s", wall_s),
        (
            "replay.unattributed_share",
            ratio(wall_s - ledger.timed_s(), wall_s),
        ),
        ("replay.overhead", ratio(wall_s, untraced_s)),
    ];
    Some(values.into_iter().collect())
}
