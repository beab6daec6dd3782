//! `fare-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments; a failed check shows as `"correct": false`.

use fare_e2e_bench::runner::{
    measure_end_to_end, measure_traced, parse_args, CALIBRATION_REFERENCE_S,
};
use fare_e2e_bench::workload::{find, WORKLOADS};

/// Worker threads unless `FARE_RT_THREADS` says otherwise. On a small
/// shared machine a second worker that loses its core stalls every
/// parallel kernel; one thread keeps run times steady (see README.md).
const DEFAULT_THREADS: usize = 1;

/// The CPU model from `/proc/cpuinfo`, if readable.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(workload) = find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {:?}; known: {}",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    if std::env::var_os("FARE_RT_THREADS").is_none() {
        fare_rt::par::set_threads(DEFAULT_THREADS);
    }
    let measured = if args.trace {
        measure_traced(&workload, args.seed, args.seconds)
    } else {
        measure_end_to_end(&workload, args.seed, args.seconds)
    };
    for p in &measured.report.problems {
        eprintln!("check failed: {p}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance: seed {} | threads {} | nproc {} | cpu {} | samples per timing {} | \
         setup repeats {} | calibration {:.6} s (times scaled by {:.4}) | trace {} | {}",
        args.seed,
        fare_rt::par::current_threads(),
        nproc,
        cpu_model(),
        measured.rounds,
        measured.setup_repeats,
        measured.calibration_s,
        CALIBRATION_REFERENCE_S / measured.calibration_s,
        args.trace as u8,
        workload.describe(),
    );
    println!("{}", measured.report.to_json());
}
