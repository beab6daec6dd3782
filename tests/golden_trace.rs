//! The golden regression net.
//!
//! One small seeded training run ([`fare::golden`]: FARe strategy, GCN,
//! pre- *and* post-deployment faults, so the packed fault kernels,
//! `RemapCache` and the incremental refresh are all exercised) is run
//! four times — json mode once, trace mode on a 1- and a 4-worker pool,
//! telemetry off once — and pinned from every side:
//!
//! - the json-mode [`fare::obs::RunManifest`] (per-epoch curve, every
//!   non-zero counter, span totals under the fixed clock, per-crossbar
//!   heatmaps) matches `tests/golden/golden_trace.json` byte for byte;
//! - the span trace's FNV-1a digest, event count and per-span begin
//!   counts match `tests/golden/golden_trace_digest.json` (the stream is
//!   a few hundred KB, so the digest is what gets committed), and the
//!   stream is complete, balanced, round-trips through JSONL and exports
//!   valid Chrome JSON;
//! - manifest and JSONL stream are byte-identical at 1 and 4 threads;
//! - the trace-mode manifest equals the json-mode manifest, so the
//!   `fare-report run-golden` → `diff` gate in `scripts/verify.sh`
//!   compares like with like;
//! - telemetry off records nothing and changes no bit of the outcome.
//!
//! `scripts/verify.sh` re-runs this file under `FARE_RT_THREADS=1` and
//! `=4`. After an *intentional* behaviour change, regenerate both
//! committed files with
//!
//! ```text
//! FARE_GOLDEN_UPDATE=1 cargo test --test golden_trace
//! ```
//!
//! and commit the diff with an explanation of why it moved (DESIGN.md
//! §7).

use std::sync::OnceLock;

use fare::golden::{self, Capture};
use fare::obs::trace::TraceLog;
use fare::obs::Mode;

const SNAPSHOT: &str = include_str!("golden/golden_trace.json");
const DIGEST_SNAPSHOT: &str = include_str!("golden/golden_trace_digest.json");

/// The golden run under each telemetry mode.
struct Runs {
    json: Capture,
    trace_1: Capture,
    trace_4: Capture,
    off: Capture,
}

/// Runs the golden workload once per mode for the whole binary.
/// Telemetry state is process-global, and `OnceLock` keeps every other
/// test waiting while the four runs execute in sequence.
fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let json = golden::capture(Mode::Json);
        fare_rt::par::set_threads(1);
        let trace_1 = golden::capture(Mode::Trace);
        fare_rt::par::set_threads(4);
        let trace_4 = golden::capture(Mode::Trace);
        fare_rt::par::set_threads(0);
        let off = golden::capture(Mode::Off);
        Runs {
            json,
            trace_1,
            trace_4,
            off,
        }
    })
}

fn updating() -> bool {
    std::env::var("FARE_GOLDEN_UPDATE").as_deref() == Ok("1")
}

/// One span name with its begin-event count.
#[derive(Debug, Clone, PartialEq)]
struct SpanCount {
    name: String,
    begins: u64,
}
fare_rt::json_struct!(SpanCount { name, begins });

/// The committed fingerprint of the golden JSONL trace.
#[derive(Debug, Clone, PartialEq)]
struct TraceDigest {
    events: u64,
    dropped: u64,
    fnv64: String,
    span_counts: Vec<SpanCount>,
}
fare_rt::json_struct!(TraceDigest {
    events,
    dropped,
    fnv64,
    span_counts
});

fn digest_of(log: &TraceLog) -> TraceDigest {
    TraceDigest {
        events: log.events.len() as u64,
        dropped: log.dropped,
        fnv64: format!("{:016x}", fare::report::fnv1a64(log.to_jsonl().as_bytes())),
        span_counts: log
            .span_counts()
            .into_iter()
            .map(|(name, begins)| SpanCount { name, begins })
            .collect(),
    }
}

#[test]
fn golden_trace_matches_committed_snapshot() {
    let text = runs().json.manifest.to_json_pretty() + "\n";
    if updating() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/golden_trace.json"
        );
        std::fs::write(path, &text).expect("write golden snapshot");
        eprintln!("golden: snapshot regenerated at {path}");
        return;
    }
    assert_eq!(
        text, SNAPSHOT,
        "golden manifest diverged from tests/golden/golden_trace.json; if the \
         behaviour change is intentional, regenerate with \
         FARE_GOLDEN_UPDATE=1 cargo test --test golden_trace"
    );
}

#[test]
fn golden_span_trace_matches_committed_digest() {
    let log = &runs().trace_1.trace;
    log.ensure_complete()
        .expect("golden trace fits the ring buffer");
    log.validate_nesting()
        .expect("balanced, monotone span stream");
    let back = TraceLog::from_jsonl(&log.to_jsonl()).expect("JSONL parses back");
    assert_eq!(&back, log, "JSONL round trip is lossless");
    fare_rt::json::parse(&log.to_chrome()).expect("chrome export is valid JSON");

    let digest = digest_of(log);
    if updating() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/golden_trace_digest.json"
        );
        let text = fare_rt::json::to_string_pretty(&digest).unwrap() + "\n";
        std::fs::write(path, text).expect("write digest snapshot");
        eprintln!("golden: digest regenerated at {path}");
        return;
    }
    let committed: TraceDigest =
        fare_rt::json::from_str(DIGEST_SNAPSHOT).expect("committed digest parses");
    assert_eq!(
        digest, committed,
        "golden span trace diverged from tests/golden/golden_trace_digest.json; \
         if the behaviour change is intentional, regenerate with \
         FARE_GOLDEN_UPDATE=1 cargo test --test golden_trace"
    );
}

/// Counters count logical events, not per-chunk work, and the fixed
/// clock removes wall time — so neither the training output nor the
/// manifest may depend on the pool size.
#[test]
fn golden_trace_bit_identical_across_thread_counts() {
    let Runs {
        trace_1, trace_4, ..
    } = runs();
    assert_eq!(trace_1.outcome, trace_4.outcome, "training output differs");
    assert_eq!(
        trace_1.manifest.to_json_pretty(),
        trace_4.manifest.to_json_pretty(),
        "telemetry manifest differs across thread counts"
    );
}

/// Spans sit on logical paths only and the fixed clock stamps events by
/// global sequence, so the JSONL stream is byte-identical on any pool.
#[test]
fn golden_span_trace_is_byte_identical_across_thread_counts() {
    let Runs {
        trace_1, trace_4, ..
    } = runs();
    assert!(
        trace_1.trace.to_jsonl() == trace_4.trace.to_jsonl(),
        "span trace differs across thread counts"
    );
}

#[test]
fn trace_mode_manifest_equals_json_mode_manifest() {
    let Runs { json, trace_4, .. } = runs();
    assert_eq!(
        json.manifest.to_json_pretty(),
        trace_4.manifest.to_json_pretty(),
        "recording spans changed the counter/timer/epoch/heatmap record"
    );
    assert!(json.trace.events.is_empty(), "json mode recorded spans");
}

/// Telemetry is a pure observer: switched off it records nothing, and
/// no mode changes a bit of the training output.
#[test]
fn disabled_telemetry_runs_are_identical_and_silent() {
    let Runs {
        json, trace_1, off, ..
    } = runs();
    let silent = &off.manifest;
    assert!(
        silent.counters.is_empty(),
        "disabled telemetry recorded counters"
    );
    assert!(
        silent.timers.is_empty(),
        "disabled telemetry recorded timers"
    );
    assert!(
        silent.epochs.is_empty(),
        "disabled telemetry recorded epochs"
    );
    assert!(
        silent.heatmaps.is_empty(),
        "disabled telemetry recorded heatmaps"
    );
    assert!(
        off.trace.events.is_empty() && off.trace.dropped == 0,
        "disabled telemetry recorded spans"
    );
    assert_eq!(
        off.outcome, json.outcome,
        "json mode fed back into training"
    );
    assert_eq!(
        off.outcome, trace_1.outcome,
        "trace mode fed back into training"
    );
}
