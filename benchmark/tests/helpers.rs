//! Tests of the benchmark's own helpers: the tail rule, the metric-name
//! grammar, the host-speed reference, the timing store wrapper and the
//! traced decomposition of the staged flow.

use biochip_perfbench::reference::{HostClock, REFERENCE_S};
use biochip_perfbench::stats::{valid_metric_name, Spec, Tail};
use biochip_perfbench::timed_store::TimedStore;
use biochip_perfbench::trace::{run_staged_traced, Recorder};
use biochip_synth::assay::random::{generate, RandomAssayConfig};
use biochip_synth::schedule::ScheduleProblem;
use biochip_synth::{
    FlowController, MemoryStageStore, NoStageStore, SchedulerChoice, StageStore, SynthesisConfig,
    SynthesisFlow,
};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let tail = Tail::supported(&samples).expect("1000 samples support a tail");
    assert_eq!(tail.samples, 1000);
    assert_eq!(tail.percentile, 99.0);
    assert_eq!(tail.value, 990.0);
    let beyond = samples.iter().filter(|&&s| s > tail.value).count();
    assert_eq!(beyond, 10);
    assert_eq!(tail.label(), "p99.0 of 1000");

    let samples: Vec<f64> = (1..=400).map(f64::from).collect();
    let tail = Tail::supported(&samples).expect("400 samples support a tail");
    assert_eq!((tail.percentile, tail.value), (97.5, 390.0));
}

#[test]
fn small_samples_have_no_supported_tail_and_report_their_maximum() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(Tail::supported(&ten), None);
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let low = Tail::supported(&eleven).expect("11 samples leave 10 beyond the first");
    assert_eq!(low.value, 1.0);

    // Below 100 samples the supported percentile is under p90: the run
    // reports its maximum instead, named as such.
    let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
    let tail = Tail::or_max(&fifty).expect("non-empty");
    assert_eq!(
        (tail.percentile, tail.value, tail.samples),
        (100.0, 50.0, 50)
    );
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let tail = Tail::or_max(&hundred).expect("non-empty");
    assert_eq!((tail.percentile, tail.value), (90.0, 90.0));
    assert_eq!(Tail::or_max(&[]), None);
}

#[test]
fn metric_names_follow_the_grammar() {
    for good in ["p50_ms", "arch.ns_per_node", "cold-ra10k", "9lives", "a"] {
        assert!(valid_metric_name(good), "{good}");
    }
    let too_long = "x".repeat(65);
    for bad in [
        "",
        "_x",
        ".x",
        "-x",
        "a b",
        "a/b",
        "é",
        "ms%",
        too_long.as_str(),
    ] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
    assert!(valid_metric_name(&"x".repeat(64)));
}

#[test]
fn the_committed_spec_declares_only_valid_unique_names() {
    let spec = Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let mut names: Vec<&str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| m.name.as_str())
        .chain(spec.workloads.iter().map(String::as_str))
        .collect();
    assert!(names.iter().all(|n| valid_metric_name(n)));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "names are used once");
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    for name in &spec.workloads {
        assert!(
            biochip_perfbench::WORKLOADS.contains(&name.as_str()),
            "{name}"
        );
    }
}

#[test]
fn host_clock_records_one_positive_scale_per_mark() {
    let mut clock = HostClock::new(2);
    let first = clock.mark();
    let second = clock.mark();
    for scale in [first, second] {
        assert!(scale.is_finite() && scale > 0.0);
        // The reference takes milliseconds on any plausible host, so the
        // factor stays within a few orders of magnitude of one.
        assert!(scale > REFERENCE_S / 10.0 && scale < 1e3);
    }
    assert_eq!(clock.scales(), &[first, second]);
}

fn small_problem(seed: u64) -> (SynthesisConfig, ScheduleProblem) {
    let config = SynthesisConfig::default()
        .with_mixers(2)
        .with_scheduler(SchedulerChoice::StorageAware);
    let graph = generate(&RandomAssayConfig::new(14, seed).with_layer_width(3));
    let problem = SynthesisFlow::new(config.clone()).problem_for(graph);
    (config, problem)
}

#[test]
fn timed_store_answers_exactly_what_the_memory_store_answers() {
    let plain = MemoryStageStore::new();
    let timed = TimedStore::new(MemoryStageStore::new());
    let (config, problem) = small_problem(7);
    let flow = SynthesisFlow::new(config.clone());
    let mut edited = config.clone();
    edited.layout.channel_pitch += 3;
    let edited_flow = SynthesisFlow::new(edited);
    for flow in [&flow, &flow, &edited_flow] {
        let (a, ra) = flow
            .run_problem_staged(problem.clone(), &FlowController::new(), &plain)
            .expect("plain store run");
        let (b, rb) = flow
            .run_problem_staged(problem.clone(), &FlowController::new(), &timed)
            .expect("timed store run");
        assert_eq!(a.output_key(), b.output_key());
        assert_eq!(
            (ra.keys, ra.schedule, ra.architecture, ra.tasks_replayed),
            (rb.keys, rb.schedule, rb.architecture, rb.tasks_replayed)
        );
    }

    let keys = biochip_synth::StageKeys::derive(&config, &problem);
    let plain_schedule = plain.get_schedule(&keys.schedule).expect("stored");
    let timed_schedule = timed.get_schedule(&keys.schedule).expect("stored");
    assert_eq!(*plain_schedule, *timed_schedule);
    assert_eq!(
        plain
            .get_architecture(&keys.route)
            .map(|a| a.routes().to_vec()),
        timed
            .get_architecture(&keys.route)
            .map(|a| a.routes().to_vec())
    );
    assert!(timed.get_schedule("no such key").is_none());
    assert!(timed.oracle_cache().is_none() && plain.oracle_cache().is_none());

    // Three runs probed two exact keys each, then the direct calls above.
    let counters = timed.take();
    assert_eq!(counters.hits + counters.misses, 3 * 2 + 3);
    assert_eq!(counters.misses, 2 + 1);
    assert!(counters.get_seconds > 0.0 && counters.put_seconds > 0.0);
    assert_eq!(timed.take().hits, 0, "take resets the counters");
}

#[test]
fn traced_decomposition_reproduces_the_flow_cold_and_warm() {
    let (config, problem) = small_problem(11);
    let flow = SynthesisFlow::new(config.clone());
    let cold = flow
        .run_problem_with(problem.clone(), &FlowController::new())
        .expect("cold run");
    let mut rec = Recorder::new();
    let (traced, it) = run_staged_traced(
        &config,
        problem.clone(),
        &TimedStore::new(NoStageStore),
        &mut rec,
    )
    .expect("traced cold run");
    assert_eq!(traced.output_key(), cold.output_key());
    assert!(it.values["schedule.busy_s"] > 0.0);
    assert_eq!(it.values["synth.store_misses"], 2.0);
    assert!(rec.spans().iter().any(|s| s.name == "arch.synth"));
    assert!(rec.chrome_trace().starts_with("{\"traceEvents\":["));

    // Warm: the same store history through the flow and the decomposition.
    let store = TimedStore::new(MemoryStageStore::new());
    let reference = TimedStore::new(MemoryStageStore::new());
    let mut edited = config.clone();
    edited.synthesis.routing.max_deadline_overrun += 2;
    for config in [&config, &edited, &edited] {
        let (expected, receipt) = SynthesisFlow::new(config.clone())
            .run_problem_staged(problem.clone(), &FlowController::new(), &reference)
            .expect("staged run");
        let (traced, it) =
            run_staged_traced(config, problem.clone(), &store, &mut rec).expect("traced run");
        assert_eq!(traced.output_key(), expected.output_key());
        assert_eq!(
            it.values["synth.schedule_hits"] == 1.0,
            receipt.schedule == biochip_synth::ReuseKind::Hit
        );
        assert_eq!(it.reuse.tasks_replayed, receipt.tasks_replayed);
    }
}
