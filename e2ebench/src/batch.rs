//! `batch_week`: one closed call to `run_scenario` over the paper's week.

use crate::report::Outcome;
use crate::trace::Trace;
use crate::{Deadline, Layers, Mode, Sample};
use odflow::experiment::{run_scenario, ExperimentConfig};
use odflow_classify::score_events;
use odflow_flow::{PipelineConfig, ResolutionStats, TrafficMatrixSet, TrafficType};
use odflow_gen::Scenario;
use odflow_net::{IngressResolver, RouteTable};
use odflow_serve::metrics::monotonic_now;
use odflow_subspace::{
    diagnose, identify_spe, identify_t2, Diagnosis, StatisticKind, SubspaceConfig, SubspaceDetector,
};
use std::hint::black_box;

/// Detection recall and precision every seed must reach against the
/// injected truth. Over 40 seeds the current detector ranges over
/// 0.909–0.987 recall and 0.930–1.000 precision.
pub const FLOOR: (f64, f64) = (0.85, 0.85);

/// Seeds whose detection quality is pinned as measured, so it may not
/// drop at all: (seed, recall, precision). Seed 20040519 finds 76 events
/// matching 71 of the 77 injected anomalies, none spurious.
pub const PINNED: &[(u64, f64, f64)] = &[(20040519, 71.0 / 77.0, 1.0)];

/// The (recall, precision) floor for `seed`.
fn floor(seed: u64) -> (f64, f64) {
    PINNED.iter().find(|p| p.0 == seed).map_or(FLOOR, |&(_, r, p)| (r, p))
}

/// The scenario plus the routing state `run_scenario` resolves against.
struct Setup {
    scenario: Scenario,
    routes: RouteTable,
    ingress: IngressResolver,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let scenario = Scenario::paper_week(seed, 0).map_err(|e| format!("paper_week: {e}"))?;
    let routes = scenario.plan.build_route_table(1.0).map_err(|e| format!("routes: {e}"))?;
    let ingress = IngressResolver::synthetic(&scenario.topology);
    Ok(Setup { scenario, routes, ingress })
}

/// Records offered to OD resolution, backbone transit included.
fn records_offered(r: &ResolutionStats) -> u64 {
    r.flows_total + r.transit_skipped
}

/// What the correctness check compares between iterations of one run.
#[derive(Debug, PartialEq)]
struct Verdict {
    records: u64,
    events: usize,
}

fn untraced(seed: u64, config: &ExperimentConfig) -> Result<(Sample, Verdict, bool), String> {
    let (s, setup_s) = crate::timed_setup(|| setup(seed))?;
    let t1 = monotonic_now();
    let run = run_scenario(&s.scenario, config).map_err(|e| format!("run_scenario: {e}"))?;
    let wall_s = t1.elapsed().as_secs_f64();
    let score = score_events(&run.truth, &run.scored_events(), config.match_slack);
    let (recall, precision) = (score.recall(), score.precision());
    let records = records_offered(&run.resolution);
    let (min_recall, min_precision) = floor(seed);
    let ok = recall >= min_recall && precision >= min_precision;
    println!(
        "  setup_s {setup_s:.4} wall_s {wall_s:.4} records {records} events {} truth {} \
         recall {recall:.3} precision {precision:.3}{}",
        run.classified.len(),
        run.truth.len(),
        if ok { "" } else { "  CHECK FAILED: detection quality below floor" }
    );
    let verdict = Verdict { records, events: run.classified.len() };
    Ok((Sample::new(setup_s, wall_s, records), verdict, ok))
}

/// Re-runs `diagnose` on `matrices` as a child of `parent`, then its
/// fit/score and identification calls as children of the re-run.
///
/// # Errors
///
/// A failed fit.
pub fn traced_diagnose(
    trace: &mut Trace,
    parent: &'static str,
    matrices: &TrafficMatrixSet,
    config: SubspaceConfig,
) -> Result<(Diagnosis, usize), String> {
    let diagnosis = trace
        .child("subspace.diagnose", parent, || diagnose(matrices, config))
        .map_err(|e| format!("diagnose: {e}"))?;
    let detector = SubspaceDetector::new(config);
    let mut calls = 0;
    for t in [TrafficType::Bytes, TrafficType::Packets, TrafficType::Flows] {
        let data = &matrices.get(t).data;
        let analysis = trace
            .child("subspace.fit_score", "subspace.diagnose", || detector.analyze(data))
            .map_err(|e| format!("analyze: {e}"))?;
        trace.child("subspace.identify", "subspace.diagnose", || {
            for bin in analysis.anomalous_bins() {
                let Ok(row) = data.row(bin) else { continue };
                for d in analysis.detections_at(bin) {
                    calls += 1;
                    black_box(match d.kind {
                        StatisticKind::Spe => identify_spe(&analysis.model, row, bin).ok(),
                        StatisticKind::T2 => identify_t2(&analysis.model, row, bin).ok(),
                    });
                }
            }
        });
    }
    Ok((diagnosis, calls))
}

/// One traced iteration: the whole call, then its ingest and diagnosis
/// again through their own entry points, then the probes.
fn traced(seed: u64, config: &ExperimentConfig, trace: &mut Trace) -> Result<Layers, String> {
    let s = setup(seed)?;
    let generator = s.scenario.generator();
    let cfg = &s.scenario.config;
    let mut pipe_cfg = PipelineConfig::abilene(cfg.start_secs, cfg.num_bins);
    pipe_cfg.bin_secs = cfg.bin_secs;
    let iter = trace.next_iter();
    let run = trace
        .root("experiment.run_scenario", true, || run_scenario(&s.scenario, config))
        .map_err(|e| format!("run_scenario: {e}"))?;
    let outcome = trace
        .child("flow.bin_scenario", "experiment.run_scenario", || {
            generator.bin_scenario(pipe_cfg, s.ingress.clone(), s.routes.clone())
        })
        .map_err(|e| format!("bin_scenario: {e}"))?;
    let (diagnosis, calls) =
        traced_diagnose(trace, "experiment.run_scenario", &outcome.matrices, config.subspace)?;
    if diagnosis.events != run.diagnosis.events {
        return Err("re-run diagnosis disagrees with run_scenario".to_owned());
    }
    // Probes beside the wall clock: the generator alone (serial, per
    // bin), and the fused ingest held to one thread.
    trace.root("gen.render", false, || {
        for bin in 0..generator.num_bins() {
            black_box(generator.records_for_bin(bin));
        }
    });
    trace
        .root("flow.bin_scenario_1t", false, || {
            odflow_par::with_thread_limit(1, || {
                generator.bin_scenario(pipe_cfg, s.ingress.clone(), s.routes.clone())
            })
        })
        .map_err(|e| format!("bin_scenario at one thread: {e}"))?;
    let mut layers = crate::layers_of(trace, iter);
    let r = &run.resolution;
    layers.insert(
        "flow.resolved_frac".to_owned(),
        r.flows_resolved as f64 / records_offered(r).max(1) as f64,
    );
    layers.insert("subspace.identify_calls".to_owned(), calls as f64);
    Ok(layers)
}

/// Runs `batch_week` until `deadline`.
///
/// # Errors
///
/// A failed setup or pipeline call.
pub fn run(seed: u64, deadline: &Deadline, mode: Mode, out: &mut Outcome) -> Result<(), String> {
    let config = ExperimentConfig::default();
    let mut samples = Vec::new();
    let mut first: Option<Verdict> = None;
    let mut traced_layers = Vec::new();
    let mut trace = Trace::default();
    // The first call of a process also spawns the worker pool and faults
    // in the heap; one uncounted call lets that finish before timing.
    println!("warm-up iteration (not counted)");
    untraced(seed, &config)?;
    loop {
        out.attempted += 1;
        println!("iteration {}", out.attempted);
        let (sample, verdict, quality_ok) = untraced(seed, &config)?;
        let same = first.as_ref().is_none_or(|f| *f == verdict);
        if !same {
            println!("  CHECK FAILED: iterations of one seed disagree");
        }
        if !(quality_ok && same) {
            out.failed += 1;
        }
        first.get_or_insert(verdict);
        samples.push(sample);
        if mode == Mode::Traced {
            traced_layers.push(traced(seed, &config, &mut trace)?);
        }
        if deadline.passed() {
            break;
        }
    }
    crate::summarize(out, &samples, &traced_layers, &trace, "batch_week");
    Ok(())
}
