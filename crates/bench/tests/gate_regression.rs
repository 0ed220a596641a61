//! End-to-end benchmark-gate check: `compare` must stay green when a
//! report is compared against itself and go red, naming the point and
//! the fields, when the simulated CPU gets slightly slower — here 1%,
//! injected by scaling the cost model.

use bench::{compare, BenchReport, SweepRecord, BENCH_VERSION};
use httperf::{run_one, RunParams, ServerKind};

fn one_point_report(slow_factor: Option<f64>) -> BenchReport {
    let mut params = RunParams::paper(ServerKind::ThttpdPoll, 700.0, 251).with_conns(1_200);
    if let Some(factor) = slow_factor {
        params.cost = params.cost.scaled(factor);
    }
    let mut report = run_one(params);
    BenchReport {
        version: BENCH_VERSION,
        tool: "figures".to_string(),
        seed: 42,
        config: "test".to_string(),
        jobs: 1,
        total_wall_ms: 0.0,
        sweeps: vec![SweepRecord::from_runs(
            report.server.clone(),
            report.inactive,
            0.0,
            std::slice::from_mut(&mut report),
        )],
    }
}

#[test]
fn gate_is_green_against_itself_and_red_on_slowed_cpu() {
    let baseline = one_point_report(None);
    let self_check = compare(&baseline, &baseline);
    assert!(
        self_check.is_empty(),
        "self-comparison must be green, got: {self_check:?}"
    );

    // Every cost 1% higher: far inside any tolerance, but the run is
    // deterministic, so its digest and its latencies move exactly.
    let regressed = one_point_report(Some(0.99));
    let gate = compare(&baseline, &regressed);
    for field in ["probe_digest", "median_ms"] {
        assert!(
            gate.iter()
                .any(|v| v.starts_with("thttpd/poll/load 251 rate 700: ") && v.contains(field)),
            "a 1% slower cost model must move {field} at thttpd/poll/load 251 rate 700; got {gate:?}"
        );
    }
}
