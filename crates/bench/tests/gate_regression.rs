//! End-to-end benchmark-gate check: `compare` must stay green when a
//! report is compared against itself and go red when the simulated CPU
//! regresses — here injected by scaling the cost model down (every
//! syscall and copy gets ~3x more expensive).

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

    let self_check = compare(&baseline, &baseline, false);
    assert!(
        self_check.ok(),
        "self-comparison must be green, got: {:?}",
        self_check.violations
    );

    // CPU three times slower: poll()'s O(interest set) scan dominates
    // and the reply rate collapses well past the 10% tolerance.
    let regressed = one_point_report(Some(0.3));
    let gate = compare(&baseline, &regressed, false);
    assert!(
        !gate.ok(),
        "slowed cost model must trip the gate; baseline avg {:.1}, regressed avg {:.1}",
        baseline.sweeps[0].points[0].avg,
        regressed.sweeps[0].points[0].avg
    );
}
