//! Quick calibration sweep: prints avg/min/max reply rate, error %, and
//! median latency for each (server, rate, inactive) point so the cost
//! model can be tuned against the paper's Figs. 4–14.
//!
//! ```text
//! cargo run --release -p bench --bin calibrate [CONNS] [--jobs N]
//! ```
//!
//! Points fan out over the sweep executor; rows print in grid order
//! regardless of worker count.

use bench::{effective_jobs, flag_value, run_jobs};
use httperf::{run_one, RunParams, ServerKind};

fn main() {
    let mut conns: u64 = 4000;
    let mut jobs = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            jobs = Some(flag_value("--jobs", args.next().as_deref()));
        } else {
            conns = flag_value("CONNS", Some(&a));
        }
    }
    let jobs = effective_jobs(jobs);
    let kinds = [
        ServerKind::ThttpdPoll,
        ServerKind::ThttpdDevPoll,
        ServerKind::Phhttpd,
    ];
    let loads = [1usize, 251, 501];
    let rates = [500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0];

    let mut grid = Vec::new();
    for kind in kinds {
        for &inactive in &loads {
            for &rate in &rates {
                grid.push((kind, inactive, rate));
            }
        }
    }
    let rows = run_jobs(jobs, &grid, |&(kind, inactive, rate)| {
        let params = RunParams::paper(kind, rate, inactive).with_conns(conns);
        run_one(params).summary_line()
    });
    for (i, row) in rows.iter().enumerate() {
        println!("{row}");
        if (i + 1) % rates.len() == 0 {
            println!();
        }
    }
}
