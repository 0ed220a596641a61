//! Regeneration of every figure in the paper's evaluation (Figs. 4–14),
//! plus the extension experiments (hybrid server, ablations).
//!
//! Each paper figure maps to a [`simcore::series::Figure`] built from
//! benchmark sweeps; results are cached per (server, inactive-load) so
//! `all` runs the 3×3 grid once.

use std::collections::{BTreeMap, BTreeSet};

use devpoll::DevPollConfig;
use httperf::{run_one, RunParams, RunReport, ServerKind};
use simcore::series::{Figure, Series};
use simcore::span::Phase;
use simcore::time::SimDuration;

use crate::baseline::{config_fingerprint, BenchReport, SweepRecord, BENCH_VERSION};
use crate::executor::run_jobs;

/// Sweep settings shared by every figure.
#[derive(Debug, Clone)]
pub struct FigureConfig {
    /// Request rates swept (the paper: 500–1100).
    pub rates: Vec<f64>,
    /// Connections per run (the paper: 35 000).
    pub conns: u64,
    /// RNG seed base.
    pub seed: u64,
}

impl Default for FigureConfig {
    fn default() -> FigureConfig {
        FigureConfig {
            rates: (0..=12).map(|i| 500.0 + 50.0 * i as f64).collect(),
            conns: 35_000,
            seed: 42,
        }
    }
}

impl FigureConfig {
    /// A fast configuration for smoke runs.
    pub fn quick() -> FigureConfig {
        FigureConfig {
            rates: vec![500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0],
            conns: 8_000,
            seed: 42,
        }
    }
}

/// A sweep's cache identity: the server architecture and the inactive
/// load. Typed (not the old `(String, usize)` label key) so the cache
/// cannot alias two kinds with colliding labels and the executor can
/// hash job identity without string formatting.
pub type SweepKey = (ServerKind, usize);

/// A cached sweep's identity: whether span tracing was on, then the
/// sweep. Span-enabled sweeps are a different measurement (their
/// `BENCH.json` labels get a `+spans` suffix), so the flag keeps them
/// from aliasing the plain ones; `false` sorts first, so every
/// key-ordered walk lists the plain sweeps before the span-enabled ones.
pub type CacheKey = (bool, ServerKind, usize);

/// One completed sweep: its reports in rate order and their summed
/// per-run wall time in ms (zero without a clock).
struct CachedSweep {
    reports: Vec<RunReport>,
    wall_ms: f64,
}

/// A sweep's `BENCH.json` and probe-dump label: the kind's label, plus
/// `+spans` for a span-enabled sweep.
pub fn sweep_label(spans: bool, kind: ServerKind) -> String {
    if spans {
        format!("{}+spans", kind.label())
    } else {
        kind.label()
    }
}

/// Runs sweeps lazily and caches them per (span tracing, server kind,
/// inactive load).
///
/// With `jobs > 1` (see [`FigureRunner::with_jobs`]) the run points of
/// a sweep — and, via [`FigureRunner::prefetch`], of many sweeps — fan
/// out over a scoped worker pool; each point is an isolated simulation
/// world, and results are merged back in canonical (key, rate) order,
/// so every figure, probe dump and `BENCH.json` is byte-identical to
/// the `jobs = 1` serial path.
pub struct FigureRunner {
    config: FigureConfig,
    cache: BTreeMap<CacheKey, CachedSweep>,
    /// Worker threads for sweep execution.
    jobs: usize,
    /// Monotonic millisecond clock injected by the CLI driver; library
    /// code never reads the wall clock itself (simulation determinism
    /// lint), so without one all wall fields stay 0.
    clock: Option<fn() -> f64>,
    /// Logs one line per completed run when `true`.
    pub verbose: bool,
}

impl FigureRunner {
    /// Creates a serial runner.
    pub fn new(config: FigureConfig) -> FigureRunner {
        FigureRunner {
            config,
            cache: BTreeMap::new(),
            jobs: 1,
            clock: None,
            verbose: true,
        }
    }

    /// Sets the worker count (floored at 1).
    pub fn with_jobs(mut self, jobs: usize) -> FigureRunner {
        self.jobs = jobs.max(1);
        self
    }

    /// Installs a monotonic millisecond clock for wall-time accounting
    /// in `BENCH.json`. CLI drivers pass one backed by
    /// `std::time::Instant`; tests leave it out for fully deterministic
    /// reports.
    pub fn with_clock(mut self, clock: fn() -> f64) -> FigureRunner {
        self.clock = Some(clock);
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Every cached sweep in deterministic key order (plain sweeps
    /// first) — used by the CLI to dump one probe-snapshot file per
    /// sweep after the figures are built.
    pub fn cached_sweeps(&self) -> impl Iterator<Item = (&CacheKey, &[RunReport])> {
        self.cache.iter().map(|(k, s)| (k, s.reports.as_slice()))
    }

    /// Runs every not-yet-cached sweep in `keys` as one parallel batch:
    /// all (kind, inactive, rate) points of all missing sweeps share the
    /// worker pool, so a multi-sweep target like `all` keeps every
    /// worker busy across sweep boundaries instead of paying a join
    /// barrier per sweep.
    pub fn prefetch(&mut self, keys: &[SweepKey]) {
        self.fetch(false, keys);
    }

    /// Like [`FigureRunner::prefetch`], for span-enabled sweeps. Their
    /// reports carry `span_ns.*` histograms in their probe snapshots
    /// (records are not retained — histograms only).
    pub fn span_prefetch(&mut self, keys: &[SweepKey]) {
        self.fetch(true, keys);
    }

    fn fetch(&mut self, spans: bool, keys: &[SweepKey]) {
        let missing: Vec<SweepKey> = keys
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .filter(|&(kind, inactive)| !self.cache.contains_key(&(spans, kind, inactive)))
            .collect();
        if missing.is_empty() {
            return;
        }
        let mut points: Vec<(ServerKind, usize, f64)> = Vec::new();
        for &(kind, inactive) in &missing {
            for &rate in &self.config.rates {
                points.push((kind, inactive, rate));
            }
        }
        let mut results = self.run_points(&points, spans).into_iter();
        let per_key = self.config.rates.len();
        for key in missing {
            let batch = results.by_ref().take(per_key).collect();
            self.absorb(spans, key, batch);
        }
    }

    /// Runs every missing million-lane point (see [`million_params`])
    /// as one parallel batch. Each (mechanism, population) pair is a
    /// single run cached as a one-point sweep — the lane's x-axis is
    /// the population, not the rate — so the results fold into
    /// `BENCH.json` and the probe dumps like any other sweep. The
    /// population keys (10^4..10^6) cannot collide with the paper grid
    /// (1/251/501).
    pub fn million_prefetch(&mut self, cap: usize) {
        let missing: Vec<SweepKey> = million_grid(cap)
            .into_iter()
            .filter(|&(kind, inactive)| !self.cache.contains_key(&(false, kind, inactive)))
            .collect();
        if missing.is_empty() {
            return;
        }
        let seed = self.config.seed;
        let clock = self.clock;
        let tick = move || clock.map_or(0.0, |c| c());
        let results = run_jobs(self.jobs, &missing, move |&(kind, inactive)| {
            let started = tick();
            let mut report = run_one(million_params(seed, kind, inactive));
            let wall = tick() - started;
            let line = format!("  {}", report.summary_line());
            (report, wall, line)
        });
        for (&key, result) in missing.iter().zip(results) {
            self.absorb(false, key, vec![result]);
        }
    }

    /// The million-connection knee charts: reply rate, median latency
    /// and server bytes per connection, each against the held-open
    /// population (log-ish x: 10^4, 10^5, 10^6) per mechanism. Where
    /// the paper's Figs. 4–14 sweep the request rate at fixed load,
    /// these sweep the load at fixed rate — the axis along which
    /// `poll()`'s O(n) scans and the interest tables' footprint bend.
    pub fn million_figures(&mut self, cap: usize) -> Vec<Figure> {
        self.million_prefetch(cap);
        let mut rate_fig = Figure::new(
            "Reply rate vs held-open connections",
            "held-open (inactive) connections",
            "reply rate",
        );
        let mut lat_fig = Figure::new(
            "Median latency vs held-open connections",
            "held-open (inactive) connections",
            "median connection time in ms",
        );
        let mut mem_fig = Figure::new(
            "Server memory per connection",
            "held-open (inactive) connections",
            "server heap bytes per peak endpoint",
        );
        for kind in million_kinds() {
            let label = kind.label();
            let mut rate = Series::new(&label);
            let mut lat = Series::new(&label);
            let mut mem = Series::new(&label);
            for inactive in million_loads(cap) {
                let mut report = self.cache[&(false, kind, inactive)].reports[0].clone();
                let x = inactive as f64;
                rate.push_err(x, report.rate.avg, report.rate.stddev);
                lat.push(x, report.median_latency_ms());
                if report.mem_eps_peak > 0 {
                    mem.push(
                        x,
                        report.mem_server_bytes as f64 / report.mem_eps_peak as f64,
                    );
                }
            }
            rate_fig.add(rate);
            lat_fig.add(lat);
            mem_fig.add(mem);
        }
        vec![rate_fig, lat_fig, mem_fig]
    }

    /// The sweep for `kind` at `inactive`, cached.
    pub fn sweep(&mut self, kind: ServerKind, inactive: usize) -> &[RunReport] {
        self.cached(false, kind, inactive)
    }

    fn cached(&mut self, spans: bool, kind: ServerKind, inactive: usize) -> &[RunReport] {
        self.fetch(spans, &[(kind, inactive)]);
        &self.cache[&(spans, kind, inactive)].reports
    }

    /// Executes run points on the worker pool, returning
    /// `(report, wall_ms, summary_line)` per point in input order. With
    /// `spans` set, runs carry histogram-only span tracing (retention 0).
    fn run_points(
        &self,
        points: &[(ServerKind, usize, f64)],
        spans: bool,
    ) -> Vec<(RunReport, f64, String)> {
        let config = &self.config;
        let clock = self.clock;
        let tick = move || clock.map_or(0.0, |c| c());
        run_jobs(self.jobs, points, move |&(kind, inactive, rate)| {
            let mut params = RunParams::paper(kind, rate, inactive)
                .with_conns(config.conns)
                .with_seed(config.seed);
            if spans {
                params = params.with_span_retain(0);
            }
            let started = tick();
            let mut report = run_one(params);
            let wall = tick() - started;
            let line = format!("  {}", report.summary_line());
            (report, wall, line)
        })
    }

    /// Inserts one completed sweep, logging its (already rate-ordered)
    /// summary lines. Buffered-then-printed so stderr is identical at
    /// every worker count.
    fn absorb(&mut self, spans: bool, key: SweepKey, results: Vec<(RunReport, f64, String)>) {
        let suffix = if spans { " [spans]" } else { "" };
        let mut reports = Vec::with_capacity(results.len());
        let mut wall_ms = 0.0;
        for (report, run_wall, line) in results {
            if self.verbose {
                eprintln!("{line}{suffix}");
            }
            wall_ms += run_wall;
            reports.push(report);
        }
        let (kind, inactive) = key;
        self.cache
            .insert((spans, kind, inactive), CachedSweep { reports, wall_ms });
    }

    /// Folds every cached sweep into a [`BenchReport`] (see
    /// `bench::baseline`). `total_wall_ms` is the caller-measured
    /// end-to-end harness time; per-sweep wall fields are the summed
    /// per-run times recorded during execution. Span-enabled sweeps
    /// ride along under a `+spans` label suffix: distinct sweeps, so an
    /// anatomy run can never shadow (or be gated against) the plain-run
    /// baselines.
    pub fn bench_report(&mut self, tool: &str, total_wall_ms: f64) -> BenchReport {
        let sweeps = self
            .cache
            .iter_mut()
            .map(|(&(spans, kind, inactive), sweep)| {
                SweepRecord::from_runs(
                    sweep_label(spans, kind),
                    inactive,
                    sweep.wall_ms,
                    &mut sweep.reports,
                )
            })
            .collect();
        BenchReport {
            version: BENCH_VERSION,
            tool: tool.to_string(),
            seed: self.config.seed,
            config: config_fingerprint(&self.config),
            jobs: self.jobs,
            total_wall_ms,
            sweeps,
        }
    }

    /// Reply-rate figure (avg with stddev error bars, min, max) — the
    /// format of Figs. 4–9 and 11–13.
    pub fn reply_rate_figure(&mut self, title: &str, kind: ServerKind, inactive: usize) -> Figure {
        let reports = self.sweep(kind, inactive).to_vec();
        let mut fig = Figure::new(
            title,
            format!("targeted request rate with load {inactive}"),
            "reply rate",
        );
        let mut avg = Series::new("Average");
        let mut min = Series::new("Min");
        let mut max = Series::new("Max");
        for r in &reports {
            avg.push_err(r.target_rate, r.rate.avg, r.rate.stddev);
            min.push(r.target_rate, r.rate.min);
            max.push(r.target_rate, r.rate.max);
        }
        fig.add(avg);
        fig.add(min);
        fig.add(max);
        fig
    }

    /// Error-percentage figure (one panel of Fig. 10).
    pub fn error_figure(&mut self, title: &str, inactive: usize) -> Figure {
        let devpoll: Vec<(f64, f64)> = self
            .sweep(ServerKind::ThttpdDevPoll, inactive)
            .iter()
            .map(|r| (r.target_rate, r.error_percent()))
            .collect();
        let poll: Vec<(f64, f64)> = self
            .sweep(ServerKind::ThttpdPoll, inactive)
            .iter()
            .map(|r| (r.target_rate, r.error_percent()))
            .collect();
        let mut fig = Figure::new(
            title,
            format!("targeted request rate with load {inactive}"),
            "errors in percent",
        );
        let mut s1 = Series::new("using devpoll");
        for (x, y) in devpoll {
            s1.push(x, y);
        }
        let mut s2 = Series::new("normal poll");
        for (x, y) in poll {
            s2.push(x, y);
        }
        fig.add(s1);
        fig.add(s2);
        fig
    }

    /// Median-latency figure (Fig. 14).
    pub fn latency_figure(&mut self, title: &str, inactive: usize) -> Figure {
        let mut fig = Figure::new(
            title,
            format!("targeted request rate with load {inactive}"),
            "median connection time in ms",
        );
        for (label, kind) in [
            ("devpoll", ServerKind::ThttpdDevPoll),
            ("normal poll", ServerKind::ThttpdPoll),
            ("phhttpd", ServerKind::Phhttpd),
        ] {
            let pts: Vec<(f64, f64)> = self
                .sweep(kind, inactive)
                .to_vec()
                .iter_mut()
                .map(|r| (r.target_rate, r.median_latency_ms()))
                .collect();
            let mut s = Series::new(label);
            for (x, y) in pts {
                s.push(x, y);
            }
            fig.add(s);
        }
        fig
    }

    /// Latency anatomy (observability extension): for each mechanism, a
    /// stacked per-phase breakdown of where request time goes, across
    /// the request-rate sweep. Series are cumulative (each adds its
    /// phase's mean ns/reply on top of the previous), so plotting them
    /// as lines reads as a stacked area chart; the top series is the
    /// total attributed ns per reply.
    pub fn latency_anatomy_figure(&mut self, kind: ServerKind, inactive: usize) -> Figure {
        let reports = self.cached(true, kind, inactive).to_vec();
        let mut fig = Figure::new(
            format!(
                "ANATOMY. Per-phase latency breakdown, {}, load {inactive} (stacked ns/reply)",
                kind.label()
            ),
            format!("targeted request rate with load {inactive}"),
            "cumulative mean ns per reply, by phase",
        );
        let mut stacked: Vec<f64> = vec![0.0; reports.len()];
        for phase in Phase::REQUEST_PATH {
            let mut s = Series::new(phase.name());
            for (i, r) in reports.iter().enumerate() {
                let total_ns = r
                    .probe
                    .histogram(phase.metric().name())
                    .map_or(0.0, |h| h.sum() as f64);
                let per_reply = if r.replies > 0 {
                    total_ns / r.replies as f64
                } else {
                    0.0
                };
                stacked[i] += per_reply;
                s.push(r.target_rate, stacked[i]);
            }
            fig.add(s);
        }
        fig
    }

    /// Builds one paper figure by id (`"fig4"` … `"fig14"`).
    pub fn paper_figure(&mut self, id: &str) -> Vec<Figure> {
        match id {
            "fig4" => vec![self.reply_rate_figure(
                "FIGURE 4. Normal thttpd using normal poll(), 1 extra inactive connection",
                ServerKind::ThttpdPoll,
                1,
            )],
            "fig5" => vec![self.reply_rate_figure(
                "FIGURE 5. thttpd modified to use /dev/poll, 1 extra inactive connection",
                ServerKind::ThttpdDevPoll,
                1,
            )],
            "fig6" => vec![self.reply_rate_figure(
                "FIGURE 6. Normal thttpd using normal poll(), 251 extra inactive connections",
                ServerKind::ThttpdPoll,
                251,
            )],
            "fig7" => vec![self.reply_rate_figure(
                "FIGURE 7. thttpd modified to use /dev/poll, 251 extra inactive connections",
                ServerKind::ThttpdDevPoll,
                251,
            )],
            "fig8" => vec![self.reply_rate_figure(
                "FIGURE 8. Normal thttpd using normal poll(), 501 extra inactive connections",
                ServerKind::ThttpdPoll,
                501,
            )],
            "fig9" => vec![self.reply_rate_figure(
                "FIGURE 9. thttpd modified to use /dev/poll, 501 extra inactive connections",
                ServerKind::ThttpdDevPoll,
                501,
            )],
            "fig10" => vec![
                self.error_figure("FIGURE 10a. Error rate, 251 inactive connections", 251),
                self.error_figure("FIGURE 10b. Error rate, 501 inactive connections", 501),
            ],
            "fig11" => vec![self.reply_rate_figure(
                "FIGURE 11. phhttpd with 1 extra inactive connection",
                ServerKind::Phhttpd,
                1,
            )],
            "fig12" => vec![self.reply_rate_figure(
                "FIGURE 12. phhttpd with 251 extra inactive connections",
                ServerKind::Phhttpd,
                251,
            )],
            "fig13" => vec![self.reply_rate_figure(
                "FIGURE 13. phhttpd with 501 extra inactive connections",
                ServerKind::Phhttpd,
                501,
            )],
            "fig14" => vec![self.latency_figure(
                "FIGURE 14. Median latency, 251 extra inactive connections",
                251,
            )],
            other => panic!("unknown figure id {other:?}"),
        }
    }

    /// Extension: the hybrid server (the paper's §4 thought experiment)
    /// against its two constituents at the given load.
    pub fn hybrid_figure(&mut self, inactive: usize) -> Vec<Figure> {
        let mut rate_fig = Figure::new(
            format!("EXTENSION. Hybrid server vs constituents, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "average reply rate",
        );
        let mut lat_fig = Figure::new(
            format!("EXTENSION. Hybrid server latency, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "median connection time in ms",
        );
        for (label, kind) in [
            ("hybrid", ServerKind::Hybrid),
            ("devpoll", ServerKind::ThttpdDevPoll),
            ("phhttpd", ServerKind::Phhttpd),
        ] {
            let pts: Vec<(f64, f64, f64)> = self
                .sweep(kind, inactive)
                .to_vec()
                .iter_mut()
                .map(|r| (r.target_rate, r.rate.avg, r.median_latency_ms()))
                .collect();
            let mut s = Series::new(label);
            let mut l = Series::new(label);
            for (x, avg, med) in pts {
                s.push(x, avg);
                l.push(x, med);
            }
            rate_fig.add(s);
            lat_fig.add(l);
        }
        vec![rate_fig, lat_fig]
    }

    /// Ablation: `/dev/poll` without driver hints (§3.2).
    pub fn ablate_hints(&mut self, inactive: usize) -> Vec<Figure> {
        let no_hints = ServerKind::ThttpdDevPollWith {
            config: DevPollConfig {
                hints: false,
                ..DevPollConfig::default()
            },
            mmap: true,
            combined: false,
        };
        self.compare_two(
            format!("ABLATION. /dev/poll hints on vs off, load {inactive}"),
            ("hints on", ServerKind::ThttpdDevPoll),
            ("hints off", no_hints),
            inactive,
        )
    }

    /// Ablation: the mmap result area vs copy-out (§3.3).
    pub fn ablate_mmap(&mut self, inactive: usize) -> Vec<Figure> {
        let no_mmap = ServerKind::ThttpdDevPollWith {
            config: DevPollConfig::default(),
            mmap: false,
            combined: false,
        };
        self.compare_two(
            format!("ABLATION. /dev/poll mmap results vs copy-out, load {inactive}"),
            ("mmap", ServerKind::ThttpdDevPoll),
            ("copy-out", no_mmap),
            inactive,
        )
    }

    /// Ablation: the combined write+ioctl operation (§6 future work).
    pub fn ablate_combined(&mut self, inactive: usize) -> Vec<Figure> {
        let combined = ServerKind::ThttpdDevPollWith {
            config: DevPollConfig::default(),
            mmap: true,
            combined: true,
        };
        self.compare_two(
            format!("ABLATION. Separate write+ioctl vs combined op, load {inactive}"),
            ("separate", ServerKind::ThttpdDevPoll),
            ("combined", combined),
            inactive,
        )
    }

    /// Ablation: `sigtimedwait4()` batch dequeue for phhttpd (§6).
    pub fn ablate_batch(&mut self, inactive: usize) -> Vec<Figure> {
        self.compare_two(
            format!("ABLATION. sigwaitinfo vs sigtimedwait4 batching, load {inactive}"),
            ("one-at-a-time", ServerKind::Phhttpd),
            ("sigtimedwait4(16)", ServerKind::PhhttpdBatch(16)),
            inactive,
        )
    }

    /// Extension: the thundering herd (§6's "waking only one thread").
    /// Four prefork workers share the listener; herd wakeups vs
    /// exclusive wakeups.
    pub fn herd_figure(&mut self, inactive: usize) -> Vec<Figure> {
        use simkernel::AcceptWake;
        let mut lat_fig = Figure::new(
            format!("EXTENSION. Thundering herd: 4 prefork workers, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "median connection time in ms",
        );
        let mut wake_fig = Figure::new(
            format!("EXTENSION. Kernel wakeups per reply, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "wakeups / reply",
        );
        for (label, wake) in [
            ("herd (wake all)", AcceptWake::Herd),
            ("exclusive (wake one)", AcceptWake::Exclusive),
        ] {
            let kind = ServerKind::PreforkDevPoll { workers: 4, wake };
            let pts: Vec<(f64, f64, f64)> = self
                .sweep(kind, inactive)
                .to_vec()
                .iter_mut()
                .map(|r| {
                    let per_reply = if r.replies > 0 {
                        r.probe.counter("kernel.wakeups") as f64 / r.replies as f64
                    } else {
                        0.0
                    };
                    (r.target_rate, r.median_latency_ms(), per_reply)
                })
                .collect();
            let mut l = Series::new(label);
            let mut w = Series::new(label);
            for (x, med, per) in pts {
                l.push(x, med);
                w.push(x, per);
            }
            lat_fig.add(l);
            wake_fig.add(w);
        }
        vec![lat_fig, wake_fig]
    }

    /// Extension: document-size sensitivity (§5: "A web server's static
    /// performance depends on the size distribution of requested
    /// documents. Larger documents cause sockets … to remain active over
    /// a longer time period … making the amortized cost of polling on a
    /// single file descriptor larger.").
    pub fn docsize_figure(&mut self, rate: f64, inactive: usize) -> Vec<Figure> {
        let sizes = [1024usize, 6 * 1024, 16 * 1024, 32 * 1024];
        let mut rate_fig = Figure::new(
            format!("EXTENSION. Document size sensitivity at {rate} req/s, load {inactive}"),
            "document size in KB",
            "average reply rate",
        );
        let mut lat_fig = Figure::new(
            format!("EXTENSION. Document size vs latency at {rate} req/s, load {inactive}"),
            "document size in KB",
            "median connection time in ms",
        );
        for (label, kind) in [
            ("normal poll", ServerKind::ThttpdPoll),
            ("devpoll", ServerKind::ThttpdDevPoll),
        ] {
            let mut s = Series::new(label);
            let mut l = Series::new(label);
            for &bytes in &sizes {
                let params = RunParams::paper(kind, rate, inactive)
                    .with_conns(self.config.conns)
                    .with_seed(self.config.seed)
                    .with_doc_bytes(bytes);
                let mut r = run_one(params);
                if self.verbose {
                    eprintln!("  doc={}KB {}", bytes / 1024, r.summary_line());
                }
                let med = r.median_latency_ms();
                s.push(bytes as f64 / 1024.0, r.rate.avg);
                l.push(bytes as f64 / 1024.0, med);
            }
            rate_fig.add(s);
            lat_fig.add(l);
        }
        vec![rate_fig, lat_fig]
    }

    /// Extension: `sendfile()` vs `write()` for the response body (§6
    /// future work). Uses a 16 KB document so the copy saving is
    /// visible.
    pub fn sendfile_figure(&mut self, inactive: usize) -> Vec<Figure> {
        let mut lat_fig = Figure::new(
            format!("EXTENSION. write() vs sendfile(), 16 KB document, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "median connection time in ms",
        );
        let mut rate_fig = Figure::new(
            format!("EXTENSION. write() vs sendfile() throughput, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "average reply rate",
        );
        for (label, kind) in [
            ("write()", ServerKind::ThttpdDevPoll),
            ("sendfile()", ServerKind::ThttpdDevPollSendfile),
        ] {
            let mut l = Series::new(label);
            let mut s = Series::new(label);
            for &rate in &[400.0, 500.0, 600.0, 650.0, 700.0] {
                let params = RunParams::paper(kind, rate, inactive)
                    .with_conns(self.config.conns)
                    .with_seed(self.config.seed)
                    .with_doc_bytes(16 * 1024);
                let mut r = run_one(params);
                if self.verbose {
                    eprintln!("  {}", r.summary_line());
                }
                let med = r.median_latency_ms();
                l.push(rate, med);
                s.push(rate, r.rate.avg);
            }
            lat_fig.add(l);
            rate_fig.add(s);
        }
        vec![rate_fig, lat_fig]
    }

    /// Extension: the pre-poll baseline. `select()` vs `poll()` vs
    /// `/dev/poll` under inactive load — one interface generation earlier
    /// than the paper's baseline.
    pub fn select_figure(&mut self, inactive: usize) -> Vec<Figure> {
        let mut rate_fig = Figure::new(
            format!("EXTENSION. select() vs poll() vs /dev/poll, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "average reply rate",
        );
        let mut lat_fig = Figure::new(
            format!("EXTENSION. select() latency, load {inactive}"),
            format!("targeted request rate with load {inactive}"),
            "median connection time in ms",
        );
        for (label, kind) in [
            ("select", ServerKind::ThttpdSelect),
            ("normal poll", ServerKind::ThttpdPoll),
            ("devpoll", ServerKind::ThttpdDevPoll),
        ] {
            let pts: Vec<(f64, f64, f64)> = self
                .sweep(kind, inactive)
                .to_vec()
                .iter_mut()
                .map(|r| (r.target_rate, r.rate.avg, r.median_latency_ms()))
                .collect();
            let mut s = Series::new(label);
            let mut l = Series::new(label);
            for (x, avg, med) in pts {
                s.push(x, avg);
                l.push(x, med);
            }
            rate_fig.add(s);
            lat_fig.add(l);
        }
        vec![rate_fig, lat_fig]
    }

    /// Extension: random segment loss (fault injection). Lossy paths
    /// lengthen connection lifetimes (RTO stalls), which inflates the
    /// live descriptor set — compounding stock `poll()`'s scan costs
    /// while `/dev/poll` only pays per event.
    pub fn loss_figure(&mut self, rate: f64, inactive: usize) -> Vec<Figure> {
        let losses = [0.0f64, 0.01, 0.03, 0.05];
        let mut rate_fig = Figure::new(
            format!("EXTENSION. Random loss at {rate} req/s, load {inactive}"),
            "segment loss in percent",
            "average reply rate",
        );
        let mut lat_fig = Figure::new(
            format!("EXTENSION. Random loss vs latency at {rate} req/s, load {inactive}"),
            "segment loss in percent",
            "p90 connection time in ms",
        );
        for (label, kind) in [
            ("normal poll", ServerKind::ThttpdPoll),
            ("devpoll", ServerKind::ThttpdDevPoll),
        ] {
            let mut s = Series::new(label);
            let mut l = Series::new(label);
            for &loss in &losses {
                let params = RunParams::paper(kind, rate, inactive)
                    .with_conns(self.config.conns)
                    .with_seed(self.config.seed)
                    .with_loss(loss);
                let mut r = run_one(params);
                if self.verbose {
                    eprintln!("  loss={:.0}% {}", loss * 100.0, r.summary_line());
                }
                let p90 = r.latency_quantile_ms(0.9);
                s.push(loss * 100.0, r.rate.avg);
                l.push(loss * 100.0, p90);
            }
            rate_fig.add(s);
            lat_fig.add(l);
        }
        vec![rate_fig, lat_fig]
    }

    /// Extension: CPU-scaling sensitivity. Uniformly speed up the cost
    /// model and look for the rate where stock `poll()` at 501 inactive
    /// connections collapses; the devpoll/poll ordering should survive
    /// every speed until the 100 Mbit wire, not the event model, becomes
    /// the bottleneck.
    pub fn cpu_scaling_figure(&mut self, inactive: usize) -> Vec<Figure> {
        let mut fig = Figure::new(
            format!("EXTENSION. CPU scaling: avg reply rate at 900 req/s, load {inactive}"),
            "CPU speed multiplier over the K6-2",
            "average reply rate at 900 req/s offered",
        );
        for (label, kind) in [
            ("normal poll", ServerKind::ThttpdPoll),
            ("devpoll", ServerKind::ThttpdDevPoll),
        ] {
            let mut s = Series::new(label);
            for factor in [1.0f64, 2.0, 4.0, 8.0] {
                let mut params = RunParams::paper(kind, 900.0, inactive)
                    .with_conns(self.config.conns)
                    .with_seed(self.config.seed);
                params.cost = params.cost.scaled(factor);
                let mut r = run_one(params);
                if self.verbose {
                    eprintln!("  cpu x{factor} {}", r.summary_line());
                }
                s.push(factor, r.rate.avg);
            }
            fig.add(s);
        }
        vec![fig]
    }

    fn compare_two(
        &mut self,
        title: String,
        a: (&str, ServerKind),
        b: (&str, ServerKind),
        inactive: usize,
    ) -> Vec<Figure> {
        let mut rate_fig = Figure::new(
            title.clone(),
            format!("targeted request rate with load {inactive}"),
            "average reply rate",
        );
        let mut lat_fig = Figure::new(
            format!("{title} (latency)"),
            format!("targeted request rate with load {inactive}"),
            "median connection time in ms",
        );
        for (label, kind) in [a, b] {
            let pts: Vec<(f64, f64, f64)> = self
                .sweep(kind, inactive)
                .to_vec()
                .iter_mut()
                .map(|r| (r.target_rate, r.rate.avg, r.median_latency_ms()))
                .collect();
            let mut s = Series::new(label);
            let mut l = Series::new(label);
            for (x, avg, med) in pts {
                s.push(x, avg);
                l.push(x, med);
            }
            rate_fig.add(s);
            lat_fig.add(l);
        }
        vec![rate_fig, lat_fig]
    }
}

/// Every paper figure id, in order.
pub const PAPER_FIGURES: &[&str] = &[
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
];

/// The sweep grid behind `figures -- all`: three server architectures
/// crossed with the paper's three inactive loads (Figs. 4–14). Handing
/// this to [`FigureRunner::prefetch`] lets the executor fill the whole
/// grid in one parallel batch.
pub fn paper_grid() -> Vec<SweepKey> {
    let mut keys = Vec::new();
    for kind in [
        ServerKind::ThttpdPoll,
        ServerKind::ThttpdDevPoll,
        ServerKind::Phhttpd,
    ] {
        for inactive in [1usize, 251, 501] {
            keys.push((kind, inactive));
        }
    }
    keys
}

/// The mechanisms of the million-connection lane: the O(n) `poll()`
/// baseline against `/dev/poll` — the pair whose scaling gap the paper
/// projects and the lane extrapolates to 10^6 held-open connections.
pub fn million_kinds() -> [ServerKind; 2] {
    [ServerKind::ThttpdPoll, ServerKind::ThttpdDevPoll]
}

/// The full million-lane population. `MILLION_LOADS[..2]` (capping at
/// 100 000) is the CI smoke subset; nightly runs all three.
pub const MILLION_LOADS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// The held-open populations the million lane sweeps, capped (the CI
/// smoke stops at 100 000; nightly runs the full 10^6).
pub fn million_loads(cap: usize) -> Vec<usize> {
    MILLION_LOADS
        .iter()
        .copied()
        .filter(|&n| n <= cap)
        .collect()
}

/// The sweep grid behind `figures -- million` / `million-smoke`.
pub fn million_grid(cap: usize) -> Vec<SweepKey> {
    let mut keys = Vec::new();
    for kind in million_kinds() {
        for inactive in million_loads(cap) {
            keys.push((kind, inactive));
        }
    }
    keys
}

/// One million-lane run: a modest request stream (the interesting axis
/// is the held-open population, not the rate) over `inactive` parked
/// connections, with every exhaustible resource raised out of the way —
/// client machines added per ~50k conns for ephemeral ports, descriptor
/// limits lifted on both sides, the server's idle reaper deferred past
/// the run — and the `mem.*` probes armed. The bootstrap spreads the
/// population across a warmup scaled to the server's measured accept
/// capacity (~4.5k accepts/simulated-second end to end); offering
/// connections faster than that livelocks the bootstrap behind SYN
/// retransmit waves.
pub fn million_params(seed: u64, kind: ServerKind, inactive: usize) -> RunParams {
    let hosts = inactive.div_ceil(50_000).max(1);
    let mut p = RunParams::paper(kind, 500.0, inactive)
        .with_conns(2_000)
        .with_seed(seed)
        .with_mem_probes()
        .with_client_hosts(hosts)
        .with_server_fd_limit(inactive + 4_096)
        .with_client_fd_limit(inactive + 65_536);
    p.load.warmup = SimDuration::from_millis((inactive as u64 / 4).max(2_500));
    p.server.idle_timeout = SimDuration::from_secs(600);
    // The stock backlog of 128 collapses under a bulk bootstrap: the
    // 3 s SYN retransmit timer turns every drop into synchronized retry
    // waves that admit ~128 connections each — the population never
    // establishes. Raised the way a real million-connection deployment
    // raises `somaxconn`.
    p.server.backlog = 4_096;
    p
}

/// The five mechanisms the latency-anatomy breakdown covers — the same
/// set the root CLI's `compare` subcommand sweeps.
pub fn anatomy_kinds() -> [ServerKind; 5] {
    [
        ServerKind::ThttpdSelect,
        ServerKind::ThttpdPoll,
        ServerKind::ThttpdDevPoll,
        ServerKind::Phhttpd,
        ServerKind::Hybrid,
    ]
}

/// The sweep grid behind `figures -- latency-anatomy`.
pub fn anatomy_grid(inactive: usize) -> Vec<SweepKey> {
    anatomy_kinds().iter().map(|&k| (k, inactive)).collect()
}

/// The cached sweeps behind `figures -- extensions` (the direct-run
/// figures — docsize, sendfile, loss — manage their own points and are
/// not prefetchable).
pub fn extensions_grid() -> Vec<SweepKey> {
    use simkernel::AcceptWake;
    let no_hints = ServerKind::ThttpdDevPollWith {
        config: DevPollConfig {
            hints: false,
            ..DevPollConfig::default()
        },
        mmap: true,
        combined: false,
    };
    let no_mmap = ServerKind::ThttpdDevPollWith {
        config: DevPollConfig::default(),
        mmap: false,
        combined: false,
    };
    let combined = ServerKind::ThttpdDevPollWith {
        config: DevPollConfig::default(),
        mmap: true,
        combined: true,
    };
    vec![
        (ServerKind::Hybrid, 251),
        (ServerKind::ThttpdDevPoll, 251),
        (ServerKind::Phhttpd, 251),
        (ServerKind::ThttpdDevPoll, 501),
        (no_hints, 501),
        (no_mmap, 501),
        (combined, 501),
        (ServerKind::PhhttpdBatch(16), 251),
        (
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Herd,
            },
            251,
        ),
        (
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Exclusive,
            },
            251,
        ),
        (ServerKind::ThttpdSelect, 251),
        (ServerKind::ThttpdPoll, 251),
    ]
}
