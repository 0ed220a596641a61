//! Regeneration of every figure in the paper's evaluation (Figs. 4–14),
//! plus the extension experiments (hybrid server, ablations).
//!
//! Each paper figure maps to a [`simcore::series::Figure`] built from
//! benchmark sweeps; results are cached per (server, inactive-load) so
//! `all` runs the 3×3 grid once.

use std::collections::BTreeMap;

use devpoll::DevPollConfig;
use httperf::{run_one, RunParams, RunReport, ServerKind};
use simcore::series::{Figure, Series};
use simcore::span::Phase;
use simcore::time::SimDuration;
use simkernel::AcceptWake;

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

/// A series label and its runs, each at its x.
type Points = (&'static str, Vec<(f64, RunReport)>);

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
        self.fetch(self.rate_sweeps(false, keys));
    }

    /// Like [`FigureRunner::prefetch`], for span-enabled sweeps. Their
    /// reports carry `span_ns.*` histograms in their probe snapshots
    /// (records are not retained — histograms only).
    pub fn span_prefetch(&mut self, keys: &[SweepKey]) {
        self.fetch(self.rate_sweeps(true, keys));
    }

    /// Runs every not-yet-cached sweep of three kinds as one parallel
    /// batch: the rate sweeps of `rates` ([`FigureRunner::prefetch`]),
    /// the span-enabled ones of `span_rates`
    /// ([`FigureRunner::span_prefetch`]) and the million-lane points of
    /// `million` ([`FigureRunner::million_figures`]). One batch starts
    /// the costliest worlds first, so no worker idles behind the longest
    /// world while another target's sweeps wait for the next batch.
    pub fn prefetch_batch(
        &mut self,
        rates: &[SweepKey],
        span_rates: &[SweepKey],
        million: &[SweepKey],
    ) {
        let mut sweeps = self.rate_sweeps(false, rates);
        sweeps.extend(self.rate_sweeps(true, span_rates));
        sweeps.extend(self.million_sweeps(million));
        self.fetch(sweeps);
    }

    /// The paper's run of `kind` at one point, at this runner's
    /// connection count and seed.
    fn params(&self, kind: ServerKind, rate: f64, inactive: usize) -> RunParams {
        RunParams::paper(kind, rate, inactive)
            .with_conns(self.config.conns)
            .with_seed(self.config.seed)
    }

    /// A sweep's runs, one per configured rate.
    fn rate_sweep(&self, kind: ServerKind, inactive: usize) -> Vec<RunParams> {
        let rates = &self.config.rates;
        rates
            .iter()
            .map(|&r| self.params(kind, r, inactive))
            .collect()
    }

    /// The rate sweep of each key, span-enabled if `spans`, under its
    /// cache key.
    fn rate_sweeps(&self, spans: bool, keys: &[SweepKey]) -> Vec<(CacheKey, Vec<RunParams>)> {
        keys.iter()
            .map(|&(kind, inactive)| {
                let mut runs = self.rate_sweep(kind, inactive);
                if spans {
                    runs = runs.into_iter().map(|p| p.with_span_retain(0)).collect();
                }
                ((spans, kind, inactive), runs)
            })
            .collect()
    }

    /// The million-lane point of each key, as a one-point sweep under
    /// its cache key.
    fn million_sweeps(&self, keys: &[SweepKey]) -> Vec<(CacheKey, Vec<RunParams>)> {
        keys.iter()
            .map(|&(kind, inactive)| {
                let run = million_params(self.config.seed, kind, inactive);
                ((false, kind, inactive), vec![run])
            })
            .collect()
    }

    /// Runs the worlds (in x order) of every sweep in `sweeps` not yet
    /// cached as one batch, and caches each sweep in key order.
    fn fetch(&mut self, sweeps: Vec<(CacheKey, Vec<RunParams>)>) {
        let missing: BTreeMap<CacheKey, Vec<RunParams>> = sweeps
            .into_iter()
            .filter(|(key, _)| !self.cache.contains_key(key))
            .collect();
        let points: Vec<(CacheKey, usize)> = missing.iter().map(|(&k, w)| (k, w.len())).collect();
        let runs: Vec<RunParams> = missing.into_values().flatten().collect();
        let spans: Vec<bool> = runs.iter().map(|r| r.spans).collect();
        let suffix = |i: usize| if spans[i] { " [spans]" } else { "" };
        let mut results = self
            .execute(runs, |i, line| Some(format!("  {line}{}", suffix(i))))
            .into_iter();
        for (key, points) in points {
            let (reports, walls): (Vec<_>, Vec<f64>) = results.by_ref().take(points).unzip();
            let wall_ms = walls.iter().sum();
            self.cache.insert(key, CachedSweep { reports, wall_ms });
        }
    }

    /// The one place the runner runs simulations: every world on the
    /// worker pool, each report back with its wall time in ms, in input
    /// order. The pool takes the worlds largest first (see
    /// [`world_size`]): a long world claimed last would leave every
    /// other worker idle until it ends. With `verbose`, `log(i,
    /// summary)` gives run `i`'s stderr line (`None`: none); the lines
    /// go out after the batch, in input order, so stderr is identical at
    /// every worker count.
    fn execute(
        &self,
        runs: Vec<RunParams>,
        log: impl Fn(usize, &str) -> Option<String>,
    ) -> Vec<(RunReport, f64)> {
        let clock = self.clock;
        let tick = move || clock.map_or(0.0, |c| c());
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(world_size(&runs[i])));
        let results = run_jobs(self.jobs, &order, move |&i| {
            let started = tick();
            let mut report = run_one(runs[i].clone());
            let wall = tick() - started;
            let summary = report.summary_line();
            (report, wall, summary)
        });
        let mut results: Vec<_> = order.into_iter().zip(results).collect();
        results.sort_by_key(|&(i, _)| i);
        let mut out = Vec::with_capacity(results.len());
        for (i, (report, wall, summary)) in results {
            if let Some(line) = log(i, &summary).filter(|_| self.verbose) {
                eprintln!("{line}");
            }
            out.push((report, wall));
        }
        out
    }

    /// Runs the grid `series × xs` as one batch, outside the sweep
    /// cache: `world(kind, x)` builds each run and `tag(x)` prefixes its
    /// log line. Returns each series' runs at their x.
    fn direct(
        &self,
        series: [(&'static str, ServerKind); 2],
        xs: &[f64],
        world: impl Fn(ServerKind, f64) -> RunParams,
        tag: impl Fn(f64) -> String,
    ) -> Vec<Points> {
        let runs = series
            .iter()
            .flat_map(|&(_, kind)| xs.iter().map(move |&x| (kind, x)))
            .map(|(kind, x)| world(kind, x))
            .collect();
        let at = |i: usize| xs[i % xs.len()];
        let mut reports = self
            .execute(runs, |i, line| Some(format!("  {}{line}", tag(at(i)))))
            .into_iter()
            .map(|(report, _)| report);
        series
            .iter()
            .map(|&(label, _)| (label, xs.iter().copied().zip(reports.by_ref()).collect()))
            .collect()
    }

    /// The cached sweep of each kind at `inactive`, fetched in series
    /// order, each run at its target rate.
    fn rate_series(
        &mut self,
        kinds: &[(&'static str, ServerKind)],
        inactive: usize,
    ) -> Vec<Points> {
        kinds
            .iter()
            .map(|&(label, kind)| {
                let reports = self.sweep(kind, inactive);
                (
                    label,
                    reports.iter().map(|r| (r.target_rate, r.clone())).collect(),
                )
            })
            .collect()
    }

    /// The million-connection knee charts: reply rate, median latency
    /// and server bytes per connection, each against the held-open
    /// population (log-ish x: 10^4, 10^5, 10^6) per mechanism. Where
    /// the paper's Figs. 4–14 sweep the request rate at fixed load,
    /// these sweep the load at fixed rate — the axis along which
    /// `poll()`'s O(n) scans and the interest tables' footprint bend.
    ///
    /// Each (mechanism, population) point (see [`million_params`]) is
    /// a single run cached as a one-point sweep, so the lane folds into
    /// `BENCH.json` and the probe dumps like any other sweep. The
    /// population keys (10^4..10^6) cannot collide with the paper grid
    /// (1/251/501).
    pub fn million_figures(&mut self) -> Vec<Figure> {
        self.fetch(self.million_sweeps(&million_grid()));
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
            for inactive in MILLION_LOADS {
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
        if spans {
            self.span_prefetch(&[(kind, inactive)]);
        } else {
            self.prefetch(&[(kind, inactive)]);
        }
        &self.cache[&(spans, kind, inactive)].reports
    }

    /// Span-traced runs that retain their records, one per anatomy
    /// mechanism at `rate` and `inactive`: the Chrome traces and folded
    /// stacks of `figures --trace-export`. They are not cached, so they
    /// stay out of `BENCH.json` and the probe dumps, and log nothing.
    pub fn span_traces(&self, rate: f64, inactive: usize) -> Vec<(ServerKind, RunReport)> {
        let kinds = anatomy_kinds();
        let runs = kinds
            .iter()
            .map(|&kind| self.params(kind, rate, inactive).with_spans())
            .collect();
        let reports = self.execute(runs, |_, _| None);
        kinds
            .into_iter()
            .zip(reports.into_iter().map(|r| r.0))
            .collect()
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
        let mut fig = Figure::new(title, rate_axis(inactive), "reply rate");
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
        let kinds = [
            ("using devpoll", ServerKind::ThttpdDevPoll),
            ("normal poll", ServerKind::ThttpdPoll),
        ];
        let mut series = self.rate_series(&kinds, inactive);
        panel(
            title,
            rate_axis(inactive),
            "errors in percent",
            &mut series,
            |r| r.error_percent(),
        )
    }

    /// Median-latency figure (Fig. 14).
    pub fn latency_figure(&mut self, title: &str, inactive: usize) -> Figure {
        let kinds = [
            ("devpoll", ServerKind::ThttpdDevPoll),
            ("normal poll", ServerKind::ThttpdPoll),
            ("phhttpd", ServerKind::Phhttpd),
        ];
        let mut series = self.rate_series(&kinds, inactive);
        panel(title, rate_axis(inactive), MEDIAN_MS, &mut series, median)
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
            rate_axis(inactive),
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

    /// Two panels against the request rate at `inactive`, one series
    /// per kind: average reply rate under `titles[0]`, median latency
    /// under `titles[1]`.
    fn rate_and_latency(
        &mut self,
        titles: [String; 2],
        kinds: &[(&'static str, ServerKind)],
        inactive: usize,
    ) -> Vec<Figure> {
        let mut series = self.rate_series(kinds, inactive);
        let [rate_title, lat_title] = titles;
        vec![
            panel(rate_title, rate_axis(inactive), AVG_RATE, &mut series, avg),
            panel(
                lat_title,
                rate_axis(inactive),
                MEDIAN_MS,
                &mut series,
                median,
            ),
        ]
    }

    /// An ablation: the stock kind against the one with a feature
    /// switched, at `inactive`; rate and latency panels titled `title`
    /// plus the load.
    fn ablation(
        &mut self,
        title: &str,
        kinds: [(&'static str, ServerKind); 2],
        inactive: usize,
    ) -> Vec<Figure> {
        let title = format!("{title}, load {inactive}");
        let titles = [title.clone(), format!("{title} (latency)")];
        self.rate_and_latency(titles, &kinds, inactive)
    }

    /// Extension: the thundering herd (§6's "waking only one thread").
    /// Four prefork workers share the listener; herd wakeups vs
    /// exclusive wakeups.
    fn herd_figure(&mut self, inactive: usize) -> Vec<Figure> {
        let prefork = |wake| ServerKind::PreforkDevPoll { workers: 4, wake };
        let kinds = [
            ("herd (wake all)", prefork(AcceptWake::Herd)),
            ("exclusive (wake one)", prefork(AcceptWake::Exclusive)),
        ];
        let mut series = self.rate_series(&kinds, inactive);
        vec![
            panel(
                format!("EXTENSION. Thundering herd: 4 prefork workers, load {inactive}"),
                rate_axis(inactive),
                MEDIAN_MS,
                &mut series,
                median,
            ),
            panel(
                format!("EXTENSION. Kernel wakeups per reply, load {inactive}"),
                rate_axis(inactive),
                "wakeups / reply",
                &mut series,
                |r| {
                    if r.replies > 0 {
                        r.probe.counter("kernel.wakeups") as f64 / r.replies as f64
                    } else {
                        0.0
                    }
                },
            ),
        ]
    }

    /// Extension: document-size sensitivity (§5: "A web server's static
    /// performance depends on the size distribution of requested
    /// documents. Larger documents cause sockets … to remain active over
    /// a longer time period … making the amortized cost of polling on a
    /// single file descriptor larger.").
    fn docsize_figure(&mut self, rate: f64, inactive: usize) -> Vec<Figure> {
        let mut series = self.direct(
            POLL_VS_DEVPOLL,
            &[1.0, 6.0, 16.0, 32.0],
            |kind, kb| {
                self.params(kind, rate, inactive)
                    .with_doc_bytes(kb as usize * 1024)
            },
            |kb| format!("doc={kb}KB "),
        );
        vec![
            panel(
                format!("EXTENSION. Document size sensitivity at {rate} req/s, load {inactive}"),
                "document size in KB",
                AVG_RATE,
                &mut series,
                avg,
            ),
            panel(
                format!("EXTENSION. Document size vs latency at {rate} req/s, load {inactive}"),
                "document size in KB",
                MEDIAN_MS,
                &mut series,
                median,
            ),
        ]
    }

    /// Extension: `sendfile()` vs `write()` for the response body (§6
    /// future work). Uses a 16 KB document so the copy saving is
    /// visible.
    fn sendfile_figure(&mut self, inactive: usize) -> Vec<Figure> {
        let mut series = self.direct(
            [
                ("write()", ServerKind::ThttpdDevPoll),
                ("sendfile()", ServerKind::ThttpdDevPollSendfile),
            ],
            &[400.0, 500.0, 600.0, 650.0, 700.0],
            |kind, rate| self.params(kind, rate, inactive).with_doc_bytes(16 * 1024),
            |_| String::new(),
        );
        vec![
            panel(
                format!("EXTENSION. write() vs sendfile() throughput, load {inactive}"),
                rate_axis(inactive),
                AVG_RATE,
                &mut series,
                avg,
            ),
            panel(
                format!("EXTENSION. write() vs sendfile(), 16 KB document, load {inactive}"),
                rate_axis(inactive),
                MEDIAN_MS,
                &mut series,
                median,
            ),
        ]
    }

    /// Extension: random segment loss (fault injection). Lossy paths
    /// lengthen connection lifetimes (RTO stalls), which inflates the
    /// live descriptor set — compounding stock `poll()`'s scan costs
    /// while `/dev/poll` only pays per event.
    fn loss_figure(&mut self, rate: f64, inactive: usize) -> Vec<Figure> {
        let mut series = self.direct(
            POLL_VS_DEVPOLL,
            &[0.0, 1.0, 3.0, 5.0],
            |kind, pct| self.params(kind, rate, inactive).with_loss(pct / 100.0),
            |pct| format!("loss={pct:.0}% "),
        );
        vec![
            panel(
                format!("EXTENSION. Random loss at {rate} req/s, load {inactive}"),
                "segment loss in percent",
                AVG_RATE,
                &mut series,
                avg,
            ),
            panel(
                format!("EXTENSION. Random loss vs latency at {rate} req/s, load {inactive}"),
                "segment loss in percent",
                "p90 connection time in ms",
                &mut series,
                |r| r.latency_quantile_ms(0.9),
            ),
        ]
    }

    /// Extension: CPU-scaling sensitivity. Uniformly speed up the cost
    /// model and look for the rate where stock `poll()` at 501 inactive
    /// connections collapses; the devpoll/poll ordering should survive
    /// every speed until the 100 Mbit wire, not the event model, becomes
    /// the bottleneck.
    pub fn cpu_scaling_figure(&mut self, inactive: usize) -> Vec<Figure> {
        let mut series = self.direct(
            POLL_VS_DEVPOLL,
            &[1.0, 2.0, 4.0, 8.0],
            |kind, factor| {
                let mut params = self.params(kind, 900.0, inactive);
                params.cost = params.cost.scaled(factor);
                params
            },
            |factor| format!("cpu x{factor} "),
        );
        vec![panel(
            format!("EXTENSION. CPU scaling: avg reply rate at 900 req/s, load {inactive}"),
            "CPU speed multiplier over the K6-2",
            "average reply rate at 900 req/s offered",
            &mut series,
            avg,
        )]
    }
}

/// The x-axis label of a request-rate sweep at `inactive`.
fn rate_axis(inactive: usize) -> String {
    format!("targeted request rate with load {inactive}")
}

const AVG_RATE: &str = "average reply rate";
const MEDIAN_MS: &str = "median connection time in ms";

/// The stock-`poll()` against `/dev/poll` pair of the direct-run
/// extensions.
const POLL_VS_DEVPOLL: [(&str, ServerKind); 2] = [
    ("normal poll", ServerKind::ThttpdPoll),
    ("devpoll", ServerKind::ThttpdDevPoll),
];

fn avg(r: &mut RunReport) -> f64 {
    r.rate.avg
}

fn median(r: &mut RunReport) -> f64 {
    r.median_latency_ms()
}

/// One figure panel: a series per label, each run plotted at its x
/// with the y that `y` reads from it.
fn panel(
    title: impl Into<String>,
    x_label: impl Into<String>,
    y_label: &str,
    series: &mut [Points],
    y: impl Fn(&mut RunReport) -> f64,
) -> Figure {
    let mut fig = Figure::new(title, x_label, y_label);
    for (label, runs) in series.iter_mut() {
        let mut s = Series::new(*label);
        for (x, r) in runs.iter_mut() {
            s.push(*x, y(r));
        }
        fig.add(s);
    }
    fig
}

/// An extension figure, built from the runner's cached sweeps or its
/// direct runs.
pub type ExtensionFigure = fn(&mut FigureRunner) -> Vec<Figure>;

/// The extension figures in `figures -- extensions` order, by target
/// name. Each is also a target on its own; its CSV stem is the name
/// with `-` spelt `_`. [`extensions_grid`] lists the sweeps they read.
pub const EXTENSIONS: [(&str, ExtensionFigure); 10] = [
    // The hybrid server (the paper's §4 thought experiment) against
    // its two constituents.
    ("hybrid", |r| {
        let kinds = [
            ("hybrid", ServerKind::Hybrid),
            ("devpoll", ServerKind::ThttpdDevPoll),
            ("phhttpd", ServerKind::Phhttpd),
        ];
        let titles = [
            "EXTENSION. Hybrid server vs constituents, load 251".to_string(),
            "EXTENSION. Hybrid server latency, load 251".to_string(),
        ];
        r.rate_and_latency(titles, &kinds, 251)
    }),
    // `/dev/poll` without driver hints (§3.2).
    ("ablate-hints", |r| {
        let [no_hints, _, _] = devpoll_ablations();
        let kinds = [
            ("hints on", ServerKind::ThttpdDevPoll),
            ("hints off", no_hints),
        ];
        r.ablation("ABLATION. /dev/poll hints on vs off", kinds, 501)
    }),
    // The mmap result area vs copy-out (§3.3).
    ("ablate-mmap", |r| {
        let [_, copy_out, _] = devpoll_ablations();
        let kinds = [("mmap", ServerKind::ThttpdDevPoll), ("copy-out", copy_out)];
        r.ablation("ABLATION. /dev/poll mmap results vs copy-out", kinds, 501)
    }),
    // The combined write+ioctl operation (§6 future work).
    ("ablate-combined", |r| {
        let [_, _, combined] = devpoll_ablations();
        let kinds = [
            ("separate", ServerKind::ThttpdDevPoll),
            ("combined", combined),
        ];
        r.ablation("ABLATION. Separate write+ioctl vs combined op", kinds, 501)
    }),
    // `sigtimedwait4()` batch dequeue for phhttpd (§6).
    ("ablate-batch", |r| {
        let batch = ("sigtimedwait4(16)", ServerKind::PhhttpdBatch(16));
        let kinds = [("one-at-a-time", ServerKind::Phhttpd), batch];
        r.ablation(
            "ABLATION. sigwaitinfo vs sigtimedwait4 batching",
            kinds,
            251,
        )
    }),
    ("herd", |r| r.herd_figure(251)),
    ("docsize", |r| r.docsize_figure(500.0, 251)),
    ("sendfile", |r| r.sendfile_figure(1)),
    ("loss", |r| r.loss_figure(500.0, 251)),
    // The pre-poll baseline: one interface generation earlier than the
    // paper's.
    ("select", |r| {
        let kinds = [
            ("select", ServerKind::ThttpdSelect),
            ("normal poll", ServerKind::ThttpdPoll),
            ("devpoll", ServerKind::ThttpdDevPoll),
        ];
        let titles = [
            "EXTENSION. select() vs poll() vs /dev/poll, load 251".to_string(),
            "EXTENSION. select() latency, load 251".to_string(),
        ];
        r.rate_and_latency(titles, &kinds, 251)
    }),
];

/// The three `/dev/poll` ablation kinds, each the stock device with one
/// feature switched: no driver hints (§3.2), copy-out results instead
/// of the mmap area (§3.3), and the combined write+ioctl (§6).
fn devpoll_ablations() -> [ServerKind; 3] {
    let with = |hints, mmap, combined| ServerKind::ThttpdDevPollWith {
        config: DevPollConfig {
            hints,
            ..DevPollConfig::default()
        },
        mmap,
        combined,
    };
    [
        with(false, true, false),
        with(true, false, false),
        with(true, true, true),
    ]
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

/// The connections a world opens, its requests and its held-open
/// population: the estimate of its wall time that orders a batch. The
/// million lane's largest points lead by a wide margin; a paper-grid
/// point costs about what its 35,000 requests do.
fn world_size(p: &RunParams) -> u64 {
    p.load.total_conns + p.load.inactive as u64
}

/// The mechanisms of the million-connection lane: the O(n) `poll()`
/// baseline against `/dev/poll` — the pair whose scaling gap the paper
/// projects and the lane extrapolates to 10^6 held-open connections.
pub fn million_kinds() -> [ServerKind; 2] {
    [ServerKind::ThttpdPoll, ServerKind::ThttpdDevPoll]
}

/// The held-open populations the million lane sweeps.
pub const MILLION_LOADS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// The sweep grid behind `figures -- million`.
pub fn million_grid() -> Vec<SweepKey> {
    let mut keys = Vec::new();
    for kind in million_kinds() {
        for inactive in MILLION_LOADS {
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

/// The cached sweeps the [`EXTENSIONS`] read, prefetched as one batch
/// by `figures -- extensions`. The direct-run figures (docsize,
/// sendfile, loss) run their own points outside the cache.
pub fn extensions_grid() -> Vec<SweepKey> {
    let mut keys = vec![
        (ServerKind::Hybrid, 251),
        (ServerKind::ThttpdDevPoll, 251),
        (ServerKind::Phhttpd, 251),
        (ServerKind::ThttpdDevPoll, 501),
    ];
    keys.extend(devpoll_ablations().map(|kind| (kind, 501)));
    keys.extend([
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
    ]);
    keys
}
