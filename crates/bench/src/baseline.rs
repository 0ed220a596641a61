//! The perf baseline: a versioned, machine-readable `BENCH.json`
//! emitted by every `figures` invocation, plus the comparator behind
//! the `bench_gate` binary.
//!
//! A report records, per sweep, the shape metrics the paper plots
//! (reply-rate summary, error percentage, latency quantiles) and a
//! stable probe-snapshot digest per point, alongside the volatile
//! wall-clock fields. The comparator checks a current report against
//! the checked-in `BENCH_BASELINE.json`:
//!
//! * identity fields (tool, seed, config fingerprint) must match — a
//!   mismatch means the baseline needs an intentional refresh, not a
//!   tolerance;
//! * shape metrics must sit within fixed tolerances: 10% on reply
//!   rate, 5 points on error rate, 50% on latency above a 1 ms floor;
//! * per-sweep throughput may only drop, and bytes per connection only
//!   grow, within a factor of 1.25; whole-process wall time is recorded
//!   but never gated;
//! * probe digests are compared strictly only when `compare`'s
//!   `strict_digest` is set — any intentional behaviour change alters
//!   digests, so by default a mismatch is a note.
//!
//! No serde: the schema is small and closed, so emission is `format!`
//! and parsing is the minimal recursive-descent parser below.

use std::fmt::Write as _;

use crate::figures::FigureConfig;
use httperf::RunReport;
use simcore::fingerprint::Fnv;

/// Schema version stamped into every report.
///
/// v2 added the throughput lane: per-sweep `events` (simulation events
/// dispatched) and `sim_ms` (summed simulated time), from which the
/// gate derives events-per-wall-second and sim-time-per-wall-second.
/// v3 added the memory lane: per-sweep `mem_bytes` (peak server-side
/// heap across the sweep's points) and `eps_peak` (peak simultaneous
/// kernel endpoints), from which the gate derives bytes-per-connection.
/// Only this version parses: a document of any other version is
/// rejected with the refresh recipe.
pub const BENCH_VERSION: u64 = 3;

/// One benchmark point: the shape metrics of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Targeted request rate.
    pub rate: f64,
    /// Reply-rate summary (avg/stddev/min/max over one-second windows).
    pub avg: f64,
    /// Standard deviation of the window rates.
    pub stddev: f64,
    /// Smallest window rate.
    pub min: f64,
    /// Largest window rate.
    pub max: f64,
    /// Errors as a percentage of attempted connections.
    pub error_percent: f64,
    /// Median connection time, milliseconds.
    pub median_ms: f64,
    /// p90 connection time, milliseconds.
    pub p90_ms: f64,
    /// Successful replies.
    pub replies: u64,
    /// Connections attempted.
    pub attempted: u64,
    /// Stable hex digest of the run's probe snapshot.
    pub probe_digest: String,
}

impl PointRecord {
    /// Extracts the record from a finished run.
    pub fn from_report(r: &mut RunReport) -> PointRecord {
        PointRecord {
            rate: r.target_rate,
            avg: r.rate.avg,
            stddev: r.rate.stddev,
            min: r.rate.min,
            max: r.rate.max,
            error_percent: r.error_percent(),
            median_ms: r.median_latency_ms(),
            p90_ms: r.latency_quantile_ms(0.9),
            replies: r.replies,
            attempted: r.attempted,
            probe_digest: r.probe_digest_hex(),
        }
    }
}

/// One sweep: every point of one (server, inactive load) curve, in
/// rate order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Server label (`ServerKind::label`).
    pub server: String,
    /// Inactive connection population.
    pub inactive: usize,
    /// Summed per-run wall time of the sweep's points, milliseconds.
    /// Volatile: excluded from determinism comparisons.
    pub wall_ms: f64,
    /// Summed simulation events dispatched across the sweep's points.
    /// Deterministic.
    pub events: u64,
    /// Summed simulated run time across the sweep's points,
    /// milliseconds. Deterministic.
    pub sim_ms: f64,
    /// Peak end-of-run server-side heap bytes across the sweep's points.
    /// Deterministic.
    pub mem_bytes: u64,
    /// Peak simultaneously-open kernel endpoints across the sweep's
    /// points. Deterministic.
    pub eps_peak: u64,
    /// Points in ascending rate order.
    pub points: Vec<PointRecord>,
}

impl SweepRecord {
    /// Folds the finished runs of one sweep, in rate order, into its
    /// record under `server`. `wall_ms` is the summed per-run wall time.
    pub fn from_runs(
        server: String,
        inactive: usize,
        wall_ms: f64,
        reports: &mut [RunReport],
    ) -> SweepRecord {
        SweepRecord {
            server,
            inactive,
            wall_ms,
            events: reports.iter().map(|r| r.events).sum(),
            sim_ms: reports.iter().map(|r| r.sim_secs * 1e3).sum(),
            mem_bytes: reports
                .iter()
                .map(|r| r.mem_server_bytes)
                .max()
                .unwrap_or(0),
            eps_peak: reports.iter().map(|r| r.mem_eps_peak).max().unwrap_or(0),
            points: reports.iter_mut().map(PointRecord::from_report).collect(),
        }
    }

    /// Server-side heap bytes per peak connection — the memory lane's
    /// headline number. `None` without endpoint data.
    pub fn mem_bytes_per_conn(&self) -> Option<f64> {
        (self.eps_peak > 0 && self.mem_bytes > 0)
            .then(|| self.mem_bytes as f64 / self.eps_peak as f64)
    }

    /// Simulation events dispatched per wall-clock second — the
    /// throughput lane's headline number. `None` without wall data.
    pub fn events_per_wall_sec(&self) -> Option<f64> {
        (self.wall_ms > 0.0 && self.events > 0).then(|| self.events as f64 / (self.wall_ms / 1e3))
    }

    /// Simulated milliseconds advanced per wall-clock millisecond.
    /// `None` without wall data.
    pub fn sim_per_wall(&self) -> Option<f64> {
        (self.wall_ms > 0.0 && self.sim_ms > 0.0).then(|| self.sim_ms / self.wall_ms)
    }
}

/// A whole `BENCH.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_VERSION`]).
    pub version: u64,
    /// Producing tool (`"figures"`).
    pub tool: String,
    /// RNG seed of every run in the report.
    pub seed: u64,
    /// Fingerprint of the sweep configuration (rates, conns, seed).
    pub config: String,
    /// Worker count the harness ran with (informational).
    pub jobs: usize,
    /// End-to-end harness wall time, milliseconds. Volatile.
    pub total_wall_ms: f64,
    /// Sweeps in canonical (server, inactive) order.
    pub sweeps: Vec<SweepRecord>,
}

/// Stable fingerprint of a sweep configuration. Two invocations with
/// the same rates/conns/seed — and therefore comparable shape metrics —
/// fingerprint identically.
pub fn config_fingerprint(config: &FigureConfig) -> String {
    let mut text = String::new();
    for r in &config.rates {
        let _ = write!(text, "{r},");
    }
    let _ = write!(text, "conns={};seed={}", config.conns, config.seed);
    format!("{:016x}", Fnv::digest(text.as_bytes()))
}

impl BenchReport {
    /// A copy with every volatile (wall-clock) field zeroed — the form
    /// determinism tests compare byte-for-byte.
    pub fn normalized(&self) -> BenchReport {
        let mut out = self.clone();
        out.total_wall_ms = 0.0;
        out.jobs = 0;
        for s in &mut out.sweeps {
            s.wall_ms = 0.0;
        }
        out
    }

    /// Renders the document (pretty-printed, stable field order, one
    /// point object per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench_version\": {},", self.version);
        let _ = writeln!(out, "  \"tool\": \"{}\",", self.tool);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"config\": \"{}\",", self.config);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"total_wall_ms\": {},", self.total_wall_ms);
        let _ = writeln!(out, "  \"sweeps\": [");
        for (i, s) in self.sweeps.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"server\": \"{}\",", s.server);
            let _ = writeln!(out, "      \"inactive\": {},", s.inactive);
            let _ = writeln!(out, "      \"wall_ms\": {},", s.wall_ms);
            let _ = writeln!(out, "      \"events\": {},", s.events);
            let _ = writeln!(out, "      \"sim_ms\": {},", s.sim_ms);
            let _ = writeln!(out, "      \"mem_bytes\": {},", s.mem_bytes);
            let _ = writeln!(out, "      \"eps_peak\": {},", s.eps_peak);
            let _ = writeln!(out, "      \"points\": [");
            for (j, p) in s.points.iter().enumerate() {
                let comma = if j + 1 < s.points.len() { "," } else { "" };
                let _ = writeln!(out, "        {}{comma}", point_json(p));
            }
            let _ = writeln!(out, "      ]");
            let comma = if i + 1 < self.sweeps.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a document emitted by [`BenchReport::to_json`] (or any
    /// JSON matching the schema).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = Json::parse(text)?;
        let version = value.field_u64("bench_version")?;
        if version != BENCH_VERSION {
            return Err(format!(
                "bench_version {version} is not the current schema v{BENCH_VERSION} — {REFRESH_HINT}"
            ));
        }
        let mut sweeps = Vec::new();
        for sv in value.field_array("sweeps")? {
            let mut points = Vec::new();
            for pv in sv.field_array("points")? {
                points.push(PointRecord {
                    rate: pv.field_f64("rate")?,
                    avg: pv.field_f64("avg")?,
                    stddev: pv.field_f64("stddev")?,
                    min: pv.field_f64("min")?,
                    max: pv.field_f64("max")?,
                    error_percent: pv.field_f64("error_percent")?,
                    median_ms: pv.field_f64("median_ms")?,
                    p90_ms: pv.field_f64("p90_ms")?,
                    replies: pv.field_u64("replies")?,
                    attempted: pv.field_u64("attempted")?,
                    probe_digest: pv.field_str("probe_digest")?.to_string(),
                });
            }
            sweeps.push(SweepRecord {
                server: sv.field_str("server")?.to_string(),
                inactive: sv.field_u64("inactive")? as usize,
                wall_ms: sv.field_f64("wall_ms")?,
                events: sv.field_u64("events")?,
                sim_ms: sv.field_f64("sim_ms")?,
                mem_bytes: sv.field_u64("mem_bytes")?,
                eps_peak: sv.field_u64("eps_peak")?,
                points,
            });
        }
        Ok(BenchReport {
            version,
            tool: value.field_str("tool")?.to_string(),
            seed: value.field_u64("seed")?,
            config: value.field_str("config")?.to_string(),
            jobs: value.field_u64("jobs")? as usize,
            total_wall_ms: value.field_f64("total_wall_ms")?,
            sweeps,
        })
    }
}

fn point_json(p: &PointRecord) -> String {
    format!(
        "{{\"rate\":{},\"avg\":{},\"stddev\":{},\"min\":{},\"max\":{},\
         \"error_percent\":{},\"median_ms\":{},\"p90_ms\":{},\
         \"replies\":{},\"attempted\":{},\"probe_digest\":\"{}\"}}",
        p.rate,
        p.avg,
        p.stddev,
        p.min,
        p.max,
        p.error_percent,
        p.median_ms,
        p.p90_ms,
        p.replies,
        p.attempted,
        p.probe_digest,
    )
}

// ---------------------------------------------------------------------
// Gate comparison
// ---------------------------------------------------------------------

/// Relative tolerance on average reply rate.
const RATE_REL: f64 = 0.10;
/// Absolute tolerance on error percentage (points).
const ERR_ABS: f64 = 5.0;
/// Relative tolerance on median/p90 latency, above [`LATENCY_FLOOR_MS`].
const LATENCY_REL: f64 = 0.50;
/// Latency floor, milliseconds: differences where both sides sit under
/// this are sub-millisecond jitter, never violations.
const LATENCY_FLOOR_MS: f64 = 1.0;
/// Throughput lane: a sweep whose events-per-wall-second drops below
/// `baseline / factor` fails. The margin covers shared-runner
/// wall-clock noise.
const THROUGHPUT_FACTOR: f64 = 1.25;
/// Memory lane: a sweep whose server bytes per peak connection grow
/// beyond `factor * baseline` fails. The margin covers allocator
/// rounding.
const MEM_FACTOR: f64 = 1.25;

/// The comparator's verdict.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Failures: any entry makes the gate red.
    pub violations: Vec<String>,
    /// Informational drift: digest changes without `strict_digest`,
    /// sweeps absent from the baseline.
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// Green?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How to fix an identity or schema mismatch against the baseline.
const REFRESH_HINT: &str = "refresh BENCH_BASELINE.json intentionally (see EXPERIMENTS.md)";

fn rel_diff(current: f64, base: f64) -> f64 {
    (current - base).abs() / base.abs().max(1.0)
}

/// Compares a current report against the baseline. With `strict_digest`
/// a probe-digest mismatch is a violation instead of a note.
pub fn compare(baseline: &BenchReport, current: &BenchReport, strict_digest: bool) -> GateOutcome {
    let mut out = GateOutcome::default();

    if baseline.tool != current.tool {
        out.violations.push(format!(
            "tool mismatch: baseline {:?} vs current {:?} — {REFRESH_HINT}",
            baseline.tool, current.tool
        ));
    }
    if baseline.seed != current.seed {
        out.violations.push(format!(
            "seed mismatch: baseline {} vs current {} — {REFRESH_HINT}",
            baseline.seed, current.seed
        ));
    }
    if baseline.config != current.config {
        out.violations.push(format!(
            "config fingerprint mismatch: baseline {} vs current {} — the sweep \
             grid changed; {REFRESH_HINT}",
            baseline.config, current.config
        ));
    }
    if !out.violations.is_empty() {
        // Identity mismatches make metric comparison meaningless.
        return out;
    }

    for base_sweep in &baseline.sweeps {
        let Some(cur_sweep) = current
            .sweeps
            .iter()
            .find(|s| s.server == base_sweep.server && s.inactive == base_sweep.inactive)
        else {
            out.violations.push(format!(
                "sweep {}/load {} present in baseline but missing from current report",
                base_sweep.server, base_sweep.inactive
            ));
            continue;
        };
        compare_sweep(base_sweep, cur_sweep, strict_digest, &mut out);
    }
    for cur_sweep in &current.sweeps {
        if !baseline
            .sweeps
            .iter()
            .any(|s| s.server == cur_sweep.server && s.inactive == cur_sweep.inactive)
        {
            out.notes.push(format!(
                "sweep {}/load {} is new (absent from baseline)",
                cur_sweep.server, cur_sweep.inactive
            ));
        }
    }
    out
}

fn compare_sweep(
    base: &SweepRecord,
    cur: &SweepRecord,
    strict_digest: bool,
    out: &mut GateOutcome,
) {
    let ctx = format!("{}/load {}", base.server, base.inactive);
    // Throughput lane: events dispatched per wall-second. Wall-clock
    // dependent, so only comparable when both sides carry wall data.
    if let (Some(base_eps), Some(cur_eps)) = (base.events_per_wall_sec(), cur.events_per_wall_sec())
    {
        if cur_eps * THROUGHPUT_FACTOR < base_eps {
            out.violations.push(format!(
                "{ctx}: throughput {cur_eps:.0} events/s vs baseline {base_eps:.0} events/s \
                 (limit {THROUGHPUT_FACTOR}x slowdown)"
            ));
        }
    }
    // Memory lane: server-side bytes per peak connection. Deterministic,
    // so comparable whenever both sides carry endpoint data.
    if let (Some(base_bpc), Some(cur_bpc)) = (base.mem_bytes_per_conn(), cur.mem_bytes_per_conn()) {
        if cur_bpc > MEM_FACTOR * base_bpc {
            out.violations.push(format!(
                "{ctx}: memory {cur_bpc:.1} bytes/conn vs baseline {base_bpc:.1} bytes/conn \
                 (limit {MEM_FACTOR}x)"
            ));
        }
    }
    if base.points.len() != cur.points.len() {
        out.violations.push(format!(
            "{ctx}: point count changed ({} -> {})",
            base.points.len(),
            cur.points.len()
        ));
        return;
    }
    for (bp, cp) in base.points.iter().zip(&cur.points) {
        if bp.rate != cp.rate {
            out.violations.push(format!(
                "{ctx}: rate grid changed ({} -> {})",
                bp.rate, cp.rate
            ));
            continue;
        }
        let at = format!("{ctx} rate {}", bp.rate);
        if rel_diff(cp.avg, bp.avg) > RATE_REL {
            out.violations.push(format!(
                "{at}: avg reply rate {:.1} drifted from baseline {:.1} (> {:.0}%)",
                cp.avg,
                bp.avg,
                RATE_REL * 100.0
            ));
        }
        if (cp.error_percent - bp.error_percent).abs() > ERR_ABS {
            out.violations.push(format!(
                "{at}: error rate {:.1}% drifted from baseline {:.1}% (> {ERR_ABS} points)",
                cp.error_percent, bp.error_percent
            ));
        }
        for (name, c, b) in [
            ("median latency", cp.median_ms, bp.median_ms),
            ("p90 latency", cp.p90_ms, bp.p90_ms),
        ] {
            let floored = c.max(b) >= LATENCY_FLOOR_MS;
            if floored && rel_diff(c, b) > LATENCY_REL {
                out.violations.push(format!(
                    "{at}: {name} {c:.2} ms drifted from baseline {b:.2} ms (> {:.0}%)",
                    LATENCY_REL * 100.0
                ));
            }
        }
        if bp.probe_digest != cp.probe_digest {
            let msg = format!(
                "{at}: probe digest {} differs from baseline {}",
                cp.probe_digest, bp.probe_digest
            );
            if strict_digest {
                out.violations.push(msg);
            } else {
                out.notes.push(msg);
            }
        }
    }
}

/// Mean of a point metric over a sweep (0.0 when empty).
fn sweep_mean(s: &SweepRecord, metric: impl Fn(&PointRecord) -> f64) -> f64 {
    if s.points.is_empty() {
        return 0.0;
    }
    s.points.iter().map(metric).sum::<f64>() / s.points.len() as f64
}

/// Renders a per-sweep baseline-vs-current lane diff as a GitHub
/// markdown table, followed by the gate's violations and notes. This is
/// what `bench_gate` appends to the CI job summary when the gate goes
/// red, so a failure shows *which* lane moved (reply rate, latency,
/// events/s) without downloading artifacts.
pub fn lane_diff_markdown(
    baseline: &BenchReport,
    current: &BenchReport,
    outcome: &GateOutcome,
) -> String {
    let mut out = String::from("## Bench gate: baseline vs current lanes\n\n");
    let _ = writeln!(
        out,
        "| sweep | load | replies/s (base → cur) | median ms (base → cur) | events/s (base → cur) | B/conn (base → cur) |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
    for b in &baseline.sweeps {
        let cur = current
            .sweeps
            .iter()
            .find(|s| s.server == b.server && s.inactive == b.inactive);
        let base_rate = sweep_mean(b, |p| p.avg);
        let base_lat = sweep_mean(b, |p| p.median_ms);
        let base_eps = b
            .events_per_wall_sec()
            .map_or("—".to_string(), |e| format!("{e:.0}"));
        let base_bpc = b
            .mem_bytes_per_conn()
            .map_or("—".to_string(), |m| format!("{m:.0}"));
        match cur {
            Some(c) => {
                let cur_eps = c
                    .events_per_wall_sec()
                    .map_or("—".to_string(), |e| format!("{e:.0}"));
                let cur_bpc = c
                    .mem_bytes_per_conn()
                    .map_or("—".to_string(), |m| format!("{m:.0}"));
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.1} → {:.1} | {:.2} → {:.2} | {} → {} | {} → {} |",
                    b.server,
                    b.inactive,
                    base_rate,
                    sweep_mean(c, |p| p.avg),
                    base_lat,
                    sweep_mean(c, |p| p.median_ms),
                    base_eps,
                    cur_eps,
                    base_bpc,
                    cur_bpc,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "| {} | {} | {base_rate:.1} → missing | {base_lat:.2} → missing | {base_eps} → missing | {base_bpc} → missing |",
                    b.server, b.inactive,
                );
            }
        }
    }
    if !outcome.violations.is_empty() {
        out.push_str("\n### Violations\n\n");
        for v in &outcome.violations {
            let _ = writeln!(out, "- ❌ {v}");
        }
    }
    if !outcome.notes.is_empty() {
        out.push_str("\n### Notes\n\n");
        for n in &outcome.notes {
            let _ = writeln!(out, "- {n}");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Minimal JSON parsing (the schema above only)
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are kept as `f64`; the schema never
/// stores integers above 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn field_f64(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(n) => Ok(*n),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    fn field_u64(&self, key: &str) -> Result<u64, String> {
        let n = self.field_f64(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("field {key:?} is not a non-negative integer: {n}"));
        }
        Ok(n as u64)
    }

    fn field_str(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }

    fn field_array(&self, key: &str) -> Result<&[Json], String> {
        match self.field(key)? {
            Json::Arr(items) => Ok(items),
            other => Err(format!("field {key:?} is not an array: {other:?}")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            want as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let ch_len = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            version: BENCH_VERSION,
            tool: "figures".into(),
            seed: 42,
            config: "deadbeefdeadbeef".into(),
            jobs: 4,
            total_wall_ms: 1234.5,
            sweeps: vec![SweepRecord {
                server: "poll".into(),
                inactive: 251,
                wall_ms: 600.25,
                events: 1_200_000,
                sim_ms: 90_000.0,
                mem_bytes: 1_048_576,
                eps_peak: 16_384,
                points: vec![PointRecord {
                    rate: 700.0,
                    avg: 699.5,
                    stddev: 2.25,
                    min: 690.0,
                    max: 705.0,
                    error_percent: 0.5,
                    median_ms: 13.75,
                    p90_ms: 21.5,
                    replies: 5960,
                    attempted: 6000,
                    probe_digest: "0123456789abcdef".into(),
                }],
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let report = sample_report();
        let parsed = BenchReport::from_json(&report.to_json()).expect("roundtrip parses");
        assert_eq!(parsed, report);
        // And the rendered form itself is a fixed point.
        assert_eq!(parsed.to_json(), report.to_json());
    }

    #[test]
    fn normalization_zeroes_only_volatile_fields() {
        let report = sample_report();
        let norm = report.normalized();
        assert_eq!(norm.total_wall_ms, 0.0);
        assert_eq!(norm.jobs, 0);
        assert_eq!(norm.sweeps[0].wall_ms, 0.0);
        assert_eq!(norm.sweeps[0].points, report.sweeps[0].points);
    }

    #[test]
    fn gate_green_on_identical_reports() {
        let report = sample_report();
        let outcome = compare(&report, &report, false);
        assert!(outcome.ok(), "{:?}", outcome.violations);
        assert!(outcome.notes.is_empty());
    }

    #[test]
    fn gate_red_on_rate_drift_and_missing_sweep() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.sweeps[0].points[0].avg *= 0.8; // 20% > 10% tolerance
        let outcome = compare(&base, &cur, false);
        assert_eq!(outcome.violations.len(), 1);
        assert!(outcome.violations[0].contains("avg reply rate"));

        let mut empty = base.clone();
        empty.sweeps.clear();
        let outcome = compare(&base, &empty, false);
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.contains("missing from current")));
    }

    #[test]
    fn gate_identity_mismatch_short_circuits() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.seed = 7;
        cur.sweeps[0].points[0].avg = 0.0; // would violate, but identity wins
        let outcome = compare(&base, &cur, false);
        assert_eq!(outcome.violations.len(), 1);
        assert!(outcome.violations[0].contains("seed mismatch"));
    }

    #[test]
    fn gate_digest_strictness() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.sweeps[0].points[0].probe_digest = "ffffffffffffffff".into();
        // Whole-process wall time is another machine's number: never gated.
        cur.total_wall_ms = base.total_wall_ms * 20.0;

        let outcome = compare(&base, &cur, false);
        assert!(outcome.ok());
        assert_eq!(outcome.notes.len(), 1);

        let outcome = compare(&base, &cur, true);
        assert_eq!(outcome.violations.len(), 1);
    }

    #[test]
    fn latency_floor_suppresses_submillisecond_jitter() {
        let base = sample_report();
        let mut cur = base.clone();
        // Both sides under the 1 ms floor: a 3x relative change is noise.
        let mut b2 = base.clone();
        b2.sweeps[0].points[0].median_ms = 0.2;
        b2.sweeps[0].points[0].p90_ms = 0.3;
        cur.sweeps[0].points[0].median_ms = 0.6;
        cur.sweeps[0].points[0].p90_ms = 0.9;
        assert!(compare(&b2, &cur, false).ok());
    }

    #[test]
    fn config_fingerprint_tracks_the_grid() {
        let quick = FigureConfig::quick();
        let full = FigureConfig::default();
        assert_ne!(config_fingerprint(&quick), config_fingerprint(&full));
        assert_eq!(config_fingerprint(&quick), config_fingerprint(&quick));
        let mut reseeded = FigureConfig::quick();
        reseeded.seed = 43;
        assert_ne!(config_fingerprint(&quick), config_fingerprint(&reseeded));
    }

    #[test]
    fn v1_and_v2_documents_are_rejected_with_the_refresh_recipe() {
        for old in [1, 2] {
            let mut doc = sample_report();
            doc.version = old;
            let err = BenchReport::from_json(&doc.to_json()).expect_err("old schema rejected");
            assert!(err.contains(&format!("bench_version {old}")), "{err}");
            assert!(err.contains("refresh"), "{err}");
        }
    }

    #[test]
    fn mem_lane_gates_beyond_the_factor() {
        let base = sample_report();
        let mut cur = base.clone();
        // Same peak connections, twice the bytes: a per-connection
        // memory regression.
        cur.sweeps[0].mem_bytes = base.sweeps[0].mem_bytes * 2;
        let outcome = compare(&base, &cur, false);
        assert_eq!(outcome.violations.len(), 1);
        assert!(outcome.violations[0].contains("bytes/conn"));

        // Growth within the 1.25x factor: green, and no note either.
        let mut mild = base.clone();
        mild.sweeps[0].mem_bytes = base.sweeps[0].mem_bytes + base.sweeps[0].mem_bytes / 10;
        let outcome = compare(&base, &mild, false);
        assert!(outcome.ok());
        assert!(outcome.notes.is_empty());
    }

    #[test]
    fn throughput_lane_gates_beyond_the_factor() {
        let base = sample_report();
        let mut cur = base.clone();
        // Same work, twice the wall time: a real throughput regression.
        cur.sweeps[0].wall_ms = base.sweeps[0].wall_ms * 2.0;
        let outcome = compare(&base, &cur, false);
        assert_eq!(outcome.violations.len(), 1);
        assert!(outcome.violations[0].contains("throughput"));

        // A slowdown within the 1.25x factor: green, and no note either.
        let mut mild = base.clone();
        mild.sweeps[0].wall_ms = base.sweeps[0].wall_ms * 1.2;
        let outcome = compare(&base, &mild, false);
        assert!(outcome.ok());
        assert!(outcome.notes.is_empty());
    }

    #[test]
    fn lane_diff_lists_every_sweep_and_failure() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.sweeps[0].points[0].avg *= 0.8;
        cur.sweeps[0].wall_ms = base.sweeps[0].wall_ms * 4.0;
        cur.sweeps.push(SweepRecord {
            server: "extra".into(),
            inactive: 1,
            wall_ms: 1.0,
            events: 10,
            sim_ms: 1.0,
            mem_bytes: 0,
            eps_peak: 0,
            points: vec![],
        });
        let outcome = compare(&base, &cur, false);
        assert!(!outcome.ok());
        let md = lane_diff_markdown(&base, &cur, &outcome);
        // One table row per baseline sweep, lanes rendered base → cur.
        assert!(md.contains("| poll | 251 |"));
        assert!(md.contains("699.5 → 559.6"));
        assert!(md.contains("### Violations"));
        assert!(md.contains("throughput"));
        assert!(md.contains("### Notes"));
        assert!(md.contains("absent from baseline"));

        // A sweep missing from the current report still gets a row.
        let empty = BenchReport {
            sweeps: vec![],
            ..base.clone()
        };
        let outcome = compare(&base, &empty, false);
        let md = lane_diff_markdown(&base, &empty, &outcome);
        assert!(md.contains("→ missing"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(BenchReport::from_json("{\"bench_version\": 999}").is_err());
    }
}
