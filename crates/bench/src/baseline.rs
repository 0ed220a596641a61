//! The perf baseline: a versioned, machine-readable `BENCH.json`
//! emitted by every `figures` invocation, plus the comparator behind
//! the `bench_gate` binary.
//!
//! A report records, per sweep, the shape metrics the paper plots
//! (reply-rate summary, error percentage, latency quantiles), a stable
//! probe-snapshot digest per point, the sweep's simulation events,
//! simulated time and server memory, and the volatile wall-clock
//! fields. Everything but the wall clock is deterministic: the same
//! source gives the same numbers on any host, at any `--jobs`. So the
//! comparator checks a current report against the checked-in
//! `BENCH_BASELINE.json` by equality:
//!
//! * identity fields (tool, seed, config fingerprint) must match — a
//!   mismatch means the baseline needs an intentional refresh;
//! * both reports must hold the same sweeps, and every deterministic
//!   field of every sweep and point must be equal, probe digests
//!   included. Each difference is reported by sweep, rate and field.
//!
//! Wall time is recorded but never compared: speed is judged by a
//! same-machine A/B (the `perfbench` benchmark), not against a number
//! from another machine.
//!
//! No serde: the schema is small and closed, so emission is `format!`
//! and parsing is the minimal recursive-descent parser below.

use std::fmt::Write as _;

use crate::figures::FigureConfig;
use httperf::RunReport;
use simcore::fingerprint::Fnv;

/// Schema version stamped into every report.
///
/// v2 added per-sweep `events` (simulation events dispatched) and
/// `sim_ms` (summed simulated time). v3 added per-sweep `mem_bytes`
/// (peak server-side heap across the sweep's points) and `eps_peak`
/// (peak simultaneous kernel endpoints).
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

    /// Every field as `(name, JSON text)`, in schema order: what
    /// [`BenchReport::to_json`] writes and what [`compare`] checks.
    fn fields(&self) -> [(&'static str, String); 11] {
        [
            ("rate", self.rate.to_string()),
            ("avg", self.avg.to_string()),
            ("stddev", self.stddev.to_string()),
            ("min", self.min.to_string()),
            ("max", self.max.to_string()),
            ("error_percent", self.error_percent.to_string()),
            ("median_ms", self.median_ms.to_string()),
            ("p90_ms", self.p90_ms.to_string()),
            ("replies", self.replies.to_string()),
            ("attempted", self.attempted.to_string()),
            ("probe_digest", format!("\"{}\"", self.probe_digest)),
        ]
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

    /// The deterministic sweep-level fields as `(name, JSON text)`:
    /// everything but the identity and `wall_ms`.
    fn gated_fields(&self) -> [(&'static str, String); 4] {
        [
            ("events", self.events.to_string()),
            ("sim_ms", self.sim_ms.to_string()),
            ("mem_bytes", self.mem_bytes.to_string()),
            ("eps_peak", self.eps_peak.to_string()),
        ]
    }

    /// Simulation events dispatched per wall-clock second. `None`
    /// without wall data.
    pub fn events_per_wall_sec(&self) -> Option<f64> {
        (self.wall_ms > 0.0 && self.events > 0).then(|| self.events as f64 / (self.wall_ms / 1e3))
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
    /// The sweep with the same `(server, inactive)` as `like`.
    fn sweep(&self, like: &SweepRecord) -> Option<&SweepRecord> {
        self.sweeps
            .iter()
            .find(|s| s.server == like.server && s.inactive == like.inactive)
    }

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
            for (name, value) in s.gated_fields() {
                let _ = writeln!(out, "      \"{name}\": {value},");
            }
            let _ = writeln!(out, "      \"points\": [");
            for (j, p) in s.points.iter().enumerate() {
                let fields: Vec<String> = p
                    .fields()
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                let comma = if j + 1 < s.points.len() { "," } else { "" };
                let _ = writeln!(out, "        {{{}}}{comma}", fields.join(","));
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

// ---------------------------------------------------------------------
// Gate comparison
// ---------------------------------------------------------------------

/// How to fix an identity or schema mismatch against the baseline.
const REFRESH_HINT: &str = "refresh BENCH_BASELINE.json intentionally (see EXPERIMENTS.md)";

/// Compares a current report against the baseline and returns every
/// violation; an empty list is green. Identity (tool, seed, config) is
/// checked first, and a mismatch there is all that is reported.
/// Otherwise both reports must hold the same `(server, inactive)`
/// sweeps, and every deterministic field of every sweep and point must
/// be equal: the report's floats are written in round-trip form, so a
/// deterministic run reproduces them bit for bit. Only the wall-clock
/// fields and `jobs` are not compared.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Vec<String> {
    let identity = |r: &BenchReport| {
        [
            ("tool", r.tool.clone()),
            ("seed", r.seed.to_string()),
            ("config", r.config.clone()),
        ]
    };
    let mut out = Vec::new();
    diff_fields("identity", identity(baseline), identity(current), &mut out);
    if !out.is_empty() {
        // Identity mismatches make metric comparison meaningless.
        out.push(format!(
            "the reports ran different configurations: {REFRESH_HINT}"
        ));
        return out;
    }
    for base in &baseline.sweeps {
        match current.sweep(base) {
            Some(cur) => compare_sweep(base, cur, &mut out),
            None => out.push(format!(
                "{}/load {}: in the baseline but missing from the current report",
                base.server, base.inactive
            )),
        }
    }
    for cur in &current.sweeps {
        if baseline.sweep(cur).is_none() {
            out.push(format!(
                "{}/load {}: in the current report but absent from the baseline",
                cur.server, cur.inactive
            ));
        }
    }
    out
}

/// Pushes `at: field base -> cur` for every field whose text differs.
fn diff_fields<const N: usize>(
    at: &str,
    base: [(&str, String); N],
    cur: [(&str, String); N],
    out: &mut Vec<String>,
) {
    for ((field, b), (_, c)) in base.into_iter().zip(cur) {
        if b != c {
            out.push(format!("{at}: {field} {b} -> {c}"));
        }
    }
}

fn compare_sweep(base: &SweepRecord, cur: &SweepRecord, out: &mut Vec<String>) {
    let ctx = format!("{}/load {}", base.server, base.inactive);
    diff_fields(&ctx, base.gated_fields(), cur.gated_fields(), out);
    if base.points.len() != cur.points.len() {
        out.push(format!(
            "{ctx}: point count {} -> {}",
            base.points.len(),
            cur.points.len()
        ));
        return;
    }
    for (bp, cp) in base.points.iter().zip(&cur.points) {
        diff_fields(
            &format!("{ctx} rate {}", bp.rate),
            bp.fields(),
            cp.fields(),
            out,
        );
    }
}

// ---------------------------------------------------------------------
// Minimal JSON parsing (the schema above only)
// ---------------------------------------------------------------------

/// A parsed JSON value: the kinds the schema uses. Numbers are kept as
/// `f64`; the schema never stores integers above 2^53. Strings are
/// labels and hex digests, which [`BenchReport::to_json`] writes
/// without escapes, so the parser takes none.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    fn parse(text: &str) -> Result<Json, String> {
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
    fn field(&self, key: &str) -> Result<&Json, String> {
        let found = match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        };
        found.ok_or_else(|| format!("missing field {key:?}"))
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
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
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
    let start = *pos;
    let len = bytes[start..]
        .iter()
        .position(|&b| b == b'"')
        .ok_or("unterminated string")?;
    let text = std::str::from_utf8(&bytes[start..start + len]).map_err(|e| e.to_string())?;
    if text.contains('\\') {
        return Err(format!(
            "escape in string at byte {start}: not part of the schema"
        ));
    }
    *pos += len + 1;
    Ok(text.to_string())
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
                    // Not representable in few digits: must still
                    // round-trip exactly.
                    stddev: 0.1 + 0.2,
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
    fn gate_green_on_identical_deterministic_fields() {
        let report = sample_report();
        assert_eq!(compare(&report, &report), Vec::<String>::new());
        // Wall time and worker count are another machine's numbers:
        // never compared.
        let mut other_host = report.clone();
        other_host.total_wall_ms *= 20.0;
        other_host.jobs = 1;
        other_host.sweeps[0].wall_ms *= 3.0;
        assert_eq!(compare(&report, &other_host), Vec::<String>::new());
    }

    #[test]
    fn every_deterministic_field_is_gated_exactly() {
        let base = sample_report();
        type Edit = fn(&mut BenchReport);
        let cases: [(&str, Edit); 6] = [
            ("poll/load 251 rate 700: replies 5960 -> 5959", |r| {
                r.sweeps[0].points[0].replies -= 1
            }),
            ("poll/load 251: events 1200000 -> 1200001", |r| {
                r.sweeps[0].events += 1
            }),
            (
                "poll/load 251 rate 700: stddev 0.30000000000000004 -> 0.3",
                |r| r.sweeps[0].points[0].stddev = 0.3,
            ),
            ("poll/load 251 rate 700: median_ms 13.75 -> 17.875", |r| {
                r.sweeps[0].points[0].median_ms *= 1.3
            }),
            ("poll/load 251: mem_bytes 1048576 -> 1048577", |r| {
                r.sweeps[0].mem_bytes += 1
            }),
            (
                "poll/load 251 rate 700: probe_digest \"0123456789abcdef\" -> \"f\"",
                |r| r.sweeps[0].points[0].probe_digest = "f".into(),
            ),
        ];
        for (want, edit) in cases {
            let mut cur = base.clone();
            edit(&mut cur);
            assert_eq!(compare(&base, &cur), [want]);
        }
    }
    #[test]
    fn gate_red_on_rate_drift_and_sweep_set_changes() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.sweeps[0].points[0].avg *= 0.999;
        let violations = compare(&base, &cur);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("rate 700: avg 699.5 -> "));

        let mut empty = base.clone();
        empty.sweeps.clear();
        let violations = compare(&base, &empty);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("poll/load 251: in the baseline but missing"));
        let violations = compare(&empty, &base);
        assert!(violations[0].contains("poll/load 251: in the current report but absent"));
    }

    #[test]
    fn gate_identity_mismatch_short_circuits() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.seed = 7;
        cur.sweeps[0].points[0].avg = 0.0; // would violate, but identity wins
        let violations = compare(&base, &cur);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert_eq!(violations[0], "identity: seed 42 -> 7");
        assert!(violations[1].contains("refresh"));
    }

    #[test]
    fn config_fingerprint_tracks_the_grid() {
        let full = FigureConfig::default();
        assert_eq!(config_fingerprint(&full), config_fingerprint(&full));
        let fewer_conns = FigureConfig {
            conns: 8_000,
            ..FigureConfig::default()
        };
        let fewer_rates = FigureConfig {
            rates: vec![500.0, 700.0],
            ..FigureConfig::default()
        };
        let reseeded = FigureConfig {
            seed: 43,
            ..FigureConfig::default()
        };
        for other in [fewer_conns, fewer_rates, reseeded] {
            assert_ne!(config_fingerprint(&full), config_fingerprint(&other));
        }
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
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} extra").is_err());
        // The writer never escapes and never emits literals.
        assert!(Json::parse("\"a\\\"b\"").is_err());
        assert!(Json::parse("[true]").is_err());
        assert!(BenchReport::from_json("{\"bench_version\": 999}").is_err());
    }
}
