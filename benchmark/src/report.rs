//! What the benchmark reports: the registry of workloads and metrics (the
//! names later issues use), result rendering, `BENCHMARK.json`, and the
//! `compare` subcommand.

use crate::stats::Metric;
use std::fmt::Write;

/// `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "point_read",
        "65 536 keys, cache-resident, 95% get / 5% put: router + store overhead is a visible share of a get",
    ),
    (
        "write_batch",
        "1 M-key space half loaded (5x L2), zipf 0.99, put/delete/8-key apply/get: node copy, STM and hot-node aborts dominate",
    ),
    (
        "open_reshard",
        "open-loop batcher at R0/4..2 R0 (R0 = 15 000 ops/s) beside a range/snapshot-scan reader that drives live split/merge migrations",
    ),
    (
        "memdb_oltp",
        "sharded Table with two secondary indexes under an OLTP mix: every mutation is a 3-5-op cross-shard apply",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (untraced run). `get` is the
/// workload's point read and `put` its single-key or single-row write:
/// `LeapStore::get`/`put` on the key-value workloads, `LeapStore::get` /
/// `Batcher::try_put` service time on `open_reshard`, `Table::get` /
/// `Table::update_column` on `memdb_oltp`. `throughput_ops_s` counts the
/// closed-loop threads (on `open_reshard`, the reader).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("get_p50_ns", "ns", "lower", 0.25),
    e2e("put_p50_ns", "ns", "lower", 0.25),
    e2e("mem_bytes_per_key", "B", "lower", 0.10),
];

/// `(name, unit, better)`; the layer is the name's prefix. A workload
/// that does not exercise a metric reports 0 for it.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("stm.txn_ro_1r_ns", "ns", "lower"),
    ("stm.txn_1w_ns", "ns", "lower"),
    ("stm.commits", "count", "higher"),
    ("stm.ro_commits", "count", "higher"),
    ("stm.aborts_per_commit", "ratio", "lower"),
    ("stm.conflict_read_aborts", "count", "lower"),
    ("stm.conflict_commit_aborts", "count", "lower"),
    ("stm.timeouts", "count", "lower"),
    ("stm.prune_lag_end", "count", "lower"),
    ("ebr.pin_ns", "ns", "lower"),
    ("ebr.defer_ns", "ns", "lower"),
    ("ebr.rss_growth_mib", "MiB", "lower"),
    ("leaplist.lookup_ns", "ns", "lower"),
    ("leaplist.update_ns", "ns", "lower"),
    ("leaplist.remove_ns", "ns", "lower"),
    ("leaplist.apply8_ns", "ns", "lower"),
    ("leaplist.range200_ns", "ns", "lower"),
    ("leaplist.snapshot_page256_ns", "ns", "lower"),
    ("leaplist.bundle_depth_max", "count", "lower"),
    ("leaplist.node_fill", "ratio", "higher"),
    ("router.shard_of_ns", "ns", "lower"),
    ("router.shards_for_range_ns", "ns", "lower"),
    ("router.epoch_end", "count", "higher"),
    ("store.get_ns", "ns", "lower"),
    ("store.get_self_ns", "ns", "lower"),
    ("store.put_ns", "ns", "lower"),
    ("store.put_self_ns", "ns", "lower"),
    ("store.delete_ns", "ns", "lower"),
    ("store.apply8_ns", "ns", "lower"),
    ("store.apply8_self_ns", "ns", "lower"),
    ("store.range200_ns", "ns", "lower"),
    ("store.range_self_ns", "ns", "lower"),
    ("store.collision_batches", "count", "lower"),
    ("store.shard_ops_imbalance", "ratio", "lower"),
    ("store.get_scaling_2t", "ratio", "higher"),
    ("batcher.put_ns", "ns", "lower"),
    ("batcher.put_self_ns", "ns", "lower"),
    ("batcher.batches", "count", "higher"),
    ("batcher.avg_batch", "ratio", "higher"),
    ("batcher.max_batch", "count", "higher"),
    ("batcher.window_ns_end", "ns", "lower"),
    ("batcher.shed", "count", "lower"),
    ("cursor.page256_ns", "ns", "lower"),
    ("cursor.snapshot_page256_ns", "ns", "lower"),
    ("cursor.snapshot_page_self_ns", "ns", "lower"),
    ("cursor.pages", "count", "higher"),
    ("cursor.keys_per_page", "ratio", "higher"),
    ("cursor.snapshot_scans", "count", "higher"),
    ("rebalance.step_ns", "ns", "lower"),
    ("rebalance.keys_moved", "count", "higher"),
    ("rebalance.migrations_completed", "count", "higher"),
    ("rebalance.aborted_migrations", "count", "lower"),
    ("rebalance.peak_concurrent", "count", "higher"),
    ("memdb.get_ns", "ns", "lower"),
    ("memdb.get_self_ns", "ns", "lower"),
    ("memdb.insert_ns", "ns", "lower"),
    ("memdb.update_column_ns", "ns", "lower"),
    ("memdb.scan_by100_ns", "ns", "lower"),
    ("memdb.batch_parts_per_update", "ratio", "lower"),
    ("obs.get_cost_ns", "ns", "lower"),
    ("obs.put_cost_ns", "ns", "lower"),
    ("loadgen.late_start_ratio", "ratio", "lower"),
    ("loadgen.dropped_ops", "count", "lower"),
    ("loadgen.open_p50_ns_r1", "ns", "lower"),
    ("loadgen.open_p50_ns_r2", "ns", "lower"),
    ("loadgen.open_p50_ns_r3", "ns", "lower"),
    ("loadgen.open_p50_ns_r4", "ns", "lower"),
    ("loadgen.open_p90_ns", "ns", "lower"),
    ("loadgen.open_p99_ns_r1", "ns", "lower"),
    ("loadgen.open_p99_ns_r2", "ns", "lower"),
    ("loadgen.open_p99_ns_r3", "ns", "lower"),
    ("loadgen.open_p99_ns_r4", "ns", "lower"),
    ("loadgen.max_rate_in_slo_ops_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("op.get_p99_ns", "ns", "lower"),
    ("op.put_p99_ns", "ns", "lower"),
    ("op.batch8_p50_ns", "ns", "lower"),
    ("op.range_p50_ns", "ns", "lower"),
    ("op.snapshot_page_p50_ns", "ns", "lower"),
    ("op.scan_keys_per_s", "1/s", "higher"),
    ("op.index_scan_p50_ns", "ns", "lower"),
];

/// The driver measures each run for this many seconds.
pub const RUN_SECONDS: u64 = 25;

/// The result of one run of one workload in one mode.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub first_violation: Option<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Completes `metrics` to the traced or untraced name list of the
/// registry, in registry order: a per-layer metric the workload did not
/// produce reads 0.
pub fn complete(metrics: &[Metric], traced: bool) -> Vec<Metric> {
    let names: Vec<(&'static str, &'static str)> = if traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    debug_assert!(
        metrics.iter().all(|m| names.contains(&(m.name, m.unit))),
        "a reported metric is missing from the registry"
    );
    names
        .into_iter()
        .map(|(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: 0,
                })
        })
        .collect()
}

/// The one-line result object the driver reads.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with unit and sample count, for reading.
pub fn table(workload: &str, traced: bool, r: &RunResult) -> String {
    let mut out = format!(
        "== {workload} ({}) attempted={} failed={} failed_ops_ratio={}\n",
        if traced {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        },
        r.attempted,
        r.failed,
        number(r.failed as f64 / r.attempted.max(1) as f64),
    );
    for m in &r.metrics {
        let _ = writeln!(
            out,
            "{:<34} {:>16.3} {:<6} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// Where and on what a set of runs was made.
pub struct Meta {
    pub seed: u64,
    pub slices: usize,
    pub slice_s: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `meta` object every set file carries.
pub fn meta_json(meta: &Meta) -> Json {
    let or_unknown = |s: Option<String>| text(s.as_deref().unwrap_or("unknown"));
    let dirty = command_line("git", &["status", "--porcelain"]).is_none_or(|s| !s.is_empty());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        (
            "commit",
            or_unknown(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("dirty", Json::Bool(dirty)),
        ("rustc", or_unknown(command_line("rustc", &["--version"]))),
        ("host_cpu", text(&host_cpu())),
        ("cores", Json::Num(cores as f64)),
        ("seed", Json::Num(meta.seed as f64)),
        ("slices", Json::Num(meta.slices as f64)),
        ("slice_s", Json::Num(meta.slice_s)),
        ("R0", Json::Num(crate::open::R0)),
    ])
}

/// The section name of a mode in a set file.
pub fn section_name(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// One run's section of a set file: its counts, first violation, and
/// every metric with unit and sample count.
pub fn section_json(r: &RunResult) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let fields = vec![
                (
                    "value",
                    Json::Num(if m.value.is_finite() { m.value } else { 0.0 }),
                ),
                ("unit", text(m.unit)),
                ("samples", Json::Num(m.samples as f64)),
            ];
            (m.name.to_string(), object(fields))
        })
        .collect();
    object(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "first_violation",
            r.first_violation.as_deref().map_or(Json::Null, text),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The set file: `meta` and, per workload in order of first appearance,
/// its `end_to_end` and `per_layer` sections.
pub fn set_json(meta: Json, sections: Vec<(String, bool, Json)>) -> Json {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for (workload, traced, section) in sections {
        let at = workloads
            .iter()
            .position(|w| w.0 == workload)
            .unwrap_or_else(|| {
                workloads.push((workload, Json::Obj(Vec::new())));
                workloads.len() - 1
            });
        if let Json::Obj(fields) = &mut workloads[at].1 {
            fields.push((section_name(traced).to_string(), section));
        }
    }
    object(vec![("meta", meta), ("workloads", Json::Obj(workloads))])
}

/// `BENCHMARK.json`, from the registry.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{}\"}}", escape(why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// A parsed JSON value (what `compare` needs of it).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|f| f.0 == key).map(|f| &f.1),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Pretty-prints the value: one line per field, except that an object
    /// of scalars (one metric, the meta) stays on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
        let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&number(*n)),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { ", " });
                    item.render_into(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) if fields.iter().all(|f| scalar(&f.1)) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{}\"{}\": ", if i == 0 { "" } else { ", " }, escape(k));
                    v.render_into(out, depth);
                }
                out.push('}');
            }
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.render_into(out, depth + 1);
                    out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.space();
        if p.at != p.s.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        let Some(&c) = self.s.get(self.at) else {
            return Err("unexpected end of input".into());
        };
        match c {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                loop {
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.at));
                    }
                    fields.push((key, self.value()?));
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    items.push(self.value()?);
                }
            }
            b'"' => self.string().map(Json::Str),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let from = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[from..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {from}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.at) else {
                        return Err("unterminated escape".into());
                    };
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

fn metric_of(set: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .num()
}

/// Compares two set files: per workload and end-to-end metric, both
/// values, how much worse B is than A as a share of A, and the bound.
/// Returns the report and whether every pair is within its bound (and
/// `loadgen.max_rate_in_slo_ops_s` equal where both sets report it).
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>7}\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut ok = true;
    for (w, _) in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_of(a, w, "end_to_end", m.name),
                metric_of(b, w, "end_to_end", m.name),
            ) else {
                continue;
            };
            let worse = if m.better == "lower" {
                vb - va
            } else {
                va - vb
            } / va.abs().max(f64::MIN_POSITIVE);
            let over = worse > m.bound;
            ok &= !over;
            let _ = writeln!(
                out,
                "{w:<14} {:<20} {va:>16.3} {vb:>16.3} {:>8.1}% {:>6.0}%{}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if over { "  OVER" } else { "" }
            );
        }
        let rate = "loadgen.max_rate_in_slo_ops_s";
        if let (Some(va), Some(vb)) = (
            metric_of(a, w, "per_layer", rate),
            metric_of(b, w, "per_layer", rate),
        ) {
            if va != 0.0 || vb != 0.0 {
                let differs = va != vb;
                ok &= !differs;
                let _ = writeln!(
                    out,
                    "{w:<14} {rate:<20} {va:>16.0} {vb:>16.0} {:>9} {:>7}{}",
                    "",
                    "equal",
                    if differs { "  DIFFERS" } else { "" }
                );
            }
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(metrics: Vec<Metric>) -> RunResult {
        RunResult {
            attempted: 10,
            failed: 0,
            first_violation: None,
            metrics,
        }
    }

    fn metric(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            unit: "ns",
            samples: 3,
        }
    }

    #[test]
    fn names_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn benchmark_json_on_disk_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // Not `assert_eq!`: a mismatch would print both files.
        assert!(
            on_disk == benchmark_json(),
            "stale: regenerate with `describe > BENCHMARK.json`"
        );
        let parsed = Json::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = match &parsed {
            Json::Obj(f) => f.iter().map(|f| f.0.as_str()).collect(),
            _ => panic!("an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_exactly_the_contract_keys() {
        let r = result(complete(&[metric("get_p50_ns", 283.5)], false));
        let line = result_line(&r);
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|f| f.0.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("get_p50_ns")
                .unwrap()
                .get("value"),
            Some(&Json::Num(283.5))
        );
        // Traced: every per-layer name, zero where the workload has none.
        let traced = complete(&[metric("store.get_ns", 1.0)], true);
        assert_eq!(traced.len(), PER_LAYER.len());
        assert_eq!(traced.iter().filter(|m| m.value != 0.0).count(), 1);
    }

    #[test]
    fn a_violation_makes_the_result_incorrect() {
        let mut r = result(Vec::new());
        r.failed = 1;
        r.first_violation = Some("get(3) returned a \"value\" of key 4".into());
        assert!(!r.correct());
        assert!(
            result_line(&r).starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1")
        );
        let set = set_json(
            Json::Null,
            vec![("point_read".into(), false, section_json(&r))],
        );
        let set = Json::parse(&set.render()).unwrap();
        let section = set
            .get("workloads")
            .unwrap()
            .get("point_read")
            .unwrap()
            .get("end_to_end")
            .unwrap();
        assert_eq!(
            section.get("first_violation"),
            Some(&Json::Str("get(3) returned a \"value\" of key 4".into()))
        );
    }

    #[test]
    fn compare_flags_a_metric_past_its_bound_and_a_changed_rate() {
        let set = |get: f64, tput: f64, rate: f64| {
            let e2e = result(vec![
                metric("get_p50_ns", get),
                metric("throughput_ops_s", tput),
            ]);
            let layer = result(vec![metric("loadgen.max_rate_in_slo_ops_s", rate)]);
            let sections = vec![
                ("open_reshard".to_string(), false, section_json(&e2e)),
                ("open_reshard".to_string(), true, section_json(&layer)),
            ];
            set_json(Json::Null, sections)
        };
        let base = set(100.0, 1000.0, 30_000.0);
        assert!(compare(&base, &set(124.0, 760.0, 30_000.0)).1, "within 25%");
        assert!(
            compare(&base, &set(50.0, 2000.0, 30_000.0)).1,
            "better is fine"
        );
        let (report, ok) = compare(&base, &set(126.0, 1000.0, 30_000.0));
        assert!(!ok && report.contains("OVER"), "{report}");
        assert!(
            !compare(&base, &set(100.0, 740.0, 30_000.0)).1,
            "throughput fell 26%"
        );
        let (report, ok) = compare(&base, &set(100.0, 1000.0, 15_000.0));
        assert!(!ok && report.contains("DIFFERS"), "{report}");
    }

    #[test]
    fn parser_reads_what_the_emitters_write() {
        let v = Json::parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA"}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("b").unwrap().get("c"),
            Some(&Json::Str("x\"yA".into()))
        );
        assert_eq!(Json::parse(&v.render()).unwrap(), v, "render round-trips");
        let meta = meta_json(&Meta {
            seed: 7,
            slices: 30,
            slice_s: 0.5,
        });
        assert_eq!(meta.get("seed"), Some(&Json::Num(7.0)));
        assert_eq!(
            meta.render().lines().count(),
            1,
            "an object of scalars is one line"
        );
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
    }
}
