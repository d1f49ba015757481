//! Metric values, the result line, and the order statistics the
//! workloads report.

use gpucmp_trace::Json;
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (campaign rows, kernel builds, client ops).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every correctness check that did not hold, in order. Empty means
    /// the run is correct.
    pub errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`,
    /// serialised with the trace crate's JSON writer.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_text()
    }
}

/// The end-to-end metrics, name and unit, that every untraced run of
/// every workload reports. `latency_ms` is the time one operation of the
/// workload takes: a quick-campaign pass, a pass over the kernel set, or
/// a served launch plus read.
pub const END_TO_END: [(&str, &str); 3] = [
    ("latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Workload names, in report order.
pub const WORKLOADS: &[&str] = &["campaign", "kernel-build", "serve-steady"];

const C: &[&str] = &["campaign"];
const K: &[&str] = &["kernel-build"];
const CK: &[&str] = &["campaign", "kernel-build"];
const S: &[&str] = &["serve-steady"];

/// The per-layer metrics every traced run reports: name, unit, and the
/// workloads that measure it. The benchmark times its own calls into
/// each crate, so a workload that makes no call into a layer reports 0
/// for that layer's metrics; the server's own compiler and simulator
/// work shows in `server.handle_ms`.
pub const PER_LAYER: &[(&str, &str, &[&str])] = &[
    ("sim.launch_ms", "ms", C),
    ("sim.exec_ms", "ms", C),
    ("sim.merge_ms", "ms", C),
    ("sim.minst_per_s", "Minst/s", C),
    ("sim.launches", "count", C),
    ("sim.warp_insts", "count", C),
    ("sim.lane_insts", "count", C),
    ("sim.gmem_insts", "count", C),
    ("sim.virtual_ms", "sim_ms", C),
    ("sim.decodes", "count", CK),
    ("sim.decode_ms", "ms", K),
    ("compiler.builds", "count", CK),
    ("compiler.build_ms", "ms", C),
    ("compiler.lower_ms", "ms", K),
    ("compiler.validate_ms", "ms", K),
    ("compiler.stats_ms", "ms", K),
    ("compiler.ptxas_ms", "ms", K),
    ("compiler.ptx_insts", "count", K),
    ("ptx.resolve_ms", "ms", K),
    ("ptx.hash_ms", "ms", K),
    ("runtime.context_ms", "ms", C),
    ("runtime.transfer_ms", "ms", C),
    ("runtime.sync_ms", "ms", C),
    ("benchmarks.host_ms", "ms", C),
    ("row.BFS.ms", "ms", C),
    ("row.Sobel.ms", "ms", C),
    ("row.TranP.ms", "ms", C),
    ("row.Reduce.ms", "ms", C),
    ("row.FFT.ms", "ms", C),
    ("row.MD.ms", "ms", C),
    ("row.SPMV.ms", "ms", C),
    ("row.St2D.ms", "ms", C),
    ("row.DXTC.ms", "ms", C),
    ("row.RdxS.ms", "ms", C),
    ("row.Scan.ms", "ms", C),
    ("row.STNW.ms", "ms", C),
    ("row.MxM.ms", "ms", C),
    ("row.FDTD.ms", "ms", C),
    ("row.MaxFlops.ms", "ms", C),
    ("row.DeviceMemory.ms", "ms", C),
    ("row.BFS-streams.ms", "ms", C),
    ("row.MxM-streams.ms", "ms", C),
    ("row.FDTD-streams.ms", "ms", C),
    ("row.AtomHist.ms", "ms", C),
    ("row.SharedRot.ms", "ms", C),
    ("kernel_build.campaign_ms", "ms", K),
    ("kernel_build.fuzz_ms", "ms", K),
    ("kernel_build.other_ms", "ms", K),
    ("server.launch_ms", "ms", S),
    ("server.read_ms", "ms", S),
    ("server.handle_ms", "ms", S),
    ("server.codec_ms", "ms", S),
    ("server.transport_ms", "ms", S),
    ("server.busy_rejections", "count", S),
    ("server.resets", "count", S),
    ("server.launches", "count", S),
    ("trace.ops", "count", WORKLOADS),
    ("trace.traced_ms", "ms", WORKLOADS),
    ("trace.untraced_ms", "ms", WORKLOADS),
    ("trace.overhead_pct", "%", WORKLOADS),
];

/// Bring `out`'s metrics to the manifest's list for `workload`: the
/// workload must report exactly the metrics listed for it, each in its
/// unit; per-layer metrics of layers it does not call are added as 0;
/// the order becomes the list's. A mismatch fails the run.
pub fn conform(out: &mut Outcome, workload: &str, trace: bool) {
    let table: Vec<(&str, &str, bool)> = if trace {
        PER_LAYER
            .iter()
            .map(|(n, u, on)| (*n, *u, on.contains(&workload)))
            .collect()
    } else {
        END_TO_END.iter().map(|(n, u)| (*n, *u, true)).collect()
    };
    let mut reported = std::mem::take(&mut out.metrics);
    for (name, unit, measured) in table {
        match reported.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = reported.remove(i);
                out.check(measured && m.unit == unit, || {
                    format!("{workload} reports {name} ({}) unlisted for it", m.unit)
                });
                out.metrics.push(m);
            }
            None => {
                out.check(!measured, || format!("{workload} did not report {name}"));
                out.push(name, unit, 0.0);
            }
        }
    }
    for m in reported {
        out.check(false, || {
            format!("{workload} reports {} off the list", m.name)
        });
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metric-name form of a benchmark row name: `+` is not allowed in a
/// name, so `BFS+streams` becomes `BFS-streams`.
pub fn row_name(bench: &str) -> String {
    bench.replace('+', "-")
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Tail percentiles a latency report may name, highest last.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Whether `n` samples leave at least ten beyond percentile `p`: the
/// rule for reporting a tail percentile at all.
pub fn tail_reportable(p: f64, n: usize) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Samples needed before percentile `p` may be reported.
pub fn samples_for(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples may
/// report, or `None` below ten samples beyond the median.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| tail_reportable(p, n))
}

/// Label of a percentile in a metric name: `99` → `p99`, `99.9` → `p99.9`.
pub fn tail_label(p: f64) -> String {
    format!("p{p}")
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units() {
        assert!(valid_name("campaign_s"));
        assert!(valid_name("row.BFS-streams.ms"));
        assert!(valid_name("server.busy_rejections"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("row.BFS+streams.ms"));
        assert!(!valid_name("two words"));
        assert_eq!(row_name("FDTD+streams"), "FDTD-streams");
        for u in ["ms", "s", "1/s", "count", "MB", "%", "Minst/s"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(&"x".repeat(17)));
    }

    /// The lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn lists_match_the_manifest() {
        let doc = gpucmp_trace::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            list("per_layer"),
            own(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect())
        );
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (name, unit, on) in PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name} ({unit})");
            assert!(on.iter().all(|w| WORKLOADS.contains(w)), "{name}");
        }
    }

    #[test]
    fn conform_fills_unmeasured_layers_and_rejects_strays() {
        let mut o = Outcome::default();
        o.push("server.codec_ms", "ms", 0.5);
        o.push("trace.ops", "count", 9.0);
        conform(&mut o, "serve-steady", true);
        assert!(!o.correct(), "serve-steady must report every server metric");
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, listed);
        let value = |n: &str| o.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("server.codec_ms"), 0.5);
        assert_eq!(value("sim.exec_ms"), 0.0);

        let mut o = Outcome::default();
        o.push("latency_ms", "ms", 1.0);
        o.push("setup_s", "s", 0.1);
        o.push("peak_rss_mb", "MB", 9.0);
        conform(&mut o, "campaign", false);
        assert!(o.correct(), "{:?}", o.errors);
        o.push("campaign_s", "s", 1.0);
        conform(&mut o, "campaign", false);
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.push("latency_ms", "s", 1.0);
        conform(&mut o, "campaign", false);
        assert_eq!(o.errors.len(), 3, "{:?}", o.errors);
    }

    #[test]
    fn percentile_rule() {
        // p99 needs ten samples beyond it: 1000 samples, not 999.
        assert_eq!(samples_for(99.0), 1000);
        assert!(!tail_reportable(99.0, 999));
        assert!(tail_reportable(99.0, 1000));
        assert_eq!(highest_tail(999), Some(95.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(1_000_000), Some(99.0));
        assert_eq!(highest_tail(40), Some(75.0));
        assert_eq!(highest_tail(19), None);
        assert_eq!(tail_label(99.0), "p99");
        assert_eq!(tail_label(75.0), "p75");
    }

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("latency_ms", "ms", 1.25);
        assert_eq!(
            o.result_line(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        o.check(false, || "broken".into());
        assert!(o.result_line().starts_with(r#"{"correct":false"#));
    }
}
