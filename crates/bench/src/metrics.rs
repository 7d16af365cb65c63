//! `--metrics` plumbing: merge queue-level and substrate-level `obs`
//! snapshots and write them as per-run `results/*.metrics.json` files.
//!
//! Harness binaries opt in with `MetricsOut::from_args(&args, "bin")`;
//! the criterion-shaped harness attaches automatically when the
//! `OBS_METRICS_JSON` environment variable names an output path (see
//! [`crate::harness::flush_metrics`]).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::cli::Args;

/// Destination of one run's metrics JSON document.
pub struct MetricsOut {
    path: PathBuf,
}

impl MetricsOut {
    /// `Some` when `--metrics` was passed. Bare `--metrics` writes to
    /// `results/<bin>.metrics.json`; `--metrics path.json` overrides
    /// the destination.
    pub fn from_args(args: &Args, bin: &str) -> Option<Self> {
        let v = args.get_opt("metrics")?;
        let path = if v == "true" || v == "1" {
            PathBuf::from(format!("results/{bin}.metrics.json"))
        } else {
            PathBuf::from(v)
        };
        Some(Self { path })
    }

    /// Explicit destination.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// Where the document will be written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stamp standard metadata, append the always-on substrate counters,
    /// and write the document, creating parent directories. The path is
    /// printed to **stderr** so stdout stays CSV-clean.
    pub fn write(
        &self,
        mut snap: obs::Snapshot,
        bin: &str,
        args_line: &str,
    ) -> std::io::Result<()> {
        snap.push_meta("bin", bin);
        snap.push_meta("args", args_line);
        snap.merge(substrate_snapshot());
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(&self.path, snap.to_json())?;
        eprintln!("metrics: wrote {}", self.path.display());
        Ok(())
    }
}

/// Derive the `<prefix>est_rank_p99` summary entry from the
/// queue-exported `<prefix>quality.est_rank` histogram, when present
/// (i.e. the queue ran a `RankEstimator`). The perf gate
/// (`scripts/compare_bench.py`) tracks this key across runs to catch
/// relaxation-quality regressions, so every bench that records a queue
/// snapshot should call this after `merge_prefixed`.
pub fn push_rank_summary(snap: &mut obs::Snapshot, prefix: &str) {
    let p99 = snap
        .hist(&format!("{prefix}quality.est_rank"))
        .filter(|h| h.count > 0)
        .map(|h| h.quantile(0.99) as f64);
    if let Some(p99) = p99 {
        snap.push_summary(&format!("{prefix}est_rank_p99"), p99);
    }
}

/// `--trace [path]` plumbing: dump the merged flight-recorder rings as
/// Chrome `trace_event` JSON. Bare `--trace` writes to
/// `results/<bin>.trace.json`. Without the `obs-trace` feature the
/// rings are empty, so the flag warns instead of writing a vacuous
/// file.
pub fn export_trace(args: &Args, bin: &str) {
    let Some(v) = args.get_opt("trace") else {
        return;
    };
    let path = if v == "true" || v == "1" {
        format!("results/{bin}.trace.json")
    } else {
        v.to_string()
    };
    if !obs::TRACE_ENABLED {
        eprintln!("trace: built without the obs-trace feature; rebuild with --features obs-trace");
        return;
    }
    match obs::trace::export_chrome_to_file(Path::new(&path)) {
        Ok(()) => eprintln!("trace: wrote {path}"),
        Err(e) => eprintln!("trace: write failed: {e}"),
    }
}

type LiveFn = Arc<dyn Fn() -> obs::Snapshot + Send + Sync>;

/// The bench-specific half of the live snapshot: a closure the harness
/// swaps in as it moves between queues/phases so `--serve` scrapes see
/// the *currently running* workload, not a stale one.
static LIVE_SOURCE: Mutex<Option<LiveFn>> = Mutex::new(None);

/// Register (or replace) the bench-specific live-snapshot source. The
/// closure runs on the exporter's handler thread, so it must only read
/// concurrently-safe state (queue `metrics()`, `Arc`'d histograms, …).
pub fn set_live_source<F: Fn() -> obs::Snapshot + Send + Sync + 'static>(f: F) {
    *LIVE_SOURCE.lock().unwrap() = Some(Arc::new(f));
}

/// Drop the bench-specific source (e.g. between phases, while the
/// queue it captured is being torn down). Scrapes still see the global
/// registry, substrate counters and retained series.
pub fn clear_live_source() {
    *LIVE_SOURCE.lock().unwrap() = None;
}

/// One consistent live snapshot for `/metrics` and `/snapshot.json`:
/// the global `obs` registry, the always-on sync/SMR substrate
/// counters, whatever [`set_live_source`] currently provides, and the
/// fixed-memory retention tiers (`obs::retain`).
pub fn live_snapshot() -> obs::Snapshot {
    let mut s = obs::global().snapshot();
    s.merge(substrate_snapshot());
    let src = LIVE_SOURCE.lock().unwrap().clone();
    if let Some(f) = src {
        s.merge(f());
    }
    obs::retain::collect_into(&mut s);
    s
}

/// `--serve [addr]` plumbing: start the zero-dep introspection
/// listener ([`obs::serve`]) backed by [`live_snapshot`]. Bare
/// `--serve` binds `127.0.0.1:9898`; `--serve 127.0.0.1:0` picks an
/// ephemeral port. The **bound** address is printed to stderr (stdout
/// stays CSV-clean) so scripts can scrape `:0` binds. Keep the
/// returned guard alive for the duration of the run; a failed bind
/// warns and returns `None` rather than aborting the bench.
pub fn serve_from_args(args: &Args, bin: &str) -> Option<obs::MetricsServer> {
    let v = args.get_opt("serve")?;
    let addr = if v == "true" || v == "1" {
        "127.0.0.1:9898"
    } else {
        v
    };
    let bin = bin.to_string();
    match obs::serve(addr, move || {
        let mut s = live_snapshot();
        s.push_meta("bin", &bin);
        s
    }) {
        Ok(server) => {
            eprintln!(
                "serve: listening on http://{}/  (endpoints: /metrics /snapshot.json /healthz)",
                server.local_addr()
            );
            Some(server)
        }
        Err(e) => {
            eprintln!("serve: bind {addr} failed: {e}");
            None
        }
    }
}

/// The always-on process-wide counters of the instrumented crates:
/// futex / event-buffer / trylock (`zmsq-sync`) and hazard-pointer / EBR
/// reclamation (`smr`). Names arrive pre-prefixed (`futex.*`, `event.*`,
/// `trylock.*`, `hp.*`, `ebr.*`).
pub fn substrate_snapshot() -> obs::Snapshot {
    let mut s = obs::Snapshot::new();
    s.merge(zmsq_sync::obs::snapshot());
    s.merge(smr::obs::snapshot());
    s
}

/// The process argv (minus the binary name), for the `args` metadata key.
pub fn argv_line() -> String {
    std::env::args().skip(1).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse_from(
            &["metrics", "serve"],
            s.split_whitespace().map(String::from),
        )
        .unwrap()
    }

    #[test]
    fn from_args_resolves_paths() {
        assert!(MetricsOut::from_args(&args(""), "x").is_none());
        let bare = MetricsOut::from_args(&args("--metrics"), "ops_latency").unwrap();
        assert_eq!(bare.path(), Path::new("results/ops_latency.metrics.json"));
        let explicit = MetricsOut::from_args(&args("--metrics target/t.json"), "x").unwrap();
        assert_eq!(explicit.path(), Path::new("target/t.json"));
    }

    #[test]
    fn push_rank_summary_requires_quality_hist() {
        let mut s = obs::Snapshot::new();
        push_rank_summary(&mut s, "q/");
        assert!(s.summary("q/est_rank_p99").is_none());
        let h = obs::Histogram::new();
        for r in [0u64, 0, 64, 128] {
            h.record(r);
        }
        s.push_hist("q/quality.est_rank", &h);
        push_rank_summary(&mut s, "q/");
        assert!(s.summary("q/est_rank_p99").unwrap() >= 64.0);
    }

    #[test]
    fn substrate_snapshot_exports_sync_and_smr_counters() {
        let s = substrate_snapshot();
        for key in [
            "futex.waits",
            "event.waits",
            "trylock.attempts",
            "hp.retired",
            "ebr.pins",
        ] {
            assert!(s.counter(key).is_some(), "missing substrate counter {key}");
        }
    }

    #[test]
    fn live_snapshot_merges_source_substrate_and_retention() {
        set_live_source(|| {
            let mut s = obs::Snapshot::new();
            s.push_gauge("live.test.gauge", 42);
            s
        });
        let s = live_snapshot();
        assert_eq!(s.gauge("live.test.gauge"), Some(42));
        assert!(s.counter("trylock.attempts").is_some(), "substrate missing");
        clear_live_source();
        assert!(live_snapshot().gauge("live.test.gauge").is_none());
    }

    #[test]
    fn serve_from_args_binds_and_reports_ephemeral_port() {
        assert!(serve_from_args(&args(""), "unit").is_none());
        let server = serve_from_args(&args("--serve 127.0.0.1:0"), "unit").expect("bind");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "ephemeral port must be resolved");
        // The served body must carry the bin meta stamped by the wrapper.
        use std::io::{Read as _, Write as _};
        let mut c = std::net::TcpStream::connect(addr).unwrap();
        write!(c, "GET /snapshot.json HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        c.read_to_string(&mut body).unwrap();
        assert!(body.contains("\"bin\""), "{body}");
        server.stop();
    }

    #[test]
    fn write_produces_parseable_json_with_stable_keys() {
        let out = MetricsOut::at("target/bench-metrics-test.json");
        let mut snap = obs::Snapshot::new();
        snap.push_counter("test.ops", 7);
        out.write(snap, "unit-test", "--quick").unwrap();
        let body = std::fs::read_to_string(out.path()).unwrap();
        let v = obs::json::parse(&body).expect("metrics JSON must parse");
        for key in [
            "meta",
            "counters",
            "gauges",
            "ratios",
            "histograms",
            "series",
        ] {
            assert!(v.get(key).is_some(), "missing top-level key {key}");
        }
        assert_eq!(
            v.get("counters").unwrap().get("test.ops").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            v.get("meta").unwrap().get("bin"),
            Some(&obs::json::Value::Str("unit-test".into()))
        );
        // Substrate counters ride along on every write.
        assert!(v.get("counters").unwrap().get("futex.waits").is_some());
        let _ = std::fs::remove_file(out.path());
    }
}
