//! `zmsq-top` — a top(1)-style live terminal view of a running bench.
//!
//! Polls the `/snapshot.json` endpoint exposed by any harness binary
//! running with `--serve [addr]` (see [`bench::metrics::serve_from_args`])
//! and renders a refreshing dashboard: queue occupancy and pressure,
//! insert/extract throughput (computed as deltas between polls),
//! relaxation quality (`quality.est_rank` p99), shed ratio, sojourn-time
//! p50/p99 (`queue.sojourn_ns`) and the hottest lock sites by
//! accumulated wait time (`sync.wait_ns{site=…}`).
//!
//! Zero dependencies: raw `std::net::TcpStream` HTTP/1.0 GET plus the
//! `obs::json` parser via [`obs::Snapshot::from_json`].
//!
//! ```text
//! zmsq-top [--addr host:port] [--interval-ms N] [--iters N] [--raw]
//! ```
//!
//! `--iters 0` (default) polls until interrupted; `--raw` skips the
//! ANSI clear-screen so output can be piped or captured.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use bench::cli::Args;
use obs::Snapshot;

/// Minimal HTTP/1.0 GET against the introspection listener. Returns the
/// body on a 200, an error string otherwise.
fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut buf = String::new();
    stream
        .read_to_string(&mut buf)
        .map_err(|e| format!("read: {e}"))?;
    let split = buf.find("\r\n\r\n").ok_or("malformed HTTP response")?;
    let status = buf.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("HTTP error: {status}"));
    }
    Ok(buf[split + 4..].to_string())
}

/// `1234567` → `"1.23M"` — compact magnitude formatting for rates.
fn fmt_mag(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Nanoseconds → human-scale duration (`"1.2ms"`).
fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}us", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// All `(name, value)` entries whose dotted name ends with `suffix`
/// (snapshot names carry bench prefixes like `zmsq/` or
/// `overload.block.` that the dashboard must see through).
fn by_suffix<'a, T>(items: &'a [(String, T)], suffix: &str) -> Vec<(&'a str, &'a T)> {
    items
        .iter()
        .filter(|(n, _)| n.ends_with(suffix))
        .map(|(n, v)| (n.as_str(), v))
        .collect()
}

/// Sum of counter deltas for a suffix across prefixes, clamped at 0
/// (a new phase resets the namespace, which would go negative).
fn delta_sum(prev: &Snapshot, cur: &Snapshot, suffix: &str) -> u64 {
    let mut total = 0u64;
    for (name, v) in by_suffix(&cur.counters, suffix) {
        let before = prev
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| *b)
            .unwrap_or(0);
        total += v.saturating_sub(before);
    }
    total
}

/// Render one frame of the dashboard from consecutive snapshots taken
/// `dt` apart. Pure (no I/O) so it is unit-testable.
fn render(prev: &Snapshot, cur: &Snapshot, dt: Duration) -> String {
    let mut out = String::new();
    let bin = cur
        .meta
        .iter()
        .find(|(k, _)| k == "bin")
        .map(|(_, v)| v.as_str())
        .unwrap_or("?");
    let secs = dt.as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "zmsq-top — bin={bin}  interval={:.1}s\n\n",
        dt.as_secs_f64()
    ));

    // Throughput: per-second deltas of the queue op counters.
    let ins = delta_sum(prev, cur, "zmsq.inserts");
    let ext = delta_sum(prev, cur, "zmsq.extracts");
    out.push_str(&format!(
        "  throughput   insert {:>8}/s   extract {:>8}/s\n",
        fmt_mag(ins as f64 / secs),
        fmt_mag(ext as f64 / secs)
    ));

    // Occupancy / backpressure gauges.
    for (name, occ) in by_suffix(&cur.gauges, "queue.pressure.occupancy") {
        let cap = cur
            .gauges
            .iter()
            .find(|(n, _)| *n == name.replace(".occupancy", ".capacity"))
            .map(|(_, v)| *v);
        match cap {
            Some(c) if c > 0 => out.push_str(&format!(
                "  occupancy    {occ}/{c} ({:.0}%)  [{name}]\n",
                100.0 * *occ as f64 / c as f64
            )),
            _ => out.push_str(&format!("  occupancy    {occ}  [{name}]\n")),
        }
    }
    for (name, len) in by_suffix(&cur.gauges, "zmsq.len_hint") {
        out.push_str(&format!("  len_hint     {len}  [{name}]\n"));
    }
    for (name, bufs) in by_suffix(&cur.gauges, "zmsq.pool.buffers") {
        out.push_str(&format!("  pool_bufs    {bufs}  [{name}]\n"));
    }

    // Shed ratio: dropped arrivals over total arrivals, cumulative.
    let shed = {
        let rejected: u64 = by_suffix(&cur.counters, "queue.shed.rejected")
            .iter()
            .map(|(_, v)| **v)
            .sum();
        let evicted: u64 = by_suffix(&cur.counters, "queue.shed.evicted")
            .iter()
            .map(|(_, v)| **v)
            .sum();
        let admitted: u64 = by_suffix(&cur.counters, "zmsq.inserts")
            .iter()
            .map(|(_, v)| **v)
            .sum();
        let arrivals = admitted + rejected;
        (arrivals > 0).then(|| (rejected + evicted) as f64 / arrivals as f64)
    };
    if let Some(r) = shed {
        out.push_str(&format!("  shed_ratio   {:.4}\n", r));
    }

    // Relaxation quality and sojourn tails.
    for (name, h) in by_suffix(&cur.hists, "quality.est_rank") {
        if h.count > 0 {
            out.push_str(&format!(
                "  est_rank     p50 {:>6}  p99 {:>6}  (n={})  [{name}]\n",
                h.quantile(0.50),
                h.quantile(0.99),
                h.count
            ));
        }
    }
    for (name, h) in by_suffix(&cur.hists, "queue.sojourn_ns") {
        if h.count > 0 {
            out.push_str(&format!(
                "  sojourn      p50 {:>9}  p99 {:>9}  (n={})  [{name}]\n",
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.99)),
                h.count
            ));
        }
    }

    // Hottest lock sites by accumulated wait time.
    let mut sites: Vec<(&str, u64, u64)> = cur
        .hists
        .iter()
        .filter(|(n, _)| n.contains("sync.wait_ns{site="))
        .map(|(n, h)| {
            let site = n
                .rsplit_once("{site=")
                .map(|(_, s)| s.trim_end_matches('}'))
                .unwrap_or(n);
            (site, h.sum, h.count)
        })
        .filter(|(_, sum, _)| *sum > 0)
        .collect();
    sites.sort_by_key(|s| std::cmp::Reverse(s.1));
    if !sites.is_empty() {
        out.push_str("\n  lock sites (by total wait)\n");
        for (site, sum, count) in sites.iter().take(5) {
            out.push_str(&format!(
                "    {site:<16} waited {:>9} across {count} acquisitions\n",
                fmt_ns(*sum)
            ));
        }
    }
    out
}

fn main() {
    let args = Args::parse(&["addr", "interval-ms", "iters", "raw"]);
    let addr = args.get("addr", "127.0.0.1:9898");
    let interval = Duration::from_millis(args.get_num("interval-ms", 1000u64));
    let iters: u64 = args.get_num("iters", 0);
    let raw = args.get_bool("raw");
    let timeout = Duration::from_secs(5);

    let fetch = || -> Result<Snapshot, String> {
        let body = http_get(&addr, "/snapshot.json", timeout)?;
        Snapshot::from_json(&body)
    };

    let mut prev = match fetch() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("zmsq-top: {e}");
            eprintln!("(is a bench running with --serve {addr}?)");
            std::process::exit(1);
        }
    };
    let mut done = 0u64;
    loop {
        std::thread::sleep(interval);
        let cur = match fetch() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("zmsq-top: {e} — bench finished?");
                std::process::exit(0);
            }
        };
        let frame = render(&prev, &cur, interval);
        if raw {
            println!("{frame}");
        } else {
            // Clear screen + home, then the frame.
            print!("\x1b[2J\x1b[H{frame}");
            let _ = std::io::stdout().flush();
        }
        prev = cur;
        done += 1;
        if iters > 0 && done >= iters {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(inserts: u64) -> Snapshot {
        let mut s = Snapshot::new();
        s.push_meta("bin", "unit");
        s.push_counter("zmsq/zmsq.inserts", inserts);
        s.push_counter("zmsq/zmsq.extracts", inserts / 2);
        s.push_counter("zmsq/queue.shed.rejected", inserts / 10);
        s.push_counter("zmsq/queue.shed.evicted", 0);
        s.push_gauge("zmsq/queue.pressure.occupancy", 50);
        s.push_gauge("zmsq/queue.pressure.capacity", 100);
        s.push_gauge("zmsq/zmsq.pool.buffers", 2);
        let h = obs::Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        s.push_hist("zmsq/quality.est_rank", &h);
        s.push_hist("zmsq/queue.sojourn_ns", &h);
        s.push_hist("sync.wait_ns{site=zmsq.root}", &h);
        s
    }

    #[test]
    fn render_shows_throughput_quality_and_sites() {
        let frame = render(&snap(1000), &snap(3000), Duration::from_secs(1));
        assert!(frame.contains("bin=unit"), "{frame}");
        // 2000 inserts / 1000 extracts over 1s.
        assert!(frame.contains("2.0k/s"), "{frame}");
        assert!(frame.contains("1.0k/s"), "{frame}");
        assert!(frame.contains("occupancy    50/100 (50%)"), "{frame}");
        assert!(frame.contains("pool_bufs    2"), "{frame}");
        assert!(frame.contains("est_rank"), "{frame}");
        assert!(frame.contains("sojourn"), "{frame}");
        assert!(frame.contains("zmsq.root"), "{frame}");
        // shed ratio = 300 / (3000 + 300)
        assert!(frame.contains("shed_ratio   0.0909"), "{frame}");
    }

    #[test]
    fn render_survives_counter_reset_and_empty_snapshot() {
        // Phase change: counters go backwards — deltas clamp at zero.
        let frame = render(&snap(3000), &snap(1000), Duration::from_secs(1));
        assert!(frame.contains("       0/s"), "{frame}");
        // A bare snapshot renders the header only, without panicking.
        let empty = render(&Snapshot::new(), &Snapshot::new(), Duration::from_secs(1));
        assert!(empty.contains("zmsq-top"), "{empty}");
    }

    #[test]
    fn magnitude_and_duration_formatting() {
        assert_eq!(fmt_mag(2_000.0), "2.0k");
        assert_eq!(fmt_mag(1_230_000.0), "1.23M");
        assert_eq!(fmt_mag(7.0), "7");
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
