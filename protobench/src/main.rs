//! Benchmark of the paper's unit of work, the Fig. 2 cross-network
//! transfer, against the stock STL/SWT testbed at the program's defaults.
//!
//! ```text
//! protobench --workload query|trade|tcp --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! times the public calls into each layer and prints the per-layer ledger.
//! The last line of standard output is one JSON object; a human-readable
//! summary goes to standard error. The exit code is non-zero when any
//! check on the program's outputs fails. See README.md.

mod bed;
mod layers;
mod spans;

use bed::{check_bl, check_trade_bl, height, ledger_bytes, Bed, TradeInput};
use spans::quantile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tdt_relay::chaos::SplitMix64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loops of steps 1-9 over the in-process bus.
    Query,
    /// Closed loops of complete Fig. 3 trades (steps 1-10 inside).
    Trade,
    /// The `query` loop across loopback TCP relays.
    Tcp,
}

/// Closed-loop clients, one per vCPU, each with a testbed of its own.
/// Two clients' submits must not meet on one network:
/// `FabricNetwork::endorse` can read one STL peer before and another after
/// a concurrent block delivery, and `IssueBillOfLading` records the
/// endorsing peer's ledger height, so the two endorsements diverge.
const CLIENTS: usize = 2;

/// Set-ups per run: one before the timed phase, the rest after it;
/// `setup_s` is their median.
const SETUPS: usize = 5;

/// Operations the timed phase finishes before `peak_rss_mb` is read, so
/// that the figure rests on a fixed amount of work whatever the
/// throughput. The timed phase lasts until the run length has passed and
/// this many operations have finished.
fn rss_after_ops(workload: Workload) -> u64 {
    match workload {
        Workload::Query | Workload::Tcp => 1000,
        Workload::Trade => 48,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "query" => Workload::Query,
                    "trade" => Workload::Trade,
                    "tcp" => Workload::Tcp,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What the timed phase produced.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Per completed operation, in ms.
    latency: Vec<f64>,
    /// Steps 1-10 inside each trade, in ms (trade only).
    transfer: Vec<f64>,
    /// Latency of the traced and the untraced operations of a traced run.
    traced: Vec<f64>,
    untraced: Vec<f64>,
    /// Off-path CMDAC `ValidateProof` times, in ms (traced trade only).
    validate: Vec<f64>,
    /// (client, PO, uploaded B/L) of every completed trade.
    trades: Vec<(usize, String, Vec<u8>)>,
    /// Length of the timed phase, to the end of its last operation.
    elapsed: Duration,
    /// `VmHWM` once [`rss_after_ops`] operations had finished, in MiB.
    peak_rss_mb: f64,
    /// Check failures on the outputs of operations that completed.
    wrong: Vec<String>,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    fn record(&mut self, traced: bool, ms: f64) {
        self.latency.push(ms);
        if traced {
            self.traced.push(ms);
        } else {
            self.untraced.push(ms);
        }
    }

    /// Adds another client's share of the same timed phase.
    fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency.extend(other.latency);
        self.transfer.extend(other.transfer);
        self.traced.extend(other.traced);
        self.untraced.extend(other.untraced);
        self.validate.extend(other.validate);
        self.trades.extend(other.trades);
        self.wrong.extend(other.wrong);
    }

    fn fail(&mut self, error: String) {
        if self.failed < 5 {
            eprintln!("protobench: operation failed: {error}");
        }
        self.failed += 1;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A traced run traces every other operation, so the untraced ones in
/// between measure what the tracing costs under the same conditions.
fn traced_op(args: &Args, index: usize) -> Option<u64> {
    (args.trace && index.is_multiple_of(2)).then_some(index as u64)
}

/// Runs the [`CLIENTS`] closed-loop clients through the timed phase.
/// `op` runs operation `index` on the client's bed with its PRNG and
/// records it; the operation indices of client `c` are `c`,
/// `c + CLIENTS`, ...
fn closed_loop(
    beds: &[Bed],
    args: &Args,
    op: impl Fn(&Bed, usize, &mut SplitMix64, &mut Phase) + Sync,
) -> Result<Phase, String> {
    let limit = Duration::from_secs(args.seconds);
    let rss_at = rss_after_ops(args.workload);
    let finished = AtomicU64::new(0);
    let rss = OnceLock::new();
    let start = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let threads: Vec<_> = beds
            .iter()
            .enumerate()
            .map(|(client, bed)| {
                let (op, finished, rss) = (&op, &finished, &rss);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(args.seed.wrapping_add(client as u64));
                    let mut phase = Phase::default();
                    while start.elapsed() < limit || finished.load(Ordering::Relaxed) < rss_at {
                        let index = phase.attempted as usize * CLIENTS + client;
                        phase.attempted += 1;
                        op(bed, index, &mut rng, &mut phase);
                        if finished.fetch_add(1, Ordering::Relaxed) + 1 == rss_at {
                            rss.get_or_init(peak_rss_mib);
                        }
                    }
                    phase
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for part in parts {
        phase.absorb(part);
    }
    phase.elapsed = start.elapsed();
    phase.peak_rss_mb = rss.into_inner().ok_or("peak RSS was never read")??;
    Ok(phase)
}

fn query_loop(beds: &[Bed], args: &Args) -> Result<Phase, String> {
    closed_loop(beds, args, |bed, index, rng, phase| {
        let po = bed.pick(rng);
        let traced = traced_op(args, index);
        let started = Instant::now();
        let result = match traced {
            Some(op) => bed.traced_query(op, po),
            None => bed.query(po),
        };
        let took = started.elapsed();
        match result {
            Ok(remote) => {
                phase.record(traced.is_some(), ms(took));
                if let Err(e) = check_bl(&remote, po) {
                    phase.wrong.push(e);
                }
            }
            Err(e) => phase.fail(e),
        }
    })
}

fn trade_loop(beds: &[Bed], args: &Args) -> Result<Phase, String> {
    closed_loop(beds, args, |bed, index, rng, phase| {
        let input = TradeInput::draw(rng, args.seed, index);
        let traced = traced_op(args, index);
        let started = Instant::now();
        let result = match traced {
            Some(op) => bed.traced_trade(op, &input).map(|(bl, took, validate)| {
                phase.validate.push(ms(validate));
                (bl, took)
            }),
            None => bed.trade(&input).map(|(bl, transfer)| {
                phase.transfer.push(ms(transfer));
                (bl, started.elapsed())
            }),
        };
        match result {
            Ok((bl, took)) => {
                phase.record(traced.is_some(), ms(took));
                if let Err(e) = check_trade_bl(&bl, &input) {
                    phase.wrong.push(e);
                }
                phase.trades.push((index % CLIENTS, input.po, bl));
            }
            Err(e) => phase.fail(e),
        }
    })
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`,
/// whose tick is fixed at 1/100 s by the Linux ABI.
fn cpu_time() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let after_name = stat.rsplit_once(')').ok_or("unreadable /proc/self/stat")?.1;
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat field {i}"))
    };
    // utime and stime are fields 14 and 15; field 3 follows the name.
    Ok(Duration::from_millis((tick(11)? + tick(12)?) * 10))
}

/// Peak resident set size in MiB, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Span name -> per-layer ledger row. Every span the benchmark records is
/// listed, so every nanosecond of a traced operation lands in one row.
const LAYER_ROWS: &[(&str, &str)] = &[
    ("client.sign", "client.sign_ms"),
    ("relay.query", "relay.dest_self_ms"),
    ("transport.send", "relay.source_self_ms"),
    ("driver.execute", "driver.execute_ms"),
    ("proof.verify", "proof.verify_ms"),
    ("fabric.propose", "fabric.propose_ms"),
    ("stl.endorse", "stl.endorse_ms"),
    ("stl.order", "stl.order_ms"),
    ("swt.endorse", "swt.endorse_ms"),
    ("swt.order", "swt.order_ms"),
    ("dac.endorse", "dac.endorse_ms"),
    ("dac.order", "dac.order_ms"),
    ("query", "query.unattributed_ms"),
    ("trade", "step10.unattributed_ms"),
    ("transfer", "step10.unattributed_ms"),
    ("stl.submit", "step10.unattributed_ms"),
    ("swt.submit", "step10.unattributed_ms"),
    ("dac.submit", "step10.unattributed_ms"),
];

fn row_of(span: &str) -> &'static str {
    LAYER_ROWS
        .iter()
        .find(|(name, _)| *name == span)
        .map(|(_, row)| *row)
        .unwrap_or_else(|| panic!("span {span:?} has no ledger row"))
}

/// The metrics of one run, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn end_to_end(
    args: &Args,
    setup_s: f64,
    phase: &Phase,
    cpu: Duration,
    wire_bytes: u64,
    ledger_bytes_per_op: f64,
) -> Metrics {
    let n = phase.completed() as f64;
    let transfer = if args.workload == Workload::Trade {
        &phase.transfer
    } else {
        &phase.latency
    };
    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.add("ops_per_s", n / phase.elapsed.as_secs_f64(), "1/s");
    m.add("p50_ms", quantile(&phase.latency, 0.5), "ms");
    m.add("p95_ms", quantile(&phase.latency, 0.95), "ms");
    m.add("transfer_p50_ms", quantile(transfer, 0.5), "ms");
    m.add("transfer_p95_ms", quantile(transfer, 0.95), "ms");
    m.add("cpu_ms_per_op", ms(cpu) / n, "ms");
    m.add("peak_rss_mb", phase.peak_rss_mb, "MiB");
    m.add("wire_bytes_per_op", wire_bytes as f64 / n, "B");
    m.add("ledger_bytes_per_op", ledger_bytes_per_op, "B");
    m
}

fn per_layer(
    phase: &Phase,
    spans: &[spans::Span],
    blocks: u64,
    wrong: &mut Vec<String>,
) -> Metrics {
    let ledgers = spans::ledger(spans, row_of);
    for l in &ledgers {
        let sum: u64 = l.rows.values().sum();
        if sum != l.total_ns {
            wrong.push(format!(
                "traced operation {}: rows add up to {sum} ns of {} ns",
                l.op, l.total_ns
            ));
        }
    }
    // Rows shared by several span names are adjacent in `LAYER_ROWS`.
    let mut rows: Vec<&'static str> = LAYER_ROWS.iter().map(|(_, row)| *row).collect();
    rows.dedup();
    let n = phase.completed() as f64;
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { quantile(v, 0.5) };
    let mut m = Metrics::default();
    for row in rows {
        let per_op: Vec<f64> = ledgers
            .iter()
            .map(|l| l.rows.get(row).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        m.add(row, median_or_zero(&per_op), "ms");
    }
    m.add("dac.validate_ms", median_or_zero(&phase.validate), "ms");
    m.add("fabric.blocks_per_op", blocks as f64 / n, "count");
    let sends = spans.iter().filter(|s| s.name == "transport.send").count();
    m.add(
        "relay.envelopes_per_op",
        sends as f64 / ledgers.len() as f64,
        "count",
    );
    m.add(
        "trace.overhead_ms",
        quantile(&phase.traced, 0.5) - quantile(&phase.untraced, 0.5),
        "ms",
    );
    m
}

/// Builds every client's bed at once, each on its own thread, and
/// returns them with the set-up time in seconds. Only the first client's
/// bed is traced: the two beds' clients issue the same request ids.
fn set_up(args: &Args) -> Result<(Vec<Bed>, f64), String> {
    let started = Instant::now();
    let beds = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let traced = args.trace && client == 0;
                scope.spawn(move || Bed::build(args.workload, args.seed, traced))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .map_err(|_| "a set-up thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((beds, started.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<bool, String> {
    let (beds, first_setup) = set_up(args)?;
    spans::drain();
    let heights: Vec<(u64, u64)> = beds
        .iter()
        .map(|bed| (height(&bed.t.stl), height(&bed.t.swt)))
        .collect();
    let wire_bytes = || beds.iter().map(|bed| bed.wire.bytes()).sum::<u64>();
    let bytes0 = wire_bytes();
    let cpu0 = cpu_time()?;
    let mut phase = match args.workload {
        Workload::Query | Workload::Tcp => query_loop(&beds, args)?,
        Workload::Trade => trade_loop(&beds, args)?,
    };
    let cpu = cpu_time()? - cpu0;
    let bytes1 = wire_bytes();
    let spans = spans::drain();

    // Checks on what the timed phase left behind, bed by bed.
    let mut blocks = 0;
    let mut ledger = 0;
    let mut wrong = std::mem::take(&mut phase.wrong);
    for (client, (bed, before)) in beds.iter().zip(&heights).enumerate() {
        let grown = (height(&bed.t.stl) - before.0, height(&bed.t.swt) - before.1);
        let trades: Vec<(String, Vec<u8>)> = phase
            .trades
            .iter()
            .filter(|(c, _, _)| *c == client)
            .map(|(_, po, bl)| (po.clone(), bl.clone()))
            .collect();
        let n = trades.len() as u64;
        let expected = (
            bed::STL_SUBMITS_PER_TRADE * n,
            bed::SWT_SUBMITS_PER_TRADE * n,
        );
        if grown != expected {
            wrong.push(format!(
                "bed {client}: heights grew by {grown:?} (STL, SWT), expected {expected:?}"
            ));
        }
        blocks += grown.0 + grown.1;
        ledger += ledger_bytes(&bed.t.stl, before.0, before.0 + grown.0)?
            + ledger_bytes(&bed.t.swt, before.1, before.1 + grown.1)?;
        for check in [
            bed::check_paid(bed, &trades),
            bed::check_ledgers(bed),
            bed::check_rejections(bed),
        ] {
            if let Err(e) = check {
                wrong.push(format!("bed {client}: {e}"));
            }
        }
    }
    // The query workloads append nothing; theirs is the size of the
    // blocks behind one B/L of the pools they read.
    let ledger_bytes_per_op = match args.workload {
        Workload::Trade => ledger as f64 / phase.trades.len().max(1) as f64,
        Workload::Query | Workload::Tcp => {
            let bytes: u64 = beds.iter().map(|bed| bed.pool_ledger_bytes).sum();
            let bls: usize = beds.iter().map(|bed| bed.pool.len()).sum();
            bytes as f64 / bls as f64
        }
    };
    for bed in beds {
        bed.shutdown();
    }

    // The other set-ups run after the timed phase, so the median samples
    // the host on both sides of it.
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        let (beds, took) = set_up(args)?;
        for bed in beds {
            bed.shutdown();
        }
        setups.push(took);
    }
    let setup_s = quantile(&setups, 0.5);

    if phase.completed() == 0 {
        return Err("no operation completed".into());
    }
    let beyond_p95 = phase.completed() / 20;
    if !args.trace && beyond_p95 < 10 {
        eprintln!("protobench: only {beyond_p95} samples lie beyond p95; lengthen the run");
    }
    let metrics = if args.trace {
        per_layer(&phase, &spans, blocks, &mut wrong)
    } else {
        end_to_end(
            args,
            setup_s,
            &phase,
            cpu,
            bytes1 - bytes0,
            ledger_bytes_per_op,
        )
    };
    let traced_p50 = quantile(&phase.traced, 0.5);
    for (name, value, unit) in &metrics.0 {
        if args.trace && LAYER_ROWS.iter().any(|(_, row)| row == name) {
            let share = 100.0 * value / traced_p50;
            eprintln!("  {name:<24} {value:>14.4} {unit:<5} {share:>5.1}% of the traced p50");
        } else {
            eprintln!("  {name:<24} {value:>14.4} {unit}");
        }
        if !value.is_finite() {
            wrong.push(format!("{name} is {value}"));
        }
    }
    for w in wrong.iter().take(5) {
        eprintln!("protobench: check failed: {w}");
    }
    let correct = wrong.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        phase.attempted,
        phase.failed,
        metrics.json()
    );
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("protobench: {e}");
            2
        }
    };
    std::process::exit(code);
}
