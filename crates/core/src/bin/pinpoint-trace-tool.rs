//! `pinpoint-trace-tool` — analyze an exported memory-behavior trace.
//!
//! ```text
//! pinpoint-trace-tool summary   trace.{json|ptrc}
//! pinpoint-trace-tool report    trace.{json|ptrc} [--min-ati-ms N] [--min-size-mb N] [--max N] [--json]
//!                               [--timing] [--trace-out FILE]
//! pinpoint-trace-tool ati       trace.{json|ptrc}
//! pinpoint-trace-tool outliers  trace.{json|ptrc} [--min-ati-ms N] [--min-size-mb N]
//! pinpoint-trace-tool breakdown trace.{json|ptrc}
//! pinpoint-trace-tool gantt     trace.{json|ptrc} [--max N]
//! pinpoint-trace-tool ops       trace.{json|ptrc} [--top N]
//! pinpoint-trace-tool plan      trace.{json|ptrc}
//! pinpoint-trace-tool compare   a.{json|ptrc} b.{json|ptrc}
//! pinpoint-trace-tool convert   in.{json|ptrc} out.{ptrc|json}
//!                               (ptrc -> ptrc upgrades old stores to v3)
//! pinpoint-trace-tool info      trace.ptrc [--verify]
//! pinpoint-trace-tool scrub     in.ptrc out.ptrc
//! pinpoint-trace-tool query     trace.ptrc [--t0-us N] [--t1-us N]
//!                               [--block-min N] [--block-max N] [--kind K]...
//!                               [--category C]... [--min-size-bytes N]
//!                               [--op-label NAME|ID] [--max N] [--json]
//!                               [--timing] [--trace-out FILE]
//! pinpoint-trace-tool serve     --catalog DIR [--addr HOST:PORT] [--cache-bytes N]
//!                               [--result-cache-bytes N] [--keepalive N]
//!                               [--threads N] [--queue N] [--shutdown-token TOK]
//!                               [--io-timeout-ms N] [--request-deadline-ms N]
//!                               [--drain-deadline-ms N] [--breaker-threshold N]
//!                               [--breaker-cooldown N] [--breaker-seed N]
//!                               [--chaos-token TOK]
//! ```
//!
//! Input format is sniffed from the file's magic bytes, so every analysis
//! subcommand accepts either an exported JSON trace or a `.ptrc` store.
//! `convert` flips whichever format it is given into the other — or, given
//! a `.ptrc` on both sides, rewrites an old store in the current v3 format
//! (adaptive column encodings, finer zone maps); `info`
//! prints a store's chunk-index statistics and its compression ratio
//! against JSON (`--verify` additionally checks every chunk's CRC and
//! decode, exiting nonzero on damage); `query` runs a chunk-pruning
//! filtered event dump; `scrub` salvages a damaged store into a fresh,
//! fully intact one, dropping only chunks whose bytes are beyond repair.
//!
//! `report` runs **all five** analysis passes (ATI, peak, breakdown,
//! Gantt, outliers) over a single scan of the trace — each chunk of a
//! `.ptrc` store is decoded exactly once and each event folded once into
//! the one report fold's block table and peak sweep; the breakdown and
//! outliers are derived from their results. `ati`, `gantt` and `outliers`
//! print one part of that same report; `breakdown` runs the peak fold
//! alone, which skips chunks of pure accesses. Each runs straight off a
//! store, never materializing the full trace, or over a JSON trace in
//! memory cut into the same chunks, printing byte-identical output either
//! way.
//!
//! `--threads N` (or `PINPOINT_THREADS`) sets the worker-thread count for
//! parallel work (`compare` loads and validates both traces concurrently;
//! `query` and the fused engine decode surviving chunks in parallel;
//! `serve` sizes its worker pool with it); output never depends on the
//! thread count.
//!
//! `report --json` and `query --json` print the same deterministic JSON
//! the `serve` daemon returns for `POST /stores/{name}/report` and
//! `POST /stores/{name}/query` — byte-identical on the same store, which
//! is what the serve smoke tests assert. `serve` hosts a directory of
//! `.ptrc` stores over HTTP with a shared decoded-chunk cache and
//! admission control; stop it with the token-gated `POST /shutdown`.
//!
//! `report` and `query` accept two self-observability flags backed by
//! the in-process tracer (`pinpoint-obs`): `--timing` prints a stage
//! breakdown table (span name, count, total time) to **stderr** after
//! the normal output — stderr because stage durations are wall-clock
//! and therefore not byte-deterministic, while stdout stays so — and
//! `--trace-out FILE` writes the full span tree as Chrome
//! `trace_event` JSON, loadable in Perfetto or `chrome://tracing`.
//!
//! Produce a trace with `pinpoint_trace::export::write_json` or stream one
//! straight to disk with `pinpoint_store::StoreWriter` (the
//! `mlp_case_study` example writes a CSV twin next to it).

use pinpoint_analysis::{
    detect, diff_traces, op_stats, plan, query_json, report_json, run, violin_sorted, AtiDataset,
    BreakdownRow, GanttRect, OutlierCriteria, OutlierReport, PeakFold, TraceReport,
};
use pinpoint_core::report::{human_bytes, human_time, render_trace_report};
use pinpoint_device::TransferModel;
use pinpoint_store::{
    parse_category, parse_kind, ChunkSource, EventSource, Predicate, ReadPolicy, StoreError,
    StoreReader, StoreWriter,
};
use pinpoint_trace::export::read_json;
use pinpoint_trace::{Trace, TraceSink};
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::process::ExitCode;

fn flag_value(args: &[String], name: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn flag_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_strings<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Self-observability flags shared by `report` and `query`.
struct ObsFlags {
    timing: bool,
    trace_out: Option<String>,
}

/// Parses `--timing` / `--trace-out FILE` and, when either is present,
/// arms the in-process tracer (cleared first so the snapshot holds only
/// this command's spans).
fn obs_flags(args: &[String]) -> ObsFlags {
    let flags = ObsFlags {
        timing: args.iter().any(|a| a == "--timing"),
        trace_out: flag_str(args, "--trace-out").map(String::from),
    };
    if flags.timing || flags.trace_out.is_some() {
        let t = pinpoint_obs::tracer();
        t.clear();
        t.set_enabled(true);
    }
    flags
}

/// After the command ran: prints the `--timing` stage table (to stderr —
/// durations are wall-clock, so stdout stays byte-deterministic) and
/// writes the `--trace-out` Chrome trace JSON.
fn obs_finish(flags: &ObsFlags) -> Result<(), String> {
    if !flags.timing && flags.trace_out.is_none() {
        return Ok(());
    }
    let snap = pinpoint_obs::tracer().snapshot();
    if flags.timing {
        eprintln!("{:<16} {:>8} {:>12}", "stage", "count", "total");
        for (name, count, total_ns) in snap.totals_by_name() {
            eprintln!("{name:<16} {count:>8} {:>12}", human_time(total_ns));
        }
    }
    if let Some(path) = &flags.trace_out {
        std::fs::write(path, snap.to_chrome_json())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!(
            "wrote {} span(s) to {path} (Chrome trace_event JSON)",
            snap.len()
        );
    }
    Ok(())
}

/// Whether the file starts with the `.ptrc` magic bytes. A file too
/// short to hold them is not a store.
fn is_store(path: &str) -> Result<bool, String> {
    let mut f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut magic = [0u8; 4];
    match f.read_exact(&mut magic) {
        Ok(()) => Ok(&magic == pinpoint_store::MAGIC),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(format!("cannot read {path}: {e}")),
    }
}

fn load(path: &str) -> Result<Trace, String> {
    let trace = if is_store(path)? {
        StoreReader::open(path)
            .and_then(|r| r.read_trace())
            .map_err(|e| format!("cannot read store {path}: {e}"))?
    } else {
        let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        read_json(f).map_err(|e| format!("cannot parse {path}: {e}"))?
    };
    trace
        .validate()
        .map_err(|e| format!("{path} is not a well-formed trace: {e}"))?;
    Ok(trace)
}

fn open_store(path: &str) -> Result<StoreReader, String> {
    if !is_store(path)? {
        return Err(format!("{path} is not a .ptrc store (run `convert` first)"));
    }
    StoreReader::open(path).map_err(|e| format!("cannot read store {path}: {e}"))
}

fn outlier_flags(args: &[String]) -> (f64, f64, OutlierCriteria) {
    let min_ati_ms = flag_value(args, "--min-ati-ms").unwrap_or(800.0);
    let min_size_mb = flag_value(args, "--min-size-mb").unwrap_or(600.0);
    let criteria = OutlierCriteria {
        min_ati_ns: (min_ati_ms * 1e6) as u64,
        min_size_bytes: (min_size_mb * 1e6) as usize,
    };
    (min_ati_ms, min_size_mb, criteria)
}

fn print_ati(atis: &AtiDataset) {
    if atis.is_empty() {
        println!("no access intervals in this trace");
        return;
    }
    let cdf = atis.cdf();
    println!("{} intervals; CDF:", cdf.len());
    for (v, p) in cdf.summary_rows(10) {
        println!("  p{:<4.0} {:>12}", p * 100.0, human_time(v));
    }
    let samples: Vec<f64> = atis
        .sorted_intervals_ns()
        .iter()
        .map(|&v| v as f64)
        .collect();
    if let Some(vi) = violin_sorted(&samples, 64) {
        println!(
            "violin: median {} IQR [{}, {}]",
            human_time(vi.median as u64),
            human_time(vi.q1 as u64),
            human_time(vi.q3 as u64)
        );
    }
}

fn print_outliers(report: &OutlierReport, min_ati_ms: f64, min_size_mb: f64) {
    let tm = TransferModel::titan_x_pascal_pinned();
    println!(
        "{} of {} behaviors above (ATI {min_ati_ms} ms, size {min_size_mb} MB):",
        report.outliers.len(),
        report.total_behaviors
    );
    for o in report.outliers.iter().take(20) {
        let bound = tm.max_swap_bytes(o.interval_ns);
        println!(
            "  {} ATI {} size {} -> Eq1 {}",
            o.block,
            human_time(o.interval_ns),
            human_bytes(o.size as u64),
            if (o.size as f64) <= bound {
                "swappable"
            } else {
                "not swappable"
            }
        );
    }
}

fn print_breakdown(row: &BreakdownRow) {
    let (i, p, m) = row.fractions();
    println!("peak {}", human_bytes(row.peak_bytes));
    println!("  input data:           {:>6.1}%", i * 100.0);
    println!("  parameters:           {:>6.1}%", p * 100.0);
    println!("  intermediate results: {:>6.1}%", m * 100.0);
}

fn print_gantt(rects: &[GanttRect], max: usize) {
    println!(
        "{:>12} {:>12} {:>12} {:>12}  kind",
        "t0", "t1", "offset", "size"
    );
    for r in rects.iter().take(max) {
        println!(
            "{:>12} {:>12} {:>12} {:>12}  {}",
            human_time(r.t0_ns),
            human_time(r.t1_ns),
            r.offset,
            human_bytes(r.size as u64),
            r.mem_kind
        );
    }
    if rects.len() > max {
        println!("... {} more blocks", rects.len() - max);
    }
}

/// Runs `f` over the chunks of `path`: straight off a `.ptrc` store (one
/// decode per surviving chunk, no materialized trace), or over a JSON
/// trace loaded into memory and cut into the same chunks, so the same
/// analysis prints the same bytes either way.
fn over_chunks<T>(
    path: &str,
    f: impl FnOnce(&dyn ChunkSource) -> Result<T, StoreError>,
) -> Result<T, String> {
    if is_store(path)? {
        f(&open_store(path)?).map_err(|e| format!("cannot analyze store {path}: {e}"))
    } else {
        Ok(f(&EventSource::new(load(path)?.events()))
            .expect("in-memory chunks never fail to fetch"))
    }
}

/// The analysis subcommands that run as folds, over either input format:
/// `breakdown` is one peak fold run, and `ati`, `gantt`, `outliers` and
/// `report` each print from one [`TraceReport`].
fn cmd_analysis(cmd: &str, path: &str, args: &[String]) -> Result<(), String> {
    let obs = obs_flags(args);
    let max = flag_value(args, "--max").unwrap_or(30.0) as usize;
    let (min_ati_ms, min_size_mb, criteria) = outlier_flags(args);
    let threads = pinpoint_core::parallel::configured_threads();
    if cmd == "breakdown" {
        let (peak, _) = over_chunks(path, |s| run(&PeakFold, s, threads))?;
        print_breakdown(&BreakdownRow::from_peak(path, &peak));
        return obs_finish(&obs);
    }
    let d = over_chunks(path, |s| TraceReport::from_store(s, criteria, threads))?;
    match cmd {
        "ati" => print_ati(&d.ati),
        "gantt" => print_gantt(&d.gantt, max),
        "outliers" => print_outliers(&d.outliers, min_ati_ms, min_size_mb),
        // `report`
        _ if args.iter().any(|a| a == "--json") => println!("{}", report_json(&d, max)),
        _ => print!("{}", render_trace_report(&d, max)),
    }
    obs_finish(&obs)
}

fn cmd_convert(input: &str, output: &str) -> Result<(), String> {
    if is_store(input)? {
        let reader = open_store(input)?;
        if output.ends_with(".ptrc") {
            // store -> store: format upgrade (e.g. a v1/v2 file rewritten
            // as v3 with adaptive column encodings and fine zone maps)
            let from_version = reader.version();
            let from_len = reader.file_len();
            let trace = reader
                .read_trace()
                .map_err(|e| format!("cannot read store {input}: {e}"))?;
            let bytes = pinpoint_store::write_store_file(&trace, output)
                .map_err(|e| format!("cannot write {output}: {e}"))?;
            println!(
                "{input} (v{from_version}) -> {output} (v{}): {} events, {} -> {} ({:.2}x smaller)",
                pinpoint_store::VERSION,
                trace.len(),
                human_bytes(from_len),
                human_bytes(bytes),
                from_len as f64 / bytes.max(1) as f64,
            );
            return Ok(());
        }
        let trace = reader
            .read_trace()
            .map_err(|e| format!("cannot read store {input}: {e}"))?;
        let out = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
        pinpoint_trace::export::write_json(&trace, std::io::BufWriter::new(out))
            .map_err(|e| format!("cannot write {output}: {e}"))?;
        println!(
            "{input} -> {output}: {} events, {} -> {}",
            trace.len(),
            human_bytes(reader.file_len()),
            human_bytes(std::fs::metadata(output).map(|m| m.len()).unwrap_or(0)),
        );
    } else {
        let trace = load(input)?;
        let bytes = pinpoint_store::write_store_file(&trace, output)
            .map_err(|e| format!("cannot write {output}: {e}"))?;
        let json_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
        println!(
            "{input} -> {output}: {} events, {} -> {} ({:.1}x smaller)",
            trace.len(),
            human_bytes(json_bytes),
            human_bytes(bytes),
            json_bytes as f64 / bytes.max(1) as f64,
        );
    }
    Ok(())
}

fn cmd_scrub(input: &str, output: &str) -> Result<(), String> {
    if !is_store(input)? {
        return Err(format!("{input} is not a .ptrc store"));
    }
    let reader = StoreReader::open_with_policy(input, ReadPolicy::Salvage)
        .map_err(|e| format!("cannot open store {input}: {e}"))?;
    if let Some(s) = reader.salvage_summary() {
        println!(
            "index rebuilt by rescan ({}): recovered {} chunks / {} events{}",
            s.reason,
            s.chunks_recovered,
            s.events_recovered,
            if s.markers_lost {
                "; markers lost with the footer"
            } else {
                ""
            }
        );
    }
    let mut writer =
        StoreWriter::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    let stats = reader
        .scrub_into(&mut writer)
        .map_err(|e| format!("scrub of {input} failed: {e}"))?;
    writer
        .finish()
        .map_err(|e| format!("cannot finish {output}: {e}"))?;
    println!(
        "{input} -> {output}: kept {}/{} chunks, {} events ({} chunks / {} events dropped)",
        stats.chunks_kept,
        stats.chunks_total,
        stats.events_kept,
        stats.chunks_skipped,
        stats.events_lost
    );
    if let Some(e) = &stats.first_error {
        println!("first damage: {e}");
    }
    Ok(())
}

/// `info --verify`: full-store integrity check, `Err` (nonzero exit) on
/// any damage so scripts can gate on it.
fn verify_store(path: &str) -> Result<(), String> {
    let reader = StoreReader::open_with_policy(path, ReadPolicy::Salvage)
        .map_err(|e| format!("cannot open store {path}: {e}"))?;
    let rescued = reader.salvage_summary().map(|s| s.reason.clone());
    let faults = reader
        .verify_chunks()
        .map_err(|e| format!("cannot verify {path}: {e}"))?;
    for f in &faults {
        println!(
            "chunk {}: CORRUPT ({}) — {} events lost",
            f.chunk, f.error, f.events_lost
        );
    }
    match (rescued, faults.is_empty()) {
        (None, true) => {
            println!(
                "verify: all {} chunks intact ({} events)",
                reader.num_chunks(),
                reader.total_events()
            );
            Ok(())
        }
        (Some(reason), _) => Err(format!(
            "footer damaged ({reason}); `scrub` can rebuild the store from the {} surviving chunks",
            reader.num_chunks()
        )),
        (None, false) => Err(format!(
            "{} corrupt chunk(s); `scrub` can rebuild the store from the rest",
            faults.len()
        )),
    }
}

fn cmd_info(path: &str, verify: bool) -> Result<(), String> {
    if verify {
        return verify_store(path);
    }
    let reader = open_store(path)?;
    let footer = reader.footer().clone();
    let file_len = reader.file_len();
    let data_bytes: u64 = footer.chunks.iter().map(|c| c.byte_len).sum();
    println!(
        "{path}: {} events in {} chunks, {} labels, {} markers",
        footer.total_events,
        footer.chunks.len(),
        footer.labels.len(),
        footer.markers.len()
    );
    println!(
        "file {} = data {} + index/footer {}",
        human_bytes(file_len),
        human_bytes(data_bytes),
        human_bytes(file_len - data_bytes)
    );
    if let (Some(first), Some(last)) = (footer.chunks.first(), footer.chunks.last()) {
        println!(
            "time span {} .. {}; {:.0} events/chunk, {:.2} bytes/event",
            human_time(first.min_time_ns),
            human_time(last.max_time_ns),
            footer.total_events as f64 / footer.chunks.len() as f64,
            data_bytes as f64 / footer.total_events.max(1) as f64
        );
    }
    let trace = reader
        .read_trace()
        .map_err(|e| format!("cannot read store {path}: {e}"))?;
    let json_len = pinpoint_trace::export::json_string(&trace).len() as u64;
    println!(
        "JSON equivalent {} -> {:.1}x smaller",
        human_bytes(json_len),
        json_len as f64 / file_len.max(1) as f64
    );
    Ok(())
}

fn cmd_query(path: &str, args: &[String]) -> Result<(), String> {
    let obs = obs_flags(args);
    let reader = open_store(path)?;
    let mut pred = Predicate::any();
    let t0 = flag_value(args, "--t0-us");
    let t1 = flag_value(args, "--t1-us");
    if t0.is_some() || t1.is_some() {
        let lo = (t0.unwrap_or(0.0) * 1e3) as u64;
        let hi = t1.map_or(u64::MAX, |v| (v * 1e3) as u64);
        pred = pred.with_time_range(lo, hi);
    }
    let b0 = flag_value(args, "--block-min");
    let b1 = flag_value(args, "--block-max");
    if b0.is_some() || b1.is_some() {
        pred = pred.with_block_range(b0.unwrap_or(0.0) as u64, b1.map_or(u64::MAX, |v| v as u64));
    }
    for k in flag_strings(args, "--kind") {
        pred = pred.with_kind(parse_kind(k)?);
    }
    for c in flag_strings(args, "--category") {
        pred = pred.with_category(parse_category(c)?);
    }
    if let Some(s) = flag_value(args, "--min-size-bytes") {
        pred = pred.with_min_size(s as u64);
    }
    if let Some(op) = flag_strings(args, "--op-label").first() {
        // a label is resolved by name against the footer's interned
        // table, or taken as a raw label id when it parses as a number
        let id = match reader.footer().labels.iter().position(|l| l == op) {
            Some(i) => i as u32,
            None => op.parse::<u32>().map_err(|_| {
                format!(
                    "unknown op label `{op}` (store has {} labels)",
                    reader.footer().labels.len()
                )
            })?,
        };
        pred = pred.with_op_label(id);
    }
    let max = flag_value(args, "--max").unwrap_or(20.0) as usize;

    let q = reader
        .query(&pred, pinpoint_core::parallel::configured_threads())
        .map_err(|e| format!("query on {path} failed: {e}"))?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", query_json(&q, max));
        return obs_finish(&obs);
    }
    let labels = reader.footer().labels.clone();
    let by_label = if q.stats.chunks_pruned_by_label > 0 {
        format!(", {} by op-label", q.stats.chunks_pruned_by_label)
    } else {
        String::new()
    };
    println!(
        "{} events match; decoded {} of {} chunks ({} pruned by index{by_label})",
        q.events.len(),
        q.stats.chunks_decoded,
        q.stats.chunks_total,
        q.stats.chunks_pruned
    );
    println!(
        "{:>12} {:>6} {:>8} {:>10} {:>12}  {:<12} op",
        "time", "kind", "block", "size", "offset", "mem_kind"
    );
    for e in q.events.iter().take(max) {
        let op = e
            .op_label
            .and_then(|i| labels.get(i as usize))
            .map(String::as_str)
            .unwrap_or("-");
        println!(
            "{:>12} {:>6} {:>8} {:>10} {:>12}  {:<12} {}",
            human_time(e.time_ns),
            format!("{:?}", e.kind),
            e.block.0,
            human_bytes(e.size as u64),
            e.offset,
            format!("{}", e.mem_kind),
            op
        );
    }
    if q.events.len() > max {
        println!("... {} more events (raise --max)", q.events.len() - max);
    }
    obs_finish(&obs)
}

/// `serve`: host a directory of `.ptrc` stores over HTTP until a
/// token-gated `POST /shutdown` (or a signal) stops the process.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let Some(catalog) = flag_str(args, "--catalog") else {
        return Err("serve needs --catalog DIR".to_string());
    };
    if !std::path::Path::new(catalog).is_dir() {
        return Err(format!("--catalog {catalog} is not a directory"));
    }
    // the library's defaults (the worker count follows `--threads`),
    // overridden by the flags given; only the bind address differs
    let d = pinpoint_serve::ServeConfig::default();
    let config = pinpoint_serve::ServeConfig {
        catalog_dir: catalog.into(),
        addr: flag_str(args, "--addr")
            .unwrap_or("127.0.0.1:7070")
            .to_string(),
        cache_bytes: flag_value(args, "--cache-bytes").map_or(d.cache_bytes, |v| v as u64),
        result_cache_bytes: flag_value(args, "--result-cache-bytes")
            .map_or(d.result_cache_bytes, |v| v as u64),
        queue_cap: flag_value(args, "--queue").map_or(d.queue_cap, |v| v as usize),
        keepalive_requests: flag_value(args, "--keepalive")
            .map_or(d.keepalive_requests, |v| v as usize),
        io_timeout_ms: flag_value(args, "--io-timeout-ms").map_or(d.io_timeout_ms, |v| v as u64),
        request_deadline_ms: flag_value(args, "--request-deadline-ms")
            .map_or(d.request_deadline_ms, |v| v as u64),
        drain_deadline_ms: flag_value(args, "--drain-deadline-ms")
            .map_or(d.drain_deadline_ms, |v| v as u64),
        breaker: pinpoint_serve::BreakerConfig {
            threshold: flag_value(args, "--breaker-threshold")
                .map_or(d.breaker.threshold, |v| v as u32),
            cooldown: flag_value(args, "--breaker-cooldown")
                .map_or(d.breaker.cooldown, |v| v as u32),
            seed: flag_value(args, "--breaker-seed").map_or(d.breaker.seed, |v| v as u64),
        },
        shutdown_token: flag_str(args, "--shutdown-token").map(String::from),
        chaos_token: flag_str(args, "--chaos-token").map(String::from),
        ..d
    };
    let workers = config.workers;
    let (io_ms, deadline_ms) = (config.io_timeout_ms, config.request_deadline_ms);
    let handle = pinpoint_serve::start(config).map_err(|e| format!("cannot serve: {e}"))?;
    // scripts (and the smoke tests) parse this line for the bound port
    println!(
        "serving {catalog} at http://{} ({workers} workers, io-timeout {io_ms}ms, \
         request-deadline {deadline_ms}ms)",
        handle.addr()
    );
    handle.wait();
    println!("shutdown complete");
    Ok(())
}

/// A subcommand's outcome as the process exit: errors print as one
/// `error:` line on stderr.
fn exit_code(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        let Some(n) = n else {
            eprintln!("--threads needs a positive integer");
            return ExitCode::FAILURE;
        };
        pinpoint_core::parallel::set_global_threads(n);
        args.drain(i..=i + 1);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return exit_code(cmd_serve(&args[1..]));
    }
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: pinpoint-trace-tool <summary|report|ati|outliers|breakdown|gantt|ops|plan|compare|convert|info|scrub|query|serve> <trace.{{json|ptrc}}> [out|trace_b] [flags]");
        return ExitCode::FAILURE;
    };
    // store-centric subcommands have their own argument shapes and never
    // materialize a full in-memory trace up front; the fold analyses run
    // over either format through one helper
    match cmd.as_str() {
        "convert" | "scrub" => {
            let Some(out) = args.get(2) else {
                eprintln!("{cmd} needs an input and an output path");
                return ExitCode::FAILURE;
            };
            return exit_code(if cmd == "convert" {
                cmd_convert(path, out)
            } else {
                cmd_scrub(path, out)
            });
        }
        "info" => return exit_code(cmd_info(path, args.iter().any(|a| a == "--verify"))),
        "query" => return exit_code(cmd_query(path, &args)),
        "ati" | "outliers" | "breakdown" | "gantt" | "report" => {
            return exit_code(cmd_analysis(cmd, path, &args))
        }
        _ => {}
    }
    // `compare` needs two traces; load them on the fan-out so both files
    // parse and validate concurrently
    let mut paths = vec![path.clone()];
    if cmd == "compare" {
        let Some(path_b) = args.get(2) else {
            eprintln!("compare needs two trace files");
            return ExitCode::FAILURE;
        };
        paths.push(path_b.clone());
    }
    let mut traces = match pinpoint_core::parallel::try_map_ordered(
        paths,
        pinpoint_core::parallel::configured_threads(),
        |p| load(&p),
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = traces.remove(0);
    match cmd.as_str() {
        "summary" => {
            println!(
                "{} events over {}, {} blocks, {} op labels, {} markers",
                trace.len(),
                human_time(trace.end_time_ns()),
                trace.lifetimes().len(),
                trace.labels().len(),
                trace.markers().len()
            );
            let peak = trace.peak_live_bytes();
            println!("peak footprint: {}", human_bytes(peak.peak_total_bytes));
            let iter = detect(&trace);
            println!(
                "iterative: {} ({} iterations, period {})",
                iter.periodic,
                iter.iterations,
                human_time(iter.mean_period_ns as u64)
            );
        }
        "ops" => {
            let top = flag_value(&args, "--top").unwrap_or(15.0) as usize;
            for s in op_stats(&trace).iter().take(top) {
                println!(
                    "{:<32} {:>10} ({} reads, {} writes, {} mallocs)",
                    s.label,
                    human_bytes(s.bytes_total()),
                    s.reads,
                    s.writes,
                    s.mallocs
                );
            }
        }
        "plan" => {
            let tm = TransferModel::titan_x_pascal_pinned();
            let p = plan(&trace, &tm, 1_000_000);
            println!(
                "{} decisions; peak {} -> {} (saves {}, {:.1}%), PCIe traffic {}",
                p.decisions.len(),
                human_bytes(p.baseline_peak_bytes),
                human_bytes(p.planned_peak_bytes),
                human_bytes(p.savings_bytes()),
                p.savings_fraction() * 100.0,
                human_bytes(p.transfer_bytes)
            );
        }
        "compare" => {
            let b = traces.remove(0);
            let d = diff_traces(&trace, &b);
            let row = |name: &str, delta: &pinpoint_analysis::Delta| {
                println!(
                    "{name:<24} {:>14.1} {:>14.1}  ({:+.1}%)",
                    delta.a,
                    delta.b,
                    delta.relative_change() * 100.0
                );
            };
            println!("{:<24} {:>14} {:>14}", "metric", "A", "B");
            row("events", &d.events);
            row("peak bytes", &d.peak_bytes);
            row("duration ns", &d.duration_ns);
            row("median ATI ns", &d.median_ati_ns);
            row("iteration period ns", &d.period_ns);
            row("intermediate fraction", &d.intermediate_fraction);
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
