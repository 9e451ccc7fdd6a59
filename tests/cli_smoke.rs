//! Smoke tests for the two CLI binaries, driven through `cargo run`-built
//! artifacts via the library API (write a trace, then inspect it the way
//! the CLI does).

use pinpoint::core::{profile, ProfileConfig};
use pinpoint::trace::export::{read_json, write_json};
use std::fs::File;
use std::process::Command;
use std::sync::OnceLock;

/// The profiled trace the tests read, written once per test process:
/// tests run in parallel, and rewriting one shared file while another
/// test reads it would race.
fn trace_file() -> std::path::PathBuf {
    static PATH: OnceLock<std::path::PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let report = profile(&ProfileConfig::mlp_case_study(5)).unwrap();
        let path = std::env::temp_dir().join("pinpoint_cli_smoke_trace.json");
        write_json(&report.trace, File::create(&path).unwrap()).unwrap();
        path
    })
    .clone()
}

fn bin(name: &str) -> std::path::PathBuf {
    // integration tests run from the workspace root; binaries are built
    // into the same profile directory as the test executable
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps/
    p.pop();
    p.join(name)
}

#[test]
fn trace_tool_subcommands_run() {
    let trace = trace_file();
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    for sub in [
        "summary",
        "ati",
        "breakdown",
        "gantt",
        "ops",
        "plan",
        "outliers",
    ] {
        let out = Command::new(&tool)
            .arg(sub)
            .arg(&trace)
            .output()
            .expect("spawn trace tool");
        assert!(out.status.success(), "{sub} failed: {out:?}");
        assert!(!out.stdout.is_empty(), "{sub} printed nothing");
    }
    // compare works against itself
    let out = Command::new(&tool)
        .arg("compare")
        .arg(&trace)
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("+0.0%"));
    // bad inputs fail politely
    let out = Command::new(&tool)
        .arg("summary")
        .arg("/no/such/file")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(&tool)
        .arg("nonsense")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// A file too short to hold the `.ptrc` magic is not a store: it goes
/// to the JSON parser and fails there with a one-line error.
#[test]
fn a_file_shorter_than_the_magic_fails_as_unparseable_json() {
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    let path = std::env::temp_dir().join(format!(
        "pinpoint_cli_three_bytes_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, b"PTR").unwrap();
    for sub in ["summary", "report"] {
        let out = Command::new(&tool).arg(sub).arg(&path).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{sub}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("error: cannot parse {}: ", path.display());
        assert!(err.starts_with(&want), "{sub}: {err}");
        assert_eq!(err.trim().lines().count(), 1, "{sub}: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_tool_store_outputs_match_json_outputs() {
    let trace = trace_file();
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    let store = std::env::temp_dir().join("pinpoint_cli_smoke_trace.ptrc");
    let out = Command::new(&tool)
        .args(["convert"])
        .arg(&trace)
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success(), "convert failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("smaller"));

    // every analysis subcommand reads the store directly and prints the
    // same bytes as the JSON path, at one worker thread and several
    for sub in ["summary", "ati", "breakdown", "outliers", "gantt", "ops"] {
        let from_json = Command::new(&tool).arg(sub).arg(&trace).output().unwrap();
        assert!(from_json.status.success(), "{sub} on JSON failed");
        for threads in ["1", "4"] {
            let from_store = Command::new(&tool)
                .arg(sub)
                .arg(&store)
                .args(["--threads", threads])
                .output()
                .unwrap();
            assert!(from_store.status.success(), "{sub} on store failed");
            assert_eq!(
                String::from_utf8_lossy(&from_json.stdout),
                String::from_utf8_lossy(&from_store.stdout),
                "{sub} diverges between formats at --threads {threads}"
            );
        }
    }

    // the fused `report` subcommand: all five passes over one scan, with
    // the scan accounting printed; byte-identical across formats and
    // thread counts (both sides chunk at the same default granularity)
    let from_json = Command::new(&tool)
        .args(["report"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(from_json.status.success(), "report on JSON failed");
    let text = String::from_utf8_lossy(&from_json.stdout);
    assert!(text.contains("in 1 pass"), "{text}");
    assert!(text.contains("peak footprint"), "{text}");
    for threads in ["1", "4"] {
        let from_store = Command::new(&tool)
            .args(["report"])
            .arg(&store)
            .args(["--threads", threads])
            .output()
            .unwrap();
        assert!(from_store.status.success(), "report on store failed");
        assert_eq!(
            String::from_utf8_lossy(&from_json.stdout),
            String::from_utf8_lossy(&from_store.stdout),
            "report diverges between formats at --threads {threads}"
        );
    }

    let out = Command::new(&tool)
        .arg("info")
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("chunks") && text.contains("smaller"),
        "{text}"
    );

    let out = Command::new(&tool)
        .arg("query")
        .arg(&store)
        .args(["--kind", "malloc", "--min-size-bytes", "1000", "--max", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("events match"));

    // converting back to JSON reproduces the original trace exactly
    let json_back = std::env::temp_dir().join("pinpoint_cli_smoke_back.json");
    let out = Command::new(&tool)
        .args(["convert"])
        .arg(&store)
        .arg(&json_back)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let a = read_json(File::open(&trace).unwrap()).unwrap();
    let b = read_json(File::open(&json_back).unwrap()).unwrap();
    assert_eq!(a, b, "JSON -> .ptrc -> JSON is lossless");

    // query on a JSON file fails politely rather than misparsing
    let out = Command::new(&tool)
        .arg("query")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn scrub_and_verify_round_trip_a_damaged_store() {
    let trace = trace_file();
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    let store = std::env::temp_dir().join("pinpoint_cli_scrub.ptrc");
    let out = Command::new(&tool)
        .args(["convert"])
        .arg(&trace)
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success(), "convert failed: {out:?}");

    // a pristine store verifies clean, exit code zero
    let out = Command::new(&tool)
        .args(["info"])
        .arg(&store)
        .arg("--verify")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("intact"));

    // flip one payload byte: --verify must fail with a pinpointed chunk
    let mut bytes = std::fs::read(&store).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x10;
    let damaged = std::env::temp_dir().join("pinpoint_cli_scrub_damaged.ptrc");
    std::fs::write(&damaged, &bytes).unwrap();
    let out = Command::new(&tool)
        .args(["info"])
        .arg(&damaged)
        .arg("--verify")
        .output()
        .unwrap();
    assert!(!out.status.success(), "damaged store must fail --verify");
    assert!(String::from_utf8_lossy(&out.stdout).contains("CORRUPT"));

    // scrub rebuilds a store that verifies clean again
    let scrubbed = std::env::temp_dir().join("pinpoint_cli_scrubbed.ptrc");
    let out = Command::new(&tool)
        .args(["scrub"])
        .arg(&damaged)
        .arg(&scrubbed)
        .output()
        .unwrap();
    assert!(out.status.success(), "scrub failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("dropped"));
    let out = Command::new(&tool)
        .args(["info"])
        .arg(&scrubbed)
        .arg("--verify")
        .output()
        .unwrap();
    assert!(out.status.success(), "scrubbed store must verify: {out:?}");

    // scrubbing a pristine store is a lossless pass-through
    let copied = std::env::temp_dir().join("pinpoint_cli_scrub_copy.ptrc");
    let out = Command::new(&tool)
        .args(["scrub"])
        .arg(&store)
        .arg(&copied)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 chunks / 0 events dropped"));
    let a = Command::new(&tool)
        .arg("summary")
        .arg(&store)
        .output()
        .unwrap();
    let b = Command::new(&tool)
        .arg("summary")
        .arg(&copied)
        .output()
        .unwrap();
    assert_eq!(a.stdout, b.stdout, "scrub of a clean store changes nothing");

    for p in [&store, &damaged, &scrubbed, &copied] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn convert_writes_v3_and_old_stores_stay_fully_readable() {
    let trace = trace_file();
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }
    // convert emits format v3 (checksummed, adaptive encodings) by default
    let store = std::env::temp_dir().join("pinpoint_cli_v3_default.ptrc");
    let out = Command::new(&tool)
        .args(["convert"])
        .arg(&trace)
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let head = std::fs::read(&store).unwrap();
    assert_eq!(&head[..4], b"PTRC");
    assert_eq!(head[4], 3, "convert must write format v3 by default");

    // legacy v1 and v2 stores round-trip through the tool byte-identically
    // at the event level: same JSON out, same analysis output
    let original = read_json(File::open(&trace).unwrap()).unwrap();
    let v1 = std::env::temp_dir().join("pinpoint_cli_v1_legacy.ptrc");
    {
        let mut bytes = Vec::new();
        pinpoint::store::write_store_chunked_v1(&original, &mut bytes, 4096).unwrap();
        assert_eq!(bytes[4], 1);
        std::fs::write(&v1, bytes).unwrap();
    }
    let v2 = std::env::temp_dir().join("pinpoint_cli_v2_legacy.ptrc");
    {
        let mut bytes = Vec::new();
        pinpoint::store::write_store_chunked_v2(&original, &mut bytes, 4096).unwrap();
        assert_eq!(bytes[4], 2);
        std::fs::write(&v2, bytes).unwrap();
    }
    let back = std::env::temp_dir().join("pinpoint_cli_v1_back.json");
    let out = Command::new(&tool)
        .args(["convert"])
        .arg(&v1)
        .arg(&back)
        .output()
        .unwrap();
    assert!(out.status.success(), "v1 convert failed: {out:?}");
    let decoded = read_json(File::open(&back).unwrap()).unwrap();
    assert_eq!(decoded, original, "v1 -> JSON loses information");
    let a = Command::new(&tool)
        .arg("summary")
        .arg(&v1)
        .output()
        .unwrap();
    let b = Command::new(&tool)
        .arg("summary")
        .arg(&store)
        .output()
        .unwrap();
    let c = Command::new(&tool)
        .arg("summary")
        .arg(&v2)
        .output()
        .unwrap();
    assert!(a.status.success() && b.status.success() && c.status.success());
    assert_eq!(a.stdout, b.stdout, "v1 and v3 analyses diverge");
    assert_eq!(c.stdout, b.stdout, "v2 and v3 analyses diverge");

    // ptrc -> ptrc convert upgrades an old store to v3 in place, with no
    // event-level change (same JSON back out)
    let upgraded = std::env::temp_dir().join("pinpoint_cli_v2_upgraded.ptrc");
    let out = Command::new(&tool)
        .args(["convert"])
        .arg(&v2)
        .arg(&upgraded)
        .output()
        .unwrap();
    assert!(out.status.success(), "v2 -> v3 upgrade failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(v2)") && text.contains("(v3)"), "{text}");
    let head = std::fs::read(&upgraded).unwrap();
    assert_eq!(head[4], 3, "upgrade must write format v3");
    assert!(
        head.len() < std::fs::metadata(&v2).unwrap().len() as usize,
        "v3 upgrade should shrink the store"
    );
    let up_back = std::env::temp_dir().join("pinpoint_cli_upgraded_back.json");
    let out = Command::new(&tool)
        .args(["convert"])
        .arg(&upgraded)
        .arg(&up_back)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let decoded = read_json(File::open(&up_back).unwrap()).unwrap();
    assert_eq!(decoded, original, "v2 -> v3 upgrade loses information");

    for p in [&store, &v1, &v2, &back, &upgraded, &up_back] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn figures_cli_runs_quick_figures() {
    let figures = bin("pinpoint-figures");
    if !figures.exists() {
        eprintln!("skipping: {figures:?} not built (run with --workspace)");
        return;
    }
    for fig in ["fig1", "fig2", "fig5"] {
        let out = Command::new(&figures).arg(fig).output().expect("spawn");
        assert!(out.status.success(), "{fig} failed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("Fig"), "{fig}: {text}");
    }
}

#[test]
fn written_trace_round_trips() {
    let path = trace_file();
    let back = read_json(File::open(&path).unwrap()).unwrap();
    back.validate().unwrap();
    assert!(back.len() > 100);
}

/// `serve` startup failures must be a single `error:` line on stderr and
/// a nonzero exit — never a panic, a hang, or a silent success.
#[test]
fn serve_startup_failures_exit_nonzero_with_one_line_errors() {
    let tool = bin("pinpoint-trace-tool");
    if !tool.exists() {
        eprintln!("skipping: {tool:?} not built (run with --workspace)");
        return;
    }

    // a catalog path that is not a directory
    let out = Command::new(&tool)
        .args(["serve", "--catalog", "/no/such/catalog"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        err.trim(),
        "error: --catalog /no/such/catalog is not a directory",
        "stderr: {err}"
    );
    assert_eq!(err.trim().lines().count(), 1, "one line, not a backtrace");

    // a port someone else already holds
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap();
    let dir = std::env::temp_dir().join(format!("pinpoint_cli_serve_bind_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(&tool)
        .args(["serve", "--catalog"])
        .arg(&dir)
        .args(["--addr", &addr.to_string()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "bind conflict must fail: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: cannot serve:"), "stderr: {err}");
    assert_eq!(err.trim().lines().count(), 1, "one line, not a backtrace");
    drop(taken);
    let _ = std::fs::remove_dir_all(&dir);
}
