//! Multi-process store contention: two real `experiments` OS processes run
//! the same campaign against one shared store directory, simultaneously.
//!
//! The claim/lease protocol must guarantee that:
//! * no guest instruction is executed twice — the two processes' counter
//!   files sum to exactly one store-less run's count (each trace captured
//!   exactly once, by whichever process won its claim);
//! * both processes produce byte-identical campaign JSON, identical to the
//!   store-less single-process run;
//! * the store is clean afterwards (leases released, every entry valid, no
//!   strays) — `store doctor` exits successfully with no repair.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "autoreconf-multiproc-{}-{}-{tag}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn one `experiments campaign` process (tiny scale, one worker).
fn spawn_campaign(store: Option<&Path>, json_dir: &Path, counters: &Path) -> Child {
    let mut command = Command::new(env!("CARGO_BIN_EXE_experiments"));
    command.args(["campaign", "--scale", "tiny", "--threads", "1"]);
    if let Some(store) = store {
        command.args(["--store", store.to_str().unwrap()]);
    }
    command.args(["--json", json_dir.to_str().unwrap()]);
    command.args(["--counters", counters.to_str().unwrap()]);
    // isolate from any ambient store/budget configuration
    command.env_remove("AUTORECONF_STORE").env_remove("AUTORECONF_STORE_BUDGET");
    command.stdout(Stdio::null()).stderr(Stdio::null());
    command.spawn().expect("spawn experiments campaign")
}

/// Extract `guest_instructions` from a `--counters` JSON file.
fn guest_instructions(counters: &Path) -> u64 {
    let text = std::fs::read_to_string(counters).expect("counters file");
    let needle = "\"guest_instructions\":";
    let start = text.find(needle).expect("guest_instructions field") + needle.len();
    text[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("guest_instructions value")
}

fn campaign_json(json_dir: &Path) -> String {
    std::fs::read_to_string(json_dir.join("campaign.json")).expect("campaign.json")
}

#[test]
fn two_processes_share_one_store_without_duplicating_guest_execution() {
    // -- reference: one store-less process computes everything -------------
    let ref_json = scratch_dir("ref-json");
    let ref_counters = scratch_dir("ref-counters").join("counters.json");
    let status = spawn_campaign(None, &ref_json, &ref_counters).wait().unwrap();
    assert!(status.success(), "reference campaign failed: {status:?}");
    let reference_guest = guest_instructions(&ref_counters);
    assert!(reference_guest > 0, "the reference run must execute guest code");
    let reference_result = campaign_json(&ref_json);

    // -- contended: two processes, one fresh store, launched together ------
    let store = scratch_dir("store");
    let (a_json, b_json) = (scratch_dir("a-json"), scratch_dir("b-json"));
    let a_counters = scratch_dir("a-counters").join("counters.json");
    let b_counters = scratch_dir("b-counters").join("counters.json");
    let mut a = spawn_campaign(Some(&store), &a_json, &a_counters);
    let mut b = spawn_campaign(Some(&store), &b_json, &b_counters);
    let a_status = a.wait().unwrap();
    let b_status = b.wait().unwrap();
    assert!(a_status.success(), "process A failed: {a_status:?}");
    assert!(b_status.success(), "process B failed: {b_status:?}");

    // byte-identical results, no matter how the two runs interleaved
    assert_eq!(
        campaign_json(&a_json),
        reference_result,
        "process A's campaign must match the store-less single-process run"
    );
    assert_eq!(
        campaign_json(&b_json),
        reference_result,
        "process B's campaign must match the store-less single-process run"
    );

    // no duplicated guest execution: every trace was captured exactly once,
    // by exactly one of the two processes
    let (a_guest, b_guest) = (guest_instructions(&a_counters), guest_instructions(&b_counters));
    assert_eq!(
        a_guest + b_guest,
        reference_guest,
        "the two processes together must execute exactly one run's worth of \
         guest instructions (A={a_guest}, B={b_guest}, reference={reference_guest})"
    );

    // the store survived the contention cleanly: no stray tmp files, no
    // leftover leases, every entry valid — doctor (without --repair) passes
    let doctor = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["store", "doctor", "--store", store.to_str().unwrap()])
        .output()
        .expect("run store doctor");
    assert!(
        doctor.status.success(),
        "store doctor found damage after concurrent runs:\n{}",
        String::from_utf8_lossy(&doctor.stdout)
    );

    for dir in [&ref_json, &a_json, &b_json, &store] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A campaign re-run over the store the contended pair left behind must be
/// fully warm: zero guest instructions.
#[test]
fn a_store_warmed_under_contention_serves_a_third_process_completely() {
    let store = scratch_dir("warm-store");
    let (a_json, b_json) = (scratch_dir("wa-json"), scratch_dir("wb-json"));
    let a_counters = scratch_dir("wa-counters").join("counters.json");
    let b_counters = scratch_dir("wb-counters").join("counters.json");
    let mut a = spawn_campaign(Some(&store), &a_json, &a_counters);
    let mut b = spawn_campaign(Some(&store), &b_json, &b_counters);
    assert!(a.wait().unwrap().success());
    assert!(b.wait().unwrap().success());

    let c_json = scratch_dir("wc-json");
    let c_counters = scratch_dir("wc-counters").join("counters.json");
    let status = spawn_campaign(Some(&store), &c_json, &c_counters).wait().unwrap();
    assert!(status.success());
    assert_eq!(
        guest_instructions(&c_counters),
        0,
        "a warm store must serve the whole campaign without guest execution"
    );
    assert_eq!(campaign_json(&c_json), campaign_json(&a_json));

    for dir in [&a_json, &b_json, &c_json, &store] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Entry files of a given kind currently in the store directory, sorted.
fn art_files(store: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(store)
        .expect("read store dir")
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .filter(|n| n.ends_with(".art"))
        .collect();
    names.sort();
    names
}

/// An external `experiments store gc` running beside a live daemon must not
/// evict the daemon's pinned entries: the daemon's session pins live only
/// in *its* process memory, so gc has to honour the on-disk `.pin-*`
/// markers the daemon publishes.  (Before those markers existed, this exact
/// sequence silently evicted every entry the daemon depended on.)
#[test]
fn external_gc_cannot_evict_a_live_daemons_pinned_entries() {
    use std::io::BufRead;

    use autoreconf::service::{read_frame, write_frame, Request, Response};

    // warm a store with one tiny campaign run, then note its session
    // artifacts (trace/table/sweep/optimum per workload — the entries a
    // daemon session pins at startup)
    let store = scratch_dir("gc-store");
    let json = scratch_dir("gc-json");
    let counters = scratch_dir("gc-counters").join("counters.json");
    assert!(spawn_campaign(Some(&store), &json, &counters).wait().unwrap().success());
    let pinned_kinds = ["trace-", "table-", "sweep-", "optimum-"];
    let session_entries: Vec<String> = art_files(&store)
        .into_iter()
        .filter(|n| pinned_kinds.iter().any(|k| n.starts_with(k)))
        .collect();
    assert_eq!(session_entries.len(), 16, "4 kinds x 4 workloads: {session_entries:?}");

    // start a daemon over the same store and wait for its address line —
    // by then its session is open and every artifact above is pinned
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["serve", "--addr", "127.0.0.1:0", "--scale", "tiny", "--threads", "1"])
        .args(["--store", store.to_str().unwrap()])
        .env_remove("AUTORECONF_STORE")
        .env_remove("AUTORECONF_STORE_BUDGET")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn experiments serve");
    let mut stdout = std::io::BufReader::new(daemon.stdout.take().expect("daemon stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read address line");
    let addr = line
        .trim()
        .strip_prefix("autoreconf-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected address line: {line:?}"))
        .to_string();

    // the address line is printed before the serving session opens; a
    // Describe round-trip is answered only once the session (and thus its
    // pins) exists, so wait for one before unleashing the external gc
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect to daemon");
    let ask = |conn: &mut std::net::TcpStream, request: &Request| -> Response {
        let body = serde_json::to_string(request).unwrap();
        write_frame(conn, body.as_bytes()).expect("send request");
        let frame = read_frame(conn).expect("read response").expect("response frame");
        let text = std::str::from_utf8(&frame).expect("utf-8 response");
        serde_json::from_str(text).expect("decode response")
    };
    match ask(&mut conn, &Request::Describe) {
        Response::Describe { store: true, .. } => {}
        other => panic!("daemon must describe itself with a store: {other:?}"),
    }

    // a *separate process* garbage-collects the shared store to zero bytes
    let gc = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["store", "gc", "--budget", "0", "--store", store.to_str().unwrap()])
        .output()
        .expect("run external store gc");
    assert!(gc.status.success(), "external gc failed: {gc:?}");

    // every daemon-pinned entry survived the external gc
    let surviving = art_files(&store);
    for entry in &session_entries {
        assert!(
            surviving.contains(entry),
            "external gc evicted the live daemon's pinned entry {entry} \
             (survivors: {surviving:?})"
        );
    }

    // and the daemon still answers from those entries — a co-optimization
    // over the gc'd store must succeed (its pinned traces/tables are intact)
    match ask(&mut conn, &Request::CoOptimize { mix: vec![1.0, 1.0, 1.0, 1.0] }) {
        Response::CoOutcome { .. } => {}
        other => panic!("co-optimize after external gc failed: {other:?}"),
    }
    match ask(&mut conn, &Request::Shutdown) {
        Response::Bye => {}
        other => panic!("shutdown failed: {other:?}"),
    }
    assert!(daemon.wait().unwrap().success(), "daemon must exit cleanly");

    // with the daemon gone its pins are released (markers removed on
    // unpin): doctor is clean and a fresh gc may now take everything
    let doctor = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["store", "doctor", "--store", store.to_str().unwrap()])
        .output()
        .expect("run store doctor");
    assert!(
        doctor.status.success(),
        "store doctor found damage after daemon shutdown:\n{}",
        String::from_utf8_lossy(&doctor.stdout)
    );
    let gc = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["store", "gc", "--budget", "0", "--store", store.to_str().unwrap()])
        .output()
        .expect("run final store gc");
    assert!(gc.status.success());
    assert!(art_files(&store).is_empty(), "nothing guards the store once the daemon exits");

    for dir in [&json, &store] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `AUTORECONF_THREADS` with a malformed value must abort the CLI with a
/// clean error — not silently fall back to all cores (the PR-4 `Scale`
/// no-silent-fallback contract, extended to the environment).
#[test]
fn malformed_thread_env_is_a_clean_cli_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--help"])
        .env("AUTORECONF_THREADS", "all")
        .output()
        .expect("run experiments");
    assert!(!output.status.success(), "a malformed AUTORECONF_THREADS must fail the run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("invalid AUTORECONF_THREADS value `all`"),
        "stderr must name the variable and echo the value, got:\n{stderr}"
    );
}
