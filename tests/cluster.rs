//! Multi-process cluster supervisor harness: ≥3 real OS processes
//! (spawned `hdhash-cli cluster-replica` children) gossiping over
//! framed loopback TCP, driven through their line protocol. The core
//! scenario is crash recovery with a **real SIGKILL** — no shutdown
//! handshake, no flush, the process is simply gone mid-churn — followed
//! by a restart on a fresh OS-assigned port: the survivors are
//! re-pointed at the new address, the restarted replica (which comes
//! back *empty*) anti-entropies the full membership over the wire, and
//! every process must end at identical per-shard membership digests.
//!
//! CI runs this single-threaded; every driver→replica command and its
//! response is a deterministic line pair, so a failing run replays from
//! the test output alone.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One `cluster-replica` child process under test control.
struct Replica {
    id: u64,
    port: u16,
    child: Child,
    stdin: ChildStdin,
    lines: std::io::Lines<BufReader<ChildStdout>>,
}

impl Replica {
    /// Spawns `hdhash-cli cluster-replica <id> 2 1024 128 <seed> 15`
    /// and waits for its `listening <port>` banner.
    fn spawn(id: u64, seed: u64) -> Replica {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hdhash-cli"))
            .args(["cluster-replica", &id.to_string(), "2", "1024", "128", &seed.to_string(), "15"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn cluster-replica");
        let stdin = child.stdin.take().expect("child stdin");
        let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
        let banner = lines.next().expect("banner").expect("banner io");
        let port = banner
            .strip_prefix("listening ")
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("replica{id}: bad banner `{banner}`"));
        Replica { id, port, child, stdin, lines }
    }

    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// One command line out, one response line back.
    fn command(&mut self, command: &str) -> String {
        writeln!(self.stdin, "{command}").expect("write command");
        self.stdin.flush().expect("flush command");
        self.lines
            .next()
            .unwrap_or_else(|| panic!("replica{}: eof after `{command}`", self.id))
            .expect("response io")
    }

    fn expect_ok(&mut self, command: &str) {
        let response = self.command(command);
        assert_eq!(response, "ok", "replica{}: `{command}` -> `{response}`", self.id);
    }

    /// `Child::kill` delivers SIGKILL on unix: the replica gets no
    /// chance to flush, close sockets, or say goodbye.
    fn sigkill(&mut self) {
        self.child.kill().expect("sigkill");
        let status = self.child.wait().expect("reap");
        assert!(!status.success(), "SIGKILL must not read as clean exit");
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls `digest` across the set until every response line is
/// byte-identical; panics past the deadline. Returns the common line.
fn await_identical_digests(replicas: &mut [Replica], deadline: Duration) -> String {
    let start = Instant::now();
    loop {
        let digests: Vec<String> = replicas.iter_mut().map(|r| r.command("digest")).collect();
        if digests.windows(2).all(|w| w[0] == w[1]) && digests[0].len() > "digest ".len() {
            return digests.into_iter().next().expect("nonempty");
        }
        assert!(
            start.elapsed() < deadline,
            "digests never converged; last poll: {digests:#?}"
        );
        std::thread::sleep(Duration::from_millis(40));
    }
}

fn wire_mesh(replicas: &mut [Replica]) {
    let addrs: Vec<String> = replicas.iter().map(Replica::addr).collect();
    for (i, replica) in replicas.iter_mut().enumerate() {
        for (j, addr) in addrs.iter().enumerate() {
            if i != j {
                replica.expect_ok(&format!("peer {j} {addr}"));
            }
        }
        replica.expect_ok("start");
    }
}

#[test]
fn three_processes_reconverge_byte_identically_after_sigkill_and_restart() {
    const SEED: u64 = 0x516B_1789; // deterministic engine seed
    let mut replicas: Vec<Replica> = (0..3).map(|id| Replica::spawn(id, SEED)).collect();
    wire_mesh(&mut replicas);

    // Phase 1 — divergent churn on live gossip: disjoint join ranges per
    // process plus conflicting leaves, then full convergence.
    for (i, replica) in replicas.iter_mut().enumerate() {
        let base = i as u64 * 100;
        for server in base..base + 20 {
            replica.expect_ok(&format!("join {server}"));
        }
    }
    replicas[0].expect_ok("leave 0");
    replicas[1].expect_ok("leave 101");
    let digest_before = await_identical_digests(&mut replicas, Duration::from_secs(60));
    let members_before = replicas[0].command("members");
    assert_eq!(replicas[1].command("members"), members_before, "memberships diverged");
    assert!(members_before.contains(" 205"), "replica2's range must have replicated");

    // Phase 2 — real SIGKILL mid-churn: replica 2 dies without flushing;
    // churn continues on the survivors, who must reconverge without it.
    replicas[2].sigkill();
    for (i, replica) in replicas[..2].iter_mut().enumerate() {
        let base = 1000 + i as u64 * 100;
        for server in base..base + 10 {
            replica.expect_ok(&format!("join {server}"));
        }
    }
    replicas[0].expect_ok("leave 102");
    let digest_survivors = await_identical_digests(&mut replicas[..2], Duration::from_secs(60));
    assert_ne!(digest_survivors, digest_before, "post-kill churn must move the digests");

    // Phase 3 — restart on a fresh port. The new process starts EMPTY:
    // everything it ends up knowing must have crossed the wire. The
    // survivors' supervisors are re-pointed at the new address.
    let restarted = Replica::spawn(2, SEED);
    assert_ne!(restarted.addr(), replicas[2].addr(), "OS must assign a fresh port");
    replicas[2] = restarted;
    let new_addr = replicas[2].addr();
    let survivor_addrs: Vec<String> = replicas[..2].iter().map(Replica::addr).collect();
    for replica in replicas[..2].iter_mut() {
        let line = format!("peer 2 {new_addr}");
        replica.expect_ok(&line);
    }
    for (j, addr) in survivor_addrs.iter().enumerate() {
        let line = format!("peer {j} {addr}");
        replicas[2].expect_ok(&line);
    }
    replicas[2].expect_ok("start");

    let digest_after = await_identical_digests(&mut replicas, Duration::from_secs(120));
    assert_eq!(
        digest_after, digest_survivors,
        "the restarted replica must adopt the survivors' state, not perturb it"
    );
    // Membership agreement at the id level, across all three processes.
    let members = replicas[0].command("members");
    assert_eq!(replicas[1].command("members"), members);
    assert_eq!(replicas[2].command("members"), members, "restarted replica disagrees");
    assert!(members.contains(" 1005"), "post-kill churn must reach the restarted replica");
    assert!(!members.contains(" 102 "), "a leave gossiped while dead must stick after rejoin");

    // The wire actually carried this: the restarted process received
    // frames and bytes over real sockets, cleanly (no corruption).
    let metrics = replicas[2].command("metrics");
    let field = |name: &str| -> u64 {
        metrics
            .split_whitespace()
            .find_map(|f| f.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in `{metrics}`"))
    };
    assert!(field("frames_received") > 0, "no frames reached the restarted replica");
    assert!(field("bytes_received") > 0);
    assert_eq!(field("corrupt_frames"), 0, "loopback frames must verify");
    for replica in &mut replicas {
        assert_eq!(replica.command("quit"), "bye");
    }
}

#[test]
fn cluster_driver_subcommand_runs_the_full_story_green() {
    let output = Command::new(env!("CARGO_BIN_EXE_hdhash-cli"))
        .args(["cluster", "3", "12"])
        .output()
        .expect("run cluster driver");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "driver failed:\n{stdout}\n{stderr}");
    for phase in [
        "phase 1: converged",
        "SIGKILL replica2",
        "phase 2: survivors reconverged",
        "phase 3: full cluster reconverged",
        "total measured wire bytes sent:",
        "ok: 3 processes",
    ] {
        assert!(stdout.contains(phase), "missing `{phase}` in driver output:\n{stdout}");
    }
}
