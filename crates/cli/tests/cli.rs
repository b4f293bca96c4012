//! Process-level integration tests: drive the real `nexus-cli` binary the
//! way a user would, across separate invocations (separate processes) and
//! separate homes (separate machines).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

use nexus_storage::{LogBackend, StorageBackend};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_nexus-cli")
}

struct Cli {
    home: PathBuf,
    store: PathBuf,
    user: String,
}

impl Cli {
    fn new(root: &Path, user: &str) -> Cli {
        Cli {
            home: root.join(format!("home-{user}")),
            store: root.join("store"),
            user: user.to_string(),
        }
    }

    fn command(&self, args: &[&str]) -> Command {
        let mut command = Command::new(bin());
        command
            .arg("--home")
            .arg(&self.home)
            .arg("--store")
            .arg(&self.store)
            .arg("--user")
            .arg(&self.user)
            .args(args);
        command
    }

    fn run(&self, args: &[&str]) -> Output {
        self.command(args).output().expect("spawn nexus-cli")
    }

    /// Starts the command without waiting for it.
    fn spawn(&self, args: &[&str]) -> Child {
        let mut command = self.command(args);
        command.stdout(Stdio::piped()).stderr(Stdio::piped());
        command.spawn().expect("spawn nexus-cli")
    }

    fn ok(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert!(
            out.status.success(),
            "command {args:?} failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    }

    fn fails(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert!(!out.status.success(), "command {args:?} unexpectedly succeeded");
        String::from_utf8_lossy(&out.stderr).to_string()
    }

    fn pubkey(&self) -> String {
        self.ok(&["whoami"])
            .split_whitespace()
            .nth(1)
            .expect("pubkey")
            .to_string()
    }
}

fn test_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nexus-cli-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn volume_lifecycle_across_processes() {
    let root = test_root("lifecycle");
    let owen = Cli::new(&root, "owen");

    let out = owen.ok(&["init"]);
    assert!(out.contains("created volume"));

    // Each command below is a separate OS process against persisted state.
    owen.ok(&["mkdir", "docs/reports"]);
    let local = root.join("plan.txt");
    std::fs::write(&local, b"the plan\n").unwrap();
    owen.ok(&["put", local.to_str().unwrap(), "docs/reports/plan.txt"]);
    assert_eq!(owen.ok(&["cat", "docs/reports/plan.txt"]), "the plan\n");

    let listing = owen.ok(&["ls", "docs/reports"]);
    assert!(listing.contains("plan.txt"));

    owen.ok(&["mv", "docs/reports/plan.txt", "docs/plan-v2.txt"]);
    assert_eq!(owen.ok(&["cat", "docs/plan-v2.txt"]), "the plan\n");
    let stat = owen.ok(&["stat", "docs/plan-v2.txt"]);
    assert!(stat.contains("size 9 bytes"));

    owen.ok(&["rm", "docs/plan-v2.txt"]);
    owen.fails(&["cat", "docs/plan-v2.txt"]);
}

#[test]
fn sharing_and_revocation_between_machines() {
    let root = test_root("sharing");
    let owen = Cli::new(&root, "owen");
    let alice = Cli::new(&root, "alice");

    owen.ok(&["init"]);
    owen.ok(&["mkdir", "shared"]);
    let local = root.join("memo.txt");
    std::fs::write(&local, b"hello alice").unwrap();
    owen.ok(&["put", local.to_str().unwrap(), "shared/memo.txt"]);

    let owen_pk = owen.pubkey();
    let alice_pk = alice.pubkey();

    // Fig. 4, each phase a separate process: the offer's secret waits,
    // sealed, in alice's home until she accepts.
    alice.ok(&["offer"]);
    owen.ok(&["grant", "alice", &alice_pk]);
    owen.ok(&["setfacl", "shared", "alice", "rw"]);
    alice.ok(&["accept", &owen_pk]);
    // The offer is consumed: its sealed secret is gone from alice's home.
    let err = alice.fails(&["accept", &owen_pk]);
    assert!(err.contains("no pending offer"), "got: {err}");

    assert_eq!(alice.ok(&["cat", "shared/memo.txt"]), "hello alice");
    let users = owen.ok(&["users"]);
    assert!(users.contains("alice"));

    // Revocation: a single cheap command; alice loses access immediately.
    owen.ok(&["revoke", "shared", "alice"]);
    let err = alice.fails(&["cat", "shared/memo.txt"]);
    assert!(err.contains("access denied"), "got: {err}");
}

#[test]
fn unauthorized_user_cannot_mount() {
    let root = test_root("unauthorized");
    let owen = Cli::new(&root, "owen");
    owen.ok(&["init"]);
    // Eve copies owen's sealed rootkey but is on another "machine" (home):
    // the unseal itself fails.
    let eve = Cli::new(&root, "eve");
    eve.ok(&["whoami"]); // creates her home
    std::fs::copy(
        owen.home.join("rootkey-default.sealed"),
        eve.home.join("rootkey-default.sealed"),
    )
    .unwrap();
    let err = eve.fails(&["ls"]);
    assert!(
        err.contains("seal") || err.contains("platform") || err.contains("authentication"),
        "got: {err}"
    );
}

#[test]
fn help_and_bad_commands() {
    let root = test_root("help");
    let owen = Cli::new(&root, "owen");
    let out = owen.run(&["--help"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    let err = owen.fails(&["frobnicate"]);
    assert!(err.contains("unknown command"));
    let owen_pk = owen.pubkey();
    let err = owen.fails(&["join", &owen_pk]);
    assert!(err.contains("unknown command"), "join: {err}");
    for flag in ["--bogus", "--merkle"] {
        let err = owen.fails(&["init", flag]);
        assert!(err.contains("unknown init flag"), "{flag}: {err}");
    }
}

/// Sixteen `put` processes at once into one directory, twice: each holds
/// the store until it exits, so they take turns and every put lands.
#[test]
fn concurrent_puts_from_many_processes_all_land() {
    let root = test_root("race");
    let owen = Cli::new(&root, "owen");
    owen.ok(&["init"]);
    owen.ok(&["mkdir", "race"]);
    let local = root.join("payload.txt");
    std::fs::write(&local, b"raced").unwrap();
    let local = local.to_str().unwrap();
    for round in 0..2 {
        let puts: Vec<Child> = (0..16)
            .map(|i| owen.spawn(&["put", local, &format!("race/f{round}-{i}")]))
            .collect();
        for (i, put) in puts.into_iter().enumerate() {
            let out = put.wait_with_output().unwrap();
            assert!(
                out.status.success(),
                "round {round}, put {i} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    let listing = owen.ok(&["ls", "race"]);
    assert_eq!(listing.lines().count(), 32, "{listing}");
    assert!(owen.ok(&["fsck", "--deep"]).contains("volume is clean"));
}

/// A store written in the per-file layout of earlier versions is refused,
/// untouched, with a message that names that layout.
#[test]
fn a_store_in_the_old_per_file_layout_is_refused() {
    let root = test_root("old-layout");
    let owen = Cli::new(&root, "owen");
    std::fs::create_dir_all(&owen.store).unwrap();
    std::fs::write(owen.store.join("%versions%"), b"NXDV").unwrap();
    let err = owen.fails(&["ls"]);
    assert!(err.contains("%versions%") && err.contains("DirBackend"), "got: {err}");
    let names: Vec<_> =
        std::fs::read_dir(&owen.store).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names, ["%versions%"]);
}

/// A log `Put` frame's bytes besides its path and data: the frame header
/// (magic, length, CRC), then op, version, owner and the two lengths.
const PUT_FRAME_OVERHEAD: u64 = 12 + 1 + 8 + 8 + 4 + 4;

/// The store's bytes on disk, then the bytes its objects take as one `Put`
/// frame each and the largest such frame. Disk is read before the store
/// is opened, since an open may rewrite it.
fn store_bytes(store: &Path) -> (u64, u64, u64) {
    let disk = std::fs::read_dir(store).unwrap().map(|e| e.unwrap().metadata().unwrap().len());
    let disk = disk.sum();
    let log = LogBackend::open(store).unwrap();
    let frames: Vec<u64> = log
        .list("")
        .iter()
        .map(|p| PUT_FRAME_OVERHEAD + p.len() as u64 + log.stat(p).unwrap().size)
        .collect();
    (disk, frames.iter().sum(), frames.into_iter().max().unwrap_or(0))
}

/// Processes that each make a handful of mutations keep the store bounded
/// by what is live: after every command, at most twice the live frame
/// bytes plus one frame, however many overwrites came before.
#[test]
fn the_store_stays_bounded_across_processes() {
    let root = test_root("bounded");
    let owen = Cli::new(&root, "owen");
    let bounded = |after: &str| {
        let (disk, live, frame) = store_bytes(&owen.store);
        assert!(
            disk <= 2 * live + frame,
            "after {after}: {disk} bytes on disk for {live} live bytes (largest frame {frame})"
        );
    };
    owen.ok(&["init"]);
    bounded("init");
    let local = root.join("small.txt");
    for name in ["a", "b", "c"] {
        std::fs::write(&local, format!("file {name}\n")).unwrap();
        owen.ok(&["put", local.to_str().unwrap(), name]);
        bounded(&format!("put {name}"));
    }
    for round in 0..20 {
        std::fs::write(&local, format!("overwrite {round}\n")).unwrap();
        owen.ok(&["put", local.to_str().unwrap(), "a"]);
        bounded(&format!("overwrite {round}"));
    }
    owen.ok(&["rm", "b"]);
    bounded("rm b");
    assert_eq!(owen.ok(&["cat", "a"]), "overwrite 19\n");
}
