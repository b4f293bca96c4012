//! A crash at any physical step of any operation leaves a volume that
//! mounts, passes a deep fsck, and reads as its old state or its new one.
//!
//! Each operation below runs alone on a seeded volume over a
//! [`LogBackend`], once per `(fault point, kind)` cell of
//! `nexus_testkit::faults::sweep`: a [`FireAt`] hook tears or drops the
//! store's I/O at that point of the operation (its index offset past the
//! set-up's own points, counted by a [`CountHook`] pass). The store is then
//! reopened from what the crash left on disk, the volume mounted and the
//! owner authenticated. Every file under `a/` and `b/` must read, path by
//! path, as it did before the operation or as it does after it ran whole;
//! each directory's ACL, the users and the groups likewise. A revoked
//! user's ACL entry may outlive the supernode write as `<stale:id>`, which
//! grants nothing and which fsck reports as a finding, not an error.
//! Last, a fresh mount creates a file in every directory the operation
//! touched, rewrites `a/f0` and adds a user: no lock the crashed process
//! held, on a directory, a filenode or the supernode, outlives it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nexus_core::{FsckMode, NexusConfig, NexusVolume, Rights, SealedRootKey, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::fault::{CountHook, FireAt};
use nexus_storage::{FaultHook, FaultKind, LogBackend};
use nexus_testkit::{faults, tk_assert};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nexus-crashsweep-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two entries per bucket, so `a/` spans several buckets whose MACs its
/// main object holds; small chunks, so a file spans several.
const CONFIG: NexusConfig = NexusConfig { chunk_size: 64, bucket_size: 2 };

const DIRS: [&str; 3] = ["", "a", "b"];

type Op = fn(&NexusVolume) -> nexus_core::Result<()>;

/// Every kind of commit the metadata path makes: one filenode and data
/// object, a directory's buckets and main object, two directories at once,
/// a directory's ACL, a link count, and the supernode; each with the
/// directories whose locks it takes (the supernode's, for the last two).
const OPS: [(&str, Op, &[&str]); 8] = [
    ("overwrite", |v| v.write_file("a/f0", &[0xA5; 150]), &["a"]),
    ("create", |v| v.write_file("a/new", b"created with contents"), &["a"]),
    ("remove", |v| v.remove("a/f1"), &["a"]),
    ("cross_dir_rename", |v| v.rename("a/f2", "b/moved"), &["a", "b"]),
    ("set_acl", |v| v.set_acl("a", "bob", Rights::RW), &["a"]),
    ("hardlink", |v| v.hardlink("a/f0", "b/link"), &["a", "b"]),
    ("remove_group_members", |v| v.remove_group_members("team", &["bob"]).map(drop), &[]),
    ("revoke_user", |v| v.revoke_user("alice"), &["a"]),
];

struct World {
    platform: Platform,
    ias: AttestationService,
    owner: UserKeys,
}

impl World {
    fn new() -> World {
        let platform = Platform::seeded(0xC4A5);
        let ias = AttestationService::new();
        ias.register_platform(&platform);
        World { platform, ias, owner: UserKeys::from_seed("owner", &[1; 32]) }
    }

    /// The seeded volume: files in `a/`, a group-scoped `b/` holding a
    /// file, two users (`alice` reads `a/`) and one group of both.
    fn set_up(&self, store: Arc<LogBackend>) -> (NexusVolume, SealedRootKey) {
        let (v, sealed) =
            NexusVolume::create(&self.platform, store, &self.ias, &self.owner, CONFIG).unwrap();
        v.authenticate(&self.owner).unwrap();
        v.mkdir("a").unwrap();
        v.mkdir("b").unwrap();
        for (i, len) in [100, 10, 70].into_iter().enumerate() {
            v.write_file(&format!("a/f{i}"), &vec![i as u8 + 1; len]).unwrap();
        }
        for (name, seed) in [("alice", 2), ("bob", 3)] {
            v.add_user(name, UserKeys::from_seed(name, &[seed; 32]).public_key()).unwrap();
        }
        v.create_group("team").unwrap();
        v.add_group_members("team", &["alice", "bob"]).unwrap();
        v.set_group_acl("b", "team", Rights::READ).unwrap();
        v.set_acl("a", "alice", Rights::READ).unwrap();
        v.write_file("b/g", b"group-scoped").unwrap();
        (v, sealed)
    }

    fn mount(
        &self,
        store: Arc<LogBackend>,
        sealed: &SealedRootKey,
    ) -> nexus_core::Result<NexusVolume> {
        let v = NexusVolume::mount(&self.platform, store, &self.ias, sealed, CONFIG)?;
        v.authenticate(&self.owner)?;
        Ok(v)
    }
}

/// What the check compares: each file's bytes by path, each directory's
/// ACL, the users, and each group's members.
#[derive(Debug, Clone, PartialEq)]
struct State {
    files: BTreeMap<String, Vec<u8>>,
    acls: Vec<Vec<(String, Rights)>>,
    users: Vec<String>,
    groups: Vec<(String, Vec<String>)>,
}

fn state_of(v: &NexusVolume) -> nexus_core::Result<State> {
    let mut files = BTreeMap::new();
    for dir in ["a", "b"] {
        for row in v.list_dir(dir)? {
            let path = format!("{dir}/{}", row.name);
            let data = v.read_file(&path)?;
            files.insert(path, data);
        }
    }
    let acls = DIRS.iter().map(|d| v.acl_entries(d)).collect::<nexus_core::Result<_>>()?;
    let groups = v
        .groups()?
        .into_iter()
        .map(|g| Ok((g.clone(), v.group_members(&g)?)))
        .collect::<nexus_core::Result<_>>()?;
    Ok(State { files, acls, users: v.users()?, groups })
}

/// The recovered state must be the old or the new one: per path for
/// files, as a whole for each ACL, the users and the groups.
fn old_or_new(got: &State, old: &State, new: &State, stale_allowed: bool) -> Result<(), String> {
    let paths: BTreeSet<&String> =
        old.files.keys().chain(new.files.keys()).chain(got.files.keys()).collect();
    for path in paths {
        let (g, o, n) = (got.files.get(path), old.files.get(path), new.files.get(path));
        tk_assert!(g == o || g == n, "{path}: neither old nor new ({:?} bytes)", g.map(Vec::len));
    }
    for ((dir, g), (o, n)) in DIRS.iter().zip(&got.acls).zip(old.acls.iter().zip(&new.acls)) {
        let live: Vec<(String, Rights)> = g
            .iter()
            .filter(|(name, _)| !(stale_allowed && name.starts_with("<stale:")))
            .cloned()
            .collect();
        tk_assert!(g == o || live == *n, "ACL of {dir:?}: {g:?} is neither {o:?} nor {n:?}");
    }
    tk_assert!(got.users == old.users || got.users == new.users, "users: {:?}", got.users);
    tk_assert!(got.groups == old.groups || got.groups == new.groups, "groups: {:?}", got.groups);
    Ok(())
}

fn open(root: &PathBuf, hook: Arc<dyn FaultHook>) -> Arc<LogBackend> {
    Arc::new(LogBackend::open_with_hook(root, Some(hook)).unwrap())
}

/// Crashes `op` at its `point`-th fault point, then checks what recovery
/// finds.
fn crash_cell(
    world: &World,
    (name, op, touched): (&str, Op, &[&str]),
    (setup_points, point, kind): (u64, u64, FaultKind),
    (old, new): (&State, &State),
) -> Result<(), String> {
    let root = tmp();
    let hook = FireAt::new(setup_points + point, kind);
    let store = open(&root, hook.clone());
    let (v, sealed) = world.set_up(store.clone());
    tk_assert!(hook.fired_at().is_none(), "{name}: the set-up crossed more points than counted");
    let _ = op(&v);
    let fired = hook.fired_at().unwrap_or_default();
    tk_assert!(store.crashed(), "{name}: point {point} ({kind:?}) never fired");
    drop((v, store));

    let store = Arc::new(LogBackend::open(&root).map_err(|e| format!("reopen: {e}"))?);
    let result = (|| {
        let v = world.mount(store.clone(), &sealed).map_err(|e| format!("mount: {e}"))?;
        let got = state_of(&v).map_err(|e| format!("read back: {e}"))?;
        old_or_new(&got, old, new, name == "revoke_user")?;
        let report = v.fsck(FsckMode::Deep).map_err(|e| format!("fsck: {e}"))?;
        tk_assert!(report.is_clean(), "fsck: {:?}", report.errors);
        drop(v);

        let fresh = world.mount(store, &sealed).map_err(|e| format!("fresh mount: {e}"))?;
        for dir in touched {
            fresh
                .write_file(&format!("{dir}/after-crash"), b"created after recovery")
                .map_err(|e| format!("create in {dir:?} after recovery: {e}"))?;
        }
        fresh
            .write_file("a/f0", b"rewritten after recovery")
            .map_err(|e| format!("rewrite a/f0 after recovery: {e}"))?;
        let carol = UserKeys::from_seed("carol", &[4; 32]).public_key();
        fresh.add_user("carol", carol).map_err(|e| format!("add_user after recovery: {e}"))?;
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&root);
    result.map_err(|e| format!("{name}, crash at {fired} ({kind:?}): {e}"))
}

#[test]
fn a_crash_at_any_step_of_an_operation_leaves_its_old_or_new_state() {
    let world = World::new();
    let mut cells = 0;
    for (name, op, touched) in OPS {
        // Sizing pass: the set-up's points, then the operation's, run as
        // each cell runs them; then the states before and after it.
        let root = tmp();
        let count = CountHook::new();
        let (v, _) = world.set_up(open(&root, count.clone()));
        let setup_points = count.count();
        op(&v).unwrap();
        let points = count.count() - setup_points;
        let new = state_of(&v).unwrap();
        drop(v);
        let _ = std::fs::remove_dir_all(&root);
        let old = state_of(&world.set_up(open(&root, count)).0).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        assert_ne!(old, new, "{name} changes the volume");
        // At least one frame's write and fsync.
        assert!(points >= 2, "{name} crosses only {points} fault points");

        let stats = faults::sweep(name, points, &[FaultKind::Torn, FaultKind::Drop], |point, kind| {
            crash_cell(&world, (name, op, touched), (setup_points, point, kind), (&old, &new))
        });
        assert_eq!(stats.runs, points * 2);
        cells += stats.runs;
    }
    // Locks write nothing, so every cell crashes a commit: 48 of them.
    assert!(cells >= 48, "{cells} cells");
}
