//! A mutation's commit is one `put_many`, so another client sees the
//! mutated state old or new — never a mix, never an empty file — whichever
//! gap between the mutator's storage calls it looks in; and a conflicting
//! writer, in any gap, leaves what running the two operations one after the
//! other leaves, in one order or the other: the serial semantics
//! `tests/fs_model.rs` holds the volume to against its model.
//!
//! Each case mounts the mutator over a [`HookedBackend`], fires another
//! session's whole operation just before the mutator's call number `gap`,
//! and repeats for every gap of the mutation's call sequence: a create with
//! contents, an overwrite, a remove, a cross-directory rename, a hard link,
//! an ACL edit and an edit of the user list. The same rig pins the two
//! races that the comparison under a mutation's locks closes: a right
//! revoked between a walk and its lock, and a revocation sweep that
//! rewrote a directory without its lock.

use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};

use nexus_core::{FileType, FsckMode, NexusConfig, NexusError, NexusVolume, Rights, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::hooked::Call;
use nexus_storage::{HookedBackend, IoStats, MemBackend, ObjectStat, StorageBackend, StorageError};

const PATH: &str = "d/f";

/// `flock` over one store: each session locks as the owner it passes, and
/// a contended `lock` blocks until the holder unlocks. (`MemBackend`
/// answers a contended lock with an error.)
#[derive(Default)]
struct Flock {
    locks: Mutex<Locks>,
    changed: Condvar,
}

#[derive(Default)]
struct Locks {
    held: HashMap<String, u64>,
    /// Clients blocked in `lock` right now.
    waiting: usize,
    /// Threads that ended holding a [`Done`].
    done: usize,
}

impl Flock {
    fn lock(&self, path: &str, owner: u64) {
        let mut locks = self.locks.lock().unwrap();
        let taken = |locks: &mut Locks| locks.held.get(path).is_some_and(|&by| by != owner);
        if taken(&mut locks) {
            locks.waiting += 1;
            self.changed.notify_all();
            locks = self.changed.wait_while(locks, |locks| taken(locks)).unwrap();
            locks.waiting -= 1;
        }
        locks.held.insert(path.to_string(), owner);
    }

    fn unlock(&self, path: &str, owner: u64) {
        let mut locks = self.locks.lock().unwrap();
        if locks.held.get(path) == Some(&owner) {
            locks.held.remove(path);
            self.changed.notify_all();
        }
    }

    /// Blocks until a client waits for a lock or a [`Done`] thread ends;
    /// true for the latter.
    fn until_blocked_or_done(&self) -> bool {
        let locks = self.locks.lock().unwrap();
        let idle = |locks: &mut Locks| locks.waiting == 0 && locks.done == 0;
        self.changed.wait_while(locks, idle).unwrap().done > 0
    }
}

/// Held by a thread so that [`Flock::until_blocked_or_done`] learns when it
/// ends, however it ends.
struct Done(Arc<Flock>);

impl Drop for Done {
    fn drop(&mut self) {
        self.0.locks.lock().unwrap_or_else(PoisonError::into_inner).done += 1;
        self.0.changed.notify_all();
    }
}

/// One client's connection to the shared store: objects go to `mem`, locks
/// to `flock`.
struct Client {
    mem: Arc<MemBackend>,
    flock: Arc<Flock>,
}

impl StorageBackend for Client {
    fn put(&self, path: &str, data: &[u8]) -> Result<(), StorageError> {
        self.mem.put(path, data)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.mem.get(path)
    }
    fn get_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        self.mem.get_range(path, offset, len)
    }
    fn get_many(&self, paths: &[String]) -> Vec<Result<Vec<u8>, StorageError>> {
        self.mem.get_many(paths)
    }
    fn put_many(&self, items: &[(String, Vec<u8>)]) -> Vec<Result<(), StorageError>> {
        self.mem.put_many(items)
    }
    fn stat_many(&self, paths: &[String]) -> Vec<Result<ObjectStat, StorageError>> {
        self.mem.stat_many(paths)
    }
    fn delete(&self, path: &str) -> Result<(), StorageError> {
        self.mem.delete(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.mem.exists(path)
    }
    fn stat(&self, path: &str) -> Result<ObjectStat, StorageError> {
        self.mem.stat(path)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.mem.list(prefix)
    }
    fn lock(&self, path: &str, owner: u64) -> Result<(), StorageError> {
        self.flock.lock(path, owner);
        Ok(())
    }
    fn unlock(&self, path: &str, owner: u64) {
        self.flock.unlock(path, owner)
    }
    fn stats(&self) -> IoStats {
        self.mem.stats()
    }
}

type Log = Arc<HookedBackend<Client>>;

/// A volume its owner has set up, and a way to mount another session on
/// it over its own call log.
struct World {
    flock: Arc<Flock>,
    mount_as: Box<Mount>,
}

type Session = (Log, NexusVolume);

type Mount = dyn Fn(&UserKeys) -> Session;

/// One client's whole operation.
type Op = dyn Fn(&NexusVolume) -> Result<(), NexusError>;

fn owner() -> UserKeys {
    UserKeys::from_seed("owner", &[1; 32])
}

fn alice() -> UserKeys {
    UserKeys::from_seed("alice", &[2; 32])
}

/// A world whose owner ran `setup` on the fresh volume.
fn world_with(setup: impl FnOnce(&NexusVolume)) -> World {
    let platform = Platform::seeded(0x6A95);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let flock = Arc::new(Flock::default());
    // Three chunks for the contents below.
    let config = NexusConfig { chunk_size: 16, ..NexusConfig::default() };
    let client = {
        let (mem, flock) = (Arc::new(MemBackend::new()), flock.clone());
        move || Arc::new(Client { mem: mem.clone(), flock: flock.clone() })
    };
    let (first, sealed) =
        NexusVolume::create(&platform, client(), &ias, &owner(), config).unwrap();
    first.authenticate(&owner()).unwrap();
    setup(&first);
    let mount_as = move |user: &UserKeys| {
        let log = Arc::new(HookedBackend::new(client()));
        let v = NexusVolume::mount(&platform, log.clone(), &ias, &sealed, config).unwrap();
        v.authenticate(user).unwrap();
        (log, v)
    };
    World { flock, mount_as: Box::new(mount_as) }
}

impl World {
    /// An owner session that has read everything, with an empty log.
    fn mount(&self) -> Session {
        let (log, v) = (self.mount_as)(&owner());
        tree(&v).unwrap();
        log.take_calls();
        (log, v)
    }
}

/// The directory `d`, empty.
fn world() -> World {
    world_with(|v| v.mkdir("d").unwrap())
}

/// What a volume holds, as one session sees it: every directory with its
/// ACL and every file with its contents, by path.
type Tree = BTreeMap<String, Node>;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Dir(Vec<(String, Rights)>),
    File(Vec<u8>),
}

fn tree(v: &NexusVolume) -> Result<Tree, NexusError> {
    let mut out = Tree::new();
    let mut dirs = vec![String::new()];
    while let Some(dir) = dirs.pop() {
        out.insert(dir.clone(), Node::Dir(v.acl_entries(&dir)?));
        for row in v.list_dir(&dir)? {
            let path = if dir.is_empty() { row.name } else { format!("{dir}/{}", row.name) };
            match row.kind {
                FileType::Directory => dirs.push(path),
                FileType::File => {
                    let bytes = v.read_file(&path)?;
                    out.insert(path, Node::File(bytes));
                }
                FileType::Symlink => {}
            }
        }
    }
    Ok(out)
}

fn contents(fill: u8) -> Vec<u8> {
    vec![fill; 40]
}

/// The calls of a warm create of `PATH` with contents.
fn create_calls() -> Vec<Call> {
    let (log, creator) = world().mount();
    creator.write_file(PATH, &contents(1)).unwrap();
    log.take_calls().into_iter().map(|(call, _)| call).collect()
}

/// Arms `log` to run `run` just before the call with index `gap`.
fn before_call(log: &Log, gap: usize, run: impl FnOnce() + Send + 'static) {
    let mut seen = 0;
    log.before(
        move |_, _| {
            seen += 1;
            seen == gap + 1
        },
        run,
    );
}

#[derive(Debug, PartialEq)]
enum Seen {
    Absent,
    Present(u64, Vec<u8>),
}

#[test]
fn a_reader_in_any_gap_sees_the_file_absent_or_whole() {
    let calls = create_calls();
    let put = calls.iter().position(|&call| call == Call::PutMany).unwrap();
    let whole = contents(1);
    for gap in 0..calls.len() {
        let w = world();
        let (log, creator) = w.mount();
        let (_, reader) = w.mount();
        let (looked, seen) = mpsc::channel();
        before_call(&log, gap, move || {
            let view = match reader.lookup(PATH) {
                Err(NexusError::NotFound(_)) => Seen::Absent,
                Ok(info) => Seen::Present(info.size, reader.read_file(PATH).unwrap()),
                Err(e) => panic!("lookup in gap {gap}: {e}"),
            };
            looked.send(view).unwrap();
        });
        creator.write_file(PATH, &whole).unwrap();
        let seen = seen.try_recv().expect("the hook fired");
        let expected =
            if gap <= put { Seen::Absent } else { Seen::Present(whole.len() as u64, whole.clone()) };
        assert_eq!(seen, expected, "before call {gap} of {calls:?}");
    }
}

/// Arms `log` to start `racer` on a thread of its own just before the call
/// with index `gap`, so that the racer can block on a lock the mutator
/// holds; the mutator goes on once the racer has finished or blocked. The
/// receiver yields the thread and whether it finished inside the gap.
fn race_before_call<T: Send + 'static>(
    w: &World,
    log: &Log,
    gap: usize,
    racer: impl FnOnce() -> T + Send + 'static,
) -> mpsc::Receiver<(std::thread::JoinHandle<T>, bool)> {
    let (started, racing) = mpsc::channel();
    let flock = w.flock.clone();
    before_call(log, gap, move || {
        let done = Done(flock.clone());
        let thread = std::thread::spawn(move || {
            let _done = done;
            racer()
        });
        started.send((thread, flock.until_blocked_or_done())).unwrap();
    });
    racing
}

#[test]
fn a_racing_writer_in_any_gap_leaves_one_entry_with_the_later_bytes() {
    let calls = create_calls();
    let position = |wanted| calls.iter().position(|&call| call == wanted).unwrap();
    let (lock, unlock) = (position(Call::Lock), position(Call::Unlock));
    let (mine, theirs) = (contents(1), contents(2));
    let mut fell_back = Vec::new();
    for gap in 0..calls.len() {
        let w = world();
        let (log, creator) = w.mount();
        let (racer_log, racer) = w.mount();
        let racer = Arc::new(racer);
        let (writer, bytes) = (racer.clone(), theirs.clone());
        let racing = race_before_call(&w, &log, gap, move || writer.write_file(PATH, &bytes));
        creator.write_file(PATH, &mine).unwrap();
        let (thread, finished_in_gap) = racing.try_recv().expect("the hook fired");
        thread.join().unwrap().unwrap();

        // A walk does not settle before its lock, so a racer whose cached
        // `d` predates the creator's commit asks for `d`'s lock as well,
        // and waits for as long as the creator holds it.
        let holds = lock < gap && gap <= unlock;
        assert_eq!(finished_in_gap, !holds, "gap {gap} of {calls:?}");
        // Done before the creator took the lock: the creator wrote last.
        // Blocked until the creator let go: the racer did.
        let later = if gap <= lock { &mine } else { &theirs };
        let (_, fresh) = w.mount();
        for (who, volume) in [("creator", &creator), ("racer", &*racer), ("fresh", &fresh)] {
            assert_eq!(volume.read_file(PATH).unwrap(), *later, "{who} after gap {gap}");
            let rows = volume.list_dir("d").unwrap();
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["f"], "{who} after gap {gap}");
        }
        let report = fresh.fsck(FsckMode::Deep).unwrap();
        assert!(report.is_clean(), "gap {gap}: {:?}", report.errors);

        // A writer whose walk found no entry, and whose comparison under
        // the directory's lock found `d` changed, walks again, finds the
        // file and overwrites it: a second lock, on the filenode.
        for (who, log) in [("creator", &log), ("racer", &racer_log)] {
            let locks = log.take_calls().iter().filter(|(call, _)| *call == Call::Lock).count();
            if locks > 1 {
                fell_back.push((gap, who));
            }
        }
    }
    // The creator, when the racer created the file between its walk and
    // its lock; the racer, whenever it waited for that lock.
    let mut expected = vec![(lock, "creator")];
    expected.extend((lock + 1..=unlock).map(|gap| (gap, "racer")));
    assert_eq!(fell_back, expected, "{calls:?}");
}

/// A second owner session adding a user in any gap of `add_user` either
/// finishes before the supernode's lock is taken or waits for it, and each
/// edit is made on the supernode the other wrote: both users are listed,
/// in the order the two ran.
#[test]
fn a_racing_admin_in_any_gap_of_add_user_keeps_both_users() {
    let key = |seed| UserKeys::from_seed("u", &[seed; 32]).public_key();
    let calls: Vec<Call> = {
        let (log, admin) = world().mount();
        admin.add_user("u1", key(3)).unwrap();
        log.take_calls().into_iter().map(|(call, _)| call).collect()
    };
    let position = |wanted| calls.iter().position(|&call| call == wanted);
    for gap in 0..calls.len() {
        let w = world();
        let (log, admin) = w.mount();
        let (_, racer) = w.mount();
        let racing = race_before_call(&w, &log, gap, move || racer.add_user("u2", key(4)));
        admin.add_user("u1", key(3)).unwrap();
        let (thread, finished_in_gap) = racing.try_recv().expect("the hook fired");
        thread.join().unwrap().unwrap();
        let users = w.mount().1.users().unwrap();
        let mut kept = users.clone();
        kept.sort();
        assert_eq!(kept, ["owner", "u1", "u2"], "gap {gap} of {calls:?}");

        // Done before the admin took the lock: the racer went first.
        // Blocked until the admin let go: the admin did.
        let lock = position(Call::Lock).expect("the edit takes the supernode's lock");
        let unlock = position(Call::Unlock).expect("and releases it");
        let holds = lock < gap && gap <= unlock;
        assert_eq!(finished_in_gap, !holds, "gap {gap} of {calls:?}");
        let first = if gap <= lock { "u2" } else { "u1" };
        assert_eq!(users[1], first, "gap {gap} of {calls:?}");
    }
}

// -- Every other mutation --------------------------------------------------

/// The mutations the gap sweep drives, on a volume holding `d/f`, an empty
/// `e` and a user `alice`.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Overwrite,
    Remove,
    Rename,
    SetAcl,
    Hardlink,
}

impl Mutation {
    const ALL: [Mutation; 5] = [
        Mutation::Overwrite,
        Mutation::Remove,
        Mutation::Rename,
        Mutation::SetAcl,
        Mutation::Hardlink,
    ];

    fn run(self, v: &NexusVolume) -> Result<(), NexusError> {
        match self {
            Mutation::Overwrite => v.write_file("d/f", &contents(1)),
            Mutation::Remove => v.remove("d/f"),
            Mutation::Rename => v.rename("d/f", "e/f"),
            Mutation::SetAcl => v.set_acl("d", "alice", Rights::READ),
            Mutation::Hardlink => v.hardlink("d/f", "e/h"),
        }
    }

    /// Another client's write that needs a lock this mutation takes: the
    /// filenode's for an overwrite, a cross-directory rename and a hard
    /// link, `d`'s for a remove and an ACL edit.
    fn conflict(self, v: &NexusVolume) -> Result<(), NexusError> {
        match self {
            Mutation::Overwrite | Mutation::Rename | Mutation::Hardlink => {
                v.write_file("d/f", &contents(2))
            }
            Mutation::Remove | Mutation::SetAcl => v.write_file("d/g", &contents(2)),
        }
    }
}

fn mutation_world() -> World {
    world_with(|v| {
        v.mkdir("d").unwrap();
        v.mkdir("e").unwrap();
        v.write_file("d/f", &contents(0)).unwrap();
        v.add_user("alice", alice().public_key()).unwrap();
    })
}

/// The calls of `m` from a warm session.
fn mutation_calls(m: Mutation) -> Vec<Call> {
    let (log, v) = mutation_world().mount();
    m.run(&v).unwrap();
    log.take_calls().into_iter().map(|(call, _)| call).collect()
}

/// What `ops` leave when one session runs them one after the other.
fn serial(ops: &[&Op]) -> Tree {
    let w = mutation_world();
    let (_, v) = w.mount();
    for op in ops {
        op(&v).unwrap();
    }
    tree(&w.mount().1).unwrap()
}

#[test]
fn a_reader_in_any_gap_of_a_mutation_sees_its_old_state_or_its_new_one() {
    for m in Mutation::ALL {
        let calls = mutation_calls(m);
        let put = calls.iter().position(|&call| call == Call::PutMany).unwrap();
        let (old, new) = (serial(&[]), serial(&[&move |v: &NexusVolume| m.run(v)]));
        assert_ne!(old, new, "{m:?}");
        for gap in 0..calls.len() {
            let w = mutation_world();
            let (log, mutator) = w.mount();
            let (_, reader) = w.mount();
            let (looked, seen) = mpsc::channel();
            before_call(&log, gap, move || looked.send(tree(&reader)).unwrap());
            m.run(&mutator).unwrap();
            let seen = seen.try_recv().expect("the hook fired").unwrap();
            let expected = if gap <= put { &old } else { &new };
            assert_eq!(&seen, expected, "{m:?}: before call {gap} of {calls:?}");
        }
    }
}

#[test]
fn a_conflicting_writer_in_any_gap_of_a_mutation_leaves_a_serial_outcome() {
    for m in Mutation::ALL {
        let calls = mutation_calls(m);
        let run = move |v: &NexusVolume| m.run(v);
        let conflict = move |v: &NexusVolume| m.conflict(v);
        let allowed = [serial(&[&run, &conflict]), serial(&[&conflict, &run])];
        for gap in 0..calls.len() {
            let w = mutation_world();
            let (log, mutator) = w.mount();
            let (_, racer) = w.mount();
            let racing = race_before_call(&w, &log, gap, move || m.conflict(&racer));
            m.run(&mutator).unwrap();
            let (thread, _) = racing.try_recv().expect("the hook fired");
            thread.join().unwrap().unwrap();
            let (_, fresh) = w.mount();
            let left = tree(&fresh).unwrap();
            assert!(allowed.contains(&left), "{m:?}, gap {gap} of {calls:?}: {left:?}");
            let report = fresh.fsck(FsckMode::Deep).unwrap();
            assert!(report.is_clean(), "{m:?}, gap {gap}: {:?}", report.errors);
        }
    }
}

// -- Races the comparison under the lock closes ----------------------------

/// A user's rights are checked on the copies of the directories the commit
/// is reached through: the owner revoking `alice`'s write on `d` between
/// her walk and her lock denies her create, remove and rename, and they
/// write nothing — whether her session had `d` cached or its walk fetched
/// it, and whether the right is `d`'s own or one `d` grants in `d/s`.
#[test]
fn write_revoked_between_the_walk_and_the_lock_is_denied() {
    revoke_between_walk_and_lock("d", |user| {
        for dir in ["d", "e"] {
            user.list_dir(dir).unwrap();
        }
        user.read_file("d/f").unwrap();
    });
    // Nothing cached: `d` is fetched before the lock, and compared after it
    // like a cache hit.
    revoke_between_walk_and_lock("d/s", |_| {});
}

/// Runs `alice`'s create, remove and rename in `dir` on a session `warm`
/// has used, with `d`'s grant of her write revoked just before her first
/// lock.
fn revoke_between_walk_and_lock(dir: &str, warm: impl Fn(&NexusVolume)) {
    let (create, file) = (format!("{dir}/new"), format!("{dir}/f"));
    let moved = file.clone();
    let ops: [(&str, &Op); 3] = [
        ("create", &move |v: &NexusVolume| v.write_file(&create, &contents(1))),
        ("remove", &move |v: &NexusVolume| v.remove(&file)),
        ("rename", &move |v: &NexusVolume| v.rename(&moved, "e/f")),
    ];
    for (what, op) in ops {
        let w = world_with(|v| {
            v.mkdir_all("d/s").unwrap();
            v.mkdir("e").unwrap();
            v.write_file("d/f", &contents(0)).unwrap();
            v.write_file("d/s/f", &contents(0)).unwrap();
            v.add_user("alice", alice().public_key()).unwrap();
            v.set_acl("d", "alice", Rights::RW).unwrap();
            v.set_acl("e", "alice", Rights::RW).unwrap();
        });
        let (log, user) = (w.mount_as)(&alice());
        warm(&user);
        let (_, owner) = w.mount();
        let before = tree(&owner).unwrap();
        log.take_calls();
        log.before(
            |call, _| call == Call::Lock,
            move || owner.set_acl("d", "alice", Rights::READ).unwrap(),
        );
        let err = op(&user).unwrap_err();
        assert!(matches!(err, NexusError::AccessDenied(_)), "{what} in {dir}: {err:?}");
        let calls: Vec<Call> = log.take_calls().into_iter().map(|(call, _)| call).collect();
        assert!(
            !calls.iter().any(|call| matches!(call, Call::PutMany | Call::Put | Call::Delete)),
            "{what} in {dir} wrote: {calls:?}"
        );
        let mut expected = before;
        expected.insert("d".into(), Node::Dir(vec![("alice".into(), Rights::READ)]));
        assert_eq!(tree(&w.mount().1).unwrap(), expected, "{what} in {dir}");
    }
}

/// `revoke_user` sweeps the user out of every ACL. A create that another
/// session makes in a swept directory while the sweep is about to write it
/// waits for the directory's lock, then lands on the swept directory: the
/// entry and the revocation both hold.
#[test]
fn a_create_racing_the_revocation_sweep_is_kept() {
    let w = world_with(|v| {
        v.mkdir("d").unwrap();
        v.add_user("alice", alice().public_key()).unwrap();
        v.set_acl("d", "alice", Rights::RW).unwrap();
    });
    let (log, revoker) = w.mount();
    let (_, racer) = w.mount();
    let racing = {
        let (started, racing) = mpsc::channel();
        let flock = w.flock.clone();
        log.before(
            |call, _| call == Call::PutMany,
            move || {
                let done = Done(flock.clone());
                let thread = std::thread::spawn(move || {
                    let _done = done;
                    racer.write_file("d/x", &contents(3))
                });
                started.send((thread, flock.until_blocked_or_done())).unwrap();
            },
        );
        racing
    };
    revoker.revoke_user("alice").unwrap();
    let (thread, finished_before_the_sweep_wrote) = racing.try_recv().expect("the sweep wrote");
    thread.join().unwrap().unwrap();

    let (_, fresh) = w.mount();
    let left = tree(&fresh).unwrap();
    assert_eq!(left.get("d/x"), Some(&Node::File(contents(3))));
    assert_eq!(left.get("d"), Some(&Node::Dir(Vec::new())), "alice is swept out");
    assert_eq!(fresh.users().unwrap(), ["owner"]);
    let report = fresh.fsck(FsckMode::Deep).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert!(!finished_before_the_sweep_wrote, "the sweep writes `d` under its lock");
}

/// An overwrite whose walk fetched the directory, then found the file
/// moved out of it before its lock was granted, walks again and creates
/// the name afresh: the directory it fetched is compared after the lock
/// like a cache hit, so the moved filenode's new parent pointer is not
/// taken for a swap.
#[test]
fn an_overwrite_that_walked_cold_follows_a_rename_before_its_lock() {
    let w = mutation_world();
    let (log, writer) = (w.mount_as)(&owner());
    let (_, mover) = w.mount();
    log.before(|call, _| call == Call::Lock, move || mover.rename("d/f", "e/f").unwrap());
    writer.write_file("d/f", &contents(1)).unwrap();
    assert!(!log.is_armed(), "the rename ran before the overwrite's lock");
    let left = tree(&w.mount().1).unwrap();
    assert_eq!(left.get("d/f"), Some(&Node::File(contents(1))));
    assert_eq!(left.get("e/f"), Some(&Node::File(contents(0))));
}
