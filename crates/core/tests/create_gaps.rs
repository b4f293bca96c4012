//! A file created with its contents is one commit, so another client sees
//! it absent or whole — never an empty file — whichever gap between the
//! creator's storage calls it looks in; and a second writer of the same
//! name, in any gap, leaves one entry holding the later writer's bytes.
//!
//! Each case mounts the creator over a [`HookedBackend`], fires another
//! session's whole operation just before the creator's call number `gap`,
//! and repeats for every gap of the create's call sequence.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};

use nexus_core::{FsckMode, NexusConfig, NexusError, NexusVolume, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::hooked::Call;
use nexus_storage::{HookedBackend, IoStats, MemBackend, ObjectStat, StorageBackend, StorageError};

const PATH: &str = "d/f";

/// `flock` over one store: each client locks as its own owner, and a
/// contended `lock` blocks until the holder unlocks. (`MemBackend` answers
/// a contended lock with an error, and every volume there locks as owner
/// 0, so two volumes on one `MemBackend` never exclude each other.)
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
/// to `flock` under the client's own owner id.
struct Client {
    mem: Arc<MemBackend>,
    flock: Arc<Flock>,
    owner: u64,
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
    fn lock(&self, path: &str, _: u64) -> Result<(), StorageError> {
        self.flock.lock(path, self.owner);
        Ok(())
    }
    fn unlock(&self, path: &str, _: u64) {
        self.flock.unlock(path, self.owner)
    }
    fn stats(&self) -> IoStats {
        self.mem.stats()
    }
}

type Log = Arc<HookedBackend<Client>>;

/// A volume holding the directory `d`, empty at first, and a way to mount
/// another session of its owner, warm on `d`, as lock owner `id` over its
/// own call log.
struct World {
    flock: Arc<Flock>,
    mount: Box<dyn Fn(u64) -> (Log, NexusVolume)>,
}

fn world() -> World {
    let platform = Platform::seeded(0x6A95);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let flock = Arc::new(Flock::default());
    let owner = UserKeys::from_seed("owner", &[1; 32]);
    // Three chunks for the contents below.
    let config = NexusConfig { chunk_size: 16, ..NexusConfig::default() };
    let client = {
        let (mem, flock) = (Arc::new(MemBackend::new()), flock.clone());
        move |id| Arc::new(Client { mem: mem.clone(), flock: flock.clone(), owner: id })
    };
    let (first, sealed) = NexusVolume::create(&platform, client(0), &ias, &owner, config).unwrap();
    first.authenticate(&owner).unwrap();
    first.mkdir("d").unwrap();
    let mount = move |id| {
        let log = Arc::new(HookedBackend::new(client(id)));
        let v = NexusVolume::mount(&platform, log.clone(), &ias, &sealed, config).unwrap();
        v.authenticate(&owner).unwrap();
        v.list_dir("d").unwrap();
        log.take_calls();
        (log, v)
    };
    World { flock, mount: Box::new(mount) }
}

fn contents(fill: u8) -> Vec<u8> {
    vec![fill; 40]
}

/// The calls of a warm create of `PATH` with contents.
fn create_calls() -> Vec<Call> {
    let (log, creator) = (world().mount)(1);
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
        let (log, creator) = (w.mount)(1);
        let (_, reader) = (w.mount)(2);
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

#[test]
fn a_racing_writer_in_any_gap_leaves_one_entry_with_the_later_bytes() {
    let calls = create_calls();
    let lock = calls.iter().position(|&call| call == Call::Lock).unwrap();
    let put = calls.iter().position(|&call| call == Call::PutMany).unwrap();
    let (mine, theirs) = (contents(1), contents(2));
    let mut fell_back = Vec::new();
    for gap in 0..calls.len() {
        let w = world();
        let (log, creator) = (w.mount)(1);
        let (racer_log, racer) = (w.mount)(2);
        let racer = Arc::new(racer);
        // The racer runs on its own thread so that it can block on a lock
        // the creator holds; the creator goes on once the racer has either
        // finished or blocked.
        let (started, racing) = mpsc::channel();
        let (flock, writer, bytes) = (w.flock.clone(), racer.clone(), theirs.clone());
        before_call(&log, gap, move || {
            let done = Done(flock.clone());
            let thread = std::thread::spawn(move || {
                let _done = done;
                writer.write_file(PATH, &bytes).unwrap();
            });
            started.send((thread, flock.until_blocked_or_done())).unwrap();
        });
        creator.write_file(PATH, &mine).unwrap();
        let (thread, finished_in_gap) = racing.try_recv().expect("the hook fired");
        thread.join().unwrap();

        // The racer waits only while the creator holds `d`'s lock and has
        // not committed; after the commit it overwrites under the
        // filenode's lock, which the creator never took.
        let holds_uncommitted = lock < gap && gap <= put;
        assert_eq!(finished_in_gap, !holds_uncommitted, "gap {gap} of {calls:?}");
        // Done before the creator took the lock: the creator wrote last.
        // Blocked until its commit, or writing after it: the racer did.
        let later = if gap <= lock { &mine } else { &theirs };
        let (_, fresh) = (w.mount)(3);
        for (who, volume) in [("creator", &creator), ("racer", &*racer), ("fresh", &fresh)] {
            assert_eq!(volume.read_file(PATH).unwrap(), *later, "{who} after gap {gap}");
            let rows = volume.list_dir("d").unwrap();
            let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["f"], "{who} after gap {gap}");
        }
        let report = fresh.fsck(FsckMode::Deep).unwrap();
        assert!(report.is_clean(), "gap {gap}: {:?}", report.errors);

        // A writer whose walk found no entry but whose directory lock did
        // falls back to the overwrite: a second lock, on the filenode.
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
    expected.extend((lock + 1..=put).map(|gap| (gap, "racer")));
    assert_eq!(fell_back, expected, "{calls:?}");
}
