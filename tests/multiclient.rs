//! Multi-client consistency (paper §V-A): several NEXUS clients share one
//! volume over the same AFS server. Callback-based invalidation plus the
//! server-side metadata locks keep every client's view coherent.

use std::sync::Arc;

use nexus::storage::afs::{AfsClient, AfsServer};
use nexus::storage::hooked::Call;
use nexus::storage::{
    HookedBackend, LatencyModel, LogBackend, MemBackend, SimClock, StorageBackend,
};
use nexus::{
    AttestationService, NexusConfig, NexusVolume, Platform, Rights, UserKeys, VolumeJoiner,
};

struct Deployment {
    server: AfsServer,
    clock: SimClock,
    ias: AttestationService,
}

impl Deployment {
    fn new() -> Deployment {
        Deployment {
            server: AfsServer::new(),
            clock: SimClock::new(),
            ias: AttestationService::new(),
        }
    }

    fn client(&self) -> Arc<AfsClient> {
        Arc::new(AfsClient::connect(
            &self.server,
            self.clock.clone(),
            LatencyModel::instant(),
        ))
    }
}

/// Creates the volume as owner, shares with a second user on a second
/// machine, and returns both mounted, authenticated volumes.
fn shared_pair(deployment: &Deployment) -> (NexusVolume, NexusVolume) {
    shared_pair_over(deployment, deployment.client())
}

/// [`shared_pair`] with the owner's volume on `owner_backend`.
fn shared_pair_over(
    deployment: &Deployment,
    owner_backend: Arc<dyn StorageBackend>,
) -> (NexusVolume, NexusVolume) {
    let owner_machine = Platform::seeded(1);
    let peer_machine = Platform::seeded(2);
    deployment.ias.register_platform(&owner_machine);
    deployment.ias.register_platform(&peer_machine);
    let owner = UserKeys::from_seed("owner", &[1u8; 32]);
    let peer = UserKeys::from_seed("peer", &[2u8; 32]);

    let (owner_volume, _) = NexusVolume::create(
        &owner_machine,
        owner_backend,
        &deployment.ias,
        &owner,
        NexusConfig::default(),
    )
    .unwrap();
    owner_volume.authenticate(&owner).unwrap();
    owner_volume.mkdir("shared").unwrap();
    owner_volume.set_acl("shared", "owner", Rights::RW).unwrap();

    let peer_client = deployment.client();
    let joiner = VolumeJoiner::new(&peer_machine, peer_client.clone(), &deployment.ias);
    let sealed_offer = joiner.publish_offer(&peer).unwrap();
    owner_volume.grant_access(&owner, "peer", &peer.public_key()).unwrap();
    owner_volume.set_acl("shared", "peer", Rights::RW).unwrap();
    let sealed = joiner.accept_grant(&peer, &owner.public_key(), sealed_offer).unwrap();
    let peer_volume = NexusVolume::mount(
        &peer_machine,
        peer_client,
        &deployment.ias,
        &sealed,
        NexusConfig::default(),
    )
    .unwrap();
    peer_volume.authenticate(&peer).unwrap();
    (owner_volume, peer_volume)
}

#[test]
fn writes_propagate_between_clients() {
    let deployment = Deployment::new();
    let (a, b) = shared_pair(&deployment);
    a.write_file("shared/x.txt", b"from a").unwrap();
    assert_eq!(b.read_file("shared/x.txt").unwrap(), b"from a");
    b.write_file("shared/x.txt", b"from b").unwrap();
    assert_eq!(a.read_file("shared/x.txt").unwrap(), b"from b");
}

#[test]
fn directory_updates_are_visible() {
    let deployment = Deployment::new();
    let (a, b) = shared_pair(&deployment);
    for i in 0..10 {
        a.write_file(&format!("shared/a{i}"), b"1").unwrap();
        b.write_file(&format!("shared/b{i}"), b"2").unwrap();
    }
    let names_a: Vec<String> = a.list_dir("shared").unwrap().into_iter().map(|r| r.name).collect();
    let names_b: Vec<String> = b.list_dir("shared").unwrap().into_iter().map(|r| r.name).collect();
    assert_eq!(names_a.len(), 20);
    let mut sa = names_a.clone();
    let mut sb = names_b.clone();
    sa.sort();
    sb.sort();
    assert_eq!(sa, sb);
}

#[test]
fn interleaved_creates_in_one_directory_do_not_lose_entries() {
    // Both clients create files alternately in the same directory; the
    // metadata lock serializes the dirnode updates.
    let deployment = Deployment::new();
    let (a, b) = shared_pair(&deployment);
    for i in 0..25 {
        if i % 2 == 0 {
            a.write_file(&format!("shared/f{i:02}"), format!("{i}").as_bytes()).unwrap();
        } else {
            b.write_file(&format!("shared/f{i:02}"), format!("{i}").as_bytes()).unwrap();
        }
    }
    for volume in [&a, &b] {
        assert_eq!(volume.list_dir("shared").unwrap().len(), 25);
        for i in 0..25 {
            assert_eq!(
                volume.read_file(&format!("shared/f{i:02}")).unwrap(),
                format!("{i}").as_bytes(),
            );
        }
    }
}

#[test]
fn threaded_clients_in_separate_directories() {
    let deployment = Deployment::new();
    let (a, b) = shared_pair(&deployment);
    a.mkdir("shared/a").unwrap();
    a.mkdir("shared/b").unwrap();
    // Re-read so both see the dirs.
    assert!(b.exists("shared/a"));

    let ha = std::thread::spawn(move || {
        for i in 0..30 {
            a.write_file(&format!("shared/a/f{i}"), b"A").unwrap();
        }
        a
    });
    let hb = std::thread::spawn(move || {
        for i in 0..30 {
            b.write_file(&format!("shared/b/f{i}"), b"B").unwrap();
        }
        b
    });
    let a = ha.join().unwrap();
    let b = hb.join().unwrap();
    assert_eq!(a.list_dir("shared/b").unwrap().len(), 30);
    assert_eq!(b.list_dir("shared/a").unwrap().len(), 30);
}

#[test]
fn threaded_clients_in_same_directory() {
    // The hard case: concurrent creates in one directory from two OS
    // threads. flock emulation serializes dirnode read-modify-write cycles.
    let deployment = Deployment::new();
    let (a, b) = shared_pair(&deployment);
    let ha = std::thread::spawn(move || {
        for i in 0..20 {
            a.write_file(&format!("shared/a-{i}"), b"A").unwrap();
        }
        a
    });
    let hb = std::thread::spawn(move || {
        for i in 0..20 {
            b.write_file(&format!("shared/b-{i}"), b"B").unwrap();
        }
        b
    });
    let a = ha.join().unwrap();
    let _b = hb.join().unwrap();
    assert_eq!(a.list_dir("shared").unwrap().len(), 40, "no lost updates");
}

#[test]
fn acl_updates_do_not_overwrite_concurrent_creates() {
    // An ACL update rewrites the directory's main object, which also holds
    // the bucket MACs: it must take the directory lock and reload under it
    // like a create does, or it writes back the MACs it resolved before the
    // other client's create landed (entry lost, then every reader sees a
    // bucket that no longer matches its directory).
    //
    // The overlap is certain, not left to the scheduler: the creator starts
    // only once the owner's first `set_acl` has returned, and the owner
    // toggles at least once more after that, until the creator is done.
    use std::sync::atomic::{AtomicBool, Ordering};
    const FILES: usize = 60;
    let deployment = Deployment::new();
    let (owner, peer) = shared_pair(&deployment);
    let mut toggles = 0u32;
    let mut toggle = || {
        let rights = if toggles.is_multiple_of(2) { Rights::READ } else { Rights::RW };
        owner.set_acl("shared", "owner", rights).unwrap();
        toggles += 1;
    };
    toggle();
    let done = Arc::new(AtomicBool::new(false));
    let creator_done = done.clone();
    let creator = std::thread::spawn(move || {
        for i in 0..FILES {
            peer.create_file(&format!("shared/f{i:02}")).unwrap();
        }
        creator_done.store(true, Ordering::SeqCst);
        peer
    });
    loop {
        toggle();
        if done.load(Ordering::SeqCst) {
            break;
        }
    }
    let peer = creator.join().unwrap();
    assert!(toggles > 0);
    for volume in [&owner, &peer] {
        for i in 0..FILES {
            volume.lookup(&format!("shared/f{i:02}")).unwrap();
        }
    }
    let report = owner.fsck(nexus::core::FsckMode::Deep).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
    assert_eq!(report.files, FILES as u64);
}

#[test]
fn an_overwrite_racing_a_cross_directory_rename_keeps_the_new_parent() {
    // The owner's overwrite has walked to the file and asks for the
    // filenode's lock; before it is granted, the peer moves the file to
    // another directory, which rewrites the filenode's parent pointer. The
    // overwrite must not build on the filenode it walked to, whose parent
    // pointer would fail the swapping check on every later read. The
    // comparison under the lock finds `x` and the filenode changed and the
    // walk runs again: `x/f` names nothing now, so the write creates it, as
    // if the rename had run first. The moved file keeps its contents and
    // its new parent.
    let deployment = Deployment::new();
    let hooked = Arc::new(HookedBackend::new(deployment.client()));
    let (owner, peer) = shared_pair_over(&deployment, hooked.clone());
    owner.mkdir("shared/x").unwrap();
    owner.mkdir("shared/y").unwrap();
    owner.write_file("shared/x/f", b"old").unwrap();
    assert_eq!(peer.read_file("shared/x/f").unwrap(), b"old");

    let filenode = owner.lookup("shared/x/f").unwrap().uuid.object_name();
    let peer = Arc::new(peer);
    let mover = peer.clone();
    hooked.before(
        move |call, names| call == Call::Lock && names == [filenode.clone()],
        move || mover.rename("shared/x/f", "shared/y/f").unwrap(),
    );
    owner.write_file("shared/x/f", b"new").unwrap();
    assert!(!hooked.is_armed(), "the rename ran inside the overwrite");

    for volume in [&owner, &*peer] {
        assert_eq!(volume.read_file("shared/y/f").unwrap(), b"old");
        assert_eq!(volume.read_file("shared/x/f").unwrap(), b"new");
    }
    let report = owner.fsck(nexus::core::FsckMode::Deep).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}

#[test]
fn an_overwrite_keeps_a_link_count_another_client_changed_before_its_lock() {
    // Before the owner's overwrite is granted the filenode's lock, the peer
    // links the file into another directory: the filenode now counts two
    // names, and the directory the overwrite walked through is unchanged.
    // The comparison under the lock finds the cached filenode stale; the
    // walk runs again and names the same lock, which is kept, and the
    // filenode is reloaded under it. The commit is built on that copy: both
    // names read the new contents and the link count stays two.
    let deployment = Deployment::new();
    let hooked = Arc::new(HookedBackend::new(deployment.client()));
    let (owner, peer) = shared_pair_over(&deployment, hooked.clone());
    owner.mkdir("shared/x").unwrap();
    owner.mkdir("shared/y").unwrap();
    owner.write_file("shared/x/f", b"old").unwrap();
    assert_eq!(peer.read_file("shared/x/f").unwrap(), b"old");

    let filenode = owner.lookup("shared/x/f").unwrap().uuid.object_name();
    let peer = Arc::new(peer);
    let linker = peer.clone();
    hooked.take_calls();
    hooked.before(
        move |call, names| call == Call::Lock && names == [filenode.clone()],
        move || linker.hardlink("shared/x/f", "shared/y/g").unwrap(),
    );
    owner.write_file("shared/x/f", b"new").unwrap();
    assert!(!hooked.is_armed(), "the link ran inside the overwrite");
    let calls: Vec<Call> = hooked.take_calls().into_iter().map(|(call, _)| call).collect();
    let count = |wanted| calls.iter().filter(|&&call| call == wanted).count();
    assert_eq!((count(Call::Lock), count(Call::Unlock)), (1, 1), "{calls:?}");

    for volume in [&owner, &*peer] {
        for name in ["shared/x/f", "shared/y/g"] {
            assert_eq!(volume.read_file(name).unwrap(), b"new", "{name}");
            assert_eq!(volume.lookup(name).unwrap().nlink, 2, "{name}");
        }
    }
    let report = owner.fsck(nexus::core::FsckMode::Deep).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}

/// Two owner sessions on one store object each create 500 files in `d`
/// from a thread of their own; a fresh mount must then list all 1000, and
/// a deep fsck must be clean. The sessions exclude each other only if each
/// takes the store's locks as an owner of its own: under one owner for
/// every session, acknowledged creates went missing or `d` stopped loading
/// ("bucket … does not match the MAC in its dirnode").
fn two_sessions_on_one_store_keep_every_create(store: Arc<dyn StorageBackend>) {
    let platform = Platform::seeded(0x13A);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let owner = UserKeys::from_seed("owner", &[1u8; 32]);
    let config = NexusConfig::default();
    let (creator, sealed) =
        NexusVolume::create(&platform, store.clone(), &ias, &owner, config).unwrap();
    creator.authenticate(&owner).unwrap();
    creator.mkdir("d").unwrap();
    let session = || {
        let v = NexusVolume::mount(&platform, store.clone(), &ias, &sealed, config).unwrap();
        v.authenticate(&owner).unwrap();
        v
    };
    let writers: Vec<_> = ["a", "b"]
        .map(|tag| {
            let v = session();
            std::thread::spawn(move || {
                for i in 0..500 {
                    v.write_file(&format!("d/{tag}-{i}"), tag.as_bytes()).unwrap();
                }
            })
        })
        .into_iter()
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    let fresh = session();
    assert_eq!(fresh.list_dir("d").unwrap().len(), 1000, "acknowledged creates lost");
    let report = fresh.fsck(nexus::core::FsckMode::Deep).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}

#[test]
fn two_sessions_on_one_mem_backend_keep_every_create() {
    two_sessions_on_one_store_keep_every_create(Arc::new(MemBackend::new()));
}

#[test]
fn two_sessions_on_one_log_backend_keep_every_create() {
    let root = std::env::temp_dir().join(format!("nexus-two-sessions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    two_sessions_on_one_store_keep_every_create(Arc::new(LogBackend::open(&root).unwrap()));
    std::fs::remove_dir_all(&root).unwrap();
}

/// Two owner sessions on one `MemBackend`, which answers a contended lock
/// with an error that each session retries: the first over a call log of
/// the store, the second on the store itself. `d` holds `a/d`, `b`, `a/f`
/// and `b/g`, and both sessions have walked it.
fn two_sessions_on_one_mem_backend() -> (Arc<HookedBackend<MemBackend>>, NexusVolume, NexusVolume)
{
    let platform = Platform::seeded(0x2D1);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let owner = UserKeys::from_seed("owner", &[1u8; 32]);
    let config = NexusConfig::default();
    let mem = Arc::new(MemBackend::new());
    let log = Arc::new(HookedBackend::new(mem.clone()));
    let (first, sealed) =
        NexusVolume::create(&platform, log.clone(), &ias, &owner, config).unwrap();
    first.authenticate(&owner).unwrap();
    first.mkdir_all("a/d").unwrap();
    first.mkdir("b").unwrap();
    first.write_file("a/f", b"f").unwrap();
    first.write_file("b/g", b"g").unwrap();
    let second = NexusVolume::mount(&platform, mem, &ias, &sealed, config).unwrap();
    second.authenticate(&owner).unwrap();
    for v in [&first, &second] {
        v.list_dir("a/d").unwrap();
        v.list_dir("b").unwrap();
    }
    (log, first, second)
}

#[test]
fn a_create_inside_a_directory_moved_across_directories_is_kept_or_refused() {
    // The move rewrites the moved directory's main object (its parent
    // pointer). Just before that commit lands, the other session creates
    // `x` inside the directory. Holding the moved directory's lock, the
    // move makes the create wait for it and then find `a/d` gone. Without
    // that lock the create lands first and the move writes back the old
    // bucket MACs over it: `x` is lost and `b/d` never loads again.
    use std::sync::mpsc;
    use std::time::Duration;
    let (log, mover, creator) = two_sessions_on_one_mem_backend();
    let (racing, raced) = mpsc::channel();
    log.before(
        |call, _| call == Call::PutMany,
        move || {
            let (done, finished) = mpsc::channel();
            let racer = std::thread::spawn(move || {
                let created = creator.write_file("a/d/x", b"x");
                let _ = done.send(());
                (creator, created)
            });
            let _ = finished.recv_timeout(Duration::from_millis(200));
            racing.send(racer).unwrap();
        },
    );
    mover.rename("a/d", "b/d").unwrap();
    let (creator, created) = raced.recv().expect("the hook fired").join().unwrap();

    let listed = |v: &NexusVolume| -> Vec<String> {
        v.list_dir("b/d").unwrap().into_iter().map(|row| row.name).collect()
    };
    match created {
        Ok(()) => assert_eq!(creator.read_file("b/d/x").unwrap(), b"x"),
        Err(nexus::NexusError::NotFound(_)) => assert!(listed(&creator).is_empty()),
        Err(e) => panic!("the create failed: {e}"),
    }
    assert_eq!(listed(&mover), listed(&creator));
    for v in [&mover, &creator] {
        let report = v.fsck(nexus::core::FsckMode::Deep).unwrap();
        assert!(report.is_clean(), "{:?}", report.errors);
    }
}

#[test]
fn renames_across_two_directories_in_opposite_directions_do_not_deadlock() {
    // One session moves a file from `a` to `b` and back, the other a file
    // from `b` to `a` and back: each rename locks both directories. Taken
    // source first, one session could hold `a` and wait for `b` while the
    // other held `b` and waited for `a`, until a retry budget ran out and a
    // rename failed "lock contended". Every lock set is taken in one global
    // order, so one of the two always gets both.
    const ROUNDS: usize = 2000;
    let (_, first, second) = two_sessions_on_one_mem_backend();
    let shuttle = |v: NexusVolume, there: [&'static str; 2]| {
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                v.rename(there[0], there[1]).unwrap();
                v.rename(there[1], there[0]).unwrap();
            }
            v
        })
    };
    let forth = shuttle(first, ["a/f", "b/f"]);
    let back = shuttle(second, ["b/g", "a/g"]);
    let first = forth.join().unwrap();
    back.join().unwrap();
    assert_eq!(first.read_file("a/f").unwrap(), b"f");
    assert_eq!(first.read_file("b/g").unwrap(), b"g");
    let report = first.fsck(nexus::core::FsckMode::Deep).unwrap();
    assert!(report.is_clean(), "{:?}", report.errors);
}
