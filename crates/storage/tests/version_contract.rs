//! The storage version contract (`ObjectStat::version`): every put, alone
//! or in a `put_many`, leaves its object exactly one version past the one
//! before, and a new object starts at 1. The enclave relies on it to cache
//! what it commits at the version that commit produced, without a `stat`
//! to read it back, so every shipped backend is held to it here: the
//! in-memory store, the log (across a reopen too), the directory store,
//! the object store, and two AFS clients taking turns on one server.

use std::path::PathBuf;

use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{
    CloudStore, DirBackend, LatencyModel, LogBackend, MemBackend, SimClock, StorageBackend,
};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nexus-version-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn version(store: &dyn StorageBackend, path: &str) -> u64 {
    store.stat(path).unwrap_or_else(|e| panic!("stat {path}: {e}")).version
}

/// Puts `path` through `writer` and checks, through `reader` (the same
/// handle, or another client of the same store), that it moved by one.
fn put_advances_by_one(writer: &dyn StorageBackend, reader: &dyn StorageBackend, path: &str) {
    let before = reader.stat(path).map_or(0, |s| s.version);
    writer.put(path, format!("{path} after {before}").as_bytes()).unwrap();
    assert_eq!(version(reader, path), before + 1, "{path}: put");
}

/// The contract, on one store seen through `writer` and `reader`, over
/// objects named `{tag}/…` that do not exist yet.
fn holds(writer: &dyn StorageBackend, reader: &dyn StorageBackend, tag: &str) {
    let [a, b, c] = ["a", "b", "c"].map(|name| format!("{tag}/{name}"));
    // A new object starts at 1, and each put adds exactly 1.
    for _ in 0..3 {
        put_advances_by_one(writer, reader, &a);
    }
    assert_eq!(version(reader, &a), 3);

    // A batch: each item one past its own object's last version, a new
    // one at 1, and a path named twice moved twice.
    let batch: Vec<(String, Vec<u8>)> = [(&a, 1), (&b, 2), (&c, 3), (&c, 4)]
        .map(|(path, byte)| (path.clone(), vec![byte; 8]))
        .to_vec();
    for result in writer.put_many(&batch) {
        result.unwrap();
    }
    let paths = [a.clone(), b.clone(), c.clone()];
    let versions: Vec<u64> =
        reader.stat_many(&paths).into_iter().map(|s| s.unwrap().version).collect();
    assert_eq!(versions, [4, 1, 2], "stat_many after put_many");
    assert_eq!(reader.get(&c).unwrap(), [4; 8], "the last write of a path wins");

    // An object put again after its delete is new: it starts at 1.
    writer.delete(&b).unwrap();
    assert!(reader.stat(&b).is_err());
    put_advances_by_one(writer, reader, &b);
    assert_eq!(version(reader, &b), 1);
}

#[test]
fn mem_backend_keeps_the_version_contract() {
    let store = MemBackend::new();
    holds(&store, &store, "v");
}

#[test]
fn log_backend_keeps_the_version_contract_across_a_reopen() {
    let root = tmp("log");
    {
        let store = LogBackend::open(&root).unwrap();
        holds(&store, &store, "v");
    }
    // Versions come back as acknowledged and go on counting from there.
    let store = LogBackend::open(&root).unwrap();
    assert_eq!(version(&store, "v/a"), 4);
    put_advances_by_one(&store, &store, "v/a");
    for result in store.put_many(&[("v/c".to_string(), vec![5]), ("v/d".to_string(), vec![6])]) {
        result.unwrap();
    }
    assert_eq!(version(&store, "v/c"), 3);
    assert_eq!(version(&store, "v/d"), 1);
    drop(store);
    let store = LogBackend::open(&root).unwrap();
    assert_eq!([version(&store, "v/a"), version(&store, "v/c")], [5, 3]);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dir_backend_keeps_the_version_contract() {
    let root = tmp("dir");
    {
        let store = DirBackend::open(&root).unwrap();
        holds(&store, &store, "v");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cloud_store_keeps_the_version_contract() {
    let store = CloudStore::new(SimClock::new());
    holds(&store, &store, "v");
}

/// Each client's put moves the version the other then sees by one, and a
/// client's cached status never reports a version the server has passed.
#[test]
fn two_afs_clients_on_one_server_keep_the_version_contract() {
    let server = AfsServer::new();
    let clock = SimClock::new();
    let one = AfsClient::connect(&server, clock.clone(), LatencyModel::default());
    let two = AfsClient::connect(&server, clock, LatencyModel::default());
    holds(&one, &two, "one");
    holds(&two, &one, "two");
    for _ in 0..3 {
        put_advances_by_one(&one, &two, "turns");
        put_advances_by_one(&two, &one, "turns");
    }
    assert_eq!([version(&one, "turns"), version(&two, "turns")], [6, 6]);
}
