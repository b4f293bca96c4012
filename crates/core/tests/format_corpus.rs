//! Golden bytes: metadata bodies pinned as literal bytes, so a change that
//! moves a stored format fails here and says which field moved.
//!
//! Each body is decoded from its literal, checked field by field, encoded
//! again byte for byte, and rebuilt through the public constructors to the
//! same bytes. `golden_inventory.rs` pins a digest over a whole volume; this
//! file pins the plaintext layouts under the seal, one format at a time.

use nexus_core::metadata::dirnode::{Bucket, DirEntry, Dirnode, EntryKind};
use nexus_core::{NexusUuid, Rights, UserId};

/// Little-endian `u32` length or count.
const fn le(n: u8) -> [u8; 4] {
    [n, 0, 0, 0]
}

fn concat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

/// A bucket body: a directory, a file, a symlink, the empty name and a
/// multi-byte name, in insertion order.
fn bucket_body() -> Vec<u8> {
    concat(&[
        &le(5), // entry count
        &le(3),
        b"dir",
        &[1; 16],
        &[1], // directory
        &le(4),
        b"file",
        &[2; 16],
        &[2], // file
        &le(4),
        b"link",
        &[3; 16],
        &[3], // symlink, then its target
        &le(4),
        b"../t",
        &le(0), // the empty name
        &[4; 16],
        &[2],
        &le(5),
        &[0xc3, 0xa9, b't', 0xc3, 0xa9], // "été"
        &[5; 16],
        &[1],
    ])
}

#[test]
fn a_bucket_body_keeps_its_golden_bytes() {
    let golden = bucket_body();
    assert_eq!(golden.len(), 4 + (3 + 21) + (4 + 21) + (4 + 21 + 8) + 21 + (5 + 21));
    let bucket = Bucket::decode(&golden).unwrap();
    let entries = [
        DirEntry { name: "dir".into(), uuid: NexusUuid([1; 16]), kind: EntryKind::Directory },
        DirEntry { name: "file".into(), uuid: NexusUuid([2; 16]), kind: EntryKind::File },
        DirEntry {
            name: "link".into(),
            uuid: NexusUuid([3; 16]),
            kind: EntryKind::Symlink("../t".into()),
        },
        DirEntry { name: "".into(), uuid: NexusUuid([4; 16]), kind: EntryKind::File },
        DirEntry {
            name: "\u{e9}t\u{e9}".into(),
            uuid: NexusUuid([5; 16]),
            kind: EntryKind::Directory,
        },
    ];
    assert_eq!(bucket.iter().map(|e| e.to_entry()).collect::<Vec<_>>(), entries);
    for e in &entries {
        assert_eq!(bucket.find(&e.name).map(|f| f.to_entry()).as_ref(), Some(e));
    }
    assert_eq!(bucket.encode(), golden);
    let mut built = Bucket::new();
    for e in &entries {
        built.push(e);
    }
    assert_eq!(built.encode(), golden);
}

/// A dirnode main body: a v1 ACL (one user), the entry count, the bucket
/// size, two bucket references (uuid and MAC) and no scope tail.
fn main_body() -> Vec<u8> {
    concat(&[
        &le(1),                      // v1 ACL: entry count
        &le(4),                      // user 4
        &[3],                        // READ | WRITE
        &[200, 0, 0, 0, 0, 0, 0, 0], // u64 entry count
        &le(128),                    // bucket size
        &le(2),                      // bucket references
        &[0xb1; 16],
        &[0xa1; 32],
        &[0xb2; 16],
        &[0xa2; 32],
    ])
}

#[test]
fn a_dirnode_main_body_keeps_its_golden_bytes() {
    let golden = main_body();
    assert_eq!(golden.len(), 4 + 5 + 8 + 4 + 4 + 2 * (16 + 32));
    let (uuid, parent) = (NexusUuid([7; 16]), NexusUuid([8; 16]));
    let dir = Dirnode::decode_main(uuid, parent, &golden).unwrap();
    assert_eq!(dir.acl.rights_of(UserId(4)), Rights::RW);
    assert_eq!((dir.entry_count, dir.bucket_size, dir.scope), (200, 128, None));
    let refs: Vec<_> = dir.buckets.iter().map(|s| (s.re.uuid, s.re.mac)).collect();
    assert_eq!(refs, [(NexusUuid([0xb1; 16]), [0xa1; 32]), (NexusUuid([0xb2; 16]), [0xa2; 32])]);
    assert!(dir.buckets.iter().all(|s| s.bucket.is_none()), "buckets decode unloaded");
    assert_eq!(dir.encode_main(), golden);
    let mut built = Dirnode::new(uuid, parent, 128);
    built.acl.grant(UserId(4), Rights::RW);
    built.entry_count = 200;
    built.buckets = dir.buckets.clone();
    assert_eq!(built.encode_main(), golden);
}
