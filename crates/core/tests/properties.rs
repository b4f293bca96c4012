//! Property-based tests for the metadata layer: the wire format and sealed
//! object format must never panic on attacker-supplied bytes, and all
//! structures must roundtrip. Runs on the in-repo `nexus-testkit` harness.

use nexus_core::metadata::crypto::{open_object, seal_object, ObjectKind, Preamble};
use nexus_core::metadata::dirnode::{Bucket, DirEntry, EntryKind};
use nexus_core::metadata::filenode::{ChunkContext, Filenode};
use nexus_core::metadata::supernode::Supernode;
use nexus_core::wire::{Reader, Writer};
use nexus_core::{Acl, GroupId, NexusUuid, Principal, Rights, UserId};
use nexus_testkit::{shrink, tk_assert, tk_assert_eq, Gen, Runner};

const CASES: u32 = 96;

const NAME_CHARS: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'A', 'B', 'Z', '0', '1', '9', '.', '_', '-',
];

fn gen_uuid(g: &mut Gen) -> NexusUuid {
    NexusUuid(g.bytes::<16>())
}

fn gen_name(g: &mut Gen) -> String {
    g.string(NAME_CHARS, 1, 24)
}

fn gen_entry(g: &mut Gen) -> DirEntry {
    let kind = match g.usize_below(3) {
        0 => EntryKind::Directory,
        1 => EntryKind::File,
        _ => EntryKind::Symlink(gen_name(g)),
    };
    DirEntry { name: gen_name(g), uuid: gen_uuid(g), kind }
}

#[test]
fn reader_never_panics_on_garbage() {
    Runner::new("reader_never_panics_on_garbage").cases(CASES).run(
        |g| g.byte_vec(0, 256),
        |v| shrink::bytes(v),
        |bytes| {
            let mut r = Reader::new(bytes);
            // Exercise every read type; all may error, none may panic.
            let _ = r.u8();
            let _ = r.u16();
            let _ = r.u32();
            let _ = r.u64();
            let _ = r.bytes();
            let _ = r.string();
            let _ = r.uuid();
            let _ = r.finish();
            Ok(())
        },
    );
}

#[test]
fn open_object_never_panics_on_garbage() {
    Runner::new("open_object_never_panics_on_garbage").cases(CASES).run(
        |g| (g.byte_vec(0, 512), g.bytes::<32>()),
        |(bytes, key)| shrink::bytes(bytes).into_iter().map(|b| (b, *key)).collect(),
        |(bytes, rootkey)| {
            // Any result is fine; panicking or accepting garbage is not.
            if let Ok((_, body)) = open_object(rootkey, bytes) {
                // Forging an authentic object without the rootkey is
                // impossible.
                return Err(format!("garbage accepted as authentic metadata: {body:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn sealed_objects_roundtrip() {
    Runner::new("sealed_objects_roundtrip").cases(CASES).run(
        |g| {
            (
                g.bytes::<32>(),
                gen_uuid(g),
                gen_uuid(g),
                g.u64(),
                g.byte_vec(0, 1024),
                g.u64(),
            )
        },
        shrink::none,
        |(rootkey, uuid, parent, version, body, seed)| {
            let preamble =
                Preamble { kind: ObjectKind::Filenode, uuid: *uuid, parent: *parent, version: *version, scope: None };
            let mut counter = *seed;
            let blob = seal_object(rootkey, &preamble, body, |dest| {
                for b in dest.iter_mut() {
                    counter = counter.wrapping_mul(6364136223846793005).wrapping_add(1);
                    *b = (counter >> 33) as u8;
                }
            });
            let (decoded, opened_body) = open_object(rootkey, &blob).unwrap();
            tk_assert_eq!(decoded, preamble);
            tk_assert_eq!(opened_body, *body);
            // The wrong rootkey never opens it.
            let mut wrong = *rootkey;
            wrong[0] ^= 1;
            tk_assert!(open_object(&wrong, &blob).is_err());
            Ok(())
        },
    );
}

/// The bucket body as the per-entry encoder wrote it before buckets were
/// held in wire form: the reference `Bucket::encode` must stay equal to.
fn encode_entries(entries: &[DirEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(entries.len() as u32);
    for e in entries {
        w.string(&e.name).uuid(&e.uuid);
        match &e.kind {
            EntryKind::Directory => w.u8(1),
            EntryKind::File => w.u8(2),
            EntryKind::Symlink(target) => w.u8(3).string(target),
        };
    }
    w.into_bytes()
}

/// `entries` without those whose name an earlier one already took (names
/// are unique within a bucket: `push` refuses a second, `decode` rejects it).
fn first_of_each_name(entries: &[DirEntry]) -> Vec<DirEntry> {
    let mut seen = std::collections::HashSet::new();
    entries.iter().filter(|e| seen.insert(e.name.as_str())).cloned().collect()
}

#[test]
fn bucket_roundtrips() {
    Runner::new("bucket_roundtrips").cases(CASES).run(
        |g| g.vec(0, 40, gen_entry),
        |v| shrink::vec(v),
        |entries| {
            let entries = first_of_each_name(entries);
            let mut bucket = Bucket::new();
            for e in &entries {
                bucket.push(e);
            }
            tk_assert_eq!(bucket.encode(), encode_entries(&entries));
            let decoded = Bucket::decode(&bucket.encode()).unwrap();
            tk_assert_eq!(decoded, bucket);
            tk_assert_eq!(decoded.iter().map(|e| e.to_entry()).collect::<Vec<_>>(), entries);
            Ok(())
        },
    );
}

/// One step of a bucket script: insert a fresh entry, or remove / look up
/// the name at an index into the (small, colliding) name pool.
#[derive(Debug, Clone)]
enum BucketOp {
    Insert(DirEntry),
    Remove(String),
    Find(String),
}

#[test]
fn bucket_matches_a_vec_model() {
    // Names that are prefixes of one another, the empty name, and multi-byte
    // UTF-8 that sorts (as bytes) between and after the ASCII ones; entries
    // are files, directories and symlinks with targets of varying length, so
    // a removal shifts the offsets behind it by a different amount each time.
    const POOL: &[&str] = &[
        "", "a", "ab", "abc", "abc.txt", "b", "cc", "dd.txt", "e-long-name", "z", "zz",
        "\u{e9}", "\u{e9}t\u{e9}", "\u{65e5}\u{672c}", "\u{65e5}\u{672c}\u{8a9e}", "\u{1f980}",
    ];
    let pooled = |g: &mut Gen| POOL[g.usize_below(POOL.len())].to_string();
    Runner::new("bucket_matches_a_vec_model").cases(CASES).run(
        |g| {
            g.vec(0, 80, |g| match g.usize_below(5) {
                0 | 1 => BucketOp::Insert(DirEntry { name: pooled(g), ..gen_entry(g) }),
                2 => BucketOp::Remove(pooled(g)),
                _ => BucketOp::Find(pooled(g)),
            })
        },
        |v| shrink::vec(v),
        |script| {
            let mut bucket = Bucket::new();
            let mut model: Vec<DirEntry> = Vec::new();
            for op in script {
                match op {
                    // Names are unique within a directory (Dirnode::insert
                    // checks before it pushes); the script does the same.
                    BucketOp::Insert(e) if model.iter().any(|m| m.name == e.name) => {}
                    BucketOp::Insert(e) => {
                        bucket.push(e);
                        model.push(e.clone());
                    }
                    BucketOp::Remove(name) => {
                        let expected =
                            model.iter().position(|m| m.name == *name).map(|i| model.remove(i));
                        tk_assert_eq!(bucket.remove(name), expected);
                    }
                    BucketOp::Find(name) => {
                        let expected = model.iter().find(|m| m.name == *name).cloned();
                        tk_assert_eq!(bucket.find(name).map(|e| e.to_entry()), expected);
                    }
                }
                tk_assert_eq!(bucket.len(), model.len());
                // Insertion order kept, byte for byte; and a decode of those
                // bytes rebuilds the very index the edits maintained (`==`
                // compares it with the body).
                tk_assert_eq!(bucket.encode(), encode_entries(&model));
                tk_assert_eq!(Bucket::decode(&bucket.encode()).unwrap(), bucket);
                tk_assert_eq!(bucket.epc_bytes(), bucket.as_bytes().len() + 4 * model.len());
            }
            for m in &model {
                tk_assert_eq!(bucket.find(&m.name).map(|e| e.to_entry()), Some(m.clone()));
            }
            Ok(())
        },
    );
}

#[test]
fn bucket_decode_never_panics() {
    // Half the inputs are mutated valid bodies, so decoding succeeds often
    // enough for the accessors to run on attacker-shaped buckets too; one in
    // six is well-formed except that one name is listed twice.
    Runner::new("bucket_decode_never_panics").cases(CASES).run(
        |g| {
            if g.usize_below(2) == 0 {
                return g.byte_vec(0, 256);
            }
            let mut entries = first_of_each_name(&g.vec(0, 6, gen_entry));
            if entries.len() > 1 && g.usize_below(3) == 0 {
                let from = g.usize_below(entries.len() - 1);
                entries.last_mut().unwrap().name = entries[from].name.clone();
            }
            let mut body = encode_entries(&entries);
            if g.usize_below(2) == 0 {
                let at = g.usize_below(body.len());
                body[at] ^= 1 << g.usize_below(8);
            }
            body
        },
        |v| shrink::bytes(v),
        |bytes| {
            let Ok(mut bucket) = Bucket::decode(bytes) else { return Ok(()) };
            tk_assert_eq!(bucket.encode(), *bytes);
            let names: Vec<String> = bucket.iter().map(|e| e.name().to_string()).collect();
            tk_assert_eq!(names.len(), bucket.len());
            for e in bucket.iter() {
                let _ = (e.uuid(), e.kind(), e.is_directory());
            }
            let _ = bucket.find("no-such-name");
            let distinct: std::collections::HashSet<&String> = names.iter().collect();
            tk_assert_eq!(distinct.len(), names.len());
            for name in &names {
                tk_assert!(bucket.find(name).is_some());
                tk_assert!(bucket.remove(name).is_some());
                tk_assert!(bucket.find(name).is_none());
            }
            tk_assert!(bucket.is_empty());
            tk_assert_eq!(bucket, Bucket::new());
            Ok(())
        },
    );
}

#[test]
fn filenode_roundtrips() {
    Runner::new("filenode_roundtrips").cases(CASES).run(
        |g| {
            (
                gen_uuid(g),
                gen_uuid(g),
                gen_uuid(g),
                1 + g.u32() % 1_000_000,      // chunk_size
                1 + g.u32() % 4,              // nlink
                g.u64() % 10_000_000,         // size
            )
        },
        shrink::none,
        |(uuid, parent, data_uuid, chunk_size, nlink, size)| {
            let mut fnode = Filenode::new(*uuid, *parent, *data_uuid, *chunk_size);
            fnode.size = *size;
            fnode.nlink = *nlink;
            fnode.chunks = (0..Filenode::chunk_count_for(*size, *chunk_size))
                .map(|i| ChunkContext { key: [(i % 251) as u8; 16], nonce: [(i % 13) as u8; 12] })
                .collect();
            // Filenode bodies stay bounded in tests: skip absurd chunk
            // counts rather than encode megabytes of contexts.
            if fnode.chunks.len() >= 100_000 {
                return Ok(());
            }
            tk_assert_eq!(Filenode::decode(&fnode.encode()).unwrap(), fnode);
            Ok(())
        },
    );
}

#[test]
fn filenode_decode_never_panics() {
    Runner::new("filenode_decode_never_panics").cases(CASES).run(
        |g| g.byte_vec(0, 256),
        |v| shrink::bytes(v),
        |bytes| {
            let _ = Filenode::decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn supernode_decode_never_panics() {
    Runner::new("supernode_decode_never_panics").cases(CASES).run(
        |g| g.byte_vec(0, 512),
        |v| shrink::bytes(v),
        |bytes| {
            let _ = Supernode::decode(bytes);
            Ok(())
        },
    );
}

#[test]
fn writer_reader_mixed_sequences() {
    Runner::new("writer_reader_mixed_sequences").cases(CASES).run(
        |g| {
            g.vec(0, 32, |g| match g.usize_below(3) {
                0 => (0u8, u64::from(g.u8())),
                1 => (1u8, u64::from(g.u32())),
                _ => (2u8, g.u64()),
            })
        },
        |v| shrink::vec(v),
        |values| {
            let mut w = Writer::new();
            for (tag, v) in values {
                match tag {
                    0 => {
                        w.u8(*v as u8);
                    }
                    1 => {
                        w.u32(*v as u32);
                    }
                    _ => {
                        w.u64(*v);
                    }
                }
            }
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            for (tag, v) in values {
                match tag {
                    0 => tk_assert_eq!(u64::from(r.u8().unwrap()), *v),
                    1 => tk_assert_eq!(u64::from(r.u32().unwrap()), *v),
                    _ => tk_assert_eq!(r.u64().unwrap(), *v),
                }
            }
            r.finish().unwrap();
            Ok(())
        },
    );
}

fn gen_acl(g: &mut Gen) -> Acl {
    let mut acl = Acl::new();
    for _ in 0..g.usize_below(8) {
        let principal = if g.usize_below(2) == 0 {
            Principal::User(UserId(g.usize_below(32) as u32))
        } else {
            Principal::Group(GroupId(g.usize_below(16) as u32))
        };
        acl.grant_principal(principal, Rights(g.usize_below(4) as u8));
    }
    acl
}

#[test]
fn acl_encode_decode_is_canonical() {
    Runner::new("acl_encode_decode_is_canonical").cases(CASES).run(
        gen_acl,
        |_| Vec::new(),
        |acl| {
            let mut w = Writer::new();
            acl.encode(&mut w);
            let bytes = w.into_bytes();
            let decoded = Acl::decode(&mut Reader::new(&bytes)).map_err(|e| e.to_string())?;
            tk_assert_eq!(&decoded, acl);
            // Canonical: re-encoding the decoded list reproduces the exact
            // bytes, so encode∘decode is a fixpoint on the wire form.
            let mut w2 = Writer::new();
            decoded.encode(&mut w2);
            tk_assert_eq!(w2.into_bytes(), bytes);
            Ok(())
        },
    );
}

#[test]
fn acl_decode_rejects_duplicate_principals() {
    // v1 layout: count, then (user id, rights) pairs.
    let mut w = Writer::new();
    w.u32(2);
    w.u32(5).u8(1);
    w.u32(5).u8(3);
    assert!(Acl::decode(&mut Reader::new(&w.into_bytes())).is_err());

    // v2 layout: marker, count, then (tag, id, rights) triples. The same
    // id under *different* tags is two distinct principals and stays legal.
    let mut w = Writer::new();
    w.u32(0xFFFF_FFFF).u32(2);
    w.u8(1).u32(5).u8(1);
    w.u8(1).u32(5).u8(3);
    assert!(Acl::decode(&mut Reader::new(&w.into_bytes())).is_err());

    let mut w = Writer::new();
    w.u32(0xFFFF_FFFF).u32(2);
    w.u8(0).u32(5).u8(1);
    w.u8(1).u32(5).u8(3);
    assert!(Acl::decode(&mut Reader::new(&w.into_bytes())).is_ok());
}
