//! Directory nodes and their buckets (paper §IV-A1, §V-B).
//!
//! A dirnode maps human-readable names to the UUIDs of child *metadata*
//! objects (never data objects directly) and carries the directory's ACL.
//! To keep updates to large directories cheap, entries live in
//! independently-encrypted **buckets** stored as separate metadata objects;
//! the main dirnode stores each bucket's MAC, preventing bucket-level
//! rollback, and only dirty buckets are re-encrypted on flush.

use std::sync::Arc;

use crate::acl::Acl;
use crate::error::{NexusError, Result};
use crate::groups::GroupId;
use crate::uuid::NexusUuid;
use crate::wire::{Reader, Writer};

/// Default number of entries per bucket (the evaluation uses 128, §VII).
pub const DEFAULT_BUCKET_SIZE: usize = 128;

/// What a directory entry points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// A subdirectory; the UUID names a dirnode.
    Directory,
    /// A regular file; the UUID names a filenode. Hardlinks are additional
    /// entries sharing one filenode UUID.
    File,
    /// A symbolic link storing its target path inline.
    Symlink(String),
}

impl EntryKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            EntryKind::Directory => {
                w.u8(1);
            }
            EntryKind::File => {
                w.u8(2);
            }
            EntryKind::Symlink(target) => {
                w.u8(3);
                w.string(target);
            }
        }
    }
}

/// One name → metadata-UUID mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Plaintext component name (only visible inside the enclave).
    pub name: String,
    /// UUID of the child's metadata object.
    pub uuid: NexusUuid,
    /// Entry type.
    pub kind: EntryKind,
}

impl DirEntry {
    fn encode(&self, w: &mut Writer) {
        w.string(&self.name);
        w.uuid(&self.uuid);
        self.kind.encode(w);
    }
}

/// A directory entry borrowed from a bucket's wire body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    name: &'a [u8],
    uuid: &'a [u8; 16],
    tag: u8,
    target: &'a [u8],
}

/// Bucket bodies are UTF-8-checked once, in [`Bucket::decode`] (or built
/// from `&str`s by [`Bucket::push`]).
fn checked_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("bucket body was validated when it was decoded")
}

fn le32(body: &[u8], at: usize) -> Option<usize> {
    let bytes = body.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?) as usize)
}

impl<'a> EntryRef<'a> {
    /// Frames the entry starting at `pos` of a bucket body — name length,
    /// name, uuid, kind tag, and a symlink's target — and returns it with
    /// the offset of the next one. `None` on truncation or an unknown tag.
    /// The one parser of the entry format: [`Bucket::decode`] validates with
    /// it and every later scan walks with it.
    fn parse(body: &'a [u8], pos: usize) -> Option<(EntryRef<'a>, usize)> {
        let name_at = pos.checked_add(4)?;
        let uuid_at = name_at.checked_add(le32(body, pos)?)?;
        let tag_at = uuid_at.checked_add(16)?;
        let name = body.get(name_at..uuid_at)?;
        let uuid = body.get(uuid_at..tag_at)?.try_into().ok()?;
        let tag = *body.get(tag_at)?;
        let (target, end): (&[u8], usize) = match tag {
            1 | 2 => (&[], tag_at + 1),
            3 => {
                let target_at = tag_at.checked_add(5)?;
                let end = target_at.checked_add(le32(body, tag_at + 1)?)?;
                (body.get(target_at..end)?, end)
            }
            _ => return None,
        };
        Some((EntryRef { name, uuid, tag, target }, end))
    }

    /// Plaintext component name.
    pub fn name(&self) -> &'a str {
        checked_str(self.name)
    }

    /// UUID of the child's metadata object.
    pub fn uuid(&self) -> NexusUuid {
        NexusUuid(*self.uuid)
    }

    /// True for a subdirectory entry.
    pub fn is_directory(&self) -> bool {
        self.tag == 1
    }

    /// The entry type (allocates only for a symlink's target).
    pub fn kind(&self) -> EntryKind {
        match self.tag {
            1 => EntryKind::Directory,
            2 => EntryKind::File,
            _ => EntryKind::Symlink(checked_str(self.target).to_string()),
        }
    }

    /// An owned copy of the entry.
    pub fn to_entry(&self) -> DirEntry {
        DirEntry { name: self.name().to_string(), uuid: self.uuid(), kind: self.kind() }
    }
}

/// Iterator over a bucket's entries, in insertion order.
#[derive(Debug)]
pub struct BucketIter<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for BucketIter<'a> {
    type Item = EntryRef<'a>;

    fn next(&mut self) -> Option<EntryRef<'a>> {
        if self.pos == self.body.len() {
            return None;
        }
        let (entry, next) = EntryRef::parse(self.body, self.pos)
            .expect("bucket body was validated when it was decoded");
        self.pos = next;
        Some(entry)
    }
}

/// A bucket of directory entries (stored as its own metadata object), held
/// as its wire body: a `u32` entry count, then the entries' encodings back
/// to back in insertion order. The body is checked in full once, by
/// [`Bucket::decode`], and scanned in place afterwards, so loading, cloning
/// and dropping a bucket allocate nothing per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    body: Vec<u8>,
}

impl Default for Bucket {
    fn default() -> Bucket {
        Bucket::new()
    }
}

impl Bucket {
    /// An empty bucket.
    pub fn new() -> Bucket {
        Bucket { body: 0u32.to_le_bytes().to_vec() }
    }

    /// The bucket body as stored (inside the sealed object).
    pub fn as_bytes(&self) -> &[u8] {
        &self.body
    }

    /// A copy of the bucket body.
    pub fn encode(&self) -> Vec<u8> {
        self.body.clone()
    }

    /// Parses and validates a bucket body: framing, entry count, kind tags,
    /// UTF-8 of every name and symlink target, no trailing bytes.
    ///
    /// # Errors
    ///
    /// [`NexusError::Malformed`] on any of those.
    pub fn decode(bytes: &[u8]) -> Result<Bucket> {
        let malformed = |what: &str| NexusError::Malformed(format!("bucket body: {what}"));
        let count = le32(bytes, 0).ok_or_else(|| malformed("truncated entry count"))?;
        let mut pos = 4;
        for _ in 0..count {
            let (entry, next) = EntryRef::parse(bytes, pos)
                .ok_or_else(|| malformed("truncated entry or unknown entry kind"))?;
            if std::str::from_utf8(entry.name).is_err() || std::str::from_utf8(entry.target).is_err()
            {
                return Err(malformed("invalid utf-8"));
            }
            pos = next;
        }
        if pos != bytes.len() {
            return Err(malformed("trailing bytes"));
        }
        Ok(Bucket { body: bytes.to_vec() })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        le32(&self.body, 0).expect("bucket body starts with its count")
    }

    /// True when the bucket holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn set_len(&mut self, len: usize) {
        self.body[..4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    /// The entries, in insertion order.
    pub fn iter(&self) -> BucketIter<'_> {
        BucketIter { body: &self.body, pos: 4 }
    }

    /// Finds an entry by name.
    pub fn find(&self, name: &str) -> Option<EntryRef<'_>> {
        self.iter().find(|e| e.name == name.as_bytes())
    }

    /// Appends an entry (the caller keeps names unique).
    pub fn push(&mut self, entry: &DirEntry) {
        let mut w = Writer::new();
        entry.encode(&mut w);
        self.body.extend_from_slice(&w.into_bytes());
        self.set_len(self.len() + 1);
    }

    /// Removes and returns the entry named `name`.
    pub fn remove(&mut self, name: &str) -> Option<DirEntry> {
        let mut iter = self.iter();
        loop {
            let start = iter.pos;
            let entry = iter.next()?;
            if entry.name == name.as_bytes() {
                let end = iter.pos;
                let removed = entry.to_entry();
                self.body.drain(start..end);
                self.set_len(self.len() - 1);
                return Some(removed);
            }
        }
    }
}

/// Reference from the main dirnode to one bucket object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketRef {
    /// UUID of the bucket metadata object.
    pub uuid: NexusUuid,
    /// SHA-256 of the bucket's sealed blob, refreshed on every bucket flush.
    /// Binds the bucket's exact version to the main dirnode.
    pub mac: [u8; 32],
}

/// One bucket slot: the on-storage reference plus, when loaded, the
/// decrypted bucket and its dirty flag. Loaded buckets are shared between
/// every copy of the dirnode (the metadata cache's and each operation's);
/// a mutation copies the one bucket it changes (`Arc::make_mut`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSlot {
    /// Persistent reference.
    pub re: BucketRef,
    /// Decrypted contents, when loaded.
    pub bucket: Option<Arc<Bucket>>,
    /// True when the in-memory bucket differs from storage.
    pub dirty: bool,
}

/// An in-memory dirnode: the decrypted main object plus bucket slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirnode {
    /// This dirnode's UUID.
    pub uuid: NexusUuid,
    /// Containing directory (NIL for the volume root).
    pub parent: NexusUuid,
    /// Directory ACL (paper: access control is per-directory).
    pub acl: Acl,
    /// Bucket slots in order.
    pub buckets: Vec<BucketSlot>,
    /// Total entries across buckets (maintained incrementally).
    pub entry_count: u64,
    /// Maximum entries per bucket.
    pub bucket_size: usize,
    /// Group key scope: when set, this directory's metadata (and its
    /// files') is sealed under the group's current epoch key instead of
    /// the rootkey. Subdirectories inherit the scope at creation.
    pub scope: Option<GroupId>,
}

impl Dirnode {
    /// Creates an empty directory.
    pub fn new(uuid: NexusUuid, parent: NexusUuid, bucket_size: usize) -> Dirnode {
        Dirnode {
            uuid,
            parent,
            acl: Acl::new(),
            buckets: Vec::new(),
            entry_count: 0,
            bucket_size: bucket_size.max(1),
            scope: None,
        }
    }

    /// Serializes the *main* body (ACL + bucket references).
    pub fn encode_main(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.acl.encode(&mut w);
        w.u64(self.entry_count);
        w.u32(self.bucket_size as u32);
        w.u32(self.buckets.len() as u32);
        for slot in &self.buckets {
            w.uuid(&slot.re.uuid);
            w.raw(&slot.re.mac);
        }
        // Optional tail: key scope. Unscoped dirnodes keep the pre-groups
        // byte format.
        if let Some(group) = self.scope {
            w.u8(1).u32(group.0);
        }
        w.into_bytes()
    }

    /// Parses a main body; buckets come back unloaded.
    ///
    /// # Errors
    ///
    /// [`NexusError::Malformed`] on framing problems.
    pub fn decode_main(
        uuid: NexusUuid,
        parent: NexusUuid,
        bytes: &[u8],
    ) -> Result<Dirnode> {
        let mut r = Reader::new(bytes);
        let acl = Acl::decode(&mut r)?;
        let entry_count = r.u64()?;
        let bucket_size = r.u32()? as usize;
        let count = r.u32()? as usize;
        if count > 10_000_000 {
            return Err(NexusError::Malformed("absurd bucket count".into()));
        }
        let mut buckets = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let buuid = r.uuid()?;
            let mac = r.array::<32>()?;
            buckets.push(BucketSlot { re: BucketRef { uuid: buuid, mac }, bucket: None, dirty: false });
        }
        let scope = if r.is_empty() {
            None
        } else {
            match r.u8()? {
                1 => Some(GroupId(r.u32()?)),
                other => {
                    return Err(NexusError::Malformed(format!(
                        "unknown dirnode scope tag {other}"
                    )))
                }
            }
        };
        r.finish()?;
        Ok(Dirnode {
            uuid,
            parent,
            acl,
            buckets,
            entry_count,
            bucket_size: bucket_size.max(1),
            scope,
        })
    }

    /// Looks up `name` among *loaded* buckets.
    pub fn find_loaded(&self, name: &str) -> Option<EntryRef<'_>> {
        self.buckets
            .iter()
            .filter_map(|s| s.bucket.as_ref())
            .find_map(|b| b.find(name))
    }

    /// True when every bucket slot has been loaded.
    pub fn fully_loaded(&self) -> bool {
        self.buckets.iter().all(|s| s.bucket.is_some())
    }

    /// Inserts an entry. All buckets must be loaded; `fresh_uuid` is used if
    /// a new bucket must be created.
    ///
    /// # Errors
    ///
    /// [`NexusError::AlreadyExists`] when the name is taken.
    ///
    /// # Panics
    ///
    /// Panics if any bucket is unloaded (enclave-layer invariant).
    pub fn insert(&mut self, entry: DirEntry, fresh_uuid: NexusUuid) -> Result<()> {
        assert!(self.fully_loaded(), "insert requires all buckets loaded");
        if self.find_loaded(&entry.name).is_some() {
            return Err(NexusError::AlreadyExists(entry.name));
        }
        let cap = self.bucket_size;
        let room = self
            .buckets
            .iter_mut()
            .find(|s| s.bucket.as_ref().is_some_and(|b| b.len() < cap));
        if let Some(slot) = room {
            Arc::make_mut(slot.bucket.as_mut().expect("matched a loaded bucket")).push(&entry);
            slot.dirty = true;
        } else {
            let mut bucket = Bucket::new();
            bucket.push(&entry);
            self.buckets.push(BucketSlot {
                re: BucketRef { uuid: fresh_uuid, mac: [0u8; 32] },
                bucket: Some(Arc::new(bucket)),
                dirty: true,
            });
        }
        self.entry_count += 1;
        Ok(())
    }

    /// Removes the entry named `name`. All buckets must be loaded.
    ///
    /// # Errors
    ///
    /// [`NexusError::NotFound`] for unknown names.
    ///
    /// # Panics
    ///
    /// Panics if any bucket is unloaded (enclave-layer invariant).
    pub fn remove(&mut self, name: &str) -> Result<DirEntry> {
        assert!(self.fully_loaded(), "remove requires all buckets loaded");
        for slot in self.buckets.iter_mut() {
            let bucket = slot.bucket.as_mut().expect("checked fully loaded");
            // Probe the shared bucket first: only the one holding `name`
            // is copied.
            if bucket.find(name).is_none() {
                continue;
            }
            let entry = Arc::make_mut(bucket).remove(name).expect("found above");
            slot.dirty = true;
            self.entry_count -= 1;
            return Ok(entry);
        }
        Err(NexusError::NotFound(name.to_string()))
    }

    /// All entries across loaded buckets, in bucket order.
    pub fn list_loaded(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.buckets
            .iter()
            .filter_map(|s| s.bucket.as_ref())
            .flat_map(|b| b.iter())
    }

    /// Drops empty trailing bucket slots (after removals).
    pub fn prune_empty_buckets(&mut self) -> Vec<NexusUuid> {
        let mut removed = Vec::new();
        self.buckets.retain(|slot| match &slot.bucket {
            Some(b) if b.is_empty() => {
                removed.push(slot.re.uuid);
                false
            }
            _ => true,
        });
        removed
    }
}

/// Per slot, whether two fully loaded copies of a directory hold the very
/// same bucket allocation (what the sharing tests pin).
#[cfg(test)]
pub(crate) fn shared_buckets(a: &Dirnode, b: &Dirnode) -> Vec<bool> {
    let bucket = |s: &BucketSlot| s.bucket.clone().expect("fully loaded");
    a.buckets.iter().zip(&b.buckets).map(|(x, y)| Arc::ptr_eq(&bucket(x), &bucket(y))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Rights, UserId};

    fn uuid(n: u8) -> NexusUuid {
        NexusUuid([n; 16])
    }

    fn entry(name: &str, n: u8) -> DirEntry {
        DirEntry { name: name.into(), uuid: uuid(n), kind: EntryKind::File }
    }

    #[test]
    fn insert_and_find() {
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 4);
        d.insert(entry("a.txt", 10), uuid(100)).unwrap();
        d.insert(entry("b.txt", 11), uuid(101)).unwrap();
        assert_eq!(d.find_loaded("a.txt").unwrap().uuid(), uuid(10));
        assert!(d.find_loaded("c.txt").is_none());
        assert_eq!(d.entry_count, 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 4);
        d.insert(entry("a", 10), uuid(100)).unwrap();
        assert!(matches!(
            d.insert(entry("a", 11), uuid(101)),
            Err(NexusError::AlreadyExists(_))
        ));
    }

    #[test]
    fn buckets_split_at_capacity() {
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 2);
        for i in 0..5 {
            d.insert(entry(&format!("f{i}"), i as u8), uuid(100 + i as u8)).unwrap();
        }
        assert_eq!(d.buckets.len(), 3, "5 entries at 2/bucket = 3 buckets");
        assert_eq!(d.entry_count, 5);
        assert_eq!(d.list_loaded().count(), 5);
    }

    #[test]
    fn remove_marks_bucket_dirty_only() {
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 2);
        for i in 0..4 {
            d.insert(entry(&format!("f{i}"), i as u8), uuid(100 + i as u8)).unwrap();
        }
        for slot in &mut d.buckets {
            slot.dirty = false;
        }
        d.remove("f3").unwrap();
        let dirty: Vec<bool> = d.buckets.iter().map(|s| s.dirty).collect();
        assert_eq!(dirty, vec![false, true], "only the containing bucket is dirty");
    }

    #[test]
    fn remove_missing_is_not_found() {
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 2);
        assert!(matches!(d.remove("x"), Err(NexusError::NotFound(_))));
    }

    #[test]
    fn prune_drops_empty_buckets() {
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 1);
        d.insert(entry("a", 1), uuid(100)).unwrap();
        d.insert(entry("b", 2), uuid(101)).unwrap();
        d.remove("a").unwrap();
        let removed = d.prune_empty_buckets();
        assert_eq!(removed, vec![uuid(100)]);
        assert_eq!(d.buckets.len(), 1);
    }

    #[test]
    fn main_body_roundtrip() {
        let mut d = Dirnode::new(uuid(1), uuid(9), 128);
        d.acl.grant(UserId(4), Rights::RW);
        d.insert(entry("a", 1), uuid(50)).unwrap();
        // Simulate flush: unload bucket, keep ref.
        let encoded = d.encode_main();
        let decoded = Dirnode::decode_main(uuid(1), uuid(9), &encoded).unwrap();
        assert_eq!(decoded.acl, d.acl);
        assert_eq!(decoded.entry_count, 1);
        assert_eq!(decoded.buckets.len(), 1);
        assert!(decoded.buckets[0].bucket.is_none(), "buckets decode unloaded");
        assert_eq!(decoded.buckets[0].re.uuid, d.buckets[0].re.uuid);
        assert_eq!(decoded.scope, None);
    }

    #[test]
    fn scope_tail_roundtrips_and_stays_optional() {
        let mut d = Dirnode::new(uuid(1), uuid(9), 128);
        let unscoped_len = d.encode_main().len();
        d.scope = Some(GroupId(5));
        d.acl.grant_group(GroupId(5), Rights::RW);
        let encoded = d.encode_main();
        // +10: the one-group ACL switches to v2 (marker 4 + count 4 + tagged
        // entry 6, replacing the bare 4-byte v1 count). +5: the scope tail.
        assert_eq!(encoded.len(), unscoped_len + 10 + 5);
        let decoded = Dirnode::decode_main(uuid(1), uuid(9), &encoded).unwrap();
        assert_eq!(decoded.scope, Some(GroupId(5)));
        assert_eq!(decoded.acl, d.acl);
    }

    fn bucket_of(entries: &[DirEntry]) -> Bucket {
        let mut bucket = Bucket::new();
        for e in entries {
            bucket.push(e);
        }
        bucket
    }

    #[test]
    fn bucket_body_roundtrip_with_all_kinds() {
        let entries = [
            DirEntry { name: "dir".into(), uuid: uuid(1), kind: EntryKind::Directory },
            DirEntry { name: "file".into(), uuid: uuid(2), kind: EntryKind::File },
            DirEntry {
                name: "link".into(),
                uuid: uuid(3),
                kind: EntryKind::Symlink("../target".into()),
            },
        ];
        let bucket = bucket_of(&entries);
        let decoded = Bucket::decode(&bucket.encode()).unwrap();
        assert_eq!(decoded, bucket);
        assert_eq!(decoded.iter().map(|e| e.to_entry()).collect::<Vec<_>>(), entries);
        assert!(matches!(
            decoded.find("link").unwrap().kind(),
            EntryKind::Symlink(ref t) if t == "../target"
        ));
    }

    #[test]
    fn bucket_remove_splices_the_body() {
        let mut bucket = bucket_of(&[entry("a", 1), entry("bb", 2), entry("ccc", 3)]);
        assert_eq!(bucket.remove("bb"), Some(entry("bb", 2)));
        assert_eq!(bucket.remove("bb"), None);
        assert_eq!(bucket, bucket_of(&[entry("a", 1), entry("ccc", 3)]));
        assert_eq!(bucket.len(), 2);
        assert_eq!(bucket.remove("ccc"), Some(entry("ccc", 3)));
        assert_eq!(bucket.remove("a"), Some(entry("a", 1)));
        assert_eq!(bucket, Bucket::new());
        assert!(bucket.is_empty());
    }

    #[test]
    fn bucket_decode_rejects_garbage() {
        assert!(Bucket::decode(&[1, 2, 3]).is_err());
        let good = bucket_of(&[entry("a", 1)]).encode();
        let mut trailing = good.clone();
        trailing.push(0xff);
        assert!(Bucket::decode(&trailing).is_err(), "trailing bytes rejected");
        let mut bad_utf8 = good.clone();
        bad_utf8[8] = 0xff; // the one name byte
        assert!(Bucket::decode(&bad_utf8).is_err(), "names are UTF-8 checked");
        let mut bad_kind = good.clone();
        *bad_kind.last_mut().unwrap() = 9;
        assert!(Bucket::decode(&bad_kind).is_err(), "kind tags are checked");
        let mut bad_count = good;
        bad_count[0] = 2;
        assert!(Bucket::decode(&bad_count).is_err(), "count must match the entries");
    }

    #[test]
    fn mutation_copies_only_the_bucket_it_changes() {
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 2);
        for i in 0..6 {
            d.insert(entry(&format!("f{i}"), i as u8), uuid(100 + i as u8)).unwrap();
        }
        let mut copy = d.clone();
        assert_eq!(shared_buckets(&d, &copy), vec![true, true, true], "a clone shares every bucket");
        copy.remove("f3").unwrap();
        assert_eq!(shared_buckets(&d, &copy), vec![true, false, true]);
        copy.insert(entry("g", 9), uuid(200)).unwrap();
        assert_eq!(shared_buckets(&d, &copy), vec![true, false, true], "the freed slot is reused");
        assert!(d.find_loaded("f3").is_some() && d.find_loaded("g").is_none());
    }
}
