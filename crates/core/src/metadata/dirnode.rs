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

/// A component name with its hash. A directory operation hashes the name
/// once and probes every bucket's table with the same value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HashedName<'a> {
    name: &'a [u8],
    hash: u64,
}

impl<'a> HashedName<'a> {
    pub(crate) fn new(name: &'a str) -> HashedName<'a> {
        HashedName::of(name.as_bytes())
    }

    /// A fixed, unkeyed multiply–xor hash over the name's 8-byte words,
    /// seeded with its length. Unkeyed, a writer of the directory can choose
    /// names that share a home slot; the cost of that is bounded by the
    /// bucket size (DESIGN.md §5).
    fn of(name: &'a [u8]) -> HashedName<'a> {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mix = |h: u64, word: u64| {
            let h = (h ^ word).wrapping_mul(K);
            h ^ (h >> 32)
        };
        let mut words = name.chunks_exact(8);
        let mut hash = (name.len() as u64).wrapping_mul(K);
        for word in &mut words {
            hash = mix(hash, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            hash = mix(hash, u64::from_le_bytes(word));
        }
        HashedName { name, hash: mix(hash, 0) }
    }

    /// The slot a probe for this name starts at, in a table of `slots`
    /// (a power of two).
    fn home(&self, slots: usize) -> usize {
        self.hash as usize & (slots - 1)
    }
}

/// Table slots for a bucket of `len` entries: a pure function of the count,
/// so [`Bucket::epc_bytes`] is exact, and never more than half full, so a
/// probe always ends at an empty slot.
pub(crate) fn slots_for(len: usize) -> usize {
    (2 * len).next_power_of_two().max(8)
}

/// The smallest entry encoding: empty name (4-byte length), uuid, kind tag.
const MIN_ENTRY_LEN: usize = 4 + 16 + 1;

/// The name bytes of the entry framed at `at` of a validated bucket body.
fn name_at(body: &[u8], at: u32) -> &[u8] {
    let at = at as usize;
    let len = le32(body, at).expect("index offsets point at validated entries");
    &body[at + 4..][..len]
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
/// [`Bucket::decode`], and read in place afterwards, so loading, cloning
/// and dropping a bucket allocate nothing per entry.
///
/// Beside the body sits the in-enclave **name table**: an open-addressed
/// hash table of entry offsets with linear probing, so a lookup is one
/// hash probe and only [`Bucket::iter`] walks the body. It is never
/// stored — a function of the body (names are unique), rebuilt by `decode`
/// — and it lives inside the `Arc<Bucket>`, shared by every copy of the
/// dirnode and copied only with the one bucket a mutation changes.
#[derive(Debug, Clone)]
pub struct Bucket {
    body: Vec<u8>,
    /// Entry offsets into `body`, placed by name hash; 0 marks an empty
    /// slot (no entry starts there: the count does). `slots_for(len)` long.
    table: Vec<u32>,
}

/// Bodies only: the table is derived from the body, and two tables can hold
/// the same offsets in another order.
impl PartialEq for Bucket {
    fn eq(&self, other: &Bucket) -> bool {
        self.body == other.body
    }
}

impl Eq for Bucket {}

impl Default for Bucket {
    fn default() -> Bucket {
        Bucket::new()
    }
}

impl Bucket {
    /// An empty bucket.
    pub fn new() -> Bucket {
        Bucket { body: 0u32.to_le_bytes().to_vec(), table: vec![0; slots_for(0)] }
    }

    /// The bucket body as stored (inside the sealed object).
    pub fn as_bytes(&self) -> &[u8] {
        &self.body
    }

    /// A copy of the bucket body.
    pub fn encode(&self) -> Vec<u8> {
        self.body.clone()
    }

    /// What the bucket occupies in enclave memory: the body and its table.
    pub fn epc_bytes(&self) -> usize {
        self.body.len() + self.table.len() * std::mem::size_of::<u32>()
    }

    /// Parses and validates a bucket body — framing, entry count, kind tags,
    /// UTF-8 of every name and symlink target, no trailing bytes, no name
    /// twice — and fills the name table in the same pass.
    ///
    /// # Errors
    ///
    /// [`NexusError::Malformed`] on any of those.
    pub fn decode(bytes: &[u8]) -> Result<Bucket> {
        let malformed = |what: &str| NexusError::Malformed(format!("bucket body: {what}"));
        let count = le32(bytes, 0).ok_or_else(|| malformed("truncated entry count"))?;
        if bytes.len() > u32::MAX as usize {
            return Err(malformed("larger than an entry offset can address"));
        }
        // Sized by what the input can hold, never by the count it claims.
        let mut table = vec![0; slots_for(count.min(bytes.len() / MIN_ENTRY_LEN))];
        let mut pos = 4;
        for _ in 0..count {
            let (entry, next) = EntryRef::parse(bytes, pos)
                .ok_or_else(|| malformed("truncated entry or unknown entry kind"))?;
            if std::str::from_utf8(entry.name).is_err() || std::str::from_utf8(entry.target).is_err()
            {
                return Err(malformed("invalid utf-8"));
            }
            let Err(slot) = probe(bytes, &table, HashedName::of(entry.name)) else {
                return Err(malformed("duplicate name"));
            };
            table[slot] = pos as u32;
            pos = next;
        }
        if pos != bytes.len() {
            return Err(malformed("trailing bytes"));
        }
        let bucket = Bucket { body: bytes.to_vec(), table };
        debug_assert!(bucket.table_is_consistent());
        Ok(bucket)
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

    fn entry_at(&self, at: u32) -> (EntryRef<'_>, usize) {
        EntryRef::parse(&self.body, at as usize).expect("table offsets point at validated entries")
    }

    /// Finds an entry by name.
    pub fn find(&self, name: &str) -> Option<EntryRef<'_>> {
        self.find_hashed(HashedName::new(name))
    }

    /// [`Bucket::find`] with a name the caller has hashed.
    pub(crate) fn find_hashed(&self, name: HashedName<'_>) -> Option<EntryRef<'_>> {
        let slot = probe(&self.body, &self.table, name).ok()?;
        Some(self.entry_at(self.table[slot]).0)
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if the name is already present (the caller keeps names unique:
    /// a body holding one twice would not decode again) or the body outgrows
    /// a `u32` offset.
    pub fn push(&mut self, entry: &DirEntry) {
        self.push_hashed(entry, HashedName::new(&entry.name));
    }

    /// [`Bucket::push`] with `entry`'s name, which the caller has hashed.
    pub(crate) fn push_hashed(&mut self, entry: &DirEntry, name: HashedName<'_>) {
        if probe(&self.body, &self.table, name).is_ok() {
            panic!("bucket already holds an entry named {:?}", entry.name);
        }
        let at = self.body.len();
        let mut w = Writer::new();
        entry.encode(&mut w);
        self.body.extend_from_slice(&w.into_bytes());
        assert!(self.body.len() <= u32::MAX as usize, "bucket body outgrew its u32 offsets");
        self.set_len(self.len() + 1);
        self.resize_table();
        let Err(slot) = probe(&self.body, &self.table, name) else { unreachable!("absent above") };
        self.table[slot] = at as u32;
        debug_assert!(self.table_is_consistent());
    }

    /// Removes and returns the entry named `name`.
    pub fn remove(&mut self, name: &str) -> Option<DirEntry> {
        self.remove_hashed(HashedName::new(name))
    }

    /// [`Bucket::remove`] with a name the caller has hashed.
    pub(crate) fn remove_hashed(&mut self, name: HashedName<'_>) -> Option<DirEntry> {
        let slot = probe(&self.body, &self.table, name).ok()?;
        let start = self.table[slot];
        let (entry, end) = self.entry_at(start);
        let removed = entry.to_entry();
        self.unlink(slot);
        self.body.drain(start as usize..end);
        // The entries behind the hole moved up by its length.
        let hole = end as u32 - start;
        for at in self.table.iter_mut().filter(|at| **at > start) {
            *at -= hole;
        }
        self.set_len(self.len() - 1);
        self.resize_table();
        debug_assert!(self.table_is_consistent());
        Some(removed)
    }

    /// Empties `slot` by backward-shift deletion: each later entry of the
    /// probe run whose home slot does not lie between the hole and itself
    /// moves back into the hole, so every probe still ends at the first
    /// empty slot and no tombstone is needed.
    fn unlink(&mut self, slot: usize) {
        let mask = self.table.len() - 1;
        let (mut hole, mut next) = (slot, slot);
        loop {
            next = (next + 1) & mask;
            let at = self.table[next];
            if at == 0 {
                break;
            }
            let home = HashedName::of(name_at(&self.body, at)).home(self.table.len());
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.table[hole] = at;
                hole = next;
            }
        }
        self.table[hole] = 0;
    }

    /// Rebuilds the table when the entry count has left its size class.
    fn resize_table(&mut self) {
        let slots = slots_for(self.len());
        if self.table.len() == slots {
            return;
        }
        let old = std::mem::replace(&mut self.table, vec![0; slots]);
        for at in old.into_iter().filter(|&at| at != 0) {
            let name = HashedName::of(name_at(&self.body, at));
            let Err(slot) = probe(&self.body, &self.table, name) else {
                unreachable!("names are unique")
            };
            self.table[slot] = at;
        }
    }

    /// The table is `slots_for(len)` long, holds every entry offset of the
    /// body exactly once, and a probe for each entry's name from its home
    /// slot reaches it without crossing an empty slot (debug builds check
    /// it after every change).
    fn table_is_consistent(&self) -> bool {
        let mut starts = Vec::with_capacity(self.len());
        let mut pos = 4;
        while pos < self.body.len() {
            let Some((_, next)) = EntryRef::parse(&self.body, pos) else { return false };
            starts.push(pos as u32);
            pos = next;
        }
        let mut held: Vec<u32> = self.table.iter().copied().filter(|&at| at != 0).collect();
        held.sort_unstable();
        let reachable = (0..self.table.len()).filter(|&slot| self.table[slot] != 0).all(|slot| {
            let name = HashedName::of(name_at(&self.body, self.table[slot]));
            probe(&self.body, &self.table, name) == Ok(slot)
        });
        self.table.len() == slots_for(self.len()) && held == starts && reachable
    }
}

/// Probes `table` for `name` from its home slot: `Ok` with the slot holding
/// it, or `Err` with the empty slot that ends the probe run, where it would
/// go. The table is never full, so the run ends.
fn probe(body: &[u8], table: &[u32], name: HashedName<'_>) -> std::result::Result<usize, usize> {
    let mask = table.len() - 1;
    let mut slot = name.home(table.len());
    loop {
        match table[slot] {
            0 => return Err(slot),
            at if name_at(body, at) == name.name => return Ok(slot),
            _ => slot = (slot + 1) & mask,
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
        self.find_loaded_hashed(HashedName::new(name))
    }

    /// [`Dirnode::find_loaded`] with a name the caller has hashed once for
    /// every bucket.
    pub(crate) fn find_loaded_hashed(&self, name: HashedName<'_>) -> Option<EntryRef<'_>> {
        self.buckets
            .iter()
            .filter_map(|s| s.bucket.as_ref())
            .find_map(|b| b.find_hashed(name))
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
        let name = HashedName::new(&entry.name);
        if self.find_loaded_hashed(name).is_some() {
            return Err(NexusError::AlreadyExists(entry.name));
        }
        let cap = self.bucket_size;
        let room = self
            .buckets
            .iter_mut()
            .find(|s| s.bucket.as_ref().is_some_and(|b| b.len() < cap));
        if let Some(slot) = room {
            let bucket = Arc::make_mut(slot.bucket.as_mut().expect("matched a loaded bucket"));
            bucket.push_hashed(&entry, name);
            slot.dirty = true;
        } else {
            let mut bucket = Bucket::new();
            bucket.push_hashed(&entry, name);
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
        let hashed = HashedName::new(name);
        for slot in self.buckets.iter_mut() {
            let bucket = slot.bucket.as_mut().expect("checked fully loaded");
            // Probe the shared bucket first: only the one holding `name`
            // is copied.
            if bucket.find_hashed(hashed).is_none() {
                continue;
            }
            let entry = Arc::make_mut(bucket).remove_hashed(hashed).expect("found above");
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

    /// Drops every empty bucket slot, wherever it sits (after removals),
    /// and returns the uuids of the buckets it dropped.
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

    /// `count` names, found by a deterministic search, that share one home
    /// slot in tables of 8, 16 and 32 slots.
    fn colliding_names(count: usize) -> Vec<String> {
        let home = |name: &str| HashedName::new(name).home(32);
        let target = home("n0");
        let names: Vec<String> =
            (0..).map(|i| format!("n{i}")).filter(|n| home(n) == target).take(count).collect();
        assert!(names.iter().all(|n| HashedName::new(n).home(16) == target % 16));
        names
    }

    #[test]
    fn colliding_names_share_one_probe_run() {
        let names = colliding_names(12);
        // Pushed in a shuffled order, the table growing 8 → 16 → 32 slots
        // with every name in one run.
        let mut bucket = Bucket::new();
        for i in [5, 0, 11, 3, 8, 1, 10, 6, 2, 9, 4, 7] {
            bucket.push(&entry(&names[i], i as u8));
        }
        assert_eq!(bucket.table.len(), 32);
        let run = |bucket: &Bucket| -> Vec<String> {
            let home = HashedName::new(&names[0]).home(bucket.table.len());
            let mask = bucket.table.len() - 1;
            (0..bucket.table.len())
                .map(|k| bucket.table[(home + k) & mask])
                .take_while(|&at| at != 0)
                .map(|at| String::from_utf8(name_at(&bucket.body, at).to_vec()).unwrap())
                .collect()
        };
        assert_eq!(run(&bucket).len(), 12, "one run of twelve");
        // Out of the head, the middle and the tail of the run (the fourth
        // removal shrinks the table to 16 slots, the fifth probes it).
        let mut removed = Vec::new();
        for pick in [0, 5, usize::MAX, 0, 3] {
            let order = run(&bucket);
            let name = order[pick.min(order.len() - 1)].clone();
            assert_eq!(bucket.remove(&name).map(|e| e.name), Some(name.clone()));
            removed.push(name);
            for n in &names {
                assert_eq!(bucket.find(n).is_some(), !removed.contains(n), "{n} after {removed:?}");
            }
        }
        assert_eq!((bucket.len(), bucket.table.len()), (7, 16));
        let decoded = Bucket::decode(&bucket.encode()).unwrap();
        assert_eq!(decoded.encode(), bucket.encode());
        for n in &names {
            assert_eq!(decoded.find(n).is_some(), !removed.contains(n), "{n}");
        }
        // A duplicate of the fourth survivor: `decode` fills the table in
        // body order, so the probe meets it inside the run, not at its head.
        let mut body = bucket.encode();
        let survivor = bucket.iter().nth(3).unwrap().name();
        body.extend_from_slice(&bucket_of(&[entry(survivor, 99)]).as_bytes()[4..]);
        body[..4].copy_from_slice(&8u32.to_le_bytes());
        match Bucket::decode(&body) {
            Err(NexusError::Malformed(why)) => assert!(why.contains("duplicate name"), "{why}"),
            other => panic!("expected Malformed, got {other:?}"),
        }

        // Names that are prefixes of one another, the empty name, past the
        // 8-byte word and multi-byte: pushed in reverse, every one is found.
        let stem = "a-common-prefix-";
        let mut names: Vec<String> = vec!["".into(), "a".into(), "b".into(), stem[..15].into()];
        for tail in ["", "0", "00", "01", "1", "\u{e9}"] {
            names.push(format!("{stem}{tail}"));
        }
        let entries: Vec<DirEntry> = names.iter().rev().map(|n| entry(n, 1)).collect();
        let bucket = Bucket::decode(&bucket_of(&entries).encode()).unwrap();
        for e in &entries {
            assert_eq!(bucket.find(&e.name).map(|f| f.to_entry()).as_ref(), Some(e));
        }
    }

    #[test]
    fn bucket_decode_rejects_a_name_listed_twice() {
        // `find` would answer one and `remove` resurrect the other.
        let mut body = bucket_of(&[entry("a", 1), entry("b", 2)]).encode();
        body.extend_from_slice(&bucket_of(&[entry("a", 3)]).as_bytes()[4..]);
        body[0] = 3;
        match Bucket::decode(&body) {
            Err(NexusError::Malformed(why)) => assert!(why.contains("duplicate name"), "{why}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        let name_byte = body.len() - 18; // 'a', then the uuid and the kind tag
        body[name_byte] = b'c';
        assert_eq!(Bucket::decode(&body).unwrap().len(), 3, "the same bytes under a free name");
    }

    #[test]
    fn bucket_decode_sizes_its_index_by_the_input_not_the_claimed_count() {
        // Four bytes claiming four billion entries: a typed error, and no
        // 16 GiB reservation on the way to it.
        assert!(matches!(
            Bucket::decode(&u32::MAX.to_le_bytes()),
            Err(NexusError::Malformed(_))
        ));
        let bucket = bucket_of(&[entry("", 1), entry("b", 2)]);
        assert_eq!(bucket.as_bytes().len(), 4 + MIN_ENTRY_LEN + MIN_ENTRY_LEN + 1);
        assert_eq!(bucket.epc_bytes(), bucket.as_bytes().len() + 4 * slots_for(2));
        assert_eq!([0, 4, 5, 8, 9, 128].map(slots_for), [8, 8, 16, 16, 32, 256]);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn bucket_push_refuses_a_name_it_holds() {
        bucket_of(&[entry("a", 1), entry("a", 2)]);
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

    #[test]
    fn a_sibling_copy_keeps_finding_every_name_after_the_other_mutates() {
        // The table lives in the shared `Arc<Bucket>`: a mutation through one
        // dirnode must copy it with the bucket, not edit it in place.
        let link = |name: &str| DirEntry {
            name: name.into(),
            uuid: uuid(7),
            kind: EntryKind::Symlink("some/target".into()),
        };
        let mut d = Dirnode::new(uuid(1), NexusUuid::NIL, 4);
        let names = ["m", "a", "zz", "k", "b", "y", "c", "x"];
        for (i, name) in names.into_iter().enumerate() {
            let e = if i % 2 == 0 { link(name) } else { entry(name, i as u8) };
            d.insert(e, uuid(100 + i as u8)).unwrap();
        }
        let before: Vec<DirEntry> = d.list_loaded().map(|e| e.to_entry()).collect();
        let mut copy = d.clone();
        for name in ["m", "k", "b"] {
            copy.remove(name).unwrap();
        }
        copy.insert(entry("0-sorts-first", 50), uuid(200)).unwrap();
        copy.insert(link("n"), uuid(201)).unwrap();
        for e in &before {
            assert_eq!(d.find_loaded(&e.name).map(|f| f.to_entry()).as_ref(), Some(e));
        }
        assert!(d.find_loaded("n").is_none() && d.find_loaded("0-sorts-first").is_none());
        assert_eq!(d.list_loaded().map(|e| e.to_entry()).collect::<Vec<_>>(), before);
        for gone in ["m", "k", "b"] {
            assert!(copy.find_loaded(gone).is_none());
        }
        for kept in ["a", "zz", "y", "c", "x", "n", "0-sorts-first"] {
            assert!(copy.find_loaded(kept).is_some(), "{kept}");
        }
    }
}
