//! The inputs and the oracle. Operation lists are generated from the seed
//! against a shadow model of the volume, so every operation carries the
//! answer it must get; the program only ever sees paths, bytes and rights.
//!
//! A payload is a function of the file's content key and write serial:
//! the seed-derived base bytes with a 16-byte header stamped over the
//! front. Stamping and checking are O(header) plus one `memcmp`, so an
//! 8 MiB file can be written and verified byte for byte on every
//! operation without the oracle costing more than the cipher.

use crate::rng::{Deck, Rng, Zipf};

/// Op kinds, as named in `op.<kind>.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `write_file` to a path that does not exist.
    Create,
    /// `write_file` over an existing small file.
    Overwrite,
    /// `write_file` of at least 1 MiB.
    WriteBig,
    /// `read_file` of a small file.
    ReadSmall,
    /// `read_file` of at least 1 MiB.
    ReadBig,
    /// `read_range`.
    ReadRange,
    /// `read_files`.
    ReadFiles,
    /// `lookup`.
    Lookup,
    /// `list_dir`.
    ListDir,
    /// `rename`.
    Rename,
    /// `remove`.
    Remove,
    /// `set_acl` / `revoke_acl`.
    SetAcl,
    /// `mkdir` (set-up only; not a reported kind).
    Mkdir,
}

/// Latency class of a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `read_file`, `read_files`, `lookup`, `list_dir`.
    Read,
    /// Everything that mutates.
    Write,
    /// `read_range`, kept apart: it uses the data path differently.
    Range,
}

impl Kind {
    /// The kinds that get `op.<kind>.*` metrics.
    pub const REPORTED: [Kind; 12] = [
        Kind::Create,
        Kind::Overwrite,
        Kind::WriteBig,
        Kind::ReadSmall,
        Kind::ReadBig,
        Kind::ReadRange,
        Kind::ReadFiles,
        Kind::Lookup,
        Kind::ListDir,
        Kind::Rename,
        Kind::Remove,
        Kind::SetAcl,
    ];

    /// The name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::Overwrite => "overwrite",
            Kind::WriteBig => "write_big",
            Kind::ReadSmall => "read_small",
            Kind::ReadBig => "read_big",
            Kind::ReadRange => "read_range",
            Kind::ReadFiles => "read_files",
            Kind::Lookup => "lookup",
            Kind::ListDir => "list_dir",
            Kind::Rename => "rename",
            Kind::Remove => "remove",
            Kind::SetAcl => "set_acl",
            Kind::Mkdir => "mkdir",
        }
    }

    /// The latency class.
    pub fn class(self) -> Class {
        match self {
            Kind::ReadSmall | Kind::ReadBig | Kind::ReadFiles | Kind::Lookup | Kind::ListDir => {
                Class::Read
            }
            Kind::ReadRange => Class::Range,
            _ => Class::Write,
        }
    }
}

/// Files of at least this many bytes are the `*_big` kinds.
pub const BIG: u32 = 1 << 20;

/// What a file holds: enough to rebuild its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Content {
    /// Identifies the file the bytes were written for.
    pub key: u64,
    /// Which write of that file.
    pub serial: u32,
    /// Length in bytes.
    pub len: u32,
}

impl Content {
    fn header(&self) -> [u8; 16] {
        let mut h = [0u8; 16];
        h[..8].copy_from_slice(&self.key.to_le_bytes());
        h[8..12].copy_from_slice(&self.serial.to_le_bytes());
        h[12..].copy_from_slice(&self.len.to_le_bytes());
        h
    }

    /// Stamps this content's header over the front of `scratch` (a copy of
    /// the base bytes) and returns the payload slice.
    pub fn stamp<'a>(&self, scratch: &'a mut [u8]) -> &'a [u8] {
        let len = self.len as usize;
        let n = len.min(16);
        scratch[..n].copy_from_slice(&self.header()[..n]);
        &scratch[..len]
    }

    /// True when `data` is bytes `offset..offset + data.len()` of this
    /// content over `base`.
    pub fn matches_at(&self, data: &[u8], base: &[u8], offset: usize) -> bool {
        let end = offset + data.len();
        if end > self.len as usize {
            return false;
        }
        // The first `split` bytes of `data` fall inside the header.
        let head = (self.len as usize).min(16);
        let split = head.clamp(offset, end) - offset;
        let from = offset.min(head);
        data[..split] == self.header()[from..from + split]
            && data[split..] == base[offset + split..end]
    }

    /// True when `data` is exactly this content over `base`.
    pub fn matches(&self, data: &[u8], base: &[u8]) -> bool {
        data.len() == self.len as usize && self.matches_at(data, base, 0)
    }
}

/// One operation and the answer the oracle expects.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `mkdir path`.
    Mkdir { path: String },
    /// `write_file path <content>`; `kind` says create, overwrite or big.
    Write {
        kind: Kind,
        path: String,
        content: Content,
    },
    /// `read_file path`, must return `expect`.
    Read {
        kind: Kind,
        path: String,
        expect: Content,
    },
    /// `read_range path offset len`, must return that slice of `expect`.
    ReadRange {
        path: String,
        offset: u64,
        len: u64,
        expect: Content,
    },
    /// `read_files paths`, must return `expect` in order.
    ReadFiles {
        paths: Vec<String>,
        expect: Vec<Content>,
    },
    /// `lookup path`, must report a file of `size` bytes.
    Lookup { path: String, size: u64 },
    /// `list_dir path`, must list exactly `names` (sorted).
    ListDir { path: String, names: Vec<String> },
    /// `rename from to`.
    Rename { from: String, to: String },
    /// `remove path`.
    Remove { path: String },
    /// `set_acl path user READ` when `grant`, else `revoke_acl path user`.
    SetAcl {
        path: String,
        user: &'static str,
        grant: bool,
    },
}

impl Op {
    /// The op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Mkdir { .. } => Kind::Mkdir,
            Op::Write { kind, .. } | Op::Read { kind, .. } => *kind,
            Op::ReadRange { .. } => Kind::ReadRange,
            Op::ReadFiles { .. } => Kind::ReadFiles,
            Op::Lookup { .. } => Kind::Lookup,
            Op::ListDir { .. } => Kind::ListDir,
            Op::Rename { .. } => Kind::Rename,
            Op::Remove { .. } => Kind::Remove,
            Op::SetAcl { .. } => Kind::SetAcl,
        }
    }

    /// Plaintext bytes the caller hands over or gets back.
    pub fn user_bytes(&self) -> u64 {
        match self {
            Op::Write { content, .. } => u64::from(content.len),
            Op::Read { expect, .. } => u64::from(expect.len),
            Op::ReadRange { len, .. } => *len,
            Op::ReadFiles { expect, .. } => expect.iter().map(|c| u64::from(c.len)).sum(),
            _ => 0,
        }
    }
}

/// The user ACL operations grant to and revoke from.
pub const ACL_USER: &str = "auditor";

fn write_kind(len: u32, exists: bool) -> Kind {
    match (len >= BIG, exists) {
        (true, _) => Kind::WriteBig,
        (false, true) => Kind::Overwrite,
        (false, false) => Kind::Create,
    }
}

fn read_kind(len: u32) -> Kind {
    if len >= BIG {
        Kind::ReadBig
    } else {
        Kind::ReadSmall
    }
}

#[derive(Debug, Clone)]
struct FileState {
    name: u64,
    content: Content,
}

#[derive(Debug, Clone)]
struct DirState {
    path: String,
    files: Vec<FileState>,
    granted: bool,
}

impl DirState {
    fn file_path(&self, name: u64) -> String {
        format!("{}/f{name}", self.path)
    }
}

/// Shape of a single-client workload's volume and operation mix.
#[derive(Debug, Clone, Copy)]
pub struct TreeShape {
    /// Directories under the root.
    pub dirs: usize,
    /// Files per directory after set-up; creates and removes hold the
    /// total at `dirs * files_per_dir`.
    pub files_per_dir: usize,
    /// No directory grows beyond this many files.
    pub dir_cap: usize,
    /// Bytes per small file.
    pub file_bytes: u32,
    /// Slots under `big/` and their size; the bulk mix works on these, and
    /// the metadata mix writes and reads one back every `big_every` ops.
    pub big_files: usize,
    /// Bytes per big file.
    pub big_bytes: u32,
    /// Every this many metadata ops one big write + read-back (0: never).
    pub big_every: usize,
}

/// Shadow model of one single-client volume and its op generator.
#[derive(Debug, Clone)]
pub struct Tree {
    shape: TreeShape,
    dirs: Vec<DirState>,
    big: Vec<Content>,
    next_name: u64,
    total: usize,
    since_big: usize,
    big_turn: usize,
    mix: Deck,
}

const BIG_KEY: u64 = 1 << 48;

impl Tree {
    /// An empty model of `shape`.
    pub fn new(shape: TreeShape) -> Tree {
        Tree {
            shape,
            dirs: Vec::new(),
            big: Vec::new(),
            next_name: 0,
            total: 0,
            since_big: 0,
            big_turn: 0,
            mix: Deck::new(100),
        }
    }

    /// Longest payload this model ever asks for.
    pub fn max_payload(&self) -> usize {
        self.shape.file_bytes.max(if self.shape.big_files > 0 {
            self.shape.big_bytes
        } else {
            0
        }) as usize
    }

    fn big_path(slot: usize) -> String {
        format!("big/b{slot}")
    }

    /// The ops that build the initial population, updating the model.
    pub fn populate(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for d in 0..self.shape.dirs {
            let path = format!("d{d}");
            ops.push(Op::Mkdir { path: path.clone() });
            self.dirs.push(DirState {
                path,
                files: Vec::new(),
                granted: false,
            });
            for _ in 0..self.shape.files_per_dir {
                ops.push(self.create_in(d));
            }
        }
        if self.shape.big_files > 0 {
            ops.push(Op::Mkdir { path: "big".into() });
            for slot in 0..self.shape.big_files {
                let content = Content {
                    key: BIG_KEY + slot as u64,
                    serial: 0,
                    len: self.shape.big_bytes,
                };
                self.big.push(content);
                ops.push(Op::Write {
                    kind: Kind::WriteBig,
                    path: Tree::big_path(slot),
                    content,
                });
            }
        }
        ops
    }

    fn create_in(&mut self, d: usize) -> Op {
        let name = self.next_name;
        self.next_name += 1;
        let content = Content {
            key: name,
            serial: 0,
            len: self.shape.file_bytes,
        };
        self.dirs[d].files.push(FileState { name, content });
        self.total += 1;
        Op::Write {
            kind: write_kind(content.len, false),
            path: self.dirs[d].file_path(name),
            content,
        }
    }

    /// A directory with room, probing on from a random start.
    fn roomy_dir(&self, rng: &mut Rng) -> usize {
        let start = rng.below(self.dirs.len());
        (0..self.dirs.len())
            .map(|i| (start + i) % self.dirs.len())
            .find(|&d| self.dirs[d].files.len() < self.shape.dir_cap)
            .expect("the population target leaves room in some directory")
    }

    /// A random existing file as (directory, index).
    fn some_file(&self, rng: &mut Rng) -> (usize, usize) {
        let start = rng.below(self.dirs.len());
        let d = (0..self.dirs.len())
            .map(|i| (start + i) % self.dirs.len())
            .find(|&d| !self.dirs[d].files.is_empty())
            .expect("the population never drains");
        (d, rng.below(self.dirs[d].files.len()))
    }

    fn big_pair(&mut self, ops: &mut Vec<Op>) {
        let slot = self.big_turn % self.shape.big_files;
        self.big_turn += 1;
        self.big[slot].serial += 1;
        let content = self.big[slot];
        ops.push(Op::Write {
            kind: Kind::WriteBig,
            path: Tree::big_path(slot),
            content,
        });
        ops.push(Op::Read {
            kind: Kind::ReadBig,
            path: Tree::big_path(slot),
            expect: content,
        });
    }

    /// `n` ops of the metadata mix — of every 100: 30 lookup, 25 read,
    /// 2 list, 23 create or remove (whichever keeps the population at its
    /// target, so they alternate), 10 overwrite, 8 rename, 2 ACL — with a
    /// big write + read-back every `big_every` ops.
    pub fn meta_round(&mut self, rng: &mut Rng, n: usize) -> Vec<Op> {
        let target = self.shape.dirs * self.shape.files_per_dir;
        let mut ops = Vec::with_capacity(n + 2);
        while ops.len() < n {
            if self.shape.big_every > 0 {
                self.since_big += 1;
                if self.since_big >= self.shape.big_every {
                    self.since_big = 0;
                    self.big_pair(&mut ops);
                    continue;
                }
            }
            let op = match self.mix.draw(rng) {
                0..=29 => {
                    let (d, i) = self.some_file(rng);
                    let f = &self.dirs[d].files[i];
                    Op::Lookup {
                        path: self.dirs[d].file_path(f.name),
                        size: u64::from(f.content.len),
                    }
                }
                30..=54 => {
                    let (d, i) = self.some_file(rng);
                    let f = &self.dirs[d].files[i];
                    Op::Read {
                        kind: read_kind(f.content.len),
                        path: self.dirs[d].file_path(f.name),
                        expect: f.content,
                    }
                }
                55..=56 => {
                    let d = rng.below(self.dirs.len());
                    self.list_op(d)
                }
                57..=79 if self.total <= target => {
                    let d = self.roomy_dir(rng);
                    self.create_in(d)
                }
                57..=79 => {
                    let (d, i) = self.some_file(rng);
                    let f = self.dirs[d].files.swap_remove(i);
                    self.total -= 1;
                    Op::Remove {
                        path: self.dirs[d].file_path(f.name),
                    }
                }
                80..=89 => {
                    let (d, i) = self.some_file(rng);
                    let f = &mut self.dirs[d].files[i];
                    f.content.serial += 1;
                    let (name, content) = (f.name, f.content);
                    Op::Write {
                        kind: write_kind(content.len, true),
                        path: self.dirs[d].file_path(name),
                        content,
                    }
                }
                90..=97 => {
                    let (d, i) = self.some_file(rng);
                    let mut f = self.dirs[d].files.swap_remove(i);
                    let from = self.dirs[d].file_path(f.name);
                    let to_dir = self.roomy_dir(rng);
                    f.name = self.next_name;
                    self.next_name += 1;
                    let to = self.dirs[to_dir].file_path(f.name);
                    self.dirs[to_dir].files.push(f);
                    Op::Rename { from, to }
                }
                _ => {
                    let d = rng.below(self.dirs.len());
                    let dir = &mut self.dirs[d];
                    dir.granted = !dir.granted;
                    Op::SetAcl {
                        path: dir.path.clone(),
                        user: ACL_USER,
                        grant: dir.granted,
                    }
                }
            };
            ops.push(op);
        }
        ops
    }

    /// `iters` iterations of the bulk mix over the big files in turn:
    /// rewrite the whole file, read it whole, then four 64 KiB ranged
    /// reads at seeded offsets, each inside one chunk.
    pub fn bulk_round(&mut self, rng: &mut Rng, iters: usize) -> Vec<Op> {
        const RANGE: u64 = 64 << 10;
        const CHUNK: u64 = 1 << 20;
        let mut ops = Vec::with_capacity(iters * 6);
        for _ in 0..iters {
            let slot = self.big_turn % self.shape.big_files;
            self.big_pair(&mut ops);
            let expect = self.big[slot];
            let chunks = (u64::from(expect.len) / CHUNK).max(1);
            for _ in 0..4 {
                let span = CHUNK.min(u64::from(expect.len));
                let offset = rng.below(chunks as usize) as u64 * CHUNK
                    + rng.below((span - RANGE + 1) as usize) as u64;
                ops.push(Op::ReadRange {
                    path: Tree::big_path(slot),
                    offset,
                    len: RANGE,
                    expect,
                });
            }
        }
        ops
    }

    fn list_op(&self, d: usize) -> Op {
        let dir = &self.dirs[d];
        let mut names: Vec<String> = dir.files.iter().map(|f| format!("f{}", f.name)).collect();
        names.sort();
        Op::ListDir {
            path: dir.path.clone(),
            names,
        }
    }

    /// A read of one existing small file (the first read of a session).
    pub fn first_read(&self, rng: &mut Rng) -> Op {
        let (d, i) = self.some_file(rng);
        let f = &self.dirs[d].files[i];
        Op::Read {
            kind: read_kind(f.content.len),
            path: self.dirs[d].file_path(f.name),
            expect: f.content,
        }
    }

    /// Lists every directory and reads every file the model holds.
    pub fn sweep(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for (d, dir) in self.dirs.iter().enumerate() {
            ops.push(self.list_op(d));
            for f in &dir.files {
                ops.push(Op::Read {
                    kind: read_kind(f.content.len),
                    path: dir.file_path(f.name),
                    expect: f.content,
                });
            }
        }
        if !self.big.is_empty() {
            let mut names: Vec<String> = (0..self.big.len()).map(|s| format!("b{s}")).collect();
            names.sort();
            ops.push(Op::ListDir {
                path: "big".into(),
                names,
            });
            for (slot, content) in self.big.iter().enumerate() {
                ops.push(Op::Read {
                    kind: Kind::ReadBig,
                    path: Tree::big_path(slot),
                    expect: *content,
                });
            }
        }
        ops
    }
}

/// Shape of the many-client world.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Mounted clients.
    pub clients: usize,
    /// Shared read-only files, read by Zipf rank.
    pub shared_files: usize,
    /// Private files per client.
    pub slots: usize,
    /// Bytes per file.
    pub file_bytes: u32,
    /// Files per `read_files`.
    pub bulk_width: usize,
}

/// Home directories fan out 128 ways per level, so no dirnode on a
/// client's path grows with the client count.
const FANOUT_BITS: u32 = 7;
const SHARED_KEY: u64 = 2 << 48;
const PRIVATE_KEY: u64 = 3 << 48;

/// Shadow model of the many-client world. Shared payloads are a function
/// of rank, private ones of (client, slot), so any interleaving of
/// clients leaves the same bytes.
#[derive(Debug, Clone)]
pub struct Fleet {
    shape: FleetShape,
    zipf: Zipf,
    acl_toggles: Vec<u32>,
    mixes: Vec<Deck>,
}

impl Fleet {
    /// The model for `shape`.
    pub fn new(shape: FleetShape) -> Fleet {
        Fleet {
            shape,
            zipf: Zipf::new(shape.shared_files, 0.99),
            acl_toggles: vec![0; shape.clients],
            mixes: vec![Deck::new(20); shape.clients],
        }
    }

    fn shared_path(rank: usize) -> String {
        format!("shared/f{rank}")
    }

    fn shared(&self, rank: usize) -> Content {
        Content {
            key: SHARED_KEY + rank as u64,
            serial: 0,
            len: self.shape.file_bytes,
        }
    }

    /// Client `c`'s home directory.
    pub fn home(c: usize) -> String {
        format!("t{}/g{}/c{c}", c >> (2 * FANOUT_BITS), c >> FANOUT_BITS)
    }

    fn private(&self, c: usize, slot: usize) -> (String, Content) {
        let key = PRIVATE_KEY + ((c as u64) << 8) + slot as u64;
        (
            format!("{}/w{slot}", Fleet::home(c)),
            Content {
                key,
                serial: 0,
                len: self.shape.file_bytes,
            },
        )
    }

    /// The owner's set-up: shared files and every home directory.
    pub fn populate(&self) -> Vec<Op> {
        let mut ops = vec![Op::Mkdir {
            path: "shared".into(),
        }];
        for rank in 0..self.shape.shared_files {
            ops.push(Op::Write {
                kind: Kind::Create,
                path: Fleet::shared_path(rank),
                content: self.shared(rank),
            });
        }
        let last = self.shape.clients - 1;
        for t in 0..=(last >> (2 * FANOUT_BITS)) {
            ops.push(Op::Mkdir {
                path: format!("t{t}"),
            });
        }
        for g in 0..=(last >> FANOUT_BITS) {
            ops.push(Op::Mkdir {
                path: format!("t{}/g{g}", g >> FANOUT_BITS),
            });
        }
        for c in 0..self.shape.clients {
            ops.push(Op::Mkdir {
                path: Fleet::home(c),
            });
        }
        ops
    }

    /// Client `c`'s warm-up: create every private slot, read one shared
    /// file. After it the measured writes are all overwrites.
    pub fn warm_up(&self, c: usize) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..self.shape.slots)
            .map(|slot| {
                let (path, content) = self.private(c, slot);
                Op::Write {
                    kind: Kind::Create,
                    path,
                    content,
                }
            })
            .collect();
        let rank = c % self.shape.shared_files;
        ops.push(Op::Read {
            kind: Kind::ReadSmall,
            path: Fleet::shared_path(rank),
            expect: self.shared(rank),
        });
        ops
    }

    /// `n` ops for client `c` — of every 20: 8 Zipf reads of a shared
    /// file, 3 `read_files` of `bulk_width` shared files, 7 private
    /// overwrites, 2 ACL toggles on the client's home.
    pub fn client_round(&mut self, rng: &mut Rng, c: usize, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| match self.mixes[c].draw(rng) {
                0..=7 => {
                    let rank = self.zipf.sample(rng.unit());
                    Op::Read {
                        kind: Kind::ReadSmall,
                        path: Fleet::shared_path(rank),
                        expect: self.shared(rank),
                    }
                }
                8..=10 => {
                    let start = self.zipf.sample(rng.unit());
                    let ranks =
                        (0..self.shape.bulk_width).map(|i| (start + i) % self.shape.shared_files);
                    Op::ReadFiles {
                        paths: ranks.clone().map(Fleet::shared_path).collect(),
                        expect: ranks.map(|r| self.shared(r)).collect(),
                    }
                }
                11..=17 => {
                    let (path, content) = self.private(c, rng.below(self.shape.slots));
                    Op::Write {
                        kind: Kind::Overwrite,
                        path,
                        content,
                    }
                }
                _ => {
                    self.acl_toggles[c] += 1;
                    Op::SetAcl {
                        path: Fleet::home(c),
                        user: ACL_USER,
                        grant: self.acl_toggles[c] % 2 == 1,
                    }
                }
            })
            .collect()
    }

    /// The read that opens a fresh session.
    pub fn first_read(&self) -> Op {
        Op::Read {
            kind: Kind::ReadSmall,
            path: Fleet::shared_path(0),
            expect: self.shared(0),
        }
    }

    /// The owner's final sweep: every listing and every file.
    pub fn sweep(&self) -> Vec<Op> {
        let mut names: Vec<String> = (0..self.shape.shared_files)
            .map(|r| format!("f{r}"))
            .collect();
        names.sort();
        let mut ops = vec![Op::ListDir {
            path: "shared".into(),
            names,
        }];
        for rank in 0..self.shape.shared_files {
            ops.push(Op::Read {
                kind: Kind::ReadSmall,
                path: Fleet::shared_path(rank),
                expect: self.shared(rank),
            });
        }
        for c in 0..self.shape.clients {
            let mut names: Vec<String> = (0..self.shape.slots).map(|s| format!("w{s}")).collect();
            names.sort();
            ops.push(Op::ListDir {
                path: Fleet::home(c),
                names,
            });
            for slot in 0..self.shape.slots {
                let (path, expect) = self.private(c, slot);
                ops.push(Op::Read {
                    kind: Kind::ReadSmall,
                    path,
                    expect,
                });
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: usize) -> Vec<u8> {
        let mut b = vec![0u8; n];
        Rng::new(9, 9).fill(&mut b);
        b
    }

    #[test]
    fn payload_check_sees_every_byte() {
        let base = base(4096);
        let c = Content {
            key: 77,
            serial: 3,
            len: 4096,
        };
        let mut scratch = base.clone();
        let data = c.stamp(&mut scratch).to_vec();
        assert!(c.matches(&data, &base));
        for i in [0usize, 7, 8, 12, 15, 16, 17, 2048, 4095] {
            let mut bad = data.clone();
            bad[i] ^= 1;
            assert!(!c.matches(&bad, &base), "flip at {i} unnoticed");
        }
        assert!(!c.matches(&data[..4095], &base));
        assert!(!Content { serial: 4, ..c }.matches(&data, &base));
        assert!(!Content { key: 78, ..c }.matches(&data, &base));
        // Slices, including ones that straddle the header.
        for (off, len) in [
            (0usize, 16usize),
            (4, 8),
            (10, 100),
            (16, 1),
            (100, 1000),
            (4000, 96),
        ] {
            assert!(
                c.matches_at(&data[off..off + len], &base, off),
                "{off}+{len}"
            );
            let mut bad = data[off..off + len].to_vec();
            bad[len / 2] ^= 0x80;
            assert!(!c.matches_at(&bad, &base, off), "{off}+{len}");
        }
        assert!(!c.matches_at(&data[..10], &base, 4090));
        // Shorter than the header.
        let tiny = Content {
            key: 5,
            serial: 1,
            len: 9,
        };
        let mut scratch = base.clone();
        let data = tiny.stamp(&mut scratch).to_vec();
        assert_eq!(data.len(), 9);
        assert!(tiny.matches(&data, &base));
    }

    const SHAPE: TreeShape = TreeShape {
        dirs: 4,
        files_per_dir: 8,
        dir_cap: 16,
        file_bytes: 64,
        big_files: 2,
        big_bytes: BIG,
        big_every: 10,
    };

    #[test]
    fn meta_mix_is_stationary_and_seeded() {
        let run = |seed| {
            let mut t = Tree::new(SHAPE);
            t.populate();
            let ops = t.meta_round(&mut Rng::new(seed, 1), 4000);
            (ops, t)
        };
        let (a, ta) = run(1);
        assert_eq!(a, run(1).0);
        assert_ne!(a, run(2).0);
        assert!(
            ta.total.abs_diff(32) <= 1,
            "population drifted to {}",
            ta.total
        );
        assert!(ta.dirs.iter().all(|d| d.files.len() <= 16));
        let count = |ops: &[Op], k: Kind| ops.iter().filter(|op| op.kind() == k).count();
        // One big pair per nine cards of the mix.
        assert_eq!(count(&a, Kind::WriteBig), count(&a, Kind::ReadBig));
        assert!(count(&a, Kind::WriteBig).abs_diff(4000 / 11) <= 1);
        assert!(count(&a, Kind::Create).abs_diff(count(&a, Kind::Remove)) <= 1);
        // Without big ops, 4000 ops are 40 decks: the shares are exact
        // whatever the seed.
        for seed in [1, 2, 3] {
            let mut t = Tree::new(TreeShape {
                big_every: 0,
                ..SHAPE
            });
            t.populate();
            let ops = t.meta_round(&mut Rng::new(seed, 1), 4000);
            let counts = [
                Kind::Lookup,
                Kind::ReadSmall,
                Kind::ListDir,
                Kind::Overwrite,
                Kind::Rename,
                Kind::SetAcl,
            ]
            .map(|k| count(&ops, k));
            assert_eq!(counts, [1200, 1000, 80, 400, 320, 80]);
            assert_eq!(count(&ops, Kind::Create) + count(&ops, Kind::Remove), 920);
        }
        // The sweep names every file the model holds.
        let reads = ta
            .sweep()
            .iter()
            .filter(|op| matches!(op, Op::Read { .. }))
            .count();
        assert_eq!(reads, ta.total + 2);
    }

    #[test]
    fn bulk_ranges_stay_inside_one_chunk() {
        let shape = TreeShape {
            dirs: 1,
            files_per_dir: 1,
            big_bytes: 8 << 20,
            ..SHAPE
        };
        let mut t = Tree::new(shape);
        t.populate();
        let ops = t.bulk_round(&mut Rng::new(4, 4), 10);
        assert_eq!(ops.len(), 60);
        for op in &ops {
            if let Op::ReadRange {
                offset,
                len,
                expect,
                ..
            } = op
            {
                assert_eq!(offset >> 20, (offset + len - 1) >> 20);
                assert!(offset + len <= u64::from(expect.len));
            }
        }
    }

    #[test]
    fn fleet_streams_are_per_client() {
        let shape = FleetShape {
            clients: 300,
            shared_files: 64,
            slots: 2,
            file_bytes: 256,
            bulk_width: 4,
        };
        let mut f = Fleet::new(shape);
        let a = f.client_round(&mut Rng::new(1, 5), 5, 50);
        let mut g = Fleet::new(shape);
        assert_eq!(a, g.client_round(&mut Rng::new(1, 5), 5, 50));
        assert_ne!(a, g.client_round(&mut Rng::new(1, 6), 6, 50));
        assert_eq!(Fleet::home(299), "t0/g2/c299");
        assert_eq!(
            f.populate()
                .iter()
                .filter(|op| matches!(op, Op::Mkdir { .. }))
                .count(),
            1 + 1 + 3 + 300
        );
    }
}
