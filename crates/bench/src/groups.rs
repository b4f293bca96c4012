//! `micro_groups` → `BENCH_groups.json`: group access control at scale.
//!
//! Measures the beyond-paper group subsystem (DESIGN.md §16) across group
//! sizes 10^2 / 10^4 / 10^6 (`--smoke` drops the last): batched member
//! grants, and — the headline — one-member revocation, which is a member
//! removal plus an epoch bump in a single supernode commit. Bytes written
//! still grow with the member table (the supernode holds the sorted id
//! set), so the document reports writes and bytes separately.
//!
//! Floors, at both sizes (the group path is deterministic): a revocation
//! is exactly one epoch bump that retains the old key, so remaining
//! members keep reading pre-bump ciphertext; it deletes nothing; every
//! byte it writes is the supernode commit — no data object is rewritten at
//! any group size, objects re-wrap lazily on their next write; and the
//! write count is the same, and at most 2, across the ladder. A full run
//! must ladder 10^2 / 10^4 / 10^6.

use std::sync::Arc;
use std::time::Instant;

use nexus_core::{NexusConfig, NexusVolume, Rights, UserKeys, VolumeJoiner};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::{MemBackend, StorageBackend};

use crate::json::Json;
use crate::Report;

#[derive(Clone)]
pub(crate) struct Cell {
    pub(crate) members: usize,
    grant_us: f64,
    revoke_us: f64,
    pub(crate) revoke_writes: u64,
    pub(crate) revoke_deletes: u64,
    pub(crate) revoke_bytes_written: u64,
    pub(crate) supernode_bytes: u64,
    pub(crate) epoch_after: u64,
    pub(crate) key_count_after: usize,
}

#[derive(Clone)]
pub(crate) struct Groups {
    pub(crate) smoke: bool,
    pub(crate) cells: Vec<Cell>,
}

/// Adds a named user through the real offer/grant exchange so the member
/// being revoked is a genuine principal, not a spliced synthetic id.
fn add_real_user(
    ias: &AttestationService,
    backend: &Arc<MemBackend>,
    volume: &NexusVolume,
    owner: &UserKeys,
    name: &str,
    seed: u8,
    machine: u64,
) {
    let platform = Platform::seeded(machine);
    ias.register_platform(&platform);
    let user = UserKeys::from_seed(name, &[seed; 32]);
    let joiner = VolumeJoiner::new(&platform, backend.clone(), ias);
    joiner.publish_offer(&user).expect("offer");
    volume.grant_access(owner, name, &user.public_key()).expect("grant");
}

fn run_cell(members: usize) -> Cell {
    let platform = Platform::seeded(7);
    let ias = AttestationService::new();
    ias.register_platform(&platform);
    let backend = Arc::new(MemBackend::new());
    let owner = UserKeys::from_seed("owen", &[1u8; 32]);
    let (volume, _) =
        NexusVolume::create(&platform, backend.clone(), &ias, &owner, NexusConfig::default())
            .expect("create");
    volume.authenticate(&owner).expect("auth");

    volume.mkdir("shared").expect("mkdir");
    volume.create_group("g").expect("group");
    add_real_user(&ias, &backend, &volume, &owner, "alice", 2, 1001);
    volume.add_group_members("g", &["alice"]).expect("add alice");
    // Fill the group to size with synthetic member ids (bench scaffolding:
    // a million real key exchanges would measure ed25519, not the group
    // path). Ids start far above anything the supernode allocates.
    let synthetic: Vec<u32> = (0..members.saturating_sub(2) as u32).map(|i| 1_000_000 + i).collect();
    volume.add_group_member_ids("g", &synthetic).expect("splice");
    volume.set_group_acl("shared", "g", Rights::RW).expect("acl");
    volume.write_file("shared/doc.txt", b"group-scoped contents").expect("write");

    // Batched grant of one more real member into the full-size group.
    add_real_user(&ias, &backend, &volume, &owner, "bob", 3, 1002);
    let t = Instant::now();
    volume.add_group_members("g", &["bob"]).expect("add bob");
    let grant_us = t.elapsed().as_nanos() as f64 / 1e3;

    // The measured event: revoke one member from the full-size group.
    let before = volume.io_stats();
    let t = Instant::now();
    volume.remove_group_members("g", &["alice"]).expect("revoke");
    let revoke_us = t.elapsed().as_nanos() as f64 / 1e3;
    let delta = volume.io_stats().delta_since(&before);

    let supernode_bytes =
        backend.stat(&volume.volume_id().object_name()).expect("stat").size;
    Cell {
        members,
        grant_us,
        revoke_us,
        revoke_writes: delta.writes,
        revoke_deletes: delta.deletes,
        revoke_bytes_written: delta.bytes_written,
        supernode_bytes,
        epoch_after: volume.group_epoch("g").expect("epoch"),
        key_count_after: volume.group_key_count("g").expect("keys"),
    }
}

impl Groups {
    /// The headline: one write count, at most 2, at every group size.
    fn o1_writes(&self) -> bool {
        let first = self.cells.first().map_or(u64::MAX, |c| c.revoke_writes);
        self.cells.iter().all(|c| c.revoke_writes == first) && first <= 2
    }
}

impl Report for Groups {
    fn measure(smoke: bool) -> Groups {
        let sizes: &[usize] = if smoke { &[100, 10_000] } else { &[100, 10_000, 1_000_000] };
        let cells: Vec<Cell> = sizes.iter().map(|&n| run_cell(n)).collect();
        Groups { smoke, cells }
    }

    fn gate(&self) {
        for c in &self.cells {
            let at = c.members;
            assert_eq!(c.epoch_after, 1, "a revocation is exactly one epoch bump ({at} members)");
            assert_eq!(c.key_count_after, 2, "the old epoch key must be retained ({at} members)");
            assert_eq!(c.revoke_deletes, 0, "revocation must delete nothing ({at} members)");
            assert_eq!(
                c.revoke_bytes_written, c.supernode_bytes,
                "revocation wrote beyond the supernode at {at} members"
            );
        }
        assert!(
            self.o1_writes(),
            "revocation writes must be O(1) across sizes, got {:?}",
            self.cells.iter().map(|c| c.revoke_writes).collect::<Vec<_>>()
        );
        if !self.smoke {
            let members: Vec<usize> = self.cells.iter().map(|c| c.members).collect();
            assert_eq!(members, [100, 10_000, 1_000_000], "a full run ladders 10^2/10^4/10^6");
        }
    }

    fn json(&self) -> Json {
        let cell = |c: &Cell| {
            Json::obj()
                .field("members", Json::Int(c.members as i64))
                .field("grant_us", Json::Num(c.grant_us))
                .field("revoke_us", Json::Num(c.revoke_us))
                .field("revoke_writes", Json::Int(c.revoke_writes as i64))
                .field("revoke_deletes", Json::Int(c.revoke_deletes as i64))
                .field("revoke_bytes_written", Json::Int(c.revoke_bytes_written as i64))
                .field("supernode_bytes", Json::Int(c.supernode_bytes as i64))
                .field("epoch_after", Json::Int(c.epoch_after as i64))
                .field("key_count_after", Json::Int(c.key_count_after as i64))
        };
        Json::obj()
            .field("bench", Json::Str("groups".into()))
            .field("emitter", Json::Str("nexus-bench micro_groups (scripts/bench.sh)".into()))
            .field("smoke", Json::Bool(self.smoke))
            .field("o1_writes", Json::Bool(self.o1_writes()))
            .field("cells", Json::Arr(self.cells.iter().map(cell).collect()))
    }
}
