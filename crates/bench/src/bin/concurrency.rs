//! Multi-user scaling (paper §VII-F): NEXUS "is designed to operate within
//! a multi-user environment". This benchmark runs N clients — each a full
//! NEXUS enclave on its own machine — concurrently creating files in one
//! shared directory, the worst case for the metadata locks of §V-A.
//!
//! ```text
//! cargo run --release -p nexus-bench --bin concurrency [--ops N]
//! ```

use std::sync::Arc;

use nexus_bench::{arg_usize, header, rule, secs};
use nexus_core::{NexusConfig, NexusVolume, Rights, UserKeys, VolumeJoiner};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock};

struct Deployment {
    server: AfsServer,
    clock: SimClock,
    ias: AttestationService,
}

impl Deployment {
    fn client(&self) -> Arc<AfsClient> {
        Arc::new(AfsClient::connect(
            &self.server,
            self.clock.clone(),
            LatencyModel::paper_calibrated(),
        ))
    }
}

/// Builds `n` authenticated volumes (one owner + n-1 grantees) over one
/// shared server, all with RW on `shared/`.
fn build_clients(deployment: &Deployment, n: usize) -> Vec<NexusVolume> {
    let owner_machine = Platform::seeded(1);
    deployment.ias.register_platform(&owner_machine);
    let owner = UserKeys::from_seed("owner", &[11u8; 32]);
    let (owner_volume, _) = NexusVolume::create(
        &owner_machine,
        deployment.client(),
        &deployment.ias,
        &owner,
        NexusConfig::default(),
    )
    .expect("create");
    owner_volume.authenticate(&owner).expect("auth");
    owner_volume.mkdir("shared").expect("mkdir");

    let mut volumes = vec![owner_volume];
    for i in 1..n {
        let machine = Platform::seeded(100 + i as u64);
        deployment.ias.register_platform(&machine);
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&(0xA000 + i as u64).to_le_bytes());
        let peer = UserKeys::from_seed(&format!("user{i}"), &seed);
        let client = deployment.client();
        let joiner = VolumeJoiner::new(&machine, client.clone());
        joiner.publish_offer(&peer).expect("offer");
        volumes[0]
            .grant_access(&UserKeys::from_seed("owner", &[11u8; 32]), &format!("user{i}"), &peer.public_key())
            .expect("grant");
        volumes[0]
            .set_acl("shared", &format!("user{i}"), Rights::RW)
            .expect("acl");
        let sealed = joiner
            .accept_grant(&peer, &UserKeys::from_seed("owner", &[11u8; 32]).public_key())
            .expect("accept");
        let volume = NexusVolume::mount(
            &machine,
            client,
            &deployment.ias,
            &sealed,
            NexusConfig::default(),
        )
        .expect("mount");
        volume.authenticate(&peer).expect("peer auth");
        volumes.push(volume);
    }
    volumes
}

fn main() {
    let ops = arg_usize("--ops", 64);
    header(
        "Concurrency — N clients creating files in one shared directory (§V-A, §VII-F)",
        &format!("{ops} file creates total, split across clients; flock serializes the dirnode"),
    );
    println!(
        "{:>9} {:>14} {:>14} {:>12}",
        "clients", "sim wall", "per-op", "lost files"
    );
    rule(54);
    for n in [1usize, 2, 4, 8] {
        let deployment = Deployment {
            server: AfsServer::new(),
            clock: SimClock::new(),
            ias: AttestationService::new(),
        };
        let volumes = build_clients(&deployment, n);
        let t0 = deployment.clock.now();
        let per_client = ops / n;
        let handles: Vec<_> = volumes
            .into_iter()
            .enumerate()
            .map(|(c, volume)| {
                std::thread::spawn(move || {
                    for i in 0..per_client {
                        volume
                            .write_file(&format!("shared/c{c}-f{i:03}"), b"payload")
                            .expect("write");
                    }
                    volume
                })
            })
            .collect();
        let volumes: Vec<NexusVolume> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let wall = deployment.clock.now() - t0;
        let expected = per_client * n;
        let actual = volumes[0].list_dir("shared").expect("list").len();
        println!(
            "{n:>9} {:>14} {:>14} {:>12}",
            secs(wall),
            secs(wall / expected as u32),
            expected - actual,
        );
    }
    rule(54);
    println!("expected shape: virtual wall-clock stays roughly flat as clients are added.");
    println!("Each client charges its own clock lane, so independent RPCs would overlap —");
    println!("but every create re-reads the one shared dirnode, and a fetch first raises");
    println!("the reader's lane to the dirnode's last write time. That causality chain");
    println!("serializes the read-modify-write cycles in virtual time exactly as the");
    println!("server-side flock does in operation order; no creates are ever lost.");
    println!("(Disjoint per-client directories scale instead: see micro_scale's fs cells.)");
}
