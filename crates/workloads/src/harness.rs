//! Experiment rig: wires platforms, attestation, the simulated AFS
//! deployment, and a mounted NEXUS volume together for workloads and
//! benchmarks.

use std::sync::Arc;

use nexus_core::{NexusConfig, NexusVolume, UserKeys};
use nexus_sgx::{AttestationService, Platform};
use nexus_storage::afs::{AfsClient, AfsServer};
use nexus_storage::{LatencyModel, SimClock};

use crate::bench_fs::{NexusFs, PlainAfs};

/// A self-contained experimental setup.
pub struct TestRig {
    /// The client machine.
    pub platform: Platform,
    /// Simulated Intel attestation service.
    pub ias: AttestationService,
    /// Volume owner identity.
    pub owner: UserKeys,
    /// Latency model applied to every AFS client created by this rig.
    pub latency: LatencyModel,
    /// NEXUS configuration for volumes created by this rig.
    pub config: NexusConfig,
}

impl TestRig {
    /// A rig with the latency model calibrated to the paper's testbed.
    pub fn default_latency() -> TestRig {
        TestRig::with(LatencyModel::paper_calibrated(), NexusConfig::default())
    }

    /// A rig with zero simulated latency (fast unit tests).
    pub fn fast() -> TestRig {
        TestRig::with(LatencyModel::instant(), NexusConfig::default())
    }

    /// A fully custom rig.
    pub fn with(latency: LatencyModel, config: NexusConfig) -> TestRig {
        let platform = Platform::seeded(0xBEEF);
        let ias = AttestationService::new();
        ias.register_platform(&platform);
        TestRig {
            platform,
            ias,
            owner: UserKeys::from_seed("owner", &[11u8; 32]),
            latency,
            config,
        }
    }

    /// Fresh AFS deployment: (server, connected client, its clock).
    pub fn afs(&self) -> (AfsServer, Arc<AfsClient>, SimClock) {
        let server = AfsServer::new();
        let clock = SimClock::new();
        let client = Arc::new(AfsClient::connect(&server, clock.clone(), self.latency));
        (server, client, clock)
    }

    /// A fresh, authenticated NEXUS volume over its own AFS deployment.
    pub fn nexus_fs(&self) -> NexusFs {
        let (_server, client, _clock) = self.afs();
        let (volume, _sealed) = NexusVolume::create(
            &self.platform,
            client.clone(),
            &self.ias,
            &self.owner,
            self.config,
        )
        .expect("volume creation");
        volume.authenticate(&self.owner).expect("owner auth");
        NexusFs::new(volume, client)
    }

    /// A fresh plain-AFS baseline over its own AFS deployment.
    pub fn plain_afs(&self) -> PlainAfs {
        let (_server, client, _clock) = self.afs();
        PlainAfs::new(client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_fs::BenchFs;

    #[test]
    fn rigs_build_both_systems() {
        let rig = TestRig::fast();
        let nexus = rig.nexus_fs();
        let afs = rig.plain_afs();
        assert_eq!(nexus.name(), "nexus");
        assert_eq!(afs.name(), "openafs");
    }
}
