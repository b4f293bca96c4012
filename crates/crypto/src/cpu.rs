//! Runtime CPU-feature detection and crypto-engine dispatch.
//!
//! Keys expand onto one of two interchangeable constant-time engines: the
//! portable bitsliced one ([`crate::aes_ct`]/[`crate::ghash_ct`]) and the
//! hardware one ([`crate::aes_ni`]/[`crate::ghash_clmul`]) built on AES-NI
//! and PCLMULQDQ. Both are byte-identical; this module decides which one
//! a freshly expanded key uses:
//!
//! - on x86_64 with the AES, PCLMULQDQ, SSSE3 and SSE4.1 CPUID bits set →
//!   hardware;
//! - forced portable (env `NEXUS_CRYPTO_FORCE_PORTABLE`, so the fallback
//!   can be exercised on hardware-lane machines) → bitsliced;
//! - any other architecture → bitsliced, unconditionally (the hardware
//!   modules are not even compiled there).
//!
//! Detection runs our own `CPUID` wrapper rather than
//! `is_x86_feature_detected!` so the dispatch logic stays auditable and
//! identical across std versions: leaf 1, `ECX` bit 25 (`AESNI`), bit 1
//! (`PCLMULQDQ`), bit 9 (`SSSE3`) and bit 19 (`SSE4.1`). The last two are
//! what the fused GCM kernel (`gcm_ni`) byte-swaps blocks and
//! builds counter blocks with; the lane requires every feature any of its
//! `#[target_feature]` functions names, so holding a hardware key is proof
//! of all four.

use std::sync::OnceLock;

use crate::CryptoBackend;

/// Environment variable that forces the portable bitsliced lane even when
/// the CPU advertises the hardware lane's features. Any value other than
/// empty or `0` forces portable. Read once per process.
pub const FORCE_PORTABLE_ENV: &str = "NEXUS_CRYPTO_FORCE_PORTABLE";

/// CPUID leaf 1 ECX bit 25: the AESENC/AESDEC/AESKEYGENASSIST family.
#[cfg(target_arch = "x86_64")]
const CPUID_ECX_AESNI: u32 = 1 << 25;
/// CPUID leaf 1 ECX bit 1: the PCLMULQDQ carryless multiply.
#[cfg(target_arch = "x86_64")]
const CPUID_ECX_PCLMULQDQ: u32 = 1 << 1;
/// CPUID leaf 1 ECX bit 9: SSSE3 (`PSHUFB`, the block byte swap).
#[cfg(target_arch = "x86_64")]
const CPUID_ECX_SSSE3: u32 = 1 << 9;
/// CPUID leaf 1 ECX bit 19: SSE4.1 (`PINSRD`, the in-register counter).
#[cfg(target_arch = "x86_64")]
const CPUID_ECX_SSE41: u32 = 1 << 19;

/// Whether a leaf 1 `ECX` value carries every feature the hardware lane's
/// `#[target_feature]` functions name. Any one bit missing → portable.
#[cfg(target_arch = "x86_64")]
fn ecx_has_hw_lane(ecx: u32) -> bool {
    const REQUIRED: u32 =
        CPUID_ECX_AESNI | CPUID_ECX_PCLMULQDQ | CPUID_ECX_SSSE3 | CPUID_ECX_SSE41;
    ecx & REQUIRED == REQUIRED
}

/// True when the running CPU exposes AES-NI, PCLMULQDQ, SSSE3 and SSE4.1,
/// i.e. the hardware lane can be constructed. Cached after the first query;
/// always false off x86_64.
pub fn hw_accel_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect_hw_accel)
}

#[cfg(target_arch = "x86_64")]
fn detect_hw_accel() -> bool {
    // CPUID is unprivileged and universally present on x86_64 (leaf 0
    // reports the max leaf; leaf 1 has existed since the 486).
    let max_leaf = core::arch::x86_64::__cpuid(0).eax;
    if max_leaf < 1 {
        return false;
    }
    ecx_has_hw_lane(core::arch::x86_64::__cpuid(1).ecx)
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_hw_accel() -> bool {
    false
}

/// True when [`FORCE_PORTABLE_ENV`] forces the portable lane.
pub fn force_portable() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var(FORCE_PORTABLE_ENV) {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    })
}

/// The dispatch table as a pure function of its inputs, so tests can
/// assert every row without racing on process-global state.
pub fn backend_for_flags(hw_available: bool, force_portable: bool) -> CryptoBackend {
    if hw_available && !force_portable {
        CryptoBackend::HwAccel
    } else {
        CryptoBackend::Bitsliced
    }
}

/// The engine a key expanded by `Aes::new` / `AesGcm::new` /
/// `AesGcmSiv::new` uses in this process.
pub fn constant_time_backend() -> CryptoBackend {
    backend_for_flags(hw_accel_available(), force_portable())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_table() {
        // CPUID present, no override → intrinsics.
        assert_eq!(backend_for_flags(true, false), CryptoBackend::HwAccel);
        // Forced portable → bitsliced, even with hardware present.
        assert_eq!(backend_for_flags(true, true), CryptoBackend::Bitsliced);
        // No hardware → bitsliced regardless of the override.
        assert_eq!(backend_for_flags(false, false), CryptoBackend::Bitsliced);
        assert_eq!(backend_for_flags(false, true), CryptoBackend::Bitsliced);
    }

    /// The hardware rows of the table need all four CPUID bits: a CPU
    /// short of any one of them is a `hw_available = false` row.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_lane_needs_every_feature_its_kernels_name() {
        let all = [CPUID_ECX_AESNI, CPUID_ECX_PCLMULQDQ, CPUID_ECX_SSSE3, CPUID_ECX_SSE41];
        let full = all.iter().fold(0, |acc, bit| acc | bit);
        assert!(ecx_has_hw_lane(full));
        assert!(ecx_has_hw_lane(u32::MAX));
        for bit in all {
            assert!(!ecx_has_hw_lane(full & !bit), "lane selected without bit {bit:#x}");
            assert!(!ecx_has_hw_lane(!bit));
        }
        assert!(!ecx_has_hw_lane(0));
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn non_x86_compiles_to_bitsliced_unconditionally() {
        assert!(!hw_accel_available());
        assert_eq!(constant_time_backend(), CryptoBackend::Bitsliced);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_is_stable_and_consistent_with_cpuid() {
        // The cached answer must equal a fresh CPUID query.
        assert_eq!(hw_accel_available(), detect_hw_accel());
        assert_eq!(hw_accel_available(), detect_hw_accel());
        // And std's own detection of the same four features.
        assert_eq!(
            hw_accel_available(),
            std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        );
    }
}
