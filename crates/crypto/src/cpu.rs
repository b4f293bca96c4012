//! Runtime CPU-feature detection and crypto-engine dispatch.
//!
//! Three decisions are made here, each once per process and each from what
//! `CPUID` reports: which engine a freshly expanded AES key uses, whether
//! that engine's GCM bodies may run sixteen blocks wide, and which
//! compression function SHA-256 runs. The first and the last are
//! independent — a Skylake-class CPU has AES-NI and no SHA extensions, and
//! keeps its hardware AES lane with the portable hash; the second sits on
//! top of the first.
//!
//! # The AES lane
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
//!
//! # The wide GCM kernel
//!
//! On the hardware lane, [`wide_lane`] decides whether a GCM body's whole
//! 256-byte groups go through the VAES + VPCLMULQDQ kernel (`gcm_vaes`:
//! four blocks per ZMM register) before the 128-bit kernel finishes the
//! remainder. The CPU half of the decision is leaf 7 sub-leaf 0 `EBX` bit
//! 16 (`AVX512F`) and bit 30 (`AVX512BW`), `ECX` bit 9 (`VAES`) and bit 10
//! (`VPCLMULQDQ`). The OS half is what AVX-512 adds to any earlier lane: a
//! ZMM register is only preserved across a context switch when the OS set
//! the matching `XCR0` bits, so leaf 1 `ECX` bit 27 (`OSXSAVE`) must be set
//! and `XGETBV(0)` must show SSE, AVX, opmask and both ZMM halves enabled
//! (`XCR0 & 0xE6 == 0xE6`). All of that, plus the AES lane's own four bits,
//! with [`FORCE_PORTABLE_ENV`] unset; anything missing keeps the 128-bit
//! kernel. The answer is a [`WideLane`] token, which nothing but this
//! decision can construct and which the kernel demands as its proof.
//!
//! # The SHA lane
//!
//! [`crate::sha2::Sha256`] compresses on one of two byte-identical
//! functions: the portable scalar one, or the SHA-NI kernel
//! (`sha_ni`: `SHA256RNDS2`/`SHA256MSG1`/`SHA256MSG2`). [`sha_lane`] picks
//! the kernel when the max CPUID leaf is ≥ 7, leaf 7 sub-leaf 0 `EBX` bit
//! 29 (`SHA`) is set, leaf 1 `ECX` has bit 9 (`SSSE3`: the kernel's
//! `PSHUFB` byte swap and `PALIGNR`) and bit 19 (`SSE4.1`: its `PBLENDW`),
//! and [`FORCE_PORTABLE_ENV`] is not set — the one switch covers hashing
//! too. SHA-512 has no hardware lane.

use std::sync::OnceLock;

use crate::CryptoBackend;

/// Environment variable that forces the portable lanes — bitsliced AES/GHASH
/// and scalar SHA-256 — even when the CPU advertises the hardware lanes'
/// features. Any value other than empty or `0` forces portable. Read once
/// per process.
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

/// CPUID leaf 1 ECX bit 27: the OS enabled XSAVE/XGETBV (`CR4.OSXSAVE`), so
/// `XCR0` can be read and says which register state the OS saves.
#[cfg(target_arch = "x86_64")]
const CPUID_ECX_OSXSAVE: u32 = 1 << 27;

/// CPUID leaf 7 sub-leaf 0 EBX bit 16: AVX-512 Foundation (the ZMM
/// registers, `VPADDD`, `VBROADCASTI32X4`, `VEXTRACTI32X4`).
#[cfg(target_arch = "x86_64")]
const CPUID_7_EBX_AVX512F: u32 = 1 << 16;
/// CPUID leaf 7 sub-leaf 0 EBX bit 30: AVX-512 Byte and Word (`VPSHUFB` and
/// the per-lane byte shifts on ZMM, byte-granular masks).
#[cfg(target_arch = "x86_64")]
const CPUID_7_EBX_AVX512BW: u32 = 1 << 30;
/// CPUID leaf 7 sub-leaf 0 ECX bit 9: `VAESENC`/`VAESENCLAST` on YMM/ZMM.
#[cfg(target_arch = "x86_64")]
const CPUID_7_ECX_VAES: u32 = 1 << 9;
/// CPUID leaf 7 sub-leaf 0 ECX bit 10: `VPCLMULQDQ` on YMM/ZMM.
#[cfg(target_arch = "x86_64")]
const CPUID_7_ECX_VPCLMULQDQ: u32 = 1 << 10;
/// `XCR0` bits 1, 2, 5, 6 and 7: the OS saves SSE, AVX, opmask, the upper
/// halves of ZMM0–15 and all of ZMM16–31. AVX-512 code may run only with
/// all five set.
#[cfg(target_arch = "x86_64")]
const XCR0_AVX512_STATE: u64 = 0xE6;

/// CPUID leaf 7 sub-leaf 0 EBX bit 29: the SHA extensions
/// (`SHA256RNDS2`, `SHA256MSG1`, `SHA256MSG2`).
#[cfg(target_arch = "x86_64")]
const CPUID_7_EBX_SHA: u32 = 1 << 29;

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

/// True when [`FORCE_PORTABLE_ENV`] forces the portable lanes.
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

/// Proof that this process may run the VAES + VPCLMULQDQ GCM kernel
/// (`gcm_vaes`): the CPU has every feature the kernel enables and the OS
/// saves the ZMM state. The field is private, so only [`detect_wide_lane`]
/// makes one — the kernel's entry point takes it by value the way the
/// 128-bit kernel takes an `&AesNi`.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct WideLane(());

/// The wide kernel's dispatch table as a pure function of the three CPUID
/// words, `XCR0` and the override, so tests can assert every row. The
/// leaf 7 words are 0 when the CPU has no leaf 7, and `xcr0` is 0 when
/// `OSXSAVE` is clear (the register cannot be read then). The AES lane's
/// own mask comes first: the wide kernel runs on an `AesNi` schedule and
/// hands its remainder to the 128-bit kernel.
#[cfg(target_arch = "x86_64")]
fn wide_lane_for_flags(
    leaf1_ecx: u32,
    leaf7_ebx: u32,
    leaf7_ecx: u32,
    xcr0: u64,
    force_portable: bool,
) -> bool {
    const REQUIRED_EBX: u32 = CPUID_7_EBX_AVX512F | CPUID_7_EBX_AVX512BW;
    const REQUIRED_ECX: u32 = CPUID_7_ECX_VAES | CPUID_7_ECX_VPCLMULQDQ;
    let cpu_has_kernel_features =
        leaf7_ebx & REQUIRED_EBX == REQUIRED_EBX && leaf7_ecx & REQUIRED_ECX == REQUIRED_ECX;
    let os_saves_zmm_state =
        leaf1_ecx & CPUID_ECX_OSXSAVE != 0 && xcr0 & XCR0_AVX512_STATE == XCR0_AVX512_STATE;
    ecx_has_hw_lane(leaf1_ecx) && cpu_has_kernel_features && os_saves_zmm_state && !force_portable
}

/// A fresh CPUID + `XGETBV` query behind [`wide_lane`]; with
/// `force_portable` false it says what the silicon and the OS allow,
/// whatever the override says (the kernel's own tests ask that way).
#[cfg(target_arch = "x86_64")]
pub(crate) fn detect_wide_lane(force_portable: bool) -> Option<WideLane> {
    let max_leaf = core::arch::x86_64::__cpuid(0).eax;
    if max_leaf < 7 {
        return None;
    }
    let leaf1_ecx = core::arch::x86_64::__cpuid(1).ecx;
    let leaf7 = core::arch::x86_64::__cpuid_count(7, 0);
    let xcr0 = if leaf1_ecx & CPUID_ECX_OSXSAVE != 0 {
        // SAFETY: `XGETBV` faults only when `CR4.OSXSAVE` is clear, and
        // CPUID just reported it set; register 0 (`XCR0`) always exists.
        unsafe { core::arch::x86_64::_xgetbv(0) }
    } else {
        0
    };
    wide_lane_for_flags(leaf1_ecx, leaf7.ebx, leaf7.ecx, xcr0, force_portable)
        .then_some(WideLane(()))
}

/// Whether hardware-lane GCM bodies run their 256-byte groups on the wide
/// kernel in this process. Cached after the first query: one atomic load
/// per call after that.
#[cfg(target_arch = "x86_64")]
pub(crate) fn wide_lane() -> Option<WideLane> {
    static LANE: OnceLock<Option<WideLane>> = OnceLock::new();
    *LANE.get_or_init(|| detect_wide_lane(force_portable()))
}

/// One line naming the kernels this process dispatched to, for bench
/// headers and `BENCH_*.json`: `aes=vaes512|aesni128|bitsliced
/// sha=sha-ni|portable`. `vaes512` means the wide GCM kernel takes the
/// bodies long enough for it, over the `aesni128` lane.
pub fn describe() -> String {
    #[cfg(target_arch = "x86_64")]
    let wide = wide_lane().is_some();
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    let aes = match constant_time_backend() {
        CryptoBackend::HwAccel if wide => "vaes512",
        CryptoBackend::HwAccel => "aesni128",
        _ => "bitsliced",
    };
    let sha = match sha_lane() {
        ShaLane::ShaNi => "sha-ni",
        ShaLane::Portable => "portable",
    };
    format!("aes={aes} sha={sha}")
}

/// The SHA-256 compression function [`crate::sha2::Sha256`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShaLane {
    /// The scalar FIPS 180-4 engine: every architecture.
    Portable,
    /// The SHA-NI kernel (x86_64 with the CPUID bits).
    ShaNi,
}

/// The SHA lane's dispatch table as a pure function of the two CPUID words
/// and the override, so tests can assert every row. `leaf7_ebx` is 0 when
/// the CPU has no leaf 7. The leaf 1 mask is what `sha_ni`'s
/// `#[target_feature]` names beside `sha` — not the AES lane's mask: a CPU
/// may have either lane without the other.
#[cfg(target_arch = "x86_64")]
fn sha_lane_for_flags(leaf7_ebx: u32, leaf1_ecx: u32, force_portable: bool) -> ShaLane {
    const REQUIRED_ECX: u32 = CPUID_ECX_SSSE3 | CPUID_ECX_SSE41;
    let has_kernel_features =
        leaf7_ebx & CPUID_7_EBX_SHA != 0 && leaf1_ecx & REQUIRED_ECX == REQUIRED_ECX;
    if has_kernel_features && !force_portable {
        ShaLane::ShaNi
    } else {
        ShaLane::Portable
    }
}

/// True when the running CPU exposes the SHA extensions, SSSE3 and SSE4.1,
/// i.e. the SHA-NI kernel can run — whatever [`force_portable`] says.
/// Always false off x86_64.
pub fn sha_ni_available() -> bool {
    detect_sha_lane(false) == ShaLane::ShaNi
}

#[cfg(target_arch = "x86_64")]
fn detect_sha_lane(force_portable: bool) -> ShaLane {
    let max_leaf = core::arch::x86_64::__cpuid(0).eax;
    if max_leaf < 7 {
        return ShaLane::Portable;
    }
    let leaf7_ebx = core::arch::x86_64::__cpuid_count(7, 0).ebx;
    let leaf1_ecx = core::arch::x86_64::__cpuid(1).ecx;
    sha_lane_for_flags(leaf7_ebx, leaf1_ecx, force_portable)
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_sha_lane(_force_portable: bool) -> ShaLane {
    ShaLane::Portable
}

/// The compression function SHA-256 uses in this process. Cached after the
/// first query: one atomic load per call after that.
pub fn sha_lane() -> ShaLane {
    static LANE: OnceLock<ShaLane> = OnceLock::new();
    *LANE.get_or_init(|| detect_sha_lane(force_portable()))
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

    /// Every row of the SHA lane's table: the `SHA` bit × the two leaf 1
    /// bits × the override, and the two lanes' independence.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_dispatch_table() {
        use ShaLane::{Portable, ShaNi};
        let sha = CPUID_7_EBX_SHA;
        let (ssse3, sse41) = (CPUID_ECX_SSSE3, CPUID_ECX_SSE41);
        for forced in [false, true] {
            let with_everything = if forced { Portable } else { ShaNi };
            assert_eq!(sha_lane_for_flags(sha, ssse3 | sse41, forced), with_everything);
            assert_eq!(sha_lane_for_flags(u32::MAX, u32::MAX, forced), with_everything);
            // Any one of the three bits missing → portable.
            assert_eq!(sha_lane_for_flags(0, ssse3 | sse41, forced), Portable);
            assert_eq!(sha_lane_for_flags(!sha, u32::MAX, forced), Portable);
            assert_eq!(sha_lane_for_flags(sha, sse41, forced), Portable);
            assert_eq!(sha_lane_for_flags(sha, !ssse3, forced), Portable);
            assert_eq!(sha_lane_for_flags(sha, ssse3, forced), Portable);
            assert_eq!(sha_lane_for_flags(sha, !sse41, forced), Portable);
            assert_eq!(sha_lane_for_flags(sha, 0, forced), Portable);
            assert_eq!(sha_lane_for_flags(0, 0, forced), Portable);
        }

        // AES lane without SHA lane (Skylake): leaf 1 has everything the AES
        // lane needs, leaf 7 lacks `SHA`. The hardware AES lane stays.
        let aes_ecx = CPUID_ECX_AESNI | CPUID_ECX_PCLMULQDQ | ssse3 | sse41;
        assert_eq!(backend_for_flags(ecx_has_hw_lane(aes_ecx), false), CryptoBackend::HwAccel);
        assert_eq!(sha_lane_for_flags(0, aes_ecx, false), Portable);
        // SHA lane without AES lane (a hypervisor may mask AES-NI): the hash
        // does not wait for AES-NI or PCLMULQDQ.
        let no_aes_ecx = ssse3 | sse41;
        assert_eq!(backend_for_flags(ecx_has_hw_lane(no_aes_ecx), false), CryptoBackend::Bitsliced);
        assert_eq!(sha_lane_for_flags(sha, no_aes_ecx, false), ShaNi);
    }

    /// Every row of the wide kernel's table: each of the five feature bits
    /// missing, `OSXSAVE` clear, an `XCR0` that stops at AVX, the AES lane
    /// absent, the override — never wide, and the AES lane kept wherever
    /// its own four bits are there.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_dispatch_table() {
        let aes_ecx = CPUID_ECX_AESNI | CPUID_ECX_PCLMULQDQ | CPUID_ECX_SSSE3 | CPUID_ECX_SSE41;
        let ecx1 = aes_ecx | CPUID_ECX_OSXSAVE;
        let ebx7 = CPUID_7_EBX_AVX512F | CPUID_7_EBX_AVX512BW;
        let ecx7 = CPUID_7_ECX_VAES | CPUID_7_ECX_VPCLMULQDQ;
        let xcr0 = XCR0_AVX512_STATE;
        let narrow_kept = |ecx: u32| backend_for_flags(ecx_has_hw_lane(ecx), false);

        assert!(wide_lane_for_flags(ecx1, ebx7, ecx7, xcr0, false));
        assert!(wide_lane_for_flags(u32::MAX, u32::MAX, u32::MAX, u64::MAX, false));
        // The override wins over everything, as on the other lanes.
        assert!(!wide_lane_for_flags(ecx1, ebx7, ecx7, xcr0, true));
        assert!(!wide_lane_for_flags(u32::MAX, u32::MAX, u32::MAX, u64::MAX, true));

        // Any one of the four leaf 7 bits missing (an AVX-512 part before
        // Ice Lake has F and BW and neither vector-crypto bit).
        for bit in [CPUID_7_EBX_AVX512F, CPUID_7_EBX_AVX512BW] {
            assert!(!wide_lane_for_flags(ecx1, ebx7 & !bit, ecx7, xcr0, false), "ebx {bit:#x}");
            assert!(!wide_lane_for_flags(u32::MAX, !bit, u32::MAX, u64::MAX, false));
        }
        for bit in [CPUID_7_ECX_VAES, CPUID_7_ECX_VPCLMULQDQ] {
            assert!(!wide_lane_for_flags(ecx1, ebx7, ecx7 & !bit, xcr0, false), "ecx {bit:#x}");
            assert!(!wide_lane_for_flags(u32::MAX, u32::MAX, !bit, u64::MAX, false));
        }
        assert!(!wide_lane_for_flags(ecx1, 0, 0, xcr0, false));
        // The OS half: XSAVE not enabled (XCR0 unreadable, passed as 0 — and
        // ignored even if a caller passed something else)...
        assert!(!wide_lane_for_flags(aes_ecx, ebx7, ecx7, 0, false));
        assert!(!wide_lane_for_flags(aes_ecx, ebx7, ecx7, xcr0, false));
        // ...or enabled with SSE + AVX state only (0x07: a kernel built
        // without AVX-512 support, or one that masked it off), or with any
        // single AVX-512 component missing.
        assert!(!wide_lane_for_flags(ecx1, ebx7, ecx7, 0x07, false));
        for component in [1u64 << 1, 1 << 2, 1 << 5, 1 << 6, 1 << 7] {
            assert!(!wide_lane_for_flags(ecx1, ebx7, ecx7, xcr0 & !component, false));
            assert!(!wide_lane_for_flags(u32::MAX, u32::MAX, u32::MAX, !component, false));
        }
        // In every row above the 128-bit lane stays.
        assert_eq!(narrow_kept(ecx1), CryptoBackend::HwAccel);
        assert_eq!(narrow_kept(aes_ecx), CryptoBackend::HwAccel);

        // The AES lane absent (any of its four bits): nothing for the wide
        // kernel to sit on, whatever leaf 7 says.
        for bit in [CPUID_ECX_AESNI, CPUID_ECX_PCLMULQDQ, CPUID_ECX_SSSE3, CPUID_ECX_SSE41] {
            assert!(!wide_lane_for_flags(ecx1 & !bit, ebx7, ecx7, xcr0, false), "ecx {bit:#x}");
            assert_eq!(narrow_kept(ecx1 & !bit), CryptoBackend::Bitsliced);
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn non_x86_compiles_to_bitsliced_unconditionally() {
        assert!(!hw_accel_available());
        assert_eq!(constant_time_backend(), CryptoBackend::Bitsliced);
        assert!(!sha_ni_available());
        assert_eq!(sha_lane(), ShaLane::Portable);
        assert_eq!(describe(), "aes=bitsliced sha=portable");
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
        // The SHA lane: cached decision = fresh CPUID + the override, and
        // availability = std's detection of the kernel's three features.
        assert_eq!(sha_lane(), detect_sha_lane(force_portable()));
        assert_eq!(sha_lane(), detect_sha_lane(force_portable()));
        assert_eq!(
            sha_ni_available(),
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        );
        assert_eq!(sha_lane() == ShaLane::ShaNi, sha_ni_available() && !force_portable());
        // The wide kernel: cached decision = fresh CPUID + XGETBV + the
        // override, and what the hardware allows = the AES lane plus std's
        // detection of the kernel's four features (std reads XCR0 too).
        assert_eq!(wide_lane().is_some(), detect_wide_lane(force_portable()).is_some());
        assert_eq!(wide_lane().is_some(), detect_wide_lane(force_portable()).is_some());
        assert_eq!(
            detect_wide_lane(false).is_some(),
            hw_accel_available()
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("vaes")
                && std::arch::is_x86_feature_detected!("vpclmulqdq")
        );
        assert_eq!(wide_lane().is_some(), detect_wide_lane(false).is_some() && !force_portable());
    }

    /// `describe` names what dispatch picked, nothing else.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn describe_names_the_dispatched_kernels() {
        let line = describe();
        assert_eq!(line.contains("aes=vaes512"), wide_lane().is_some(), "{line}");
        let narrow = constant_time_backend() == CryptoBackend::HwAccel && wide_lane().is_none();
        assert_eq!(line.contains("aes=aesni128"), narrow, "{line}");
        assert_eq!(line.ends_with(" sha=sha-ni"), sha_lane() == ShaLane::ShaNi, "{line}");
        if force_portable() {
            assert_eq!(line, "aes=bitsliced sha=portable");
        }
    }
}
