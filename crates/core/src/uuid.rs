//! NEXUS object identifiers.
//!
//! Every metadata and data object is named by a 16-byte UUID generated
//! inside the enclave (paper §IV-A1). UUIDs double as the obfuscated file
//! names on the untrusted storage service, so the server learns nothing
//! from the namespace.

/// The digit of every nibble value, shared by the encoder and the parser.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// The nibble `digit` spells in [`HEX`]; `None` for anything else.
fn hex_value(digit: u8) -> Option<u8> {
    HEX.iter().position(|&d| d == digit).map(|nibble| nibble as u8)
}

/// A 16-byte universally unique identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NexusUuid(pub [u8; 16]);

impl NexusUuid {
    /// The all-zero UUID, used as the "no parent" sentinel of a volume root.
    pub const NIL: NexusUuid = NexusUuid([0u8; 16]);

    /// Generates a fresh UUID from `rng` (inside the enclave, the platform
    /// RNG).
    pub fn generate(mut fill: impl FnMut(&mut [u8])) -> NexusUuid {
        let mut bytes = [0u8; 16];
        fill(&mut bytes);
        NexusUuid(bytes)
    }

    /// The obfuscated object name used on the storage service: 32
    /// lowercase hex digits.
    pub fn object_name(&self) -> String {
        ascii(&self.digits()).to_owned()
    }

    /// Parses an object name back into a UUID: exactly 32 lowercase hex
    /// digits, so the parse is the inverse of [`NexusUuid::object_name`]
    /// and no foreign name (a `+`-signed pair, uppercase hex) reads as a
    /// NEXUS object.
    pub fn from_object_name(name: &str) -> Option<NexusUuid> {
        let name: &[u8; 32] = name.as_bytes().try_into().ok()?;
        let mut bytes = [0u8; 16];
        for (b, pair) in bytes.iter_mut().zip(name.chunks_exact(2)) {
            *b = hex_value(pair[0])? << 4 | hex_value(pair[1])?;
        }
        Some(NexusUuid(bytes))
    }

    /// The object name's digits, two per byte, high nibble first.
    fn digits(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (pair, b) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        out
    }

    /// True for the NIL sentinel.
    pub fn is_nil(&self) -> bool {
        self.0 == [0u8; 16]
    }
}

impl std::fmt::Debug for NexusUuid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Uuid(")?;
        f.write_str(ascii(&self.digits()[..8]))?;
        f.write_str("..)")
    }
}

impl std::fmt::Display for NexusUuid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(ascii(&self.digits()))
    }
}

/// `digits` (from [`NexusUuid::digits`]) as the `str` they spell.
fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).expect("hex digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_name_roundtrip() {
        let u = NexusUuid([0xab; 16]);
        let name = u.object_name();
        assert_eq!(name.len(), 32);
        assert_eq!(NexusUuid::from_object_name(&name), Some(u));
    }

    #[test]
    fn parse_rejects_bad_names() {
        assert!(NexusUuid::from_object_name("short").is_none());
        assert!(NexusUuid::from_object_name(&"zz".repeat(16)).is_none());
        // What `u8::from_str_radix` would take but `object_name` never
        // writes: a `+`-signed pair, uppercase hex, a 32-byte name whose
        // pairs straddle a multi-byte character.
        assert!(NexusUuid::from_object_name(&"+a".repeat(16)).is_none());
        assert!(NexusUuid::from_object_name(&"AB".repeat(16)).is_none());
        assert!(NexusUuid::from_object_name(&format!("{}Ab", "ab".repeat(15))).is_none());
        assert!(NexusUuid::from_object_name(&format!("{}é", "a".repeat(30))).is_none());
    }

    /// The table encoder spells every byte value at every position as the
    /// `format!` encoder it replaced, and the parser inverts it.
    #[test]
    fn encoder_matches_the_format_reference() {
        let reference = |u: &NexusUuid| u.0.iter().map(|b| format!("{b:02x}")).collect::<String>();
        for value in 0..=255u8 {
            for at in 0..16 {
                let mut bytes = [0x5au8; 16];
                bytes[at] = value;
                let u = NexusUuid(bytes);
                let name = u.object_name();
                assert_eq!(name, reference(&u), "byte {value:#04x} at {at}");
                assert_eq!(u.to_string(), name);
                assert_eq!(format!("{u:?}"), format!("Uuid({}..)", &name[..8]));
                assert_eq!(NexusUuid::from_object_name(&name), Some(u));
            }
        }
        assert_eq!(format!("{:?}", NexusUuid([0xab; 16])), "Uuid(abababab..)");
    }

    #[test]
    fn nil_sentinel() {
        assert!(NexusUuid::NIL.is_nil());
        assert!(!NexusUuid([1; 16]).is_nil());
    }

    #[test]
    fn generate_uses_fill() {
        let u = NexusUuid::generate(|dest| dest.copy_from_slice(&[7u8; 16]));
        assert_eq!(u.0, [7u8; 16]);
    }
}
