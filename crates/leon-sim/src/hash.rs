//! The two 64-bit hashes of the workspace, each with one job.
//!
//! * [`checksum64`] is the **integrity** hash: XXH64 with seed 0, four
//!   lanes of 8-byte words, so it runs at memory speed.  It covers every
//!   bulk byte that is checked for damage: the artifact store's payload
//!   checksum, the per-segment checksums of serialised traces, and the
//!   trace header checksum.
//! * [`fnv1a64`] is the **identity** hash: byte-serial FNV-1a, kept where
//!   its value names something and so must never change — store
//!   fingerprints, the store envelope's kind hash, workload image
//!   fingerprints and the pack-file trailer.  Those inputs are short or off
//!   every hot path.
//!
//! Neither is a cryptographic guarantee; both are stable across platforms,
//! Rust versions and process runs.

/// The FNV-1a offset basis: the initial state of [`fnv1a64`].
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue a 64-bit FNV-1a hash from `hash` over `bytes` (for incremental
/// multi-field hashing; start from [`FNV1A64_OFFSET`]).
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// 64-bit FNV-1a over a byte stream — the identity hash behind fingerprints
/// (see the module docs; bulk integrity checks use [`checksum64`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// XXH64 (seed 0) of `bytes` — the integrity checksum of the store envelope
/// and the binary trace format.  Four independent lanes consume 32-byte
/// stripes, so the loop is bound by memory bandwidth rather than by a
/// byte-serial dependency chain; the output matches the reference XXH64.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut acc = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for s in &mut stripes {
            v[0] = round(v[0], word(&s[0..]));
            v[1] = round(v[1], word(&s[8..]));
            v[2] = round(v[2], word(&s[16..]));
            v[3] = round(v[3], word(&s[24..]));
        }
        let acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(acc, |acc, &lane| merge(acc, lane))
    } else {
        P5
    };
    acc = acc.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        acc = (acc ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64;
        acc = (acc ^ half.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        acc = (acc ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum64_matches_published_xxh64_values() {
        assert_eq!(checksum64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // crosses a 32-byte stripe boundary and every tail path at once
        assert_eq!(
            checksum64(&(0u8..100).collect::<Vec<_>>()),
            0x6AC1_E580_3216_6597
        );
    }

    #[test]
    fn checksum64_detects_every_single_bit_flip_of_a_kilobyte() {
        let buf: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let good = checksum64(&buf);
        let mut flipped = buf.clone();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    checksum64(&flipped),
                    good,
                    "flip of bit {bit} in byte {byte}"
                );
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn checksum64_separates_every_length_through_the_tail_paths() {
        // lengths 0..=65 run the short path, one and two full stripes, and
        // every combination of 8-byte, 4-byte and single-byte tails
        let buf: Vec<u8> = (0u8..66).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=65 {
            let hash = checksum64(&buf[..len]);
            assert!(
                seen.insert(hash),
                "length {len} collides with a shorter prefix"
            );
            // the last byte always reaches the hash
            if len > 0 {
                let mut changed = buf[..len].to_vec();
                changed[len - 1] ^= 0x80;
                assert_ne!(
                    checksum64(&changed),
                    hash,
                    "length {len}: last byte ignored"
                );
            }
        }
    }

    #[test]
    fn fnv1a64_is_unchanged() {
        // identity uses (fingerprints, store keys) depend on these values
        assert_eq!(fnv1a64(b""), FNV1A64_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
