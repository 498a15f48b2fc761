//! The 5-tuple flow key.
//!
//! "Sampled packets are then aggregated at the 5-tuple IP-flow level (IP
//! address and port number for both source and destination, along with
//! protocol type), every minute" (§2.1). [`FlowKey`] is that tuple;
//! [`Protocol`] carries the transport protocol number with named variants
//! for the protocols the anomaly taxonomy cares about.
//!
//! ## Hashing distinct-flow sets
//!
//! The `F` view counts *distinct* 5-tuples per `(bin, OD)` cell, so every
//! binned record costs one hash-set insert. [`FlowKeyHashState`] is the
//! sets' hasher: one keyed folded multiply per key (the foldhash
//! construction) instead of SipHash's rounds over five field writes. It is
//! keyed per process, never a fixed function, because the daemon fills
//! these sets from network input; its docs give the keying and the
//! collision-flooding rationale.

use odflow_net::IpAddr;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Transport protocol, stored as its IANA protocol number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMP (1).
    Icmp,
    /// Any other protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(n) => n,
        }
    }

    /// Builds from an IANA protocol number, canonicalizing the named
    /// variants (so `Protocol::from_number(6) == Protocol::Tcp`).
    pub fn from_number(n: u8) -> Protocol {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            other => Protocol::Other(other),
        }
    }
}

/// The 5-tuple identifying an IP flow.
///
/// Hashes as its packed 104-bit tuple (see [`FlowKeyHashState`]).
/// `Protocol::Other(6)` and `Protocol::Tcp` pack alike and so collide, but
/// equality keeps them distinct, as it must.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IP address.
    pub src_ip: IpAddr,
    /// Destination IP address.
    pub dst_ip: IpAddr,
    /// Source transport port (0 for portless protocols).
    pub src_port: u16,
    /// Destination transport port (0 for portless protocols).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FlowKey {
    /// Convenience constructor.
    pub fn new(
        src_ip: IpAddr,
        dst_ip: IpAddr,
        src_port: u16,
        dst_port: u16,
        protocol: Protocol,
    ) -> FlowKey {
        FlowKey { src_ip, dst_ip, src_port, dst_port, protocol }
    }

    /// Returns the key with the destination address anonymized (low 11 bits
    /// zeroed), as Abilene's export pipeline does before flows leave the
    /// network.
    pub fn with_anonymized_dst(mut self) -> FlowKey {
        self.dst_ip = odflow_net::anonymize_dst(self.dst_ip);
        self
    }
}

impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Low word: both addresses; high word: ports and protocol number.
        let addrs = (u64::from(self.src_ip.0) << 32) | u64::from(self.dst_ip.0);
        let rest = (u64::from(self.src_port) << 24)
            | (u64::from(self.dst_port) << 8)
            | u64::from(self.protocol.number());
        state.write_u128((u128::from(rest) << 64) | u128::from(addrs));
    }
}

/// The 64x64→128 multiply folded back to 64 bits: the mixing step of
/// foldhash.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Fixed odd constant (digits of pi) for the final mixing round.
const FINAL_MIX: u64 = 0x243F_6A88_85A3_08D3;

/// The [`BuildHasher`] of the binner's distinct-5-tuple sets: a keyed
/// folded-multiply hash.
///
/// A [`FlowKey`] hashes as one `write_u128` of its packed tuple, folded
/// with one keyed 64x64→128 multiply, then one final mixing multiply. The
/// keys are random per process (see [`Self::new`]) because the daemon
/// fills these sets from network input: with a fixed hash a sender could
/// precompute 5-tuples that share a bucket and make every insert probe a
/// long chain. Membership is decided by equality and every export is
/// sorted, so the keys never reach a matrix or a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKeyHashState {
    seed: u64,
    fold: u64,
}

impl FlowKeyHashState {
    /// The process-wide keyed state: two keys drawn once, on first use,
    /// from [`RandomState`] (which the OS seeds).
    pub fn new() -> FlowKeyHashState {
        static KEYS: OnceLock<FlowKeyHashState> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let random = RandomState::new();
            FlowKeyHashState::with_keys(random.hash_one(0u8), random.hash_one(1u8))
        })
    }

    /// A state with explicit keys. Results never depend on the keys —
    /// only the sets' internal layout does — which tests prove by
    /// binning the same records under different keys.
    pub(crate) fn with_keys(seed: u64, fold: u64) -> FlowKeyHashState {
        FlowKeyHashState { seed, fold }
    }
}

impl Default for FlowKeyHashState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for FlowKeyHashState {
    type Hasher = FlowKeyHasher;

    fn build_hasher(&self) -> FlowKeyHasher {
        FlowKeyHasher { acc: self.seed, fold: self.fold }
    }
}

/// Hasher built by [`FlowKeyHashState`]. A [`FlowKey`] costs one folded
/// multiply for its single `write_u128` plus one in [`Hasher::finish`].
#[derive(Debug, Clone)]
pub struct FlowKeyHasher {
    acc: u64,
    fold: u64,
}

impl Hasher for FlowKeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        // The length keeps zero-padded tails from aliasing.
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.acc = folded_multiply(self.acc ^ v, self.fold);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.acc = folded_multiply(self.acc ^ v as u64, self.fold ^ (v >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, FINAL_MIX)
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto={}",
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.protocol.number()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn protocol_number_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
        assert_eq!(Protocol::from_number(6), Protocol::Tcp);
        assert_eq!(Protocol::from_number(17), Protocol::Udp);
        assert_eq!(Protocol::from_number(1), Protocol::Icmp);
        assert_eq!(Protocol::from_number(47), Protocol::Other(47));
    }

    #[test]
    fn key_equality_and_hash() {
        use std::collections::HashSet;
        let a = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 80, Protocol::Tcp);
        let b = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 80, Protocol::Tcp);
        let c = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 443, Protocol::Tcp);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<FlowKey> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn keyed_hash_packs_protocol_number_equality_separates() {
        use std::collections::HashSet;
        let tcp = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 80, Protocol::Tcp);
        let other = FlowKey { protocol: Protocol::Other(6), ..tcp };
        let state = FlowKeyHashState::with_keys(1, 2);
        assert_eq!(state.hash_one(tcp), state.hash_one(other), "same packed tuple");
        let set: HashSet<FlowKey, _> = {
            let mut set = HashSet::with_hasher(state);
            set.extend([tcp, other, tcp]);
            set
        };
        assert_eq!(set.len(), 2, "equality keeps Other(6) apart from Tcp");
        assert_ne!(FlowKeyHashState::with_keys(3, 4).hash_one(tcp), state.hash_one(tcp));
        assert_eq!(FlowKeyHashState::new(), FlowKeyHashState::default(), "one process key");
    }

    #[test]
    fn keyed_hash_spreads_low_and_high_bits() {
        // Keys differing only in the source port: hashbrown indexes buckets
        // by the low bits and tags slots with the top 7. Uniform hashing
        // fills ~2590 of 4096 buckets.
        for (seed, fold) in [(1, 2), (0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9), (u64::MAX, 3)]
        {
            let state = FlowKeyHashState::with_keys(seed, fold);
            let hashes: Vec<u64> = (0..4096u16)
                .map(|port| {
                    let key =
                        FlowKey::new(ip("10.0.0.1"), ip("10.16.0.1"), port, 80, Protocol::Tcp);
                    state.hash_one(key)
                })
                .collect();
            let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
            let top: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(low.len() > 2400, "low 12 bits hit {} of 4096 buckets", low.len());
            assert_eq!(top.len(), 128, "every 7-bit tag occurs");
        }
    }

    #[test]
    fn anonymization_zeroes_low_dst_bits() {
        let k = FlowKey::new(ip("1.2.3.4"), ip("10.1.7.213"), 1, 2, Protocol::Udp);
        let anon = k.with_anonymized_dst();
        assert_eq!(anon.dst_ip.octets(), [10, 1, 0, 0]);
        assert_eq!(anon.src_ip, k.src_ip, "source must be untouched");
        assert_eq!(anon.dst_port, 2, "ports must be untouched");
    }

    #[test]
    fn display_contains_endpoints() {
        let k = FlowKey::new(ip("1.2.3.4"), ip("5.6.7.8"), 1234, 80, Protocol::Tcp);
        let s = k.to_string();
        assert!(s.contains("1.2.3.4:1234"));
        assert!(s.contains("5.6.7.8:80"));
        assert!(s.contains("proto=6"));
    }
}
