//! IPv4 prefixes and longest-prefix-match lookup.
//!
//! Egress-PoP resolution in the paper (§2.1) walks BGP/ISIS routing tables:
//! given a destination IP, find the most specific matching prefix and read
//! off the egress PoP. [`PrefixTrie`] implements the standard binary trie
//! used by routing software for exactly this query.
//!
//! ## Stride-16 first level
//!
//! Every binned flow record costs one egress lookup, and a bit-by-bit walk
//! down a 16-deep path is a chain of 16 dependent loads. [`PrefixTrie`]
//! therefore answers the first 16 bits from a flat table indexed by the
//! address's top 16 bits. Each of the 2¹⁶ entries is one `u32`, so the
//! table is 256 KB. An entry holds either the best match among prefixes of
//! length ≤ 16 covering that /16, or — when longer prefixes exist below it
//! (the `/21` blocks of the large-mesh address plan) — an index into a
//! short side list naming the depth-16 trie node to resume the walk from
//! plus that fallback best match. Lookups in /16-or-coarser tables take one
//! load; deeper ones walk only bits 16 and on.
//!
//! The table is built on the **first lookup**, not at insert time: one DFS
//! over the trie's top 16 levels fills it in O(nodes + 2¹⁶). Clones of a
//! trie share the built table (the per-shard resolvers of a sharded ingest
//! build it once between them), and [`PrefixTrie::insert`] resets it, so
//! a route installed after lookups began is seen by the next lookup.
//! Building lazily keeps construction paths that never look anything up —
//! daemon bind, route-table assembly — free of the build cost.

use crate::error::{NetError, Result};
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// An IPv4 address held as a host-order `u32`.
///
/// A minimal newtype (rather than `std::net::Ipv4Addr`) so the flow pipeline
/// can do arithmetic — masking, range generation, anonymization — without
/// repeated conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Builds an address from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four dotted-quad octets.
    pub const fn octets(self) -> [u8; 4] {
        [(self.0 >> 24) as u8, (self.0 >> 16) as u8, (self.0 >> 8) as u8, self.0 as u8]
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for IpAddr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(NetError::InvalidPrefix { text: s.to_string() });
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| NetError::InvalidPrefix { text: s.to_string() })?;
        }
        Ok(IpAddr::from_octets(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 prefix: a network address plus mask length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    network: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix, canonicalizing the network by masking host bits.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidPrefixLen`] if `len > 32`.
    pub fn new(addr: IpAddr, len: u8) -> Result<Prefix> {
        if len > 32 {
            return Err(NetError::InvalidPrefixLen { len });
        }
        Ok(Prefix { network: addr.0 & Self::mask(len), len })
    }

    /// The netmask for a prefix length (host-order).
    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Network address (host bits zero).
    pub fn network(&self) -> IpAddr {
        IpAddr(self.network)
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Mask selecting the host bits of this prefix (the complement of the
    /// netmask) — e.g. `0x0000_FFFF` for a /16, `0x0000_07FF` for a /21.
    pub fn host_mask(&self) -> u32 {
        !Self::mask(self.len)
    }

    /// `true` only for the default route `0.0.0.0/0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `addr` falls inside this prefix.
    pub fn contains(&self, addr: IpAddr) -> bool {
        (addr.0 & Self::mask(self.len)) == self.network
    }

    /// `true` if `other` is fully contained in `self` (is more specific or
    /// equal).
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && (other.network & Self::mask(self.len)) == self.network
    }

    /// First address of the prefix.
    pub fn first(&self) -> IpAddr {
        IpAddr(self.network)
    }

    /// Last address of the prefix.
    pub fn last(&self) -> IpAddr {
        IpAddr(self.network | !Self::mask(self.len))
    }

    /// Number of addresses covered (saturates at `u32::MAX` for `/0`).
    pub fn size(&self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len as u32).min(31)
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self> {
        let (addr, len) =
            s.split_once('/').ok_or_else(|| NetError::InvalidPrefix { text: s.to_string() })?;
        let ip: IpAddr = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| NetError::InvalidPrefix { text: s.to_string() })?;
        Prefix::new(ip, len)
    }
}

/// A binary trie mapping prefixes to values, answering longest-prefix-match
/// queries — the core routing-table data structure.
///
/// Lookups start from a stride-16 table indexed by the address's top 16
/// bits (256 KB of `u32` entries), so a table of /16-or-coarser prefixes
/// answers in one load and longer prefixes walk only bits 16 and on. The
/// table is built by the first lookup, shared with clones, and reset by
/// [`Self::insert`].
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<TrieNode<T>>,
    len: usize,
    /// The stride table, built on first lookup and shared with clones.
    stride: Arc<OnceLock<StrideTable>>,
}

#[derive(Debug, Clone)]
struct TrieNode<T> {
    children: [Option<usize>; 2],
    value: Option<T>,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Address bits resolved by the stride table.
const STRIDE: u32 = 16;

/// Tag bit of a stride entry whose payload indexes [`StrideTable::deep`].
const DEEP: u32 = 1 << 31;

/// The stride-16 first level of a [`PrefixTrie`].
///
/// A slot (indexed by the top 16 address bits) holds `0` for no match,
/// `node + 1` for the node carrying the best match of length ≤ 16, or
/// `DEEP | i` when longer prefixes exist below the slot's /16, with
/// `deep[i]` naming where to resume.
struct StrideTable {
    slots: Box<[u32]>,
    deep: Vec<DeepSlot>,
}

/// A slot with prefixes longer than 16 bits below it.
#[derive(Clone, Copy)]
struct DeepSlot {
    /// The depth-16 trie node to continue the walk from.
    node: u32,
    /// Best match of length ≤ 16, encoded like a plain slot.
    best: u32,
}

impl fmt::Debug for StrideTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrideTable").field("deep_slots", &self.deep.len()).finish()
    }
}

impl StrideTable {
    /// Fills every slot with one DFS over the trie's top 16 levels: an
    /// absent child at depth `d` fills its whole `2^(15-d)`-slot range with
    /// the best match so far, so each slot is written exactly once.
    fn build<T>(nodes: &[TrieNode<T>]) -> StrideTable {
        // Encoded node indices must leave the tag bit free. A trie that
        // large (2^31 nodes, tens of GB) cannot be built in the first place.
        let index = |node: usize| {
            u32::try_from(node)
                .ok()
                .filter(|&i| i < DEEP - 1)
                .expect("prefix trie exceeds 2^31 nodes")
        };
        let mut slots = vec![0u32; 1 << STRIDE].into_boxed_slice();
        let mut deep = Vec::new();
        // (node, depth, address bits above `depth`, best match so far)
        let mut stack = vec![(0usize, 0u32, 0usize, 0u32)];
        while let Some((node, depth, bits, best)) = stack.pop() {
            let TrieNode { children, value } = &nodes[node];
            let best = if value.is_some() { index(node) + 1 } else { best };
            if depth == STRIDE {
                slots[bits] = if children.iter().all(Option::is_none) {
                    best
                } else {
                    deep.push(DeepSlot { node: index(node), best });
                    DEEP | (deep.len() - 1) as u32
                };
                continue;
            }
            for (bit, child) in children.iter().enumerate() {
                let bits = bits << 1 | bit;
                match *child {
                    Some(child) => stack.push((child, depth + 1, bits, best)),
                    None => {
                        let span = STRIDE - depth - 1;
                        slots[bits << span..(bits + 1) << span].fill(best);
                    }
                }
            }
        }
        StrideTable { slots, deep }
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![TrieNode { children: [None, None], value: None }],
            len: 0,
            stride: Arc::default(),
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts (or replaces) the value for a prefix. Returns the previous
    /// value when replacing. Resets the stride table; the next lookup
    /// rebuilds it.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        match Arc::get_mut(&mut self.stride) {
            Some(table) => drop(table.take()),
            // Shared with a clone, which keeps the table of its own routes.
            None => self.stride = Arc::default(),
        }
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.network().0 >> (31 - depth)) & 1) as usize;
            node = match self.nodes[node].children[bit] {
                Some(child) => child,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(TrieNode { children: [None, None], value: None });
                    self.nodes[node].children[bit] = Some(idx);
                    idx
                }
            };
        }
        let prev = self.nodes[node].value.replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Longest-prefix-match lookup: the value of the most specific prefix
    /// containing `addr`, if any. The first call builds the stride table.
    pub fn lookup(&self, addr: IpAddr) -> Option<&T> {
        let table = self.stride.get_or_init(|| StrideTable::build(&self.nodes));
        let slot = table.slots[(addr.0 >> (32 - STRIDE)) as usize];
        if slot & DEEP == 0 {
            return self.value_at(slot);
        }
        let deep = table.deep[(slot & !DEEP) as usize];
        self.walk_from(deep.node as usize, STRIDE, addr).or_else(|| self.value_at(deep.best))
    }

    /// The value of the node a stride slot encodes (`0` = none).
    fn value_at(&self, slot: u32) -> Option<&T> {
        self.nodes[slot.checked_sub(1)? as usize].value.as_ref()
    }

    /// The plain bit-by-bit longest-prefix match from the root, without
    /// the stride table — the oracle the strided lookup is tested against.
    #[cfg(test)]
    pub(crate) fn lookup_by_walk(&self, addr: IpAddr) -> Option<&T> {
        self.walk_from(0, 0, addr)
    }

    /// Longest-prefix match continued from `node`, which sits at depth
    /// `from_depth`: the deepest valued node on `addr`'s path below (and
    /// including) `node`.
    fn walk_from(&self, mut node: usize, from_depth: u32, addr: IpAddr) -> Option<&T> {
        let mut best = self.nodes[node].value.as_ref();
        for depth in from_depth..32 {
            let bit = ((addr.0 >> (31 - depth)) & 1) as usize;
            match self.nodes[node].children[bit] {
                Some(child) => {
                    node = child;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some(v);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Exact-match lookup for a specific prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.network().0 >> (31 - depth)) & 1) as usize;
            node = self.nodes[node].children[bit]?;
        }
        self.nodes[node].value.as_ref()
    }
}

/// Test oracle: asserts the strided lookup equals the plain bit-by-bit
/// walk on each prefix's first and last address (and their neighbours at
/// ±1) and on `random` seeded addresses — half uniform over the address
/// space, half inside a randomly chosen prefix.
#[cfg(test)]
pub(crate) fn assert_stride_matches_walk<T: PartialEq + fmt::Debug>(
    trie: &PrefixTrie<T>,
    prefixes: &[Prefix],
    seed: u64,
    random: usize,
) {
    // SplitMix64: a seeded stream with no dependency on `rand`.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut probes = Vec::with_capacity(6 * prefixes.len() + random);
    for p in prefixes {
        for edge in [p.first().0, p.last().0] {
            probes.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
        }
    }
    for i in 0..random {
        let r = next();
        probes.push(match prefixes.get((r >> 32) as usize % prefixes.len().max(1)) {
            Some(p) if i % 2 == 1 => p.network().0 | (r as u32 & p.host_mask()),
            _ => r as u32,
        });
    }
    for addr in probes.into_iter().map(IpAddr) {
        assert_eq!(trie.lookup(addr), trie.lookup_by_walk(addr), "lookup of {addr}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_parse_display_roundtrip() {
        let ip: IpAddr = "192.168.1.42".parse().unwrap();
        assert_eq!(ip.octets(), [192, 168, 1, 42]);
        assert_eq!(ip.to_string(), "192.168.1.42");
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.256".parse::<IpAddr>().is_err());
        assert!("a.b.c.d".parse::<IpAddr>().is_err());
    }

    #[test]
    fn prefix_parse_and_canonicalize() {
        let p: Prefix = "10.1.2.3/16".parse().unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16"); // host bits masked
        assert_eq!(p.len(), 16);
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn prefix_contains() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains("10.1.255.255".parse().unwrap()));
        assert!(p.contains("10.1.0.0".parse().unwrap()));
        assert!(!p.contains("10.2.0.0".parse().unwrap()));
        let default: Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(default.contains("255.255.255.255".parse().unwrap()));
        assert!(default.is_empty());
    }

    #[test]
    fn prefix_covers() {
        let wide: Prefix = "10.0.0.0/8".parse().unwrap();
        let narrow: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
    }

    #[test]
    fn prefix_range_and_size() {
        let p: Prefix = "10.1.0.0/16".parse().unwrap();
        assert_eq!(p.first().to_string(), "10.1.0.0");
        assert_eq!(p.last().to_string(), "10.1.255.255");
        assert_eq!(p.size(), 65_536);
        let host: Prefix = "1.2.3.4/32".parse().unwrap();
        assert_eq!(host.size(), 1);
        assert_eq!(host.first(), host.last());
    }

    #[test]
    fn trie_longest_prefix_match() {
        let mut t = PrefixTrie::new();
        t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
        t.insert("10.1.0.0/16".parse().unwrap(), "fine");
        t.insert("10.1.2.0/24".parse().unwrap(), "finest");

        assert_eq!(t.lookup("10.1.2.3".parse().unwrap()), Some(&"finest"));
        assert_eq!(t.lookup("10.1.9.9".parse().unwrap()), Some(&"fine"));
        assert_eq!(t.lookup("10.200.0.1".parse().unwrap()), Some(&"coarse"));
        assert_eq!(t.lookup("11.0.0.1".parse().unwrap()), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn trie_default_route() {
        let mut t = PrefixTrie::new();
        t.insert("0.0.0.0/0".parse().unwrap(), 99);
        t.insert("10.0.0.0/8".parse().unwrap(), 1);
        assert_eq!(t.lookup("10.5.5.5".parse().unwrap()), Some(&1));
        assert_eq!(t.lookup("200.0.0.1".parse().unwrap()), Some(&99));
    }

    #[test]
    fn trie_replace_returns_previous() {
        let mut t = PrefixTrie::new();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(t.insert(p, 1), None);
        assert_eq!(t.insert(p, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p), Some(&2));
    }

    #[test]
    fn trie_exact_get() {
        let mut t = PrefixTrie::new();
        t.insert("10.1.0.0/16".parse().unwrap(), 7);
        assert_eq!(t.get(&"10.1.0.0/16".parse().unwrap()), Some(&7));
        assert_eq!(t.get(&"10.0.0.0/8".parse().unwrap()), None);
        assert!(!t.is_empty());
        assert!(PrefixTrie::<u8>::new().is_empty());
    }

    #[test]
    fn stride_lookup_matches_walk_with_default_and_host_routes() {
        let mut t = PrefixTrie::new();
        let prefixes: Vec<Prefix> = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.128.0/17",
            "10.1.2.0/24",
            "10.2.0.0/15",
            "172.16.0.0/12",
            "192.168.1.1/32",
            "255.255.255.255/32",
            "0.0.0.0/32",
        ]
        .iter()
        .map(|p| p.parse().unwrap())
        .collect();
        for (i, &p) in prefixes.iter().enumerate() {
            t.insert(p, i);
        }
        assert_stride_matches_walk(&t, &prefixes, 7, 100_000);
        assert_eq!(t.lookup("192.168.1.1".parse().unwrap()), Some(&7));
        assert_eq!(t.lookup("192.168.1.2".parse().unwrap()), Some(&0), "default route");
        assert_eq!(t.lookup("10.1.200.1".parse().unwrap()), Some(&3));
    }

    #[test]
    fn stride_table_tracks_prefixes_installed_after_first_lookup() {
        let mut t = PrefixTrie::new();
        let mut prefixes: Vec<Prefix> = vec!["10.1.0.0/16".parse().unwrap()];
        t.insert(prefixes[0], "coarse");
        let inside: IpAddr = "10.1.2.3".parse().unwrap();
        assert_eq!(t.lookup(inside), Some(&"coarse"));
        // A clone taken now shares the built table and keeps its routes.
        let before = t.clone();
        for (p, v) in [("10.1.2.0/24", "fine"), ("0.0.0.0/0", "default"), ("10.1.2.3/32", "host")] {
            let p: Prefix = p.parse().unwrap();
            t.insert(p, v);
            prefixes.push(p);
            assert_stride_matches_walk(&t, &prefixes, 11, 1_000);
        }
        assert_eq!(t.lookup(inside), Some(&"host"));
        assert_eq!(t.lookup("10.1.2.4".parse().unwrap()), Some(&"fine"));
        assert_eq!(t.lookup("11.0.0.0".parse().unwrap()), Some(&"default"));
        assert_eq!(before.lookup(inside), Some(&"coarse"));
        assert_eq!(before.lookup("11.0.0.0".parse().unwrap()), None);
    }

    #[test]
    fn stride_lookup_on_empty_and_root_only_tries() {
        let mut t: PrefixTrie<u8> = PrefixTrie::new();
        assert_stride_matches_walk(&t, &[], 3, 1_000);
        t.insert("0.0.0.0/0".parse().unwrap(), 9);
        assert_eq!(t.lookup("1.2.3.4".parse().unwrap()), Some(&9));
        assert_stride_matches_walk(&t, &[], 3, 1_000);
    }

    #[test]
    fn trie_host_routes() {
        let mut t = PrefixTrie::new();
        t.insert("1.2.3.4/32".parse().unwrap(), "host");
        assert_eq!(t.lookup("1.2.3.4".parse().unwrap()), Some(&"host"));
        assert_eq!(t.lookup("1.2.3.5".parse().unwrap()), None);
    }
}
