//! Exact-match tables and the fields they can match on.
//!
//! Tables are populated with *flow rules* by a controller ("the controller
//! defines the aggregation trees … pushing a set of flow rules", §4).
//! DAIET's controller programs two such tables, each keyed on one field:
//! tree id → invoke the aggregation engine, and destination MAC →
//! forward. Both are exact-match (hash tables in SRAM). Each table
//! declares a fixed capacity up front, which is what its SRAM reservation
//! is based on — inserting past capacity fails like a full switch table
//! would.

use crate::pipeline::{ActionSpec, PacketCtx};
use daiet_wire::fnv::FnvHashMap;

/// The packet field a table matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Destination MAC (48-bit).
    EthDst,
    /// DAIET tree id (16-bit). Absent unless parsed DAIET traffic.
    DaietTreeId,
}

impl Field {
    /// Width of the field in bytes within a match key.
    pub fn width(&self) -> usize {
        match self {
            Field::EthDst => 6,
            Field::DaietTreeId => 2,
        }
    }
}

/// Errors installing flow rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The table's declared capacity is exhausted.
    Full,
    /// The key's width is not the width of the table's field.
    KeyWidth,
}

impl core::fmt::Display for TableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TableError::Full => write!(f, "table full"),
            TableError::KeyWidth => write!(f, "key width does not match the table's field"),
        }
    }
}

impl std::error::Error for TableError {}

/// An exact-match table keyed on one [`Field`].
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    field: Field,
    capacity: usize,
    entries: FnvHashMap<Vec<u8>, ActionSpec>,
    default_action: ActionSpec,
    hits: u64,
    misses: u64,
}

impl Table {
    /// Creates a table. `capacity` bounds the number of entries and sizes
    /// the SRAM reservation ([`Table::sram_bytes`]).
    pub fn new(
        name: impl Into<String>,
        field: Field,
        capacity: usize,
        default_action: ActionSpec,
    ) -> Table {
        Table {
            name: name.into(),
            field,
            capacity,
            entries: FnvHashMap::default(),
            default_action,
            hits: 0,
            misses: 0,
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installed entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// SRAM charged for this table: capacity × (key width + 8 bytes of
    /// action data), a conventional approximation of match-entry overhead.
    pub fn sram_bytes(&self) -> usize {
        self.capacity * (self.field.width() + 8)
    }

    /// Lookup statistics `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Installs the flow rule `key` → `action`. `key` is the field's
    /// big-endian bytes.
    pub fn insert(&mut self, key: &[u8], action: ActionSpec) -> Result<(), TableError> {
        if self.len() >= self.capacity {
            return Err(TableError::Full);
        }
        if key.len() != self.field.width() {
            return Err(TableError::KeyWidth);
        }
        self.entries.insert(key.to_vec(), action);
        Ok(())
    }

    /// Removes all rules (controller reconfiguration between jobs).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes the rule for `key`, returning whether one was installed.
    /// Per-entry removal is what lets a multi-tenant controller retire
    /// one departing job's steering rules while its neighbors' rules keep
    /// matching (contrast [`clear`](Self::clear), the wholesale
    /// between-jobs form).
    pub fn remove(&mut self, key: &[u8]) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Looks up `pkt`, returning the winning action (the default on miss
    /// or when the field is absent from the packet).
    pub fn lookup(&mut self, pkt: &PacketCtx) -> ActionSpec {
        let tree_id;
        let key: Option<&[u8]> = match (self.field, &pkt.parsed.daiet) {
            (Field::EthDst, _) => Some(&pkt.parsed.eth.dst_addr.0),
            (Field::DaietTreeId, Some(d)) => {
                tree_id = d.tree_id.to_be_bytes();
                Some(&tree_id)
            }
            (Field::DaietTreeId, None) => None,
        };
        match key.and_then(|k| self.entries.get(k)) {
            Some(a) => {
                self.hits += 1;
                a.clone()
            }
            None => {
                self.misses += 1;
                self.default_action.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, ParserConfig};
    use crate::pipeline::PacketCtx;
    use daiet_fabric::Frame;
    use daiet_fabric::PortId;
    use daiet_wire::stack::{build_udp, Endpoints};

    fn pkt(dst: u32) -> PacketCtx {
        let frame = Frame::from(build_udp(&Endpoints::from_ids(1, dst), 100, 200, b"x"));
        let parsed = parse(frame, &ParserConfig::default()).unwrap();
        PacketCtx::new(PortId(3), parsed)
    }

    fn mac_key(id: u32) -> Vec<u8> {
        daiet_wire::EthernetAddress::from_id(id).0.to_vec()
    }

    #[test]
    fn exact_match_hits_and_misses() {
        let mut t = Table::new("l2", Field::EthDst, 16, ActionSpec::Drop);
        t.insert(&mac_key(2), ActionSpec::Forward(PortId(7))).unwrap();

        let p = pkt(2);
        assert_eq!(t.lookup(&p), ActionSpec::Forward(PortId(7)));
        let p = pkt(3);
        assert_eq!(t.lookup(&p), ActionSpec::Drop);
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = Table::new("small", Field::EthDst, 1, ActionSpec::Drop);
        t.insert(&mac_key(2), ActionSpec::NoOp).unwrap();
        let err = t.insert(&mac_key(3), ActionSpec::NoOp).unwrap_err();
        assert_eq!(err, TableError::Full);
    }

    #[test]
    fn key_width_is_checked() {
        for (field, key) in [(Field::EthDst, vec![1, 2]), (Field::DaietTreeId, mac_key(2))] {
            let mut t = Table::new("t", field, 4, ActionSpec::Drop);
            assert_eq!(t.insert(&key, ActionSpec::NoOp).unwrap_err(), TableError::KeyWidth);
            assert!(t.is_empty());
        }
    }

    #[test]
    fn missing_field_uses_default() {
        // DaietTreeId is absent on plain UDP packets.
        let mut t = Table::new("daiet", Field::DaietTreeId, 4, ActionSpec::Forward(PortId(9)));
        let p = pkt(2);
        assert_eq!(t.lookup(&p), ActionSpec::Forward(PortId(9)));
        assert_eq!(t.stats(), (0, 1));
    }

    #[test]
    fn sram_accounting_uses_capacity() {
        let t = Table::new("l2", Field::EthDst, 1024, ActionSpec::Drop);
        assert_eq!(t.sram_bytes(), 1024 * (6 + 8));
        assert!(t.is_empty());
    }

    #[test]
    fn clear_empties_table() {
        let mut t = Table::new("l2", Field::EthDst, 4, ActionSpec::Drop);
        t.insert(&mac_key(2), ActionSpec::NoOp).unwrap();
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }
}
