//! Orthogonal Reshaping (OR) over packet-size ranges.
//!
//! The headline algorithm of the paper: every size range is owned by exactly
//! one virtual interface, and each packet is dispatched to the owner of its
//! range. Because `p^i_j = φ^i_j` by construction, the online schedule attains
//! the optimum of Eq. 1 without any knowledge of future traffic (§III-C2).
//! Fig. 4 illustrates the effect on a BitTorrent flow with the three ranges
//! `(0, 525]`, `(525, 1050]`, `(1050, 1576]`.

use super::ReshapeAlgorithm;
use crate::error::Result;
use crate::ranges::SizeRanges;
use crate::target::TargetSet;
use crate::vif::VifIndex;
use std::borrow::Cow;
use std::sync::OnceLock;
use traffic_gen::packet::PacketRecord;

/// The OR scheduler over size ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct OrthogonalRanges {
    /// Immutable for the scheduler's life; borrowed from a process-wide
    /// table by [`for_interface_count`](Self::for_interface_count).
    tables: Cow<'static, OrTables>,
    interfaces: usize,
}

/// Everything OR dispatches by: the ranges, their orthogonal targets and the
/// `range -> owning interface` lookup.
#[derive(Debug, Clone, PartialEq)]
struct OrTables {
    ranges: SizeRanges,
    targets: TargetSet,
    /// Precomputed `range -> owning interface` lookup, so the per-packet cost
    /// on the streaming data plane is one binary search plus one array read
    /// instead of a scan over the target distributions.
    owners: Vec<VifIndex>,
}

impl OrTables {
    fn new(ranges: SizeRanges, interfaces: usize) -> Self {
        let targets = TargetSet::orthogonal(interfaces, ranges.len())
            .expect("validated interface and range counts");
        let owners = (0..ranges.len())
            .map(|range| {
                targets
                    .owner_of_range(range)
                    .expect("orthogonal target sets assign every range an owner")
            })
            .collect();
        OrTables {
            ranges,
            targets,
            owners,
        }
    }
}

/// Interface counts below this share one process-wide [`OrTables`] each.
const SHARED_INTERFACE_COUNTS: usize = 9;

impl OrthogonalRanges {
    /// Creates an OR scheduler with one interface per size range (the paper's
    /// default `L = I` configuration).
    pub fn new(ranges: SizeRanges) -> Self {
        let interfaces = ranges.len();
        OrthogonalRanges {
            tables: Cow::Owned(OrTables::new(ranges, interfaces)),
            interfaces,
        }
    }

    /// The paper's OR configuration for `interfaces` virtual interfaces: one
    /// interface per range of [`SizeRanges::for_interface_count`]. Equal to
    /// `OrthogonalRanges::new(SizeRanges::for_interface_count(interfaces)?)`,
    /// but the tables of small interface counts are built once per process
    /// and borrowed, so a scheduler per station allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns the error of [`SizeRanges::for_interface_count`].
    pub fn for_interface_count(interfaces: usize) -> Result<Self> {
        static SHARED: [OnceLock<OrTables>; SHARED_INTERFACE_COUNTS] =
            [const { OnceLock::new() }; SHARED_INTERFACE_COUNTS];
        let ranges = SizeRanges::for_interface_count(interfaces)?;
        let tables = match SHARED.get(interfaces) {
            Some(slot) => Cow::Borrowed(slot.get_or_init(|| OrTables::new(ranges, interfaces))),
            None => Cow::Owned(OrTables::new(ranges, interfaces)),
        };
        Ok(OrthogonalRanges { tables, interfaces })
    }

    /// Creates an OR scheduler with `interfaces < ranges.len()` interfaces:
    /// range `j` is owned by interface `j mod interfaces`.
    ///
    /// # Panics
    ///
    /// Panics if `interfaces` is zero or exceeds the number of ranges.
    pub fn with_interfaces(ranges: SizeRanges, interfaces: usize) -> Self {
        assert!(interfaces > 0, "need at least one virtual interface");
        assert!(
            interfaces <= ranges.len(),
            "cannot have more interfaces ({interfaces}) than size ranges ({})",
            ranges.len()
        );
        OrthogonalRanges {
            tables: Cow::Owned(OrTables::new(ranges, interfaces)),
            interfaces,
        }
    }

    /// The size ranges in use.
    pub fn ranges(&self) -> &SizeRanges {
        &self.tables.ranges
    }

    /// The orthogonal target distributions this scheduler realises.
    pub fn targets(&self) -> &TargetSet {
        &self.tables.targets
    }
}

impl ReshapeAlgorithm for OrthogonalRanges {
    fn assign(&mut self, packet: &PacketRecord) -> VifIndex {
        let tables = &*self.tables;
        tables.owners[tables.ranges.range_of(packet.size)]
    }

    fn interface_count(&self) -> usize {
        self.interfaces
    }

    fn name(&self) -> &'static str {
        "OR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::test_support::packet;
    use proptest::prelude::*;

    #[test]
    fn dispatches_by_size_range() {
        let mut or = OrthogonalRanges::new(SizeRanges::paper_default());
        assert_eq!(or.interface_count(), 3);
        assert_eq!(or.name(), "OR");
        assert_eq!(or.ranges().len(), 3);
        // (0, 232] -> interface 1, (232, 1540] -> interface 2, (1540, 1576] -> interface 3.
        assert_eq!(or.assign(&packet(0, 108)).paper_number(), 1);
        assert_eq!(or.assign(&packet(1, 232)).paper_number(), 1);
        assert_eq!(or.assign(&packet(2, 233)).paper_number(), 2);
        assert_eq!(or.assign(&packet(3, 1540)).paper_number(), 2);
        assert_eq!(or.assign(&packet(4, 1541)).paper_number(), 3);
        assert_eq!(or.assign(&packet(5, 1576)).paper_number(), 3);
    }

    #[test]
    fn figure_four_configuration_uses_equal_width_ranges() {
        let ranges = SizeRanges::equal_width(3, 1576).unwrap();
        let mut or = OrthogonalRanges::new(ranges);
        assert_eq!(or.assign(&packet(0, 400)).paper_number(), 1);
        assert_eq!(or.assign(&packet(1, 800)).paper_number(), 2);
        assert_eq!(or.assign(&packet(2, 1500)).paper_number(), 3);
    }

    #[test]
    fn targets_are_orthogonal() {
        let or = OrthogonalRanges::new(SizeRanges::paper_five());
        or.targets().check_orthogonality().unwrap();
        assert_eq!(or.interface_count(), 5);
    }

    #[test]
    fn fewer_interfaces_than_ranges_wraps_ownership() {
        let mut or = OrthogonalRanges::with_interfaces(SizeRanges::paper_five(), 2);
        assert_eq!(or.interface_count(), 2);
        // Ranges 0,2,4 -> interface 0; ranges 1,3 -> interface 1.
        assert_eq!(or.assign(&packet(0, 100)).index(), 0);
        assert_eq!(or.assign(&packet(1, 400)).index(), 1);
        assert_eq!(or.assign(&packet(2, 800)).index(), 0);
        assert_eq!(or.assign(&packet(3, 1200)).index(), 1);
        assert_eq!(or.assign(&packet(4, 1576)).index(), 0);
    }

    #[test]
    fn shared_tables_match_freshly_built_ones() {
        for interfaces in 1..=12 {
            let shared = OrthogonalRanges::for_interface_count(interfaces).unwrap();
            let fresh = OrthogonalRanges::new(SizeRanges::for_interface_count(interfaces).unwrap());
            assert_eq!(shared, fresh, "{interfaces} interfaces");
            assert_eq!(shared.interface_count(), interfaces);
            let again = OrthogonalRanges::for_interface_count(interfaces).unwrap();
            if interfaces < SHARED_INTERFACE_COUNTS {
                assert!(
                    std::ptr::eq(&*shared.tables, &*again.tables),
                    "{interfaces} interfaces: one table per process"
                );
            }
        }
        assert!(OrthogonalRanges::for_interface_count(0).is_err());
    }

    #[test]
    #[should_panic]
    fn more_interfaces_than_ranges_panics() {
        let _ = OrthogonalRanges::with_interfaces(SizeRanges::paper_default(), 5);
    }

    proptest! {
        #[test]
        fn assignment_is_deterministic_and_size_only(size in 1usize..=1576, index in 0usize..1000) {
            let mut a = OrthogonalRanges::new(SizeRanges::paper_default());
            let mut b = OrthogonalRanges::new(SizeRanges::paper_default());
            // The same size always maps to the same interface regardless of
            // position in the stream or timestamp.
            let va = a.assign(&packet(index, size));
            let vb = b.assign(&packet(0, size));
            prop_assert_eq!(va, vb);
        }

        #[test]
        fn packets_in_one_range_share_an_interface(size_a in 1usize..=232, size_b in 1usize..=232) {
            let mut or = OrthogonalRanges::new(SizeRanges::paper_default());
            prop_assert_eq!(or.assign(&packet(0, size_a)), or.assign(&packet(1, size_b)));
        }
    }
}
