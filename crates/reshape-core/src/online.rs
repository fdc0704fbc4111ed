//! The streaming reshaping engine: one packet in, one assignment out.
//!
//! The paper's Fig. 3 data path is online — each packet is dispatched to a
//! virtual interface the moment it leaves the TCP/IP stack. [`OnlineReshaper`]
//! is that data path: it owns a [`ReshapeAlgorithm`], assigns packets **one at
//! a time**, maintains the [`RealizedDistributions`] incrementally, and keeps
//! only O(interfaces) state — no sub-traces, no assignment log. Sessions of
//! unbounded length therefore stream through it in constant memory.
//!
//! Downstream consumers attach per-interface sub-flow sinks through
//! [`SubFlowSink`]: the batch [`Reshaper`](crate::reshaper::Reshaper) plugs in
//! a [`SubTraceCollector`] (and is now a thin wrapper over this engine), the
//! bridge plugs in frame emission, the evaluation plugs in streaming
//! windowers. Feeding the same packets through the online and batch engines
//! produces byte-identical assignments — property-tested in
//! `tests/streaming_equivalence.rs`.

use crate::optimizer::RealizedDistributions;
use crate::ranges::SizeRanges;
use crate::scheduler::ReshapeAlgorithm;
use crate::vif::VifIndex;
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use traffic_gen::stream::PacketSource;
use traffic_gen::trace::Trace;

/// A consumer of per-interface sub-flows.
///
/// The online reshaper calls [`accept`](Self::accept) exactly once per packet,
/// with the interface the scheduler chose. Implementations decide what a
/// sub-flow *is*: collected packets, emitted frames, window accumulators, or
/// nothing at all ([`NullSink`]).
pub trait SubFlowSink {
    /// Consumes one packet assigned to `vif`.
    fn accept(&mut self, vif: VifIndex, packet: &PacketRecord);
}

/// A sink that discards packets; used when only the assignments or the
/// realized distributions matter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl SubFlowSink for NullSink {
    fn accept(&mut self, _vif: VifIndex, _packet: &PacketRecord) {}
}

/// A sink that materialises per-interface sub-traces — the batch view of a
/// reshaped stream, used by [`Reshaper`](crate::reshaper::Reshaper).
#[derive(Debug, Clone)]
pub struct SubTraceCollector {
    app: Option<AppKind>,
    sub_packets: Vec<Vec<PacketRecord>>,
}

impl SubTraceCollector {
    /// Creates a collector for `interfaces` interfaces; collected sub-traces
    /// carry the ground-truth `app` label.
    pub fn new(interfaces: usize, app: Option<AppKind>) -> Self {
        SubTraceCollector {
            app,
            sub_packets: vec![Vec::new(); interfaces],
        }
    }

    /// Total packets collected so far.
    pub fn len(&self) -> usize {
        self.sub_packets.iter().map(Vec::len).sum()
    }

    /// Returns `true` when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the collection, producing one labelled [`Trace`] per
    /// interface.
    pub fn into_traces(self) -> Vec<Trace> {
        let app = self.app;
        self.sub_packets
            .into_iter()
            .map(|packets| Trace::from_packets(app, packets))
            .collect()
    }
}

impl SubFlowSink for SubTraceCollector {
    fn accept(&mut self, vif: VifIndex, packet: &PacketRecord) {
        self.sub_packets[vif.index()].push(*packet);
    }
}

/// The streaming reshaping engine.
///
/// Assigns packets to virtual interfaces one at a time while incrementally
/// tracking the realized per-interface distributions of Eq. 1 and
/// per-interface packet/byte counts (the zero-overhead invariant, checked
/// without storing a single packet).
#[derive(Debug)]
pub struct OnlineReshaper {
    algorithm: Box<dyn ReshapeAlgorithm>,
    /// Per-interface, per-range packet counts (the per-interface packet
    /// counters are its row sums).
    realized: RealizedDistributions,
    per_vif_bytes: Vec<u64>,
}

impl OnlineReshaper {
    /// Creates an online reshaper around an algorithm, tracking realized
    /// distributions over the paper's default size ranges.
    pub fn new(algorithm: Box<dyn ReshapeAlgorithm>) -> Self {
        Self::with_tracking_ranges(algorithm, SizeRanges::paper_default())
    }

    /// Creates an online reshaper tracking realized distributions over custom
    /// ranges.
    pub fn with_tracking_ranges(algorithm: Box<dyn ReshapeAlgorithm>, ranges: SizeRanges) -> Self {
        let interfaces = algorithm.interface_count();
        OnlineReshaper {
            algorithm,
            realized: RealizedDistributions::new(interfaces, ranges),
            per_vif_bytes: vec![0; interfaces],
        }
    }

    /// The number of virtual interfaces of the underlying algorithm.
    pub fn interface_count(&self) -> usize {
        self.algorithm.interface_count()
    }

    /// The name of the underlying algorithm.
    pub fn algorithm_name(&self) -> &'static str {
        self.algorithm.name()
    }

    /// Assigns one packet to a virtual interface, updating the realized
    /// distributions and per-interface counters.
    ///
    /// This is the whole per-packet cost of the streaming data plane: one
    /// scheduler decision plus O(1) counter updates.
    pub fn assign(&mut self, packet: &PacketRecord) -> VifIndex {
        let vif = self.algorithm.assign(packet);
        let i = vif.index();
        assert!(
            i < self.per_vif_bytes.len(),
            "algorithm {} returned out-of-range {vif}",
            self.algorithm.name()
        );
        self.realized.record(vif, packet.size);
        self.per_vif_bytes[i] += packet.size as u64;
        vif
    }

    /// Assigns one packet and forwards it to a sub-flow sink.
    pub fn assign_to<S: SubFlowSink + ?Sized>(
        &mut self,
        packet: &PacketRecord,
        sink: &mut S,
    ) -> VifIndex {
        let vif = self.assign(packet);
        sink.accept(vif, packet);
        vif
    }

    /// Drains a packet source through the engine into a sink, returning the
    /// number of packets processed. Memory stays O(interfaces) regardless of
    /// the stream length (the sink decides what it retains).
    pub fn process<P: PacketSource + ?Sized, S: SubFlowSink + ?Sized>(
        &mut self,
        source: &mut P,
        sink: &mut S,
    ) -> usize {
        let mut count = 0;
        while let Some(packet) = source.next_packet() {
            self.assign_to(&packet, sink);
            count += 1;
        }
        count
    }

    /// The realized per-interface distributions accumulated so far.
    pub fn realized(&self) -> &RealizedDistributions {
        &self.realized
    }

    /// Total packets assigned since the last reset.
    pub fn packets_seen(&self) -> u64 {
        self.realized.total_packets()
    }

    /// Total bytes assigned since the last reset (equals the bytes that went
    /// in — reshaping adds no overhead).
    pub fn bytes_seen(&self) -> u64 {
        self.per_vif_bytes.iter().sum()
    }

    /// Packets assigned to one interface.
    pub fn packets_on(&self, vif: VifIndex) -> u64 {
        self.realized.packets_on(vif)
    }

    /// Bytes assigned to one interface.
    pub fn bytes_on(&self, vif: VifIndex) -> u64 {
        self.per_vif_bytes[vif.index()]
    }

    /// Resets the scheduler state, realized distributions and counters so the
    /// engine can be reused on a fresh stream.
    pub fn reset(&mut self) {
        self.algorithm.reset();
        self.realized.clear();
        self.per_vif_bytes.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{OrthogonalRanges, RoundRobin};
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;
    use traffic_gen::stream::StreamingSession;

    #[test]
    fn online_assignment_tracks_counters_incrementally() {
        let trace = SessionGenerator::new(AppKind::BitTorrent, 1).generate_secs(10.0);
        let mut online =
            OnlineReshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
        assert_eq!(online.interface_count(), 3);
        assert_eq!(online.algorithm_name(), "OR");
        for packet in trace.packets() {
            online.assign(packet);
        }
        assert_eq!(online.packets_seen(), trace.len() as u64);
        assert_eq!(online.bytes_seen(), trace.total_bytes());
        let per_vif: u64 = (0..3).map(|i| online.packets_on(VifIndex::new(i))).sum();
        assert_eq!(per_vif, trace.len() as u64, "partition invariant");
        assert_eq!(online.realized().total_packets(), trace.len() as u64);
    }

    #[test]
    fn process_drains_a_source_into_a_collector() {
        let trace = SessionGenerator::new(AppKind::Video, 4).generate_secs(10.0);
        let mut online = OnlineReshaper::new(Box::new(RoundRobin::new(3)));
        let mut collector = SubTraceCollector::new(3, Some(AppKind::Video));
        assert!(collector.is_empty());
        let n = online.process(&mut trace.stream(), &mut collector);
        assert_eq!(n, trace.len());
        assert_eq!(collector.len(), trace.len());
        let subs = collector.into_traces();
        assert_eq!(subs.len(), 3);
        let total: usize = subs.iter().map(Trace::len).sum();
        assert_eq!(total, trace.len());
        assert!(subs.iter().all(|s| s.app() == Some(AppKind::Video)));
    }

    #[test]
    fn reset_clears_all_streaming_state() {
        let trace = SessionGenerator::new(AppKind::Gaming, 2).generate_secs(5.0);
        let mut online = OnlineReshaper::new(Box::new(RoundRobin::new(2)));
        online.process(&mut trace.stream(), &mut NullSink);
        assert!(online.packets_seen() > 0);
        online.reset();
        assert_eq!(online.packets_seen(), 0);
        assert_eq!(online.bytes_seen(), 0);
        assert_eq!(online.realized().total_packets(), 0);
        // A reset engine replays deterministically.
        let first: Vec<VifIndex> = trace.packets().iter().map(|p| online.assign(p)).collect();
        online.reset();
        let second: Vec<VifIndex> = trace.packets().iter().map(|p| online.assign(p)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn streams_an_unbounded_session_in_constant_state() {
        // 20k packets of an infinite session flow through without any
        // per-packet storage: only the O(interfaces) counters grow.
        let mut session = StreamingSession::unbounded(AppKind::BitTorrent, 3);
        let mut online =
            OnlineReshaper::new(Box::new(OrthogonalRanges::new(SizeRanges::paper_default())));
        for _ in 0..20_000 {
            let packet = session.next_packet().expect("infinite source");
            online.assign(&packet);
        }
        assert_eq!(online.packets_seen(), 20_000);
        // OR keeps every interface's realized distribution pure.
        let targets = crate::target::TargetSet::orthogonal(3, 3).unwrap();
        assert!(online.realized().objective(&targets) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_assignment_panics() {
        // A scheduler that lies about its interface count is caught.
        #[derive(Debug)]
        struct Rogue;
        impl crate::scheduler::ReshapeAlgorithm for Rogue {
            fn assign(&mut self, _p: &PacketRecord) -> VifIndex {
                VifIndex::new(7)
            }
            fn interface_count(&self) -> usize {
                2
            }
            fn name(&self) -> &'static str {
                "rogue"
            }
        }
        let mut online = OnlineReshaper::new(Box::new(Rogue));
        let p = PacketRecord::at_secs(0.0, 100, traffic_gen::packet::Direction::Downlink, {
            AppKind::Video
        });
        online.assign(&p);
    }
}
