//! The [`TrafficModel`] trait and the seeded [`SessionGenerator`].

use crate::app::AppKind;
use crate::models::{self, BidirectionalModel};
use crate::stream::StreamingSession;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A synthetic model of one application's wireless traffic.
///
/// Implementations produce both downlink and uplink packets for a session of
/// a requested duration. Models are deterministic given the RNG, so an entire
/// experiment can be reproduced from a single seed.
pub trait TrafficModel: std::fmt::Debug + Send + Sync {
    /// The application this model imitates.
    fn app(&self) -> AppKind;

    /// Generates a labelled trace spanning `duration_secs` seconds.
    fn generate(&self, rng: &mut dyn RngCore, duration_secs: f64) -> Trace;

    /// The bidirectional flow specification behind this model, when the model
    /// is expressible as one (all seven calibrated defaults are). Models that
    /// return `Some` can be generated *lazily* through
    /// [`StreamingSession`]; custom batch-only models keep the
    /// default of `None`.
    fn flow_spec(&self) -> Option<&BidirectionalModel> {
        None
    }
}

/// Convenience wrapper that owns a model and a seed and produces traces.
///
/// # Example
///
/// ```rust
/// use traffic_gen::app::AppKind;
/// use traffic_gen::generator::SessionGenerator;
///
/// let trace = SessionGenerator::new(AppKind::Chatting, 7).generate_secs(30.0);
/// assert_eq!(trace.app(), Some(AppKind::Chatting));
/// ```
#[derive(Debug)]
pub struct SessionGenerator {
    model: Box<dyn TrafficModel>,
    seed: u64,
}

impl SessionGenerator {
    /// Creates a generator for `app` using the calibrated default model.
    pub fn new(app: AppKind, seed: u64) -> Self {
        SessionGenerator {
            model: models::model_for(app),
            seed,
        }
    }

    /// Creates a generator around a custom model.
    pub fn with_model(model: Box<dyn TrafficModel>, seed: u64) -> Self {
        SessionGenerator { model, seed }
    }

    /// The application being generated.
    pub fn app(&self) -> AppKind {
        self.model.app()
    }

    /// The seed in use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates a trace of the given duration (seconds).
    pub fn generate_secs(&self, duration_secs: f64) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (self.app().class_index() as u64) << 56);
        self.model.generate(&mut rng, duration_secs)
    }

    /// Streams a session of `duration_secs` seconds lazily: packets are
    /// produced one at a time instead of materialising a [`Trace`].
    ///
    /// The stream draws per-flow derived RNG streams, so it is
    /// distribution-identical (not packet-identical) to
    /// [`generate_secs`](Self::generate_secs); see [`crate::stream`] for the
    /// equivalence contract of the streaming data plane.
    ///
    /// # Panics
    ///
    /// Panics if the model does not expose a flow specification
    /// ([`TrafficModel::flow_spec`] returns `None`).
    pub fn stream_secs(&self, duration_secs: f64) -> StreamingSession<'_> {
        StreamingSession::from_model(self.streamable_spec(), self.seed, Some(duration_secs))
    }

    /// Streams an **unbounded** session: an infinite packet source for
    /// long-running scenarios that can never fit in memory as a batch trace.
    ///
    /// # Panics
    ///
    /// Panics if the model does not expose a flow specification.
    pub fn stream_unbounded(&self) -> StreamingSession<'_> {
        StreamingSession::from_model(self.streamable_spec(), self.seed, None)
    }

    fn streamable_spec(&self) -> &BidirectionalModel {
        self.model.flow_spec().unwrap_or_else(|| {
            panic!(
                "the {} model does not expose flow specs; implement TrafficModel::flow_spec to stream it",
                self.app()
            )
        })
    }

    /// Generates `count` independent session traces, each of `duration_secs`,
    /// using per-session derived seeds.
    pub fn generate_sessions(&self, count: usize, duration_secs: f64) -> Vec<Trace> {
        (0..count)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(
                    self.seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(i as u64 + 1)
                        ^ ((self.app().class_index() as u64) << 56),
                );
                self.model.generate(&mut rng, duration_secs)
            })
            .collect()
    }
}

/// Generates one trace per application with a shared base seed; the workhorse
/// for building training/evaluation corpora.
pub fn generate_corpus(base_seed: u64, duration_secs: f64) -> Vec<Trace> {
    AppKind::ALL
        .iter()
        .map(|&app| SessionGenerator::new(app, base_seed).generate_secs(duration_secs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Direction;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = SessionGenerator::new(AppKind::Gaming, 99).generate_secs(20.0);
        let b = SessionGenerator::new(AppKind::Gaming, 99).generate_secs(20.0);
        assert_eq!(a, b);
        let c = SessionGenerator::new(AppKind::Gaming, 100).generate_secs(20.0);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn traces_are_labelled_sorted_and_bounded() {
        for app in AppKind::ALL {
            let gen = SessionGenerator::new(app, 5);
            assert_eq!(gen.app(), app);
            assert_eq!(gen.seed(), 5);
            let trace = gen.generate_secs(15.0);
            assert_eq!(trace.app(), Some(app));
            assert!(!trace.is_empty(), "{app} produced no packets");
            let packets = trace.packets();
            assert!(packets.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(packets.iter().all(|p| p.time.as_secs_f64() <= 15.0 + 1e-9));
            assert!(packets
                .iter()
                .all(|p| p.size >= crate::MIN_PACKET_SIZE && p.size <= crate::MAX_PACKET_SIZE));
        }
    }

    #[test]
    fn every_app_has_both_directions() {
        for app in AppKind::ALL {
            let trace = SessionGenerator::new(app, 11).generate_secs(30.0);
            assert!(
                trace.packets_in(Direction::Downlink).count() > 0,
                "{app} has no downlink packets"
            );
            assert!(
                trace.packets_in(Direction::Uplink).count() > 0,
                "{app} has no uplink packets"
            );
        }
    }

    #[test]
    fn sessions_are_independent() {
        let sessions = SessionGenerator::new(AppKind::Browsing, 3).generate_sessions(3, 10.0);
        assert_eq!(sessions.len(), 3);
        assert_ne!(sessions[0], sessions[1]);
        assert_ne!(sessions[1], sessions[2]);
    }

    #[test]
    fn corpus_covers_all_apps() {
        let corpus = generate_corpus(1, 5.0);
        assert_eq!(corpus.len(), 7);
        for (trace, app) in corpus.iter().zip(AppKind::ALL) {
            assert_eq!(trace.app(), Some(app));
        }
    }
}
