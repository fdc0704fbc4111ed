//! Serde-buildable traffic specifications: generation as **data**.
//!
//! The scenario engine describes whole experiments declaratively (TOML specs
//! compiled into the streaming machinery); [`TrafficSpec`] is the traffic-gen
//! end of that contract. One spec names an application, a seed and an optional
//! duration, and builds any of the crate's generation entry points — the lazy
//! [`StreamingSession`], the batch [`SessionGenerator`], or the calibrated
//! [`BidirectionalModel`] behind both — so a committed spec file reproduces a
//! workload exactly (same seed, same packets) without a line of Rust.

use crate::app::AppKind;
use crate::generator::SessionGenerator;
use crate::models::{calibrated, BidirectionalModel};
use crate::stream::StreamingSession;
use crate::trace::Trace;
use serde::{Deserialize, Error, Serialize, Value};

/// One station's traffic, as data: the application model to run, the seed
/// that makes it reproducible, and how long the session lasts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TrafficSpec {
    /// The application whose calibrated model generates the traffic.
    pub app: AppKind,
    /// Seed of the session's random streams.
    pub seed: u64,
    /// Session length in seconds; `None` streams forever (the workload a
    /// batch trace can never express).
    pub secs: Option<f64>,
}

impl TrafficSpec {
    /// Creates a bounded spec.
    pub fn bounded(app: AppKind, seed: u64, secs: f64) -> Self {
        TrafficSpec {
            app,
            seed,
            secs: Some(secs),
        }
    }

    /// The calibrated bidirectional flow model behind the spec (shared
    /// process-wide).
    pub fn model(&self) -> &'static BidirectionalModel {
        calibrated(self.app)
    }

    /// A batch generator over the spec's model and seed.
    pub fn generator(&self) -> SessionGenerator {
        SessionGenerator::new(self.app, self.seed)
    }

    /// Builds the spec's lazy packet source (bounded by `secs` when given,
    /// infinite otherwise). The source borrows the shared calibrated model,
    /// so building one allocates nothing.
    pub fn build(&self) -> StreamingSession<'static> {
        StreamingSession::from_model(self.model(), self.seed, self.secs)
    }

    /// Materialises the session as a batch [`Trace`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is unbounded.
    pub fn trace(&self) -> Trace {
        let secs = self
            .secs
            .expect("cannot materialise an unbounded traffic spec");
        self.generator().generate_secs(secs)
    }
}

/// Parses an application from a spec value: either the enum variant name
/// (`"BitTorrent"`) or any of the paper's abbreviations/aliases accepted by
/// [`AppKind::from_str`](std::str::FromStr) (`"bt"`, `"bittorrent"`, …).
pub fn app_from_value(v: &Value) -> Result<AppKind, Error> {
    match v {
        Value::Str(s) => s.parse::<AppKind>().map_err(Error::custom),
        other => Err(Error::custom(format!(
            "expected application name string, found {other:?}"
        ))),
    }
}

impl Deserialize for TrafficSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a table for TrafficSpec"))?;
        serde::value_deny_unknown(map, &["app", "seed", "secs"], "traffic spec")?;
        let app = app_from_value(
            serde::value_get(map, "app")
                .ok_or_else(|| Error::custom("traffic spec is missing `app`"))?,
        )?;
        let seed = match serde::value_get(map, "seed") {
            Some(s) => u64::from_value(s)?,
            None => 0,
        };
        let secs = match serde::value_get(map, "secs") {
            Some(s) => Some(f64::from_value(s)?),
            None => None,
        };
        Ok(TrafficSpec { app, seed, secs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::PacketSource;

    #[test]
    fn spec_builds_the_same_stream_as_the_direct_constructor() {
        let spec = TrafficSpec::bounded(AppKind::BitTorrent, 7, 20.0);
        let from_spec: Vec<_> = spec.build().collect();
        let direct: Vec<_> = StreamingSession::bounded(AppKind::BitTorrent, 7, 20.0).collect();
        assert_eq!(from_spec, direct);
        assert!(!from_spec.is_empty());
    }

    #[test]
    fn spec_trace_matches_the_session_generator() {
        let spec = TrafficSpec::bounded(AppKind::Chatting, 3, 15.0);
        assert_eq!(
            spec.trace(),
            SessionGenerator::new(AppKind::Chatting, 3).generate_secs(15.0)
        );
        assert_eq!(spec.model().app_kind(), AppKind::Chatting);
        assert_eq!(spec.generator().seed(), 3);
    }

    #[test]
    fn unbounded_spec_streams_forever() {
        let spec = TrafficSpec {
            app: AppKind::Video,
            seed: 1,
            secs: None,
        };
        let mut session = spec.build();
        for _ in 0..1000 {
            assert!(session.next_packet().is_some());
        }
    }

    #[test]
    fn deserializes_from_a_spec_value_with_defaults() {
        let v = Value::Map(vec![
            ("app".into(), Value::Str("bt".into())),
            ("seed".into(), Value::U64(9)),
            ("secs".into(), Value::F64(30.0)),
        ]);
        let spec = TrafficSpec::from_value(&v).expect("valid spec");
        assert_eq!(spec, TrafficSpec::bounded(AppKind::BitTorrent, 9, 30.0));
        // `seed` and `secs` default; variant names parse too.
        let v = Value::Map(vec![("app".into(), Value::Str("BitTorrent".into()))]);
        let spec = TrafficSpec::from_value(&v).expect("valid spec");
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.secs, None);
        // Unknown applications are rejected.
        let v = Value::Map(vec![("app".into(), Value::Str("telnet".into()))]);
        assert!(TrafficSpec::from_value(&v).is_err());
    }
}
