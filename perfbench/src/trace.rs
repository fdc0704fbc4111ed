//! In-memory spans recorded around calls into the program's public
//! functions, written out as CSV when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries the benchmark times, named after the modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `TrafficSpec::build`.
    GenBuild,
    /// `PacketSource::next_packet`, one span per micro-batch of pulls.
    GenPull,
    /// `ScenarioStation::build_pipelines` (morphing calibration included).
    DefBuild,
    /// `StagePipeline::process_batch` / `finish`.
    Stage,
    /// `FlowWindowers::push_slice` / `finish`.
    Windower,
    /// `WindowScorer::score_slice`.
    Scorer,
    /// The per-station scorer fork (`FrozenScorer::new` or a cloned
    /// `PrequentialEvaluator`).
    Fork,
    /// One station on the executor, from its `scorer_of` to its `finish`.
    Station,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::GenBuild => "traffic_gen.build",
            Layer::GenPull => "traffic_gen.pull",
            Layer::DefBuild => "defenses.build",
            Layer::Stage => "defenses.stage",
            Layer::Windower => "classifier.windower",
            Layer::Scorer => "classifier.scorer",
            Layer::Fork => "classifier.scorer.fork",
            Layer::Station => "streaming.station",
        }
    }
}

/// One recorded span: a layer, the station it served, and its interval in
/// nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    layer: Layer,
    station: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder; a disabled tracer reads no clock and keeps nothing, so
/// the same code path serves the untraced reference replay.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin (0 when disabled).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records `[start, now)` for `layer` on `station` and returns `now`.
    #[inline]
    pub fn close(&mut self, layer: Layer, station: usize, start_ns: u64) -> u64 {
        let end_ns = self.now();
        if self.enabled {
            self.spans.push(Span {
                layer,
                station: station as u32,
                start_ns,
                end_ns,
            });
        }
        end_ns
    }

    /// Records an externally timed span.
    pub fn push(&mut self, layer: Layer, station: usize, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                layer,
                station: station as u32,
                start_ns,
                end_ns,
            });
        }
    }

    /// The tracer's clock origin (spans recorded elsewhere against it line
    /// up with this tracer's).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Writes every span as `layer,station,start_ns,end_ns` CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer,station,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{}",
                s.layer.name(),
                s.station,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
