//! Uncertain-object model of the paper (attribute uncertainty): every object
//! has a closed circular *uncertainty region* and a probability density
//! function bounded inside it.
//!
//! The crate provides:
//!
//! * [`UncertainObject`] — id, circular region and pdf, with the
//!   `distmin`/`distmax` distances of Equations (2)–(3) and the conversion of
//!   non-circular regions to minimal bounding circles (Section III-C).
//! * [`Pdf`] — the uniform and Gaussian-histogram (20 bars) uncertainty pdfs
//!   used in the experimental setup (Section VI-A).
//! * [`probability`] — the numerical-integration qualification-probability
//!   computation of Cheng et al. \[14\] that the paper plugs in for the final
//!   PNN verification step.
//! * [`arena`] — struct-of-arrays kernel arenas batching the candidate
//!   screen and the quadrature over contiguous `f64` slices, bit-identical
//!   to the scalar references in [`probability`].
//! * [`generator`] — synthetic workloads: the uniform 10k×10k dataset, the
//!   skewed (Gaussian-centre) datasets of Figure 7(g) and "Germany-like"
//!   stand-ins for the utility / roads / rrlines real datasets of Table II.
//!
//! *The paper-to-code map for the whole workspace — every definition, lemma,
//! algorithm and experiment of the paper, with its module and key functions —
//! lives in `docs/PAPER_MAP.md` at the repository root.*

pub mod arena;
pub mod generator;
pub mod object;
pub mod pdf;
pub mod probability;
pub mod stats;
pub mod storage;

pub use arena::{
    EntryArena, KernelArena, QuadratureScratch, ScreenResult, ScreenScratch, StepGrid,
};
pub use generator::{Dataset, DatasetKind, GeneratorConfig};
pub use object::{ObjectId, UncertainObject};
pub use pdf::{Pdf, DEFAULT_HISTOGRAM_BARS};
pub use probability::{qualification_probabilities, DistanceDistribution, DEFAULT_RINGS};
pub use stats::{AnswerDelta, PnnAnswer, QueryBreakdown};
pub use storage::{ObjectEntry, ObjectStore};
