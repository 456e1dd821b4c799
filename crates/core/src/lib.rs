//! # lux-core
//!
//! The public face of the Lux reproduction: a [`LuxDataFrame`] wraps a
//! dataframe and makes every "print" an always-on visualization
//! recommendation (paper: "Lux: Always-on Visualization Recommendations for
//! Exploratory Dataframe Workflows", VLDB 2022).
//!
//! ```
//! use lux_core::prelude::*;
//!
//! let df = DataFrameBuilder::new()
//!     .float("AvrgLifeExpectancy", (0..40).map(|i| 60.0 + (i % 20) as f64))
//!     .float("Inequality", (0..40).map(|i| 50.0 - (i % 20) as f64))
//!     .str("Region", (0..40).map(|i| ["EU", "AF", "AS", "NA"][i % 4]))
//!     .build()
//!     .unwrap();
//! let mut ldf = LuxDataFrame::new(df);
//!
//! // Always-on overview: just print.
//! let widget = ldf.print();
//! assert!(widget.tabs().contains(&"Correlation"));
//!
//! // Steer with intent, like `df.intent = ["AvrgLifeExpectancy", "Inequality"]`.
//! ldf.set_intent_strs(["AvrgLifeExpectancy", "Inequality"]).unwrap();
//! let widget = ldf.print();
//! assert!(widget.tabs().contains(&"Enhance"));
//! ```

pub mod logging;
pub mod luxframe;
pub mod luxseries;
pub mod vis_api;
pub mod widget;
pub mod wire;

pub use logging::{EventKind, SessionLogger};
pub use lux_engine::PassSummary;
pub use luxframe::{LuxDataFrame, PrintOptions};
pub use luxseries::LuxSeries;
pub use vis_api::{LuxVis, LuxVisList};
pub use widget::{Widget, WireWidget};

/// Common imports for applications using Lux.
pub mod prelude {
    pub use crate::logging::{EventKind, SessionLogger};
    pub use crate::luxframe::{LuxDataFrame, PrintOptions};
    pub use crate::luxseries::LuxSeries;
    pub use crate::vis_api::{LuxVis, LuxVisList};
    pub use crate::widget::{Widget, WireWidget};
    pub use lux_dataframe::prelude::*;
    pub use lux_engine::{
        LuxConfig, MetricsRegistry, MetricsSnapshot, PassSummary, PassTrace, SemanticType,
        TraceCollector,
    };
    pub use lux_intent::{parse_clause, parse_intent, Clause};
    pub use lux_recs::{ActionContext, ActionRegistry, ActionResult, Candidate, CustomAction};
    pub use lux_vis::{Channel, Encoding, FilterSpec, Mark, Vis, VisList, VisSpec};
}
