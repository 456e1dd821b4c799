//! # lux-vis
//!
//! The visualization model of the Lux reproduction: complete specifications
//! ([`spec::VisSpec`]), the relational data processing of the paper's
//! Table 2 ([`data`]), containers with scores ([`vislist`]), and headless
//! renderers ([`render`]) for Vega-Lite JSON, terminal charts, and
//! export-to-code.

pub mod data;
pub mod render;
pub mod spec;
mod sql;
pub mod vislist;

pub use data::{filtered_view, process, Backend, ProcessOptions};
pub use spec::{Channel, Encoding, FilterSpec, Mark, OpClass, VisSpec};
pub use sql::to_sql;
pub use vislist::{Vis, VisList};
