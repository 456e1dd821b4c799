//! # lux-dataframe
//!
//! A from-scratch columnar dataframe engine: the substrate on which the Lux
//! reproduction (intent language, recommendation actions, execution engine)
//! is built. It plays the role pandas plays in the paper.
//!
//! Design highlights:
//!
//! - **Columnar, typed storage** with packed null bitmaps ([`bitmap`]) and
//!   dictionary-encoded strings ([`column::StrColumn`]), which makes the
//!   operations Lux leans on (cardinality, group-by, filter-by-value) cheap.
//! - **Immutable frames, `Arc`-shared columns**: every operation derives a
//!   new frame; untouched columns are reference-counted, not copied.
//! - **Operation history on the frame** ([`history`]): each op appends an
//!   event, and the history keeps the input of the last row-subsetting op
//!   and of the last aggregation — exactly the two frames the paper's
//!   history-based recommendations show.
//! - **Single-level labeled indexes** ([`index`]): group-by/pivot results
//!   carry a labeled index, marking them "pre-aggregated" for structure-based
//!   recommendations.
//!
//! ```
//! use lux_dataframe::prelude::*;
//!
//! let df = DataFrameBuilder::new()
//!     .str("dept", ["Sales", "Eng", "Sales"])
//!     .float("pay", [50.0, 80.0, 60.0])
//!     .build()
//!     .unwrap();
//! let by_dept = df.groupby(&["dept"]).unwrap().agg(&[("pay", Agg::Mean)]).unwrap();
//! assert_eq!(by_dept.num_rows(), 2);
//! assert!(by_dept.index().is_labeled());
//! ```

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod history;
pub mod index;
pub mod ops;
pub mod scan;
pub mod series;
pub mod sql;
pub mod value;

pub use column::{Column, PrimitiveColumn, StrColumn};
pub use csv::{ParseIssue, ParseReport};
pub use error::{Error, Result};
pub use frame::{DataFrame, DataFrameBuilder, FrameState};
pub use history::{Event, History, OpKind};
pub use index::Index;
pub use ops::{Agg, FilterOp, JoinKind};
pub use series::Series;
pub use value::{DType, Value};

/// Common imports for downstream crates, examples, and tests.
pub mod prelude {
    pub use crate::bitmap::Bitmap;
    pub use crate::column::{Column, PrimitiveColumn, StrColumn};
    pub use crate::error::{Error, Result};
    pub use crate::frame::{DataFrame, DataFrameBuilder};
    pub use crate::history::{Event, History, OpKind};
    pub use crate::index::Index;
    pub use crate::ops::{Agg, FilterOp, JoinKind};
    pub use crate::series::Series;
    pub use crate::value::{DType, Value};
}
