//! Dataframe operations, split by family.
//!
//! Every operation derives a *new* frame and appends an event to the frame's
//! history (see [`crate::history`]); for the two kinds the paper's history
//! actions read (row subsetting, aggregation) the history also keeps the
//! input frame, replacing that kind's previous one.

mod assign;
mod bin;
mod concat;
mod describe;
mod filter;
mod groupby;
mod join;
mod nulls;
mod pivot;
mod reshape;
mod select;
mod sort;

pub use bin::{bin_of, edge_of};
pub use describe::DESCRIBE_STATS;
pub use filter::FilterOp;
pub use groupby::{Agg, GroupBy};
pub use join::JoinKind;
