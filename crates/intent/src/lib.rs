//! # lux-intent
//!
//! The paper's §5 intent language: a lightweight, succinct way to declare
//! analysis interest that both steers recommendations and creates
//! visualizations directly.
//!
//! - [`clause`] — the grammar terms ([`Clause`], attribute/value specs with
//!   unions and wildcards);
//! - [`parse`] — the string shorthand (`"Age"`, `"Department=Sales"`,
//!   `"Country=?"`, `"A|B"`);
//! - [`mod@validate`] — checks against frame metadata with correction
//!   suggestions (§7.1.1);
//! - [`mod@compile`] — Expand / Lookup / Infer into complete `VisSpec`s
//!   (§7.1.2).

pub mod clause;
pub mod compile;
pub mod parse;
pub mod validate;

pub use clause::{AttributeSpec, Clause, Intent, ValueSpec};
pub use compile::{compile, dimension_by_measure, CompileOptions};
pub use parse::{parse_clause, parse_intent, parse_value};
pub use validate::{has_errors, validate, Diagnostic, Severity};
