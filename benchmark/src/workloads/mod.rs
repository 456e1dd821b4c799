//! The four workloads. Each is a closed loop: a notebook user and a wire
//! client both wait for the reply before the next op.

pub mod notebook;
pub mod print;
pub mod serve;
