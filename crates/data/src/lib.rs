//! # adoc-data — workload generators calibrated to the AdOC paper
//!
//! Seeded, deterministic generators for every payload the evaluation
//! needs:
//!
//! * [`gen`] — the three transfer data types of Figures 3–7
//!   (ASCII ≈ 5×, binary ≈ 2×, incompressible);
//! * [`corpus`] — Table 1's bench files (`oilpann.hb`-like Harwell–Boeing
//!   ASCII, `bin.tar`-like executable tarball);
//! * [`matrix`] — the NetSolve dense/sparse matrices and their ASCII /
//!   binary wire encodings (Figs. 8–9).

#![warn(missing_docs)]
pub mod corpus;
pub mod gen;
pub mod matrix;

pub use gen::{generate, DataKind};
pub use matrix::Matrix;
