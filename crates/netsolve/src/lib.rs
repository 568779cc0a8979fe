//! # netsolve — a NetSolve-style GridRPC middleware substrate
//!
//! The AdOC paper's §6.2 evaluates the library inside NetSolve: clients
//! submit `dgemm` requests through an agent to computational servers, and
//! the only change for "NetSolve+AdOC" is swapping the communicator's
//! `read`/`write` for `adoc_read`/`adoc_write`. This crate rebuilds that
//! stack:
//!
//! * [`agent`] — service registry with least-loaded server selection;
//! * [`server`] — accept loop + per-connection handlers + the
//!   [`server::DgemmService`] compute kernel;
//! * [`client`] — RPC submission over a pluggable network
//!   ([`client::sim_link_factory`] wires in the simulated WAN/LAN);
//! * [`transport`] — the `communicator.c` seam: [`transport::TransportMode::Raw`]
//!   vs [`transport::TransportMode::Adoc`];
//! * [`proto`] — request/response and matrix wire encodings;
//! * [`mod@dgemm`] — blocked multi-threaded matrix multiply.
//!
//! ```
//! use netsolve::prelude::*;
//! use std::sync::Arc;
//!
//! let agent = Arc::new(Agent::new());
//! let server = Server::new("compute-1", TransportMode::Raw)
//!     .with_service("dgemm", Arc::new(DgemmService { threads: 2 }));
//! let names = server.service_names();
//! let handle = server.start();
//! agent.register(&names.iter().map(String::as_str).collect::<Vec<_>>(), handle);
//!
//! let client = Client::new(agent, TransportMode::Raw, pipe_link_factory());
//! let a = adoc_data::Matrix::identity(16);
//! let (c, _metrics) = client.dgemm(&a, &a, MatrixEncoding::Binary).unwrap();
//! assert_eq!(c.max_abs_diff(&a), 0.0);
//! ```

#![warn(missing_docs)]
pub mod agent;
pub mod client;
pub mod dgemm;
pub mod proto;
pub mod server;
pub mod transport;

/// Common imports for middleware users.
pub mod prelude {
    pub use crate::agent::Agent;
    pub use crate::client::{pipe_link_factory, sim_link_factory, Client, RpcMetrics};
    pub use crate::dgemm::dgemm;
    pub use crate::proto::MatrixEncoding;
    pub use crate::server::{DgemmService, EchoService, Server, Service};
    pub use crate::transport::{Conn, Transport, TransportMode};
}

pub use prelude::*;
