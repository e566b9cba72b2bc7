//! Long-running query service for imprecise mean-field bounds.
//!
//! The paper's value proposition is cheap, *reusable* guarantees: a bound
//! computed once for a (parameter box, horizon) cell answers every later
//! query in that cell. This crate turns that observation into a server:
//!
//! * [`LruCache`] — `mfu_lang`'s deterministic bounded LRU map
//!   (stamp-ordered, no wall clocks), shared by the model interner and
//!   the artifact tier;
//! * [`protocol`] — line-delimited JSON requests/responses (`bound`,
//!   `stats`, `shutdown`) over the hand-rolled [`mfu_core::json`] layer;
//! * [`service`] — the [`service::QueryService`]: a two-tier cache in
//!   front of the hull and Pontryagin engines. Tier one interns compiled
//!   models by canonical content hash ([`mfu_lang::hash`]), with the exact
//!   source texts it has seen in front, so a known text is not parsed
//!   again; tier two maps (model hash, method, box, horizon) — floats by
//!   bit pattern — to the exact [`mfu_core::artifact::BoundArtifact`] the
//!   cold computation produced and the JSON it rendered, so hits are
//!   bit-identical to cold answers by construction and render nothing;
//! * [`server`] — a plain-TCP front-end (`mfu serve`) with a one-shot
//!   client helper (`mfu query`): thread per connection, request lines
//!   capped at [`server::MAX_LINE_BYTES`], clean shutdown via a protocol
//!   request.
//!
//! ```no_run
//! use mfu_serve::server::{query_line, Server};
//! use mfu_serve::service::{QueryService, ServiceOptions};
//!
//! let server = Server::bind("127.0.0.1:0", QueryService::new(ServiceOptions::default()))?;
//! let addr = server.local_addr()?.to_string();
//! std::thread::spawn(move || server.run());
//! let response = query_line(&addr, r#"{"op":"bound","model":"sir","method":"hull"}"#)?;
//! assert!(response.contains("\"ok\":true"));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod protocol;
pub mod server;
pub mod service;

pub use mfu_lang::cache::LruCache;
pub use protocol::{BoundRequest, Request};
pub use server::{query_line, Server};
pub use service::{QueryOutcome, QueryService, ServiceOptions};
