//! # LiveGraph service layer
//!
//! Turns the in-process LiveGraph engine into a networked service: a
//! length-prefixed binary wire protocol with correlation ids (so clients
//! can pipeline), a thread-pooled TCP server mapping client connections
//! onto server-side sessions of engine transactions, an event-driven
//! reactor server, and two clients: a blocking one for explicit
//! transactions and a pipelined one that threads share.
//!
//! * [`protocol`] — frame format, request/response types, codecs;
//! * [`Engine`] — the hosted engine (plain [`livegraph_core::LiveGraph`]
//!   or sharded [`livegraph_core::ShardedGraph`]);
//! * [`Server`] / [`ServerConfig`] — the TCP service (also available as the
//!   `livegraph-serve` binary);
//! * [`Session`] — the per-connection transaction table (public for tests
//!   and embedding);
//! * [`Client`] — the blocking, one-thread client (explicit transactions);
//! * [`PipelinedClient`] — one connection shared by many threads with
//!   requests in flight, the transport of the remote LinkBench driver;
//! * [`replication`] — WAL-shipping replication: epoch-consistent read
//!   replicas, semi-sync commit acknowledgement, failover promotion, and a
//!   fault-injecting link proxy for chaos tests;
//! * [`metrics_http`] — Prometheus-style text exposition of the engine's
//!   telemetry registry (`--metrics-listen`), also consumed by the
//!   `livegraph-top` dashboard via the `MetricsDump` wire op.
//!
//! ## Quick start
//! ```
//! use std::sync::Arc;
//! use livegraph_server::{Client, Engine, Server, ServerConfig};
//! use livegraph_core::{LiveGraph, LiveGraphOptions, DEFAULT_LABEL};
//!
//! let engine = Arc::new(Engine::Plain(
//!     LiveGraph::open(LiveGraphOptions::in_memory()).unwrap(),
//! ));
//! let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let txn = client.begin_write().unwrap();
//! let alice = client.create_vertex(txn, b"alice").unwrap();
//! let bob = client.create_vertex(txn, b"bob").unwrap();
//! client.put_edge(Some(txn), alice, DEFAULT_LABEL, bob, b"follows").unwrap();
//! client.commit(txn).unwrap();
//!
//! assert_eq!(client.neighbors(None, alice, DEFAULT_LABEL, 0).unwrap(), vec![bob]);
//! drop(client);
//! server.shutdown();
//! ```
//!
//! The session state machine, frame format and error mapping are
//! documented in `docs/ARCHITECTURE.md` ("Service layer") at the
//! repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod client;
mod engine;
pub mod metrics_http;
mod pipeline;
pub mod protocol;
pub mod reactor;
pub mod replication;
mod server;
mod session;

/// The concurrency facade (std/parking_lot normally, loom shims under
/// `--cfg livegraph_loom`) — re-exported so this crate's shimmed modules
/// and model tests name one path.
pub use livegraph_core::sync;

#[doc(hidden)]
pub use pipeline::{demux_wait, Demux, Reply};
#[doc(hidden)]
pub use server::ConnQueue;

pub use client::{Client, ClientError, ClientResult, RemoteTxn, DEFAULT_IO_TIMEOUT};
pub use engine::Engine;
pub use metrics_http::{render_exposition, MetricsExporter};
pub use pipeline::{PipelinedClient, DEFAULT_PIPELINE_DEPTH};
pub use protocol::{
    ErrorCode, HistogramDump, MetricsReply, Request, Response, StatsReply, TxnHandle,
};
pub use reactor::{ReactorConfig, ReactorServer};
pub use replication::{
    bootstrap_replica, start_replica, FaultProxy, ReplicaOptions, ReplicaRunner, ReplicationState,
};
pub use server::{Server, ServerConfig};
pub use session::{Session, AUTOCOMMIT_RETRIES, NEIGHBOR_CHUNK_DSTS};
