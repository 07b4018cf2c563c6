//! # tm-service — the memory-budgeted verification service
//!
//! The serving layer of the *tm-modelcheck* workspace: a long-running
//! daemon answering the paper's verification queries (any TM ×
//! contention manager × property × instance size from the roster)
//! behind the `tm_checker::Verifier` session API, under a configurable
//! artifact memory budget.
//!
//! ```text
//!            tm-query ── HTTP/JSON ──▶ tm-serve (http.rs)
//!                                          │
//!                                   Service (service.rs)
//!                     ┌────────────────────┼────────────────────┐
//!              batch scheduler       memory budget       session registry
//!              (scheduler.rs)         (budget.rs)          (registry.rs)
//!              orders queries        LRU ledger over      one `Verifier`
//!              for artifact          heap_bytes(),        per (n, k), on
//!              reuse                 evict + rebuild      the caller's thread
//! ```
//!
//! * the **session registry** ([`SessionRegistry`]) lazily creates one
//!   [`tm_checker::Verifier`] per instance size, each behind its own
//!   mutex, so concurrent batches on different instance sizes overlap,
//!   and each carrying its series in the service's one metrics registry
//!   (the counters `/v1/stats`, `/v1/sessions` and `/metrics` all read);
//! * the **memory budget** ([`MemoryBudget`], shared concurrently as
//!   [`SharedBudget`]) charges every compiled artifact (per-TM run
//!   graphs, per-property specifications) against a byte limit using the
//!   `heap_bytes()` accounting of `tm-automata`, evicts
//!   least-recently-used artifacts once the queries using them are
//!   answered — in-flight artifacts are *pinned* and never victims —
//!   and lets the sessions transparently rebuild on re-query (rebuilds
//!   are counted, verdicts are bit-identical — pinned by
//!   `tests/session_eviction.rs` at the session layer,
//!   `tests/service_conformance.rs` here, and
//!   `tests/concurrent_conformance.rs` under concurrent submission);
//! * the **batch scheduler** ([`execution_order`]) reorders each batch
//!   to maximize artifact reuse (group by instance size, then safety
//!   queries by property, liveness queries by TM) while returning
//!   results in request order;
//! * the **endpoints**: the in-process [`Service`] API, and the
//!   std-`TcpListener` HTTP/JSON server (`tm-serve` bin, [`serve`]) with
//!   its [`Json`] wire format and `tm-query` CLI client;
//! * the **storage tier**: with a store directory configured
//!   ([`STORE_DIR_ENV`] / `tm-serve --store-dir`), artifacts persist in
//!   a content-addressed on-disk store (`tm-store`) — budget evictions
//!   *demote* to disk instead of discarding, a re-query *promotes* the
//!   verified on-disk copy back instead of rebuilding, and a restarted
//!   daemon warm-starts its sessions from the directory with zero
//!   rebuilds.
//!
//! The budget is configured via the `TM_SERVICE_MEM_BUDGET` environment
//! variable ([`ServiceConfig::from_env`]). Every query runs on the thread
//! that submitted it.
//!
//! # Examples
//!
//! Answer the paper's Table 3 under a 1 MiB artifact budget:
//!
//! ```
//! use tm_service::{table3_batch, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig {
//!     mem_budget: Some(1 << 20),
//!     ..ServiceConfig::default()
//! });
//! let results = service.submit(&table3_batch());
//! assert_eq!(results.len(), 12);
//! // dstm+aggressive is obstruction free (Table 3 row 3).
//! let dstm_of = results.iter().find(|r| r.name == "dstm+aggressive").unwrap();
//! assert!(dstm_of.holds);
//! assert!(service.stats().peak_tracked_bytes <= 1 << 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
pub mod client;
mod http;
mod registry;
mod roster;
mod scheduler;
mod service;
pub mod wire;

pub use budget::{Admission, MemoryBudget, SharedBudget};
pub use client::{is_retryable_status, Backoff};
pub use http::{http_request, http_request_full, http_request_with_id, serve};
pub use registry::{lock_session, Session, SessionRegistry, SharedSession};
pub use roster::{
    run_query, table2_batch, table3_batch, CmKind, PropertyKind, QuerySpec, TmKind,
    MAX_QUERY_THREADS, MAX_QUERY_VARS,
};
pub use scheduler::execution_order;
pub use tm_automata::EngineError;
pub use service::{
    parse_mem_budget, LatencyQuantiles, QueryOutcome, QueryResult, Service, ServiceConfig,
    ServiceStats, SessionInfo, BATCH_DEADLINE_ENV, DEFAULT_MAX_INFLIGHT,
    DEFAULT_SERVICE_MAX_STATES, MAX_INFLIGHT_ENV, MEM_BUDGET_ENV, QUERY_DEADLINE_ENV,
    STORE_CAP_ENV, STORE_DIR_ENV,
};
pub use wire::Json;
