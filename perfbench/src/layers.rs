//! The traced run's per-layer accounting. Spans come from the
//! benchmark's own code (the wall time of each request it sends) and
//! from what the program already exposes: the `"trace": true` phase
//! records of each query, the `ServiceStats` counters, and the
//! sampler's `tm_parallelism` histogram. Nothing is traced inside the
//! program beyond that.

use std::collections::BTreeMap;

use tm_obs::Phase;
use tm_service::wire::Json;
use tm_service::{PropertyKind, QueryResult};

use crate::probe::{Probes, TmKey};

/// Service counters read before and after the traced phase.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub batch_ns: u64,
    pub evictions: u64,
    pub promotes: u64,
    pub demotes: u64,
    pub rebuilds: u64,
    pub store_bytes: u64,
    /// `tm_parallelism` histogram sum and count.
    pub busy_sum: f64,
    pub busy_count: f64,
}

impl Counters {
    /// Reads an in-process service's stats plus a Prometheus text
    /// exposition for the sampler histogram.
    pub fn read(stats: &tm_service::ServiceStats, metrics: &str) -> Counters {
        let (busy_sum, busy_count) = parallelism(metrics);
        Counters {
            batch_ns: stats.batch_ns,
            evictions: stats.evictions,
            promotes: stats.store_promotes,
            demotes: stats.store_demotes,
            rebuilds: stats.artifact_rebuilds,
            store_bytes: stats.store_bytes,
            busy_sum,
            busy_count,
        }
    }

    /// [`Counters::read`] for a daemon: its `/v1/stats` body and its
    /// `/metrics` exposition.
    pub fn from_json(stats: &Json, metrics: &str) -> Counters {
        let field = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let (busy_sum, busy_count) = parallelism(metrics);
        Counters {
            batch_ns: field("batch_ns"),
            evictions: field("evictions"),
            promotes: field("store_promotes"),
            demotes: field("store_demotes"),
            rebuilds: field("artifact_rebuilds"),
            store_bytes: field("store_bytes"),
            busy_sum,
            busy_count,
        }
    }
}

fn parallelism(metrics: &str) -> (f64, f64) {
    let Ok(exposition) = tm_obs::parse_prometheus(metrics) else {
        return (0.0, 0.0);
    };
    let total = |name: &str| exposition.series(name).iter().map(|s| s.value).sum::<f64>();
    (total("tm_parallelism_sum"), total("tm_parallelism_count"))
}

/// Sums over the requests of one phase of the timed window.
#[derive(Default, Debug)]
pub struct LayerTrace {
    pub requests: u64,
    pub queries: u64,
    /// Σ request wall time, as the benchmark's client saw it.
    pub wall_ns: u64,
    pub phase_ns: [u64; Phase::COUNT],
    /// Estimated TM rule stepping inside safety searches.
    pub tm_step_ns: u64,
    pub safety_queries: u64,
    pub safety_states: u64,
    pub live_queries: u64,
    /// Pool dispatches outside any BFS level, run-graph build or SCC
    /// span: the parallel loop search, whose worker-side spans the
    /// per-query record does not hold.
    pub loose_dispatch_ns: u64,
    pub builds: u64,
    pub rebuilds: u64,
    pub hits: u64,
    pub saves: u64,
    pub loads: u64,
    pub untraced: bool,
    pub missing_traces: u64,
}

impl LayerTrace {
    pub fn request(&mut self, wall_ns: u64) {
        self.requests += 1;
        self.wall_ns += wall_ns;
    }

    /// Folds one answered query into the sums. `step_ns` is the probe's
    /// full rule-stepping time per TM: a safety search steps the TM's
    /// rules at most once per reachable TM state, so that time, capped
    /// by the search's own time net of spec interning, estimates the
    /// `tm-algorithms` share of the search.
    pub fn query(&mut self, result: &QueryResult, step_ns: &BTreeMap<TmKey, u64>) {
        self.queries += 1;
        if result.cached {
            self.hits += 1;
        } else {
            self.builds += 1;
        }
        self.rebuilds += u64::from(result.rebuilt);
        if self.untraced {
            return;
        }
        let Some(trace) = &result.trace else {
            self.missing_traces += 1;
            return;
        };
        for phase in Phase::ALL {
            self.phase_ns[phase as usize] += trace.phase_ns[phase as usize];
        }
        let outer: Vec<(u64, u64)> = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.phase,
                    Phase::BfsLevel | Phase::RunGraphBuild | Phase::SccSearch
                )
            })
            .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
            .collect();
        for event in &trace.events {
            match event.phase {
                Phase::StoreSave => self.saves += 1,
                Phase::StoreLoad => self.loads += 1,
                Phase::PoolDispatch => {
                    let end = event.start_ns + event.dur_ns;
                    if !outer.iter().any(|&(s, f)| s <= event.start_ns && end <= f) {
                        self.loose_dispatch_ns += event.dur_ns;
                    }
                }
                _ => {}
            }
        }
        match result.spec.property {
            PropertyKind::Safety(_) => {
                self.safety_queries += 1;
                self.safety_states += result.states as u64;
                let spec = &result.spec;
                let full = step_ns
                    .get(&(spec.tm_name(), spec.threads, spec.vars))
                    .copied()
                    .unwrap_or(0);
                let search = trace.phase_ns[Phase::BfsLevel as usize]
                    .saturating_sub(trace.phase_ns[Phase::SpecIntern as usize]);
                self.tm_step_ns += full.min(search);
            }
            PropertyKind::Liveness(_) => self.live_queries += 1,
        }
    }

    pub fn merge(&mut self, other: &LayerTrace) {
        self.requests += other.requests;
        self.queries += other.queries;
        self.wall_ns += other.wall_ns;
        for (mine, theirs) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *mine += theirs;
        }
        self.tm_step_ns += other.tm_step_ns;
        self.safety_queries += other.safety_queries;
        self.safety_states += other.safety_states;
        self.live_queries += other.live_queries;
        self.loose_dispatch_ns += other.loose_dispatch_ns;
        self.builds += other.builds;
        self.rebuilds += other.rebuilds;
        self.hits += other.hits;
        self.saves += other.saves;
        self.loads += other.loads;
        self.missing_traces += other.missing_traces;
    }

    fn phase(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// The liveness loop search: SCC search, lasso extraction and the
    /// pool dispatches of the parallel search.
    fn live_search_ns(&self) -> u64 {
        self.phase(Phase::SccSearch) + self.phase(Phase::LassoExtract) + self.loose_dispatch_ns
    }
}

/// What the traced run measured: an untraced and a traced phase of the
/// same closed loop, the service counters around the traced phase, the
/// layer probes, and one complete pass of results.
pub struct TracedRun {
    pub untraced: LayerTrace,
    pub traced: LayerTrace,
    pub before: Counters,
    pub after: Counters,
    pub probes: Probes,
    /// Σ product states over one pass (safety queries).
    pub pass_product_states: u64,
}

/// A per-layer self time over the traced phase.
pub struct SelfTime {
    pub layer: &'static str,
    pub ns: u64,
    /// Calls or events behind it (the base of the mean).
    pub count: u64,
}

impl TracedRun {
    fn server_ns(&self) -> u64 {
        self.after.batch_ns.saturating_sub(self.before.batch_ns)
    }

    /// Self time per layer. The engine layers come from the phase
    /// records; `tm-service` is what is left of server-side `submit`
    /// time; the outermost row is the client's time outside `submit`
    /// (HTTP and the wire on `budget-churn`, service set-up and
    /// tear-down on `cold-scale`).
    pub fn self_times(&self) -> Vec<SelfTime> {
        let t = &self.traced;
        let spec = t.phase(Phase::SpecIntern);
        let algorithms = t.tm_step_ns;
        let product = t.phase(Phase::BfsLevel).saturating_sub(spec + algorithms);
        let build = t.phase(Phase::RunGraphBuild);
        let search = t.live_search_ns();
        let store = t.phase(Phase::StoreLoad) + t.phase(Phase::StoreSave);
        let engines = t.phase(Phase::BfsLevel) + build + search + store;
        let server = self.server_ns();
        vec![
            SelfTime {
                layer: "tm-algorithms",
                ns: algorithms,
                count: t.safety_queries,
            },
            SelfTime {
                layer: "tm-spec",
                ns: spec,
                count: t.safety_queries,
            },
            SelfTime {
                layer: "tm-automata.product",
                ns: product,
                count: t.safety_queries,
            },
            SelfTime {
                layer: "tm-automata.livecheck.build",
                ns: build,
                count: t.builds,
            },
            SelfTime {
                layer: "tm-automata.livecheck.search",
                ns: search,
                count: t.live_queries,
            },
            SelfTime {
                layer: "tm-store",
                ns: store,
                count: t.saves + t.loads,
            },
            SelfTime {
                layer: "tm-service",
                ns: server.saturating_sub(engines),
                count: t.requests,
            },
            SelfTime {
                layer: "client",
                ns: t.wall_ns.saturating_sub(server),
                count: t.requests,
            },
        ]
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.traced;
        let p = &self.probes;
        let ms = |ns: u64| ns as f64 / 1e6;
        let per = |total: f64, base: u64| if base == 0 { 0.0 } else { total / base as f64 };
        let selfs = self.self_times();
        let self_ms = |layer: &str| {
            let row = selfs
                .iter()
                .find(|s| s.layer == layer)
                .expect("known layer");
            per(ms(row.ns), t.requests)
        };
        let spec_states = |property| {
            p.spec_states
                .iter()
                .find(|(q, _)| *q == property)
                .map_or(0.0, |(_, n)| *n as f64)
        };
        let search_ns = t.phase(Phase::BfsLevel);
        let live_search = t.live_search_ns();
        let promotes = self.after.promotes.saturating_sub(self.before.promotes);
        let rebuilds = self.after.rebuilds.saturating_sub(self.before.rebuilds);
        let waits = t.phase(Phase::BudgetAdmitWait) + t.phase(Phase::BudgetSettleWait);
        let busy = per(
            self.after.busy_sum - self.before.busy_sum,
            (self.after.busy_count - self.before.busy_count).max(0.0) as u64,
        );
        let traced_mean = per(t.wall_ns as f64, t.requests);
        let untraced_mean = per(self.untraced.wall_ns as f64, self.untraced.requests);
        vec![
            ("tm-algorithms.step_ms", ms(p.step_ns.values().sum()), "ms"),
            (
                "tm-algorithms.tm_states",
                p.tm_states.values().sum::<u64>() as f64,
                "count",
            ),
            ("tm-algorithms.self_ms", self_ms("tm-algorithms"), "ms"),
            ("tm-spec.build_ms", ms(p.spec_build_ns), "ms"),
            (
                "tm-spec.ss_states",
                spec_states(tm_lang::SafetyProperty::StrictSerializability),
                "count",
            ),
            (
                "tm-spec.op_states",
                spec_states(tm_lang::SafetyProperty::Opacity),
                "count",
            ),
            ("tm-spec.self_ms", self_ms("tm-spec"), "ms"),
            (
                "tm-automata.product.search_ms",
                per(ms(search_ns), t.safety_queries),
                "ms",
            ),
            (
                "tm-automata.product.product_states",
                self.pass_product_states as f64,
                "count",
            ),
            (
                "tm-automata.product.states_per_s",
                per(t.safety_states as f64 * 1e9, search_ns),
                "1/s",
            ),
            (
                "tm-automata.product.self_ms",
                self_ms("tm-automata.product"),
                "ms",
            ),
            ("tm-automata.livecheck.build_ms", ms(p.graph_build_ns), "ms"),
            (
                "tm-automata.livecheck.run_states",
                p.run_states as f64,
                "count",
            ),
            ("tm-automata.livecheck.edges", p.edges as f64, "count"),
            (
                "tm-automata.livecheck.graph_bytes",
                p.graph_bytes as f64,
                "B",
            ),
            (
                "tm-automata.livecheck.search_ms",
                per(ms(live_search), t.live_queries),
                "ms",
            ),
            (
                "tm-automata.livecheck.self_ms",
                self_ms("tm-automata.livecheck.build") + self_ms("tm-automata.livecheck.search"),
                "ms",
            ),
            ("tm-automata.pool.busy_workers", busy, "count"),
            (
                "core.build_ms",
                per(ms(t.phase(Phase::RunGraphBuild)), t.queries),
                "ms",
            ),
            (
                "core.search_ms",
                per(ms(search_ns + live_search), t.queries),
                "ms",
            ),
            ("core.builds", t.builds as f64, "count"),
            ("core.rebuilds", t.rebuilds as f64, "count"),
            (
                "core.cache_hit_ratio",
                per(t.hits as f64, t.queries),
                "ratio",
            ),
            (
                "tm-store.save_ms",
                per(ms(t.phase(Phase::StoreSave)), t.saves),
                "ms",
            ),
            (
                "tm-store.load_ms",
                per(ms(t.phase(Phase::StoreLoad)), t.loads),
                "ms",
            ),
            ("tm-store.bytes", self.after.store_bytes as f64, "B"),
            ("tm-store.promotes", promotes as f64, "count"),
            (
                "tm-store.demotes",
                self.after.demotes.saturating_sub(self.before.demotes) as f64,
                "count",
            ),
            (
                "tm-store.promote_ratio",
                per(promotes as f64, promotes + rebuilds),
                "ratio",
            ),
            ("tm-store.self_ms", self_ms("tm-store"), "ms"),
            ("tm-service.overhead_ms", self_ms("tm-service"), "ms"),
            (
                "tm-service.evictions",
                self.after.evictions.saturating_sub(self.before.evictions) as f64,
                "count",
            ),
            (
                "tm-service.session_lock_wait_ms",
                per(ms(t.phase(Phase::SessionLockWait)), t.requests),
                "ms",
            ),
            (
                "tm-service.admission_wait_ms",
                per(ms(waits), t.requests),
                "ms",
            ),
            ("tm-service.wire.encode_us", p.encode_ns / 1e3, "us"),
            ("tm-service.wire.decode_us", p.decode_ns / 1e3, "us"),
            ("tm-service.http.overhead_ms", self_ms("client"), "ms"),
            ("tm-lang.replay_us", p.replay_ns / 1e3, "us"),
            (
                "tm-obs.overhead_ratio",
                if untraced_mean > 0.0 {
                    traced_mean / untraced_mean - 1.0
                } else {
                    0.0
                },
                "ratio",
            ),
            ("trace.request_ms", per(ms(t.wall_ns), t.requests), "ms"),
            ("trace.engine_share", self.engine_share(), "ratio"),
        ]
    }

    /// Share of the traced request time that the engine and store
    /// layers below `tm-service` account for.
    pub fn engine_share(&self) -> f64 {
        let below: u64 = self
            .self_times()
            .iter()
            .filter(|s| !matches!(s.layer, "tm-service" | "client"))
            .map(|s| s.ns)
            .sum();
        if self.traced.wall_ns == 0 {
            0.0
        } else {
            below as f64 / self.traced.wall_ns as f64
        }
    }

    /// The self-time table, with each share's base.
    pub fn report(&self) -> Json {
        let wall = self.traced.wall_ns.max(1) as f64;
        let rows = self
            .self_times()
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("layer".to_owned(), Json::Str(s.layer.to_owned())),
                    ("self_ms".to_owned(), Json::Num(s.ns as f64 / 1e6)),
                    ("share".to_owned(), Json::Num(s.ns as f64 / wall)),
                    ("count".to_owned(), Json::Num(s.count as f64)),
                ])
            })
            .collect();
        let t = &self.traced;
        let phases = Phase::ALL
            .into_iter()
            .map(|phase| {
                (
                    phase.name().to_owned(),
                    Json::Num(t.phase(phase) as f64 / 1e6),
                )
            })
            .collect();
        Json::Obj(vec![
            ("layers".to_owned(), Json::Arr(rows)),
            ("phase_ms".to_owned(), Json::Obj(phases)),
            (
                "server_submit_ms".to_owned(),
                Json::Num(self.server_ns() as f64 / 1e6),
            ),
            ("traced_requests".to_owned(), Json::Num(t.requests as f64)),
            ("traced_queries".to_owned(), Json::Num(t.queries as f64)),
            (
                "traced_request_ms_total".to_owned(),
                Json::Num(t.wall_ns as f64 / 1e6),
            ),
            (
                "untraced_requests".to_owned(),
                Json::Num(self.untraced.requests as f64),
            ),
            (
                "missing_traces".to_owned(),
                Json::Num(t.missing_traces as f64),
            ),
            (
                "sampler_samples".to_owned(),
                Json::Num(self.after.busy_count - self.before.busy_count),
            ),
            (
                "cache_hit_base_queries".to_owned(),
                Json::Num(t.queries as f64),
            ),
        ])
    }
}
