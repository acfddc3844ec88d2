"""The section 7.2.2 experiment harness.

Clients issue trace queries; the spine-switch L4 load balancer maps each
query (a new L4 flow) to a database server; servers process at a speed set
by their current background load; the response returns to the client.  The
network is kept lightly loaded ("so the response time is ... only
[affected] by processing at the servers"), modelled as a constant
client-server round trip.

Server probes refresh the load balancer's resource table every
``probe_period_s``, so Policy 2 acts on slightly stale resource data —
as it would with real probe packets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import ConfigurationError
from repro.graphdb.server import GraphDBServer
from repro.netsim.sim import Simulator
from repro.policies.l4lb import L4LoadBalancer
from repro.workloads.traces import Query, ResourceConsumptionTrace

__all__ = ["QueryResult", "FailoverEvent", "GraphDBCluster"]

#: Probes a server may leave unanswered in a row before it is evicted.
_PROBE_ATTEMPTS = 3
#: Backoff before retry ``i`` (0-based) is ``_FIRST_BACKOFF * 2**i`` probe
#: periods, capped at one period, so retries stay inside about one period
#: and a dead server is evicted within ~one period rather than stretching it.
_FIRST_BACKOFF = 1 / 8


@dataclass(frozen=True)
class FailoverEvent:
    """One control-plane recovery action, for the chaos harness's audit.

    ``kind`` is ``"retry_exhausted"`` (with ``detail`` = probes sent),
    ``"evicted"``, ``"drained"`` (with ``detail`` = queries redistributed)
    or ``"readmitted"``.
    """

    time: float
    server: int
    kind: str
    detail: int = 0


@dataclass(frozen=True)
class QueryResult:
    """One query's fate: which server served it and how long it took."""

    query: Query
    server: int
    response_time: float
    served_from_cache: bool = False


class GraphDBCluster:
    """Servers + load balancer + probe loop, driven by a query trace.

    The probe loop doubles as the failure detector: a probe that goes
    unanswered is retried with exponential backoff (the schedule is
    ``_PROBE_ATTEMPTS`` and ``_FIRST_BACKOFF``); once the budget is spent
    the server is **evicted** — its resource row leaves the table, its
    connection-affinity entries are dropped, and its parked queries are
    drained and redistributed to the survivors.  A later answered probe
    readmits the server.  Every action is logged in :attr:`failover_log`
    and counted through ``repro.obs``.
    """

    def __init__(
        self,
        sim: Simulator,
        n_servers: int,
        which_policy: int,
        trace: ResourceConsumptionTrace,
        *,
        probe_period_s: float = 10e-3,
        network_rtt_s: float = 200e-6,
        cpu_limit: int = 65,
        lfsr_seed: int = 1,
    ):
        if n_servers < 1:
            raise ConfigurationError("need at least one server")
        self._sim = sim
        self._trace = trace
        self._probe_period = probe_period_s
        self._rtt = network_rtt_s
        self.balancer = L4LoadBalancer(
            n_servers, which_policy, cpu_limit=cpu_limit, lfsr_seed=lfsr_seed
        )
        self.servers = [GraphDBServer(sim, i, trace) for i in range(n_servers)]
        self.results: list[QueryResult] = []
        self._down: set[int] = set()
        self.failover_log: list[FailoverEvent] = []
        self.probe_timeouts = 0
        registry = obs.get_registry()
        self._obs_timeouts = registry.counter(
            "graphdb_probe_timeouts_total",
            help="probes that went unanswered (crash or injected loss)",
        )
        self._obs_evictions = registry.counter(
            "graphdb_server_evictions_total",
            help="servers evicted after probe retries exhausted",
        )
        self._obs_redispatched = registry.counter(
            "graphdb_queries_redispatched_total",
            help="queries drained off a dead server and redistributed",
        )
        self._probe_all()

    @property
    def down_servers(self) -> frozenset[int]:
        """Servers currently evicted from the balanced set."""
        return frozenset(self._down)

    def _probe_all(self) -> None:
        for server in self.servers:
            if server.server_id in self._down:
                # One readmission probe per period, no retry budget: the
                # server is already out of rotation, so silence costs
                # nothing and an answer brings it back.
                self._readmission_probe(server)
            else:
                self._probe_one(server, 0)
        self._sim.schedule(self._probe_period, self._probe_all)

    def _readmission_probe(self, server: GraphDBServer) -> None:
        metrics = server.probe(self._sim.now)
        if metrics is None:
            return
        self._down.discard(server.server_id)
        self.balancer.on_probe(server.server_id, metrics)
        self.failover_log.append(
            FailoverEvent(self._sim.now, server.server_id, "readmitted")
        )

    def _probe_one(self, server: GraphDBServer, attempt: int) -> None:
        metrics = server.probe(self._sim.now)
        if metrics is not None:
            self.balancer.on_probe(server.server_id, metrics)
            return
        self.probe_timeouts += 1
        self._obs_timeouts.inc()
        if attempt + 1 < _PROBE_ATTEMPTS:
            self._sim.schedule(
                self._probe_period * min(_FIRST_BACKOFF * 2 ** attempt, 1),
                lambda: self._probe_one(server, attempt + 1),
            )
            return
        self.failover_log.append(
            FailoverEvent(self._sim.now, server.server_id, "retry_exhausted",
                          _PROBE_ATTEMPTS)
        )
        self._evict(server)

    def _evict(self, server: GraphDBServer) -> None:
        sid = server.server_id
        self._down.add(sid)
        self.balancer.evict_server(sid)
        self._obs_evictions.inc()
        self.failover_log.append(FailoverEvent(self._sim.now, sid, "evicted"))
        drained = server.take_pending()
        if drained:
            self._obs_redispatched.inc(len(drained))
            self.failover_log.append(
                FailoverEvent(self._sim.now, sid, "drained", len(drained))
            )
        for query, _abandoned_done in drained:
            # The old completion callback died with the server; re-dispatch
            # builds a fresh one, and the flow remaps (its affinity entry
            # was dropped at eviction).
            self.balancer.release(query.query_id)
            self._dispatch(query)

    def submit_trace(self, queries: list[Query]) -> None:
        """Schedule every query at its arrival time."""
        for query in queries:
            self._sim.at(query.arrival_time, lambda q=query: self._dispatch(q))

    def _dispatch(self, query: Query) -> None:
        server_id = self.balancer.assign(query.query_id)
        arrived = self._sim.now

        def done(q: Query) -> None:
            self.results.append(
                QueryResult(
                    query=q,
                    server=server_id,
                    response_time=self._sim.now - arrived + self._rtt,
                )
            )
            self.balancer.release(q.query_id)

        # Half the RTT to reach the server, then queue + service there.
        # Queries that land on a server that crashes before eviction are
        # recovered by the drain: the dead queue is drained at eviction and
        # every parked query re-enters _dispatch.
        self._sim.schedule(
            self._rtt / 2,
            lambda: self._deliver(query, server_id, done),
        )

    def _deliver(self, query: Query, server_id: int, done) -> None:
        if server_id in self._down:
            # The server was evicted while this query was on the wire: the
            # drain has already run, so parking it would strand it forever.
            # Bounce it back through dispatch onto a survivor.
            self.balancer.release(query.query_id)
            self._obs_redispatched.inc()
            self._dispatch(query)
            return
        self.servers[server_id].submit(query, done)

    def response_times(self) -> list[float]:
        return [r.response_time for r in self.results]
