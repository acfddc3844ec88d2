"""In-network caching of graph filter queries (section 7.2.5).

"Based on the (offline) analysis of the captured trace of queries, at each
leaf switch, we cache the most popular nodes (courses) in the SMBM data
structure, and implement the most popular filter queries using Thanos's
filter pipeline."

The cache stores the most popular courses as SMBM resources whose metric
dimensions are the course attributes (number, term, level, units) plus the
course's prerequisite/dependent adjacency (as compact bit masks over the
cached set).  Point queries on cached nodes are answered from the SMBM;
multi-attribute *filter queries* are answered by a Thanos predicate chain
over the cached table, each served by its own
:class:`~repro.switch.filter_module.FilterModule` loaded with the cached
rows (so it gets the memo and the kernel) — all at the switch, saving the
server round trip and processing delay.
"""

from __future__ import annotations

from repro import obs
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, intersection, predicate
from repro.core.smbm import SMBM
from repro.errors import CapacityError, ConfigurationError
from repro.graphdb.graph import CourseGraph
from repro.switch.filter_module import FilterModule
from repro.workloads.traces import Query

__all__ = ["InNetworkCache"]

ATTR_METRICS = ("number", "term", "level", "units")


class InNetworkCache:
    """A leaf-switch SMBM cache of popular courses and filter queries."""

    def __init__(self, graph: CourseGraph, cached_nodes: list[int],
                 *, capacity: int | None = None):
        if not cached_nodes:
            raise ConfigurationError("cache needs at least one node")
        capacity = capacity if capacity is not None else len(cached_nodes)
        if len(cached_nodes) > capacity:
            raise CapacityError(
                f"{len(cached_nodes)} nodes exceed cache capacity {capacity}"
            )
        self._graph = graph
        # Slot assignment: cached course -> SMBM resource id.
        self._slot_of: dict[int, int] = {}
        self._course_of: dict[int, int] = {}
        self._smbm = SMBM(max(capacity, 2), ATTR_METRICS)
        for slot, course_id in enumerate(cached_nodes):
            attrs = graph.query_attributes(course_id)
            self._smbm.add(slot, attrs)
            self._slot_of[course_id] = slot
            self._course_of[slot] = course_id
        # Adjacency among cached nodes, for prerequisite/dependent answers.
        cached = set(cached_nodes)
        self._prereqs = {
            cid: graph.query_prerequisites(cid) for cid in cached_nodes
        }
        self._dependents = {
            cid: graph.query_dependents(cid) for cid in cached_nodes
        }
        # A prerequisite answer is only complete if every prerequisite is
        # itself cached (same for dependents); otherwise it is a miss.
        self._complete_prereqs = {
            cid for cid in cached_nodes if self._prereqs[cid] <= cached
        }
        self._complete_dependents = {
            cid for cid in cached_nodes if self._dependents[cid] <= cached
        }
        self._filters: dict[str, tuple] = {}
        self.hits = 0
        self.misses = 0
        # Observability: hit/miss ints above are the source of truth; a
        # weakly-held collect hook derives the registry series from them.
        if obs.get_registry().enabled:
            obs.get_registry().add_hook(self._obs_collect)

    def _obs_collect(self):
        """Collect hook: cache effectiveness counters and hit rate."""
        yield obs.Sample("graphdb_cache_hits_total", self.hits,
                         help="queries answered at the leaf-switch cache")
        yield obs.Sample("graphdb_cache_misses_total", self.misses,
                         help="queries forwarded to the servers")
        total = self.hits + self.misses
        yield obs.Sample("graphdb_cache_hit_rate",
                         self.hits / total if total else 0.0, kind="gauge",
                         help="hits / (hits + misses)")

    @property
    def smbm(self) -> SMBM:
        return self._smbm

    def contains(self, course_id: int) -> bool:
        return course_id in self._slot_of

    # -- point queries ------------------------------------------------------------------

    def serve(self, query: Query) -> dict | set | None:
        """Answer a trace query from the cache, or None on a miss."""
        cid = query.node_id
        if query.kind == "attributes" and cid in self._slot_of:
            self.hits += 1
            return self._smbm.metrics_of(self._slot_of[cid])
        if query.kind == "prerequisites" and cid in self._complete_prereqs:
            self.hits += 1
            return set(self._prereqs[cid])
        if query.kind == "dependents" and cid in self._complete_dependents:
            self.hits += 1
            return set(self._dependents[cid])
        self.misses += 1
        return None

    # -- filter queries ----------------------------------------------------------------

    def install_filter(
        self, name: str, *conditions: tuple[str, str, int],
        params: PipelineParams | None = None,
    ) -> None:
        """Program a popular multi-attribute filter query onto a filter
        module holding the cached rows, e.g.
        ``install_filter("intro-fall", ("level", "<", 3), ("term", "==", 1))``."""
        if not conditions:
            raise ConfigurationError("a filter query needs at least one condition")
        table = TableRef()
        node = predicate(table, *conditions[0])
        for attr, rel, val in conditions[1:]:
            node = intersection(node, predicate(TableRef(), attr, rel, val))
        module = FilterModule(
            self._smbm.capacity, ATTR_METRICS,
            Policy(node, name=f"cache-filter-{name}"),
            params or PipelineParams(n=8, k=4, f=2, chain_length=2),
        )
        for slot in self._course_of:
            module.update_resource(slot, self._smbm.metrics_of(slot))
        self._filters[name] = (module, conditions)

    def run_filter(self, name: str) -> set[int]:
        """Answer an installed filter query: matching course ids."""
        if name not in self._filters:
            raise ConfigurationError(f"no filter query {name!r} installed")
        module, _conditions = self._filters[name]
        with obs.get_tracer().span("cache_filter_query") as span:
            out = module.evaluate()
            span.add_cycles(module.latency_cycles)
        self.hits += 1
        return {self._course_of[slot] for slot in out.indices()}

    def reference_filter(self, name: str) -> set[int]:
        """The same filter evaluated by the reference graph code, restricted
        to cached nodes (for differential testing)."""
        if name not in self._filters:
            raise ConfigurationError(f"no filter query {name!r} installed")
        _module, conditions = self._filters[name]
        bounds = {attr: (rel, val) for attr, rel, val in conditions}
        return self._graph.filter_courses(**bounds) & set(self._slot_of)
