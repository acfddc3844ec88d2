"""Shared test fixtures: one seed knob for every randomized suite.

Every randomized test draws from the ``rng`` fixture, which derives a
per-test stream from a single base seed so

* runs are reproducible by default (fixed base seed),
* the whole suite can be re-randomized with ``pytest --seed N``,
* two tests never share a stream (the test's node id is mixed in), and
* a failing test prints the exact seed needed to replay it.

Hypothesis tests honor the same knob: every ``@given`` test is wrapped in
``hypothesis.seed()`` with a seed derived from ``--seed`` and the test's
node id, so the replay command printed on failure reproduces property
failures too — not just ``rng``-fixture ones.  Passing ``--seed``
explicitly also switches to the ``repro-seeded`` settings profile
(example database off, blob printing on), making such a run a pure
function of the seed rather than of leftover database state.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

import pytest

from repro import obs

try:  # hypothesis ships in the dev environment / CI, but stay importable
    import hypothesis
    from hypothesis import settings
except ImportError:  # pragma: no cover - exercised only without hypothesis
    hypothesis = None
    settings = None

#: Default base seed: fixed so plain ``pytest`` runs are reproducible.
DEFAULT_SEED = 0xC0FFEE

if settings is not None:
    # One shared profile: no deadline (shared CI runners jitter enough to
    # trip per-example deadlines on code that is not actually slow).
    settings.register_profile("repro", deadline=None)
    # The replay profile an explicit --seed selects: identical except the
    # example database is disabled (a --seed run must depend on nothing
    # but the seed) and the reproduction blob is printed on failure.
    settings.register_profile(
        "repro-seeded", deadline=None, database=None, print_blob=True
    )
    settings.load_profile("repro")


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--seed",
        type=int,
        default=None,
        help=f"base seed for the rng fixture and hypothesis tests "
             f"(default: {DEFAULT_SEED}); each test derives its own "
             "stream from seed + test id",
    )


def _base_seed(config: pytest.Config) -> int:
    opt = config.getoption("--seed")
    return DEFAULT_SEED if opt is None else opt


def pytest_configure(config: pytest.Config) -> None:
    if settings is not None and config.getoption("--seed") is not None:
        settings.load_profile("repro-seeded")


def _derived_seed(base: int, nodeid: str) -> int:
    digest = hashlib.sha256(f"{base}:{nodeid}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    """Pin every hypothesis test's randomness to the ``--seed`` knob."""
    if hypothesis is None:
        return
    base = _base_seed(config)
    for item in items:
        fn = getattr(item, "obj", None)
        if fn is None or not getattr(fn, "is_hypothesis_test", False):
            continue
        # ``seed()`` works by setting attributes on the test function, so
        # unwrap bound methods (class-based tests) to the raw function.
        hypothesis.seed(_derived_seed(base, item.nodeid))(
            getattr(fn, "__func__", fn)
        )
        item._rng_base_seed = base  # type: ignore[attr-defined]


@pytest.fixture
def rng(request: pytest.FixtureRequest) -> random.Random:
    """A per-test deterministic RNG derived from the ``--seed`` option."""
    base = _base_seed(request.config)
    request.node._rng_base_seed = base
    return random.Random(f"{base}:{request.node.nodeid}")


@pytest.fixture
def registry() -> "Iterator[obs.MetricsRegistry]":
    """A live metrics registry for the test's duration.  Modules built
    inside the test publish into it, so a counter is read the way an
    operator reads it: ``registry.value_of("filter_memo_hits_total")``
    (summed over label sets, or one series with ``labels=``)."""
    with obs.use_registry(obs.MetricsRegistry()) as installed:
        yield installed


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item: pytest.Item, call: pytest.CallInfo):
    """On failure, attach the base seed so the run can be replayed."""
    outcome = yield
    report = outcome.get_result()
    base = getattr(item, "_rng_base_seed", None)
    if base is not None and report.when == "call" and report.failed:
        report.sections.append(
            ("rng seed", f"replay this test with: pytest --seed {base} "
                         f"{item.nodeid!r}")
        )
