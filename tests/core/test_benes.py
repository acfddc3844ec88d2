"""Tests for crossbars and Benes networks (section 5.3.2)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.benes import BenesNetwork, Crossbar
from repro.errors import ConfigurationError, RoutingError


class TestCrossbar:
    def test_apply_routes_signals(self):
        xbar = Crossbar(4, 4, 2, {0: 2, 1: 2, 3: 0})
        out = xbar.apply(["a", "b", "c", "d"], idle=None)
        assert out == ["c", "c", None, "a"]

    def test_fanout_enforced(self):
        with pytest.raises(RoutingError):
            Crossbar(4, 4, 2, {0: 1, 1: 1, 2: 1})

    def test_fanout_boundary_allowed(self):
        Crossbar(4, 4, 2, {0: 1, 1: 1})

    def test_bad_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            Crossbar(4, 4, 2, {4: 0})
        with pytest.raises(ConfigurationError):
            Crossbar(4, 4, 2, {0: 4})

    def test_input_count_validated(self):
        xbar = Crossbar(4, 4, 2, {})
        with pytest.raises(ConfigurationError):
            xbar.apply(["a"], idle=None)


class TestBenesStructure:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BenesNetwork(6)
        with pytest.raises(ConfigurationError):
            BenesNetwork(1)

    @pytest.mark.parametrize("size,depth", [(2, 1), (4, 3), (8, 5), (16, 7)])
    def test_depth(self, size, depth):
        assert BenesNetwork(size).depth == depth

    @pytest.mark.parametrize("size,count", [(2, 1), (4, 6), (8, 20), (16, 56)])
    def test_switch_count(self, size, count):
        assert BenesNetwork(size).switch_count() == count

    def test_config_switch_count_matches_network(self):
        net = BenesNetwork(8)
        config = net.route(list(range(8)))
        assert config.switch_count() == net.switch_count()


class TestBenesRouting:
    @pytest.mark.parametrize("size", [2, 4, 8, 16])
    def test_identity_permutation(self, size):
        net = BenesNetwork(size)
        config = net.route(list(range(size)))
        assert net.apply(list(range(size)), config) == list(range(size))

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_reversal_permutation(self, size):
        net = BenesNetwork(size)
        perm = list(reversed(range(size)))
        config = net.route(perm)
        out = net.apply(list(range(size)), config)
        assert [out[perm[i]] for i in range(size)] == list(range(size))

    def test_non_permutation_rejected(self):
        with pytest.raises(RoutingError):
            BenesNetwork(4).route([0, 0, 1, 2])

    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_all_or_many_permutations_route(self, size):
        """The non-blocking property: every permutation is realisable."""
        net = BenesNetwork(size)
        rng = random.Random(42)
        if size == 4:
            import itertools

            perms = [list(p) for p in itertools.permutations(range(4))]
        else:
            perms = []
            for _ in range(60):
                p = list(range(size))
                rng.shuffle(p)
                perms.append(p)
        for perm in perms:
            config = net.route(perm)
            out = net.apply(list(range(size)), config)
            # Signal i must arrive at output perm[i].
            assert all(out[perm[i]] == i for i in range(size)), perm

    @given(st.permutations(list(range(16))))
    @settings(max_examples=40)
    def test_property_routes_any_permutation(self, perm):
        net = BenesNetwork(16)
        out = net.apply(list(range(16)), net.route(list(perm)))
        assert all(out[perm[i]] == i for i in range(16))


class TestCrossbarOnBenes:
    """A functional crossbar wiring (with fan-out) is realisable on a Benes
    network with replicated inputs — the hardware claim of section 5.3.2."""

    def test_for_crossbar_sizing(self):
        assert BenesNetwork.for_crossbar(4, 2).size == 8
        assert BenesNetwork.for_crossbar(8, 2).size == 16
        assert BenesNetwork.for_crossbar(3, 2).size == 8  # padded up

    def test_fanout_wiring_realised(self):
        xbar = Crossbar(4, 4, 2, {0: 2, 1: 2, 2: 0, 3: 1})
        net = BenesNetwork.for_crossbar(4, 2)
        config, plan = net.route_crossbar(xbar)
        signals = [f"line{line}" if line is not None else None for line in plan]
        out = net.apply(signals, config)
        expected = xbar.apply([f"line{i}" for i in range(4)], idle=None)
        for port in xbar.wiring:
            assert out[port] == expected[port]

    @given(st.data())
    @settings(max_examples=60)
    def test_property_any_legal_wiring_realised(self, data):
        # At the for_crossbar(n, f) size, for n in {2, 4, 8} and f in
        # {1, 2, 3}: every wiring in range and within fan-out f routes,
        # which is why no compile routes a network (TH007 is retired).
        for n, f in itertools.product((2, 4, 8), (1, 2, 3)):
            wiring = data.draw(st.dictionaries(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1), max_size=n,
            ), label=f"wiring n={n} f={f}")
            # Keep only wirings that respect fan-out f.
            uses: dict[int, int] = {}
            legal = {}
            for port, line in wiring.items():
                if uses.get(line, 0) < f:
                    legal[port] = line
                    uses[line] = uses.get(line, 0) + 1
            xbar = Crossbar(n, n, f, legal)
            net = BenesNetwork.for_crossbar(n, f)
            config, plan = net.route_crossbar(xbar)
            out = net.apply(plan, config)
            expected = xbar.apply(list(range(n)), idle=None)
            # Unwired outputs carry don't-care signals in hardware; only
            # the wired ports are part of the contract.
            for port in legal:
                assert out[port] == expected[port]
