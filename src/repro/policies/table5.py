"""The Table 5 example policies.

Table 5 of the paper shows how five evaluation policies map onto Thanos
filter chains.  This module builds each as a policy AST (DRILL's carries
its feedback binding) so the Table 5 bench can compile all of them onto the
default pipeline and verify their semantics.

| Key                  | Paper policy                                  |
|----------------------|-----------------------------------------------|
| ``ecmp-random``      | Policy 1 in 7.2.3 — K=1 random (ECMP)         |
| ``conga-min-util``   | Policy 2 in 7.2.3 — K=1 min(util) (CONGA)     |
| ``l4lb-resource``    | Policy 2 in 7.2.2 — predicate intersection -> random, MUX fallback |
| ``routing-top-x``    | Policy 3 in 7.2.3 — triple top-X intersection -> min(util), MUX fallback |
| ``drill``            | Policy 3 in 7.2.4 — DRILL(d, m)               |
"""

from __future__ import annotations

from repro.core.policy import Policy
from repro.errors import ConfigurationError
from repro.policies.l4lb import l4lb_policy_ast
from repro.policies.portlb import drill_policy_ast
from repro.policies.routing import routing_policy_ast

__all__ = ["TABLE5_POLICIES", "build_table5_policy"]

TABLE5_POLICIES = (
    "ecmp-random",
    "conga-min-util",
    "l4lb-resource",
    "routing-top-x",
    "drill",
)


def build_table5_policy(
    key: str, *, top_x: int = 3, d: int = 2, m: int = 1
) -> Policy:
    """Build one Table 5 policy."""
    if key == "ecmp-random":
        return routing_policy_ast("policy1")
    if key == "conga-min-util":
        return routing_policy_ast("policy2")
    if key == "l4lb-resource":
        return l4lb_policy_ast(2)
    if key == "routing-top-x":
        return routing_policy_ast("policy3", top_x=top_x)
    if key == "drill":
        return drill_policy_ast(d, m)
    raise ConfigurationError(
        f"unknown Table 5 policy {key!r}; known: {TABLE5_POLICIES}"
    )
