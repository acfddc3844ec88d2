"""The pipeline's resource limits are stated once and read alike.

:func:`~repro.core.pipeline.config_faults` is the one statement of the
stage-count, Cell-count, wiring-range (TH006) and fan-out (TH005) limits:
the pipeline model raises the first fault, the verifier reports them all.
Over random hand-made configurations — wrong stage or Cell counts, ports
and source lines out of range, a line feeding f+1 ports — the two must
agree on whether a configuration is refused and on why.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PlanVerifier
from repro.core.cell import CellConfig
from repro.core.pipeline import (
    FilterPipeline,
    PipelineConfig,
    PipelineParams,
    StageConfig,
)
from repro.errors import ConfigurationError, RoutingError


@st.composite
def params_and_configs(draw):
    params = PipelineParams(n=draw(st.sampled_from((2, 4, 6))),
                            k=draw(st.integers(1, 3)),
                            f=draw(st.integers(1, 2)), chain_length=1)
    n, cells = params.n, params.cells_per_stage
    stages = []
    for _ in range(draw(st.integers(max(0, params.k - 1), params.k + 1))):
        # Mostly the right Cell count; ports and lines one past each end.
        count = draw(st.sampled_from((cells, cells, cells, cells - 1,
                                      cells + 1)))
        wiring = draw(st.dictionaries(
            st.integers(-1, n), st.integers(-1, n), max_size=n + 1))
        stages.append(StageConfig(wiring=wiring,
                                  cells=[CellConfig() for _ in range(count)]))
    return params, PipelineConfig(stages=stages)


@given(params_and_configs())
@settings(max_examples=200)
def test_pipeline_refuses_exactly_what_the_verifier_reports(case):
    params, config = case
    errors = PlanVerifier(params).verify_config(config).errors
    try:
        FilterPipeline(params, config)
    except (ConfigurationError, RoutingError) as exc:
        assert errors, f"refused a config the verifier passes: {exc}"
        first = errors[0]
        assert str(exc) == first.message
        assert type(exc) is (RoutingError if first.rule == "TH005"
                             else ConfigurationError)
    else:
        assert not errors, f"built a config the verifier refuses: {errors}"
