"""Analytical area and clock model (section 6, Tables 1-4).

The paper reports ASIC synthesis results (Synopsys DC, open 15 nm process)
for every hardware block.  We cannot run synthesis here, so this module is a
**component-derived cost model calibrated against the paper's published
numbers**:

* **SMBM** (Table 1) — N*(m+1) flip-flop entries; shift/mux wiring grows the
  per-entry cost, giving area ~ (m+1) * N^1.25.  Clock falls with the
  parallel search depth, ~ 1 / log2(N).
* **BFPU** (Table 2) — pure bitwise logic over N-bit vectors: area exactly
  linear in N, clock flat (40 GHz in the paper — far above any system clock).
* **UFPU** (Table 2) — N-entry temp list + priority encoder: area ~ N^1.2;
  clock limited by the N-wide priority-encoder reduction tree.
* **Cell** (Table 3) — two K-UFPUs dominate: area linear in K; clock equals
  the UFPU clock at the default N (the paper's 2.1 GHz).
* **Filter pipeline** (Table 4) — (n/2 * k) Cells plus k Benes crossbars of
  size n*f; Cells account for >90% of the area; the clock is the Cell clock,
  independent of n and k.

Exponents and coefficients were fit to the published tables; the benches
print paper-vs-model side by side, and the tests assert agreement within a
modelling tolerance on every published cell plus the derived claims (Cell
dominance, clock independence, sub-percent chip overhead).
"""

from __future__ import annotations

import math

from repro.core.benes import BenesNetwork
from repro.errors import ConfigurationError

__all__ = [
    "smbm_area_mm2",
    "smbm_clock_ghz",
    "bfpu_area_mm2",
    "bfpu_clock_ghz",
    "ufpu_area_mm2",
    "ufpu_clock_ghz",
    "cell_area_mm2",
    "cell_clock_ghz",
    "pipeline_area_mm2",
    "pipeline_clock_ghz",
    "pipeline_area_breakdown",
    "chip_overhead_percent",
    "PAPER_TABLE1",
    "PAPER_TABLE2_BFPU",
    "PAPER_TABLE2_UFPU",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "SWITCH_CHIP_AREA_MM2_RANGE",
    "TARGET_CLOCK_GHZ",
]

#: State-of-the-art switching chips occupy 300-700 mm^2 (section 6).
SWITCH_CHIP_AREA_MM2_RANGE = (300.0, 700.0)
#: Clock of state-of-the-art multi-terabit switches (section 6).
TARGET_CLOCK_GHZ = 1.0

# -- published numbers (the calibration targets) ---------------------------------

#: Table 1: {(m, N): (area_mm2, clock_ghz)}.
PAPER_TABLE1: dict[tuple[int, int], tuple[float, float]] = {
    (2, 64): (0.012, 4.4), (2, 128): (0.029, 4.0),
    (2, 256): (0.071, 3.6), (2, 512): (0.186, 2.9),
    (4, 64): (0.020, 4.3), (4, 128): (0.046, 4.2),
    (4, 256): (0.109, 3.6), (4, 512): (0.267, 2.5),
    (8, 64): (0.036, 4.9), (8, 128): (0.080, 3.7),
    (8, 256): (0.183, 3.6), (8, 512): (0.425, 2.5),
}

#: Table 2 (BFPU row): {N: (area_mm2, clock_ghz)}.
PAPER_TABLE2_BFPU: dict[int, tuple[float, float]] = {
    64: (216e-6, 40.0), 128: (431e-6, 40.0),
    256: (852e-6, 40.0), 512: (0.002, 40.0),
}

#: Table 2 (UFPU row): {N: (area_mm2, clock_ghz)}.
PAPER_TABLE2_UFPU: dict[int, tuple[float, float]] = {
    64: (0.001, 3.8), 128: (0.002, 2.2),
    256: (0.005, 1.9), 512: (0.012, 1.8),
}

#: Table 3: {K: (area_mm2, clock_ghz)} at the default N=128.
PAPER_TABLE3: dict[int, tuple[float, float]] = {
    2: (0.016, 2.1), 4: (0.032, 2.1), 8: (0.063, 2.1), 16: (0.126, 2.1),
}

#: Table 4: {(n, k): (area_mm2, clock_ghz)} at defaults K=4, f=2, N=128.
PAPER_TABLE4: dict[tuple[int, int], tuple[float, float]] = {
    (2, 2): (0.067, 2.1), (2, 4): (0.131, 2.1), (2, 8): (0.261, 2.1),
    (4, 2): (0.135, 2.1), (4, 4): (0.270, 2.1), (4, 8): (0.545, 2.1),
    (8, 2): (0.281, 2.1), (8, 4): (0.562, 2.1), (8, 8): (1.125, 2.1),
}

# -- calibration constants ---------------------------------------------------------

# SMBM: per-dimension entry cost, area ~ (m+1) * N^1.25 (flip-flop bits plus
# shift/compare wiring growing slowly with N).
_SMBM_AREA_COEFF = 0.020 / (5 * 64 ** 1.25)  # anchored at (m=4, N=64)
# SMBM clock: per-N periods (ns) averaged across m (the per-m spread in
# Table 1 is synthesis noise; the limiting path does not depend on m).
_SMBM_PERIOD_NS: dict[int, float] = {64: 0.221, 128: 0.253, 256: 0.278, 512: 0.382}

# BFPU: pure bitwise logic, linear in N.
_BFPU_AREA_MM2_PER_BIT = 216e-6 / 64
_BFPU_CLOCK_GHZ = 40.0

# UFPU: temp list + priority encoder, area ~ N^1.2.
_UFPU_AREA_COEFF = 0.001 / 64 ** 1.2
# UFPU clock: published periods (ns) per N; interpolated in log2(N).
_UFPU_PERIOD_NS: dict[int, float] = {
    n: 1.0 / clock for n, (_a, clock) in PAPER_TABLE2_UFPU.items()
}

# Benes 2x2 switch over an N-bit bus.
_BENES_SWITCH_MM2_PER_BIT = 250e-6 / 128

_DEFAULT_N = 128

# Cell: two K-UFPUs plus I/O generators and internal crossbars; calibrated
# wiring factor over the raw 2*K*ufpu_area(N) term, anchored so that the
# model reproduces Table 3's (K=4, N=128) cell exactly.
_CELL_WIRING_FACTOR = 0.032 / (2 * 4 * (_UFPU_AREA_COEFF * _DEFAULT_N ** 1.2))


def _interp_period_ns(table: dict[int, float], n: int) -> float:
    """Piecewise-linear interpolation of a period table in log2(N).

    Exact at published sizes; edge slopes extrapolate beyond the table.
    """
    xs = sorted(table)
    x = math.log2(n)
    pts = [(math.log2(k), table[k]) for k in xs]
    if x <= pts[0][0]:
        (x0, y0), (x1, y1) = pts[0], pts[1]
    elif x >= pts[-1][0]:
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
    else:
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= x <= x1:
                break
    slope = (y1 - y0) / (x1 - x0)
    return max(y0 + slope * (x - x0), 0.02)


def _require_positive(**values: int) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


# -- SMBM (Table 1) ----------------------------------------------------------------


def smbm_area_mm2(n: int, m: int) -> float:
    """Chip area of an SMBM with N resources and m metrics, in mm^2."""
    _require_positive(n=n, m=m)
    return _SMBM_AREA_COEFF * (m + 1) * n ** 1.25


def smbm_clock_ghz(n: int, m: int) -> float:
    """Achievable clock of the SMBM, in GHz.

    The limiting path is the parallel search across a sorted list (a log-
    depth comparison tree); the metric count only adds parallel copies, so
    the model depends on N alone, consistent with Table 1 where clock
    variation across m is synthesis noise.
    """
    _require_positive(n=n, m=m)
    return 1.0 / _interp_period_ns(_SMBM_PERIOD_NS, n)


# -- BFPU / UFPU (Table 2) -----------------------------------------------------------


def bfpu_area_mm2(n: int) -> float:
    """Chip area of one BFPU over N-bit table vectors, in mm^2."""
    _require_positive(n=n)
    return _BFPU_AREA_MM2_PER_BIT * n


def bfpu_clock_ghz(n: int) -> float:
    """BFPU clock: a couple of gate levels regardless of N."""
    _require_positive(n=n)
    return _BFPU_CLOCK_GHZ


def ufpu_area_mm2(n: int) -> float:
    """Chip area of one UFPU over an N-entry table, in mm^2."""
    _require_positive(n=n)
    return _UFPU_AREA_COEFF * n ** 1.2


def ufpu_clock_ghz(n: int) -> float:
    """UFPU clock, limited by the N-wide priority-encoder tree."""
    _require_positive(n=n)
    return 1.0 / _interp_period_ns(_UFPU_PERIOD_NS, n)


# -- Cell (Table 3) ----------------------------------------------------------------


def cell_area_mm2(k: int, n: int = _DEFAULT_N) -> float:
    """Chip area of one Cell whose K-UFPUs have chain length ``k``."""
    _require_positive(k=k, n=n)
    return _CELL_WIRING_FACTOR * 2 * k * ufpu_area_mm2(n)


def cell_clock_ghz(k: int, n: int = _DEFAULT_N) -> float:
    """Cell clock equals the clock of its constituent UFPU (section 6)."""
    _require_positive(k=k, n=n)
    # The published Cell clock (2.1 GHz at N=128) is marginally below the
    # standalone UFPU clock; the small fixed derating covers the Cell's
    # internal muxing.
    return min(ufpu_clock_ghz(n), 2.1 * ufpu_clock_ghz(n) / ufpu_clock_ghz(128))


# -- filter pipeline (Table 4) ---------------------------------------------------------


def _benes_switches_per_stage(n: int, f: int) -> int:
    """2x2 switches in one stage's nf x n crossbar, realised as a Benes net."""
    return BenesNetwork.for_crossbar(n, f).switch_count()


def pipeline_area_breakdown(
    n: int, k: int, f: int = 2, chain_k: int = 4, capacity: int = _DEFAULT_N
) -> dict[str, float]:
    """Area split of an n-input, k-stage pipeline: cells vs crossbars (mm^2)."""
    _require_positive(n=n, k=k, f=f, chain_k=chain_k, capacity=capacity)
    if n % 2:
        raise ConfigurationError(f"n must be even, got {n}")
    cells = (n // 2) * k * cell_area_mm2(chain_k, capacity)
    crossbars = (
        k * _benes_switches_per_stage(n, f) * _BENES_SWITCH_MM2_PER_BIT * capacity
    )
    return {"cells": cells, "crossbars": crossbars, "total": cells + crossbars}


def pipeline_area_mm2(
    n: int, k: int, f: int = 2, chain_k: int = 4, capacity: int = _DEFAULT_N
) -> float:
    """Total chip area of the programmable filter pipeline, in mm^2."""
    return pipeline_area_breakdown(n, k, f, chain_k, capacity)["total"]


def pipeline_clock_ghz(
    n: int, k: int, f: int = 2, chain_k: int = 4, capacity: int = _DEFAULT_N
) -> float:
    """Pipeline clock = Cell clock, independent of n and k (section 6)."""
    _require_positive(n=n, k=k, f=f)
    return cell_clock_ghz(chain_k, capacity)


def chip_overhead_percent(
    area_mm2: float, chip_mm2: float | None = None
) -> tuple[float, float]:
    """Overhead of adding ``area_mm2`` to a 300-700 mm^2 switching chip.

    Returns (max_percent, min_percent): the overhead against the smallest
    and largest chips in the range (the paper's "0.3-0.15%" style claim).
    """
    if area_mm2 < 0:
        raise ConfigurationError(f"area must be non-negative, got {area_mm2}")
    low, high = SWITCH_CHIP_AREA_MM2_RANGE if chip_mm2 is None else (chip_mm2, chip_mm2)
    return 100.0 * area_mm2 / low, 100.0 * area_mm2 / high
