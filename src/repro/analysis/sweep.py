"""Parameter sweep harness.

Benchmarks and ablations vary one or more parameters (frame size, sampled
point count, octree depth, gathering size) and record a metric for each
combination.  :class:`ParameterSweep` runs the cartesian product of the
requested values through a callable and collects the results in a small
table-like structure that the reporting helpers can print.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence


@dataclass
class SweepResult:
    """One (parameters, metrics) record of a sweep."""

    parameters: Dict[str, object]
    metrics: Dict[str, float]


@dataclass
class ParameterSweep:
    """Cartesian-product sweep over named parameter values."""

    parameters: Mapping[str, Sequence[object]]
    results: List[SweepResult] = field(default_factory=list)

    def run(
        self, evaluate: Callable[..., Mapping[str, float]]
    ) -> List[SweepResult]:
        """Call ``evaluate(**params)`` for every combination and collect metrics."""
        names = list(self.parameters.keys())
        self.results = []
        for combination in itertools.product(
            *(self.parameters[name] for name in names)
        ):
            params = dict(zip(names, combination))
            metrics = dict(evaluate(**params))
            self.results.append(SweepResult(parameters=params, metrics=metrics))
        return self.results

    # ------------------------------------------------------------------

    def rows(self, metrics: Sequence[str]) -> List[List[object]]:
        """Table rows: parameter values followed by the selected metrics."""
        rows = []
        for result in self.results:
            row: List[object] = list(result.parameters.values())
            row.extend(result.metrics.get(m, float("nan")) for m in metrics)
            rows.append(row)
        return rows

    def headers(self, metrics: Sequence[str]) -> List[str]:
        if not self.results:
            return list(metrics)
        return list(self.results[0].parameters.keys()) + list(metrics)
