"""Problem definition: dataset + search space + baseline + training config.

A :class:`Problem` bundles everything a NAS run needs: the synthetic
dataset, the search-space factory, the manually designed baseline (as a
zero-action constant structure so parameter counts come from the compiler
without allocating weights), the output head, loss/metric, and the
paper's training hyperparameters (batch size per benchmark, Adam lr).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..nas.builder import build_model, compile_architecture, count_parameters
from ..nas.ops import Operation
from ..nas.space import Structure
from ..nn.graph import GraphModel
from .datasets import Dataset

__all__ = ["Problem"]


@dataclass
class Problem:
    """A NAS benchmark problem (Combo, Uno or NT3)."""

    name: str
    dataset: Dataset
    space: Structure
    baseline: Structure
    head_ops: list[Operation]
    loss: str
    metric: str
    batch_size: int
    #: input shapes at the paper's full scale, used for exact
    #: parameter-count reproduction (Table 1)
    paper_input_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def input_shapes(self) -> dict[str, tuple[int, ...]]:
        return self.dataset.input_shapes

    # -- model construction ---------------------------------------------
    def build_model(self, choices, rng: np.random.Generator | None = None
                    ) -> GraphModel:
        """Materialize an architecture of the search space on this data."""
        return build_model(self.space, choices, self.input_shapes,
                           self.head_ops, rng)

    def build_baseline(self, rng: np.random.Generator | None = None
                       ) -> GraphModel:
        """Materialize the manually designed network at dataset scale."""
        return build_model(self.baseline, (), self.input_shapes,
                           self.head_ops, rng)

    # -- parameter accounting ---------------------------------------------
    def count_params(self, choices) -> int:
        return count_parameters(self.space, choices, self.input_shapes,
                                self.head_ops)

    def baseline_params(self, paper_scale: bool = False) -> int:
        """Trainable parameters of the baseline.

        With ``paper_scale=True`` the count uses the paper's input
        dimensions and must reproduce Table 1 exactly for Combo and Uno.
        """
        if not paper_scale:
            return count_parameters(self.baseline, (), self.input_shapes,
                                    self.head_ops)
        baseline = (self.baseline if self.paper_scale_baseline is None
                    else self.paper_scale_baseline())
        head = (self.head_ops if self.paper_scale_head is None
                else self.paper_scale_head())
        return count_parameters(baseline, (), self.paper_input_shapes, head)

    # Paper-scale hooks (the per-benchmark factories bind module-level
    # functions or ``functools.partial`` objects, so a problem — and a
    # reward model holding it — pickles into worker processes; None
    # falls back to the working-scale definitions).
    paper_scale_baseline: Callable[[], Structure] | None = None
    paper_scale_head: Callable[[], list[Operation]] | None = None

    def __post_init__(self) -> None:
        missing = set(self.space.inputs) - set(self.input_shapes)
        if missing:
            raise ValueError(
                f"dataset lacks inputs {sorted(missing)} required by the "
                f"space {self.space.name!r}")
