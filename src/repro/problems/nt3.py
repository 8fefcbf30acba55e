"""NT3 benchmark (§2.3): tumor/normal tissue classification.

The manually designed DNN: Conv1D(128 filters, kernel 20) → MaxPool(1) →
Conv1D(128, kernel 10) → MaxPool(10) → Flatten → Dense(200) →
Dropout(0.1) → Dense(20) → Dropout(0.1) → Dense(2, softmax).

Note on Table 1: the paper reports 96,777,878 baseline parameters, which
is not consistent with this §2.3 description under either valid or same
padding at d = 60,483 (the described topology gives 154,922,918 with
valid padding).  We reproduce the described topology; EXPERIMENTS.md
records the discrepancy.
"""

from __future__ import annotations

from functools import partial

from ..nas.nodes import ConstantNode
from ..nas.ops import (Conv1DOp, DenseOp, DropoutOp, MaxPooling1DOp,
                       Operation)
from ..nas.space import Block, Cell, Structure
from ..nas.spaces.nt3 import NT3_INPUTS, nt3_small
from .base import Problem
from .datasets import make_nt3_data

__all__ = ["nt3_baseline", "nt3_problem", "NT3_PAPER_SHAPES"]

NT3_PAPER_SHAPES = {"rnaseq_expression": (60483, 1)}


def nt3_baseline(filters: int = 128, dense_scale: float = 1.0) -> Structure:
    """The manually designed NT3 CNN as a zero-action structure."""
    def u(units: int) -> int:
        # floor of 8 keeps the penultimate Dense(20) from collapsing to a
        # one-unit bottleneck at aggressive working scales
        return max(8, round(units * dense_scale)) if dense_scale < 1.0 \
            else units

    s = Structure("nt3-baseline", NT3_INPUTS, output_sources="last_cell")
    c0 = Cell("C0")
    b = Block("B0", inputs=["rnaseq_expression"])
    b.add_node(ConstantNode("N0", Conv1DOp(20, filters=filters,
                                           activation="relu")))
    b.add_node(ConstantNode("N1", MaxPooling1DOp(1)))
    b.add_node(ConstantNode("N2", Conv1DOp(10, filters=filters,
                                           activation="relu")))
    b.add_node(ConstantNode("N3", MaxPooling1DOp(10)))
    b.add_node(ConstantNode("N4", DenseOp(u(200), "relu")))
    b.add_node(ConstantNode("N5", DropoutOp(0.1)))
    b.add_node(ConstantNode("N6", DenseOp(u(20), "relu")))
    b.add_node(ConstantNode("N7", DropoutOp(0.1)))
    c0.add_block(b)
    s.add_cell(c0)
    s.validate()
    return s


def nt3_head(num_classes: int = 2) -> list[Operation]:
    return [DenseOp(num_classes, "softmax")]


def nt3_problem(scale: float = 0.1, length: int = 180,
                n_train: int = 256, n_val: int = 96,
                filters: int = 8, baseline_filters: int = 16,
                batch_size: int = 20, seed: int = 0) -> Problem:
    """Working-scale NT3 problem.

    ``length`` shrinks the 60,483-long expression vector; ``scale``
    shrinks the search space's Dense widths; ``baseline_filters`` shrinks
    the baseline's 128 conv filters.
    """
    return Problem(
        name="nt3",
        dataset=make_nt3_data(n_train, n_val, length, seed=seed),
        space=nt3_small(scale, filters=filters),
        baseline=nt3_baseline(baseline_filters, dense_scale=scale),
        head_ops=nt3_head(),
        loss="categorical_crossentropy",
        metric="accuracy",
        batch_size=batch_size,
        paper_input_shapes=NT3_PAPER_SHAPES,
        paper_scale_baseline=partial(nt3_baseline, 128, 1.0),
        paper_scale_head=nt3_head,
    )
