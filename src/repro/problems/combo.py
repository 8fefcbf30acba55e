"""Combo benchmark (§2.1): drug-pair growth regression.

The manually designed network has three input layers — cell expression
(d=942) and two drug-descriptor inputs (d=3,820) sharing one
three-layer Dense(1000) submodel — whose outputs are concatenated into
three more Dense(1000) layers and a scalar head.  At the paper's input
dimensions this baseline has exactly **13,772,001** trainable parameters
(Table 1), which :func:`combo_baseline` reproduces via the compiler.
"""

from __future__ import annotations

from functools import partial

from ..nas.nodes import ConstantNode, MirrorNode
from ..nas.ops import DenseOp, Operation
from ..nas.space import Block, Cell, Structure
from ..nas.spaces.combo import COMBO_INPUTS, combo_large, combo_small
from .base import Problem
from .datasets import make_combo_data

__all__ = ["combo_baseline", "combo_problem", "COMBO_PAPER_SHAPES"]

COMBO_PAPER_SHAPES = {"cell_expression": (942,), "drug1_descriptors": (3820,),
                      "drug2_descriptors": (3820,)}


def combo_baseline(units: int = 1000) -> Structure:
    """The manually designed Combo DNN as a zero-action structure."""
    s = Structure("combo-baseline", COMBO_INPUTS, output_sources="last_cell")

    c0 = Cell("C0")
    b0 = Block("B0", inputs=["cell_expression"])
    for i in range(3):
        b0.add_node(ConstantNode(f"N{i}", DenseOp(units, "relu")))
    c0.add_block(b0)
    b1 = Block("B1", inputs=["drug1_descriptors"])
    shared = [ConstantNode(f"N{i}", DenseOp(units, "relu")) for i in range(3)]
    for node in shared:
        b1.add_node(node)
    c0.add_block(b1)
    b2 = Block("B2", inputs=["drug2_descriptors"])
    for i, target in enumerate(shared):
        b2.add_node(MirrorNode(f"N{i}", target))
    c0.add_block(b2)
    s.add_cell(c0)

    c1 = Cell("C1")
    b = Block("B0", inputs=["C0"])
    for i in range(3):
        b.add_node(ConstantNode(f"N{i}", DenseOp(units, "relu")))
    c1.add_block(b)
    s.add_cell(c1)

    s.validate()
    return s


def combo_head() -> list[Operation]:
    """Scalar regression head (percent growth)."""
    return [DenseOp(1, "linear")]


def combo_problem(scale: float = 0.04, large: bool = False,
                  n_train: int = 1024, n_val: int = 256,
                  cell_dim: int = 60, drug_dim: int = 80,
                  batch_size: int = 256, seed: int = 0) -> Problem:
    """Working-scale Combo problem.

    ``scale`` shrinks both the search space's Dense widths and the
    baseline (Dense(1000) → Dense(40) at the default), keeping every
    ratio experiment meaningful at laptop scale.
    """
    units = max(1, round(1000 * scale))
    space = combo_large(scale) if large else combo_small(scale)
    return Problem(
        name="combo",
        dataset=make_combo_data(n_train, n_val, cell_dim, drug_dim, seed=seed),
        space=space,
        baseline=combo_baseline(units),
        head_ops=combo_head(),
        loss="mse",
        metric="r2",
        batch_size=batch_size,
        paper_input_shapes=COMBO_PAPER_SHAPES,
        paper_scale_baseline=partial(combo_baseline, 1000),
        paper_scale_head=combo_head,
    )
