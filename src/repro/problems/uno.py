"""Uno benchmark (§2.2): tumor dose-response regression.

Four inputs — RNA-seq (d=942), scalar dose, drug descriptors (d=5,270),
drug fingerprints (d=2,048).  Three feature-encoding submodels of three
Dense(1000) layers; their outputs are concatenated *with the dose* into
three more Dense(1000) layers and a scalar head.  At paper dimensions
this is exactly **19,274,001** trainable parameters (Table 1).
"""

from __future__ import annotations

from functools import partial

from ..nas.nodes import ConstantNode
from ..nas.ops import DenseOp, IdentityOp, Operation
from ..nas.space import Block, Cell, Structure
from ..nas.spaces.uno import UNO_INPUTS, uno_large, uno_small
from .base import Problem
from .datasets import make_uno_data

__all__ = ["uno_baseline", "uno_problem", "UNO_PAPER_SHAPES"]

UNO_PAPER_SHAPES = {"cell_rnaseq": (942,), "dose": (1,),
                    "drug_descriptors": (5270,), "drug_fingerprints": (2048,)}


def uno_baseline(units: int = 1000) -> Structure:
    """The manually designed Uno DNN as a zero-action structure."""
    s = Structure("uno-baseline", UNO_INPUTS, output_sources="last_cell")

    c0 = Cell("C0")
    for bname, input_name in (("B0", "cell_rnaseq"), ("B1", "dose"),
                              ("B2", "drug_descriptors"),
                              ("B3", "drug_fingerprints")):
        block = Block(bname, inputs=[input_name])
        if input_name == "dose":
            block.add_node(ConstantNode("N0", IdentityOp()))
        else:
            for i in range(3):
                block.add_node(ConstantNode(f"N{i}", DenseOp(units, "relu")))
        c0.add_block(block)
    s.add_cell(c0)

    c1 = Cell("C1")
    b = Block("B0", inputs=["C0"])
    for i in range(3):
        b.add_node(ConstantNode(f"N{i}", DenseOp(units, "relu")))
    c1.add_block(b)
    s.add_cell(c1)

    s.validate()
    return s


def uno_head() -> list[Operation]:
    return [DenseOp(1, "linear")]


def uno_problem(scale: float = 0.04, large: bool = False,
                n_train: int = 768, n_val: int = 192,
                rna_dim: int = 60, desc_dim: int = 90, fp_dim: int = 40,
                noise: float = 0.05, batch_size: int = 32,
                seed: int = 0) -> Problem:
    """Working-scale Uno problem (see :func:`combo_problem` for scaling).

    ``noise`` sets the label-noise level; raising it makes the
    overparameterized baseline overfit — the regime behind the paper's
    Uno result, where most NAS architectures beat the manual network.
    """
    units = max(1, round(1000 * scale))
    space = uno_large(scale) if large else uno_small(scale)
    return Problem(
        name="uno",
        dataset=make_uno_data(n_train, n_val, rna_dim, desc_dim, fp_dim,
                              noise=noise, seed=seed),
        space=space,
        baseline=uno_baseline(units),
        head_ops=uno_head(),
        loss="mse",
        metric="r2",
        batch_size=batch_size,
        paper_input_shapes=UNO_PAPER_SHAPES,
        paper_scale_baseline=partial(uno_baseline, 1000),
        paper_scale_head=uno_head,
    )
