"""LSTM cell with explicit backpropagation through time.

The paper's controller is a single-layer LSTM with 32 units driving both
the policy head and the value head.  Because PPO needs gradients of a
clipped surrogate objective through the whole action sequence, the cell
exposes stateless ``step``/``backward_step`` functions operating on
explicit carry and cache values; the policy network owns the time loop and
stores one cache per step.

:class:`FusedLSTM` is the hot-path driver over the same cell: one stacked
gate GEMM per timestep over the concatenated ``[x, h]`` block, per-step
intermediates in preallocated ``(T, B, ·)`` buffers reused across
same-shape passes, and the whole-sequence weight gradient folded into a
single GEMM.  The reference ``step``/``backward_step`` pair stays as the
unfused ground truth the fused path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initializers import glorot_uniform, orthogonal
from .layers import _sigmoid
from .tensor import Parameter

__all__ = ["LSTMCell", "LSTMStepCache", "FusedLSTM"]


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """In-place, allocation-free form of :func:`~repro.nn.layers._sigmoid`
    (same tanh identity) for the fused step."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


@dataclass
class LSTMStepCache:
    """Intermediates of one time step needed by ``backward_step``."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray


class LSTMCell:
    """Standard LSTM cell; gate order is (input, forget, cell, output)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, name: str = "lstm") -> None:
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.wx = Parameter(glorot_uniform((input_size, 4 * h), rng), f"{name}.wx")
        self.wh = Parameter(orthogonal((h, 4 * h), rng), f"{name}.wh")
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # unit forget-gate bias, the standard stabilizer
        self.b = Parameter(bias, f"{name}.b")

    def parameters(self) -> list[Parameter]:
        return [self.wx, self.wh, self.b]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def initial_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        h = np.zeros((batch, self.hidden_size), dtype=self.wx.value.dtype)
        return h, h.copy()

    def step(self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, LSTMStepCache]:
        """One forward step; returns (h, c, cache)."""
        hsz = self.hidden_size
        z = x @ self.wx.value + h_prev @ self.wh.value + self.b.value
        i = _sigmoid(z[:, :hsz])
        f = _sigmoid(z[:, hsz:2 * hsz])
        g = np.tanh(z[:, 2 * hsz:3 * hsz])
        o = _sigmoid(z[:, 3 * hsz:])
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        return h, c, LSTMStepCache(x, h_prev, c_prev, i, f, g, o, c, tanh_c)

    def backward_step(self, dh: np.ndarray, dc: np.ndarray,
                      cache: LSTMStepCache
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward through one step.

        ``dh``/``dc`` are gradients flowing into this step's outputs (from
        the loss at this step plus from the next step).  Accumulates
        parameter gradients and returns ``(dx, dh_prev, dc_prev)``.
        """
        i, f, g, o = cache.i, cache.f, cache.g, cache.o
        dc_total = dc + dh * o * (1.0 - cache.tanh_c ** 2)
        do = dh * cache.tanh_c
        di = dc_total * g
        df = dc_total * cache.c_prev
        dg = dc_total * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=-1)
        self.wx.grad += cache.x.T @ dz
        self.wh.grad += cache.h_prev.T @ dz
        self.b.grad += dz.sum(axis=0)
        dx = dz @ self.wx.value.T
        dh_prev = dz @ self.wh.value.T
        dc_prev = dc_total * f
        return dx, dh_prev, dc_prev


class FusedLSTM:
    """Fused sequence driver over an :class:`LSTMCell`.

    Forward: one stacked gate GEMM per timestep over the concatenated
    ``[x, h_prev]`` row block (instead of separate input and recurrent
    GEMMs), with gates activated in place inside preallocated
    ``(T, B, ·)`` state buffers that are reused across passes of the
    same shape.  Backward: one GEMM per step for the carried gradient,
    then a single whole-sequence GEMM for the weight gradients in
    :meth:`backward_finish`.

    The stacked weight copy is refreshed on every :meth:`begin` because
    the cell's parameter arrays are views into a flat parameter pack
    that is mutated externally (fused Adam, parameter-server exchange,
    checkpoint restore).

    The driver assumes the standard pass discipline (forward over all T
    steps, then at most one backward over the same pass); ``h_0`` and
    ``c_0`` are the zero initial state, as in the controller.
    """

    def __init__(self, cell: LSTMCell) -> None:
        self.cell = cell
        self._bufs: dict[tuple, dict[str, np.ndarray]] = {}
        self._w: np.ndarray | None = None
        self._cur: dict[str, np.ndarray] | None = None

    @property
    def hidden_states(self) -> np.ndarray:
        """The current pass's ``(T, B, H)`` hidden-state buffer."""
        return self._cur["h"]

    def begin(self, horizon: int, batch: int) -> None:
        """Start a pass: bind (or allocate) the ``(horizon, batch)``
        buffers and refresh the stacked ``[wx; wh]`` weight copy."""
        cell = self.cell
        e, hsz = cell.input_size, cell.hidden_size
        dt = cell.wx.value.dtype
        key = (horizon, batch, dt)
        bufs = self._bufs.get(key)
        if bufs is None:
            shapes = {"xh": (horizon, batch, e + hsz),
                      "gates": (horizon, batch, 4 * hsz),
                      "dz": (horizon, batch, 4 * hsz),
                      "h": (horizon, batch, hsz),
                      "c": (horizon, batch, hsz),
                      "tanh_c": (horizon, batch, hsz),
                      "dh_prev": (batch, hsz),
                      "dc_prev": (batch, hsz),
                      "tmp": (batch, hsz),
                      "tmp2": (batch, hsz)}
            bufs = {name: np.empty(shape, dtype=dt)
                    for name, shape in shapes.items()}
            self._bufs[key] = bufs
        if self._w is None or self._w.shape != (e + hsz, 4 * hsz) \
                or self._w.dtype != dt:
            self._w = np.empty((e + hsz, 4 * hsz), dtype=dt)
        np.copyto(self._w[:e], cell.wx.value)
        np.copyto(self._w[e:], cell.wh.value)
        self._cur = bufs

    def step(self, t: int, x: np.ndarray) -> np.ndarray:
        """Advance one step on input ``x`` (B, E); returns ``h_t`` as a
        view into the pass buffer."""
        cell, bufs = self.cell, self._cur
        e, hsz = cell.input_size, cell.hidden_size
        xh = bufs["xh"][t]
        xh[:, :e] = x
        if t == 0:
            xh[:, e:] = 0.0
        else:
            xh[:, e:] = bufs["h"][t - 1]
        z = bufs["gates"][t]
        np.matmul(xh, self._w, out=z)
        z += cell.b.value
        i, f = z[:, :hsz], z[:, hsz:2 * hsz]
        g, o = z[:, 2 * hsz:3 * hsz], z[:, 3 * hsz:]
        _sigmoid_(z[:, :2 * hsz])  # i and f are adjacent: one fused pass
        np.tanh(g, out=g)
        _sigmoid_(o)
        c = bufs["c"][t]
        np.multiply(i, g, out=c)
        if t > 0:
            tmp = bufs["tmp"]
            np.multiply(f, bufs["c"][t - 1], out=tmp)
            c += tmp
        tanh_c = bufs["tanh_c"][t]
        np.tanh(c, out=tanh_c)
        h = bufs["h"][t]
        np.multiply(o, tanh_c, out=h)
        return h

    def backward_step(self, t: int, dh: np.ndarray, dc: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Backward through step ``t``; returns ``(dh_prev, dc_prev)``.

        Only the recurrent carry is propagated here; the pre-activation
        gate gradient is stored so :meth:`backward_finish` can fold the
        weight gradients into one whole-sequence GEMM and
        :meth:`input_grads` can recover every step's ``dx`` the same
        way.  ``dh_prev`` is a view into a scratch buffer overwritten by
        the next call — consume it before stepping again.
        """
        cell, bufs = self.cell, self._cur
        hsz = cell.hidden_size
        z = bufs["gates"][t]
        i, f = z[:, :hsz], z[:, hsz:2 * hsz]
        g, o = z[:, 2 * hsz:3 * hsz], z[:, 3 * hsz:]
        tanh_c = bufs["tanh_c"][t]
        dz = bufs["dz"][t]
        dzi, dzf = dz[:, :hsz], dz[:, hsz:2 * hsz]
        dzg, dzo = dz[:, 2 * hsz:3 * hsz], dz[:, 3 * hsz:]
        tmp, tmp2 = bufs["tmp"], bufs["tmp2"]
        # dc_total = dc + dh * o * (1 - tanh_c²), built in tmp — the
        # caller's dc is bufs["dc_prev"] (or the initial zeros), never
        # tmp itself
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh
        tmp += dc
        dc_total = tmp
        # dzo = dh tanh_c · o(1-o)
        np.multiply(dh, tanh_c, out=dzo)
        dzo *= o
        np.subtract(1.0, o, out=tmp2)
        dzo *= tmp2
        # dzi = dc_total g · i(1-i)
        np.multiply(dc_total, g, out=dzi)
        dzi *= i
        np.subtract(1.0, i, out=tmp2)
        dzi *= tmp2
        # dzg = dc_total i · (1-g²)
        np.multiply(dc_total, i, out=dzg)
        np.multiply(g, g, out=tmp2)
        np.subtract(1.0, tmp2, out=tmp2)
        dzg *= tmp2
        # dzf = dc_total c_prev · f(1-f); c_0 == 0 kills it at t == 0
        if t > 0:
            np.multiply(dc_total, bufs["c"][t - 1], out=dzf)
            dzf *= f
            np.subtract(1.0, f, out=tmp2)
            dzf *= tmp2
        else:
            dzf[...] = 0.0
        e = cell.input_size
        dh_prev = bufs["dh_prev"]
        np.matmul(dz, self._w[e:].T, out=dh_prev)
        dc_prev = bufs["dc_prev"]
        np.multiply(dc_total, f, out=dc_prev)
        return dh_prev, dc_prev

    def backward_finish(self) -> None:
        """Fold the stored gate gradients into the cell's parameter
        gradients: one GEMM over all ``T × B`` rows."""
        cell, bufs = self.cell, self._cur
        e = cell.input_size
        horizon, batch, _ = bufs["dz"].shape
        dz2 = bufs["dz"].reshape(horizon * batch, -1)
        gw = bufs["xh"].reshape(horizon * batch, -1).T @ dz2
        cell.wx.grad += gw[:e]
        cell.wh.grad += gw[e:]
        cell.b.grad += dz2.sum(axis=0)

    def input_grads(self) -> np.ndarray:
        """Every step's input gradient ``dx`` in one whole-sequence GEMM
        over the stored gate gradients; ``(T, B, E)``, freshly
        allocated.  Valid after the pass's last :meth:`backward_step`."""
        cell, bufs = self.cell, self._cur
        e = cell.input_size
        horizon, batch, _ = bufs["dz"].shape
        dz2 = bufs["dz"].reshape(horizon * batch, -1)
        return (dz2 @ self._w[:e].T).reshape(horizon, batch, e)
