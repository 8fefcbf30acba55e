"""In-process evaluator backend (the "laptop" end of the scale).

Evaluations run immediately and synchronously on ``add_eval_batch``;
``get_finished_evals`` drains the completion queue.  Used by the
examples and by real-training searches, where the reward model's
duration is genuine wall time.

All admission / cache / counter / failure bookkeeping lives in
:class:`~repro.evaluator.broker.EvalBroker`; this class is only the
dispatch policy (run it now, inline).  A reward-model exception becomes
a ``FAILURE_REWARD`` record — the same conversion every other backend
applies — so serial runs are drop-in interchangeable behind the broker.
"""

from __future__ import annotations

import time

from ..events import EventSink
from ..nas.arch import Architecture
from ..rewards.base import RewardModel
from .broker import EvalBroker, RewardModelBackend

__all__ = ["SerialEvaluator"]


class SerialEvaluator(EvalBroker):
    def __init__(self, reward_model: RewardModel, agent_id: int = 0,
                 use_cache: bool = True, clock=time.monotonic,
                 sink: EventSink | None = None) -> None:
        super().__init__(agent_id=agent_id, use_cache=use_cache,
                         clock=clock, sink=sink)
        self.reward_model = reward_model
        self.backend = RewardModelBackend(reward_model, agent_id)

    def add_eval_batch(self, archs: list[Architecture]) -> None:
        for arch, submit in self._admit(archs):
            try:
                result = self.backend.execute(arch)
            except Exception:   # noqa: BLE001 — surfaced as failure record
                self._fail(arch, max(0.0, self.clock() - submit), 0,
                           submit, submit, self.clock())
                continue
            self._complete(arch, result, submit, submit, self.clock())
