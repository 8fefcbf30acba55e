"""Model-evaluation interface with several execution backends (§4)."""

from .balsam import BalsamEvaluator, BalsamJob, BalsamService
from .base import EvalRecord, Evaluator
from .broker import EvalBackend, EvalBroker, RewardModelBackend
from .cache import EvalCache
from .process import ProcConfig, ProcessEvaluator
from .serial import SerialEvaluator

#: every evaluation backend a search accepts: the simulated Balsam
#: service (virtual time) and the two in-host backends
BACKENDS = ("balsam", "serial", "process")
#: the backends that run the reward model in host time (the only ones a
#: space sweep can use)
HOST_BACKENDS = tuple(b for b in BACKENDS if b != "balsam")

__all__ = ['BACKENDS', 'BalsamEvaluator', 'BalsamJob', 'BalsamService',
           'EvalBackend', 'EvalBroker', 'EvalCache', 'EvalRecord',
           'Evaluator', 'HOST_BACKENDS', 'ProcConfig', 'ProcessEvaluator',
           'RewardModelBackend', 'SerialEvaluator']
