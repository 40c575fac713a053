"""Engine, per-rank contexts, and result containers."""

from .context import RankContext
from .engine import Engine, NoCheckpointError
from .program import VertexProgram, run_vertex_program
from .result import AlgorithmResult, TimingReport
from .trace import IterationTrace, TraceRecorder

__all__ = [
    "RankContext",
    "Engine",
    "NoCheckpointError",
    "VertexProgram",
    "run_vertex_program",
    "AlgorithmResult",
    "TimingReport",
    "IterationTrace",
    "TraceRecorder",
]
