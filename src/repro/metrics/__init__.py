"""Run-history codecs: :class:`~repro.core.loop.LoopResult` to JSON and CSV."""

from repro.metrics.export import (
    loop_result_from_dict,
    loop_result_to_csv,
    loop_result_to_dict,
)

__all__ = [
    "loop_result_to_csv",
    "loop_result_to_dict",
    "loop_result_from_dict",
]
