"""Pre-drawn variate streams: the DES determinism contract.

The simulator draws randomness from *per-purpose* streams, each backed by
an independent child of one ``numpy.random.SeedSequence``:

======================  ========================================  ==========
stream                  draws                                     base law
======================  ========================================  ==========
``arrivals``            inter-arrival gaps + MMPP chain dwells    exponential
``plan``                request-class choice                      uniform
``entry``               fractional stage-entry visit counts       uniform
``demand``              per-visit CPU demand                      Gamma(k)
``wait``                non-CPU wait jitter                       normal
``background[s]``       service *s*'s baseline bursts (work+gap)  exponential
======================  ========================================  ==========

The contract that makes the vectorized simulator bit-identical to the
scalar reference is: **within each stream, both execution modes consume
the same base variates in the same order**.  The reference draws one
scalar per call site; the vectorized simulator pre-draws the same stream
in fixed-size blocks (``Generator.standard_gamma(k, size=n)[i]`` is
bit-identical to the *i*-th of ``n`` sequential scalar draws — the same
underlying bit stream feeds the same transformation) and serves them by
index.  Because every purpose owns a private stream, reordering *across*
purposes (e.g. pre-computing the whole arrival schedule before the first
event fires) cannot perturb any other stream.

Scale/shift transformations (``scale * e``, ``sigma * z``) are applied at
the use site as plain float64 arithmetic in both modes, so they cannot
diverge either.  Anything transcendental goes through the same scalar
call (``float(numpy.exp(...))``) in both modes — ``math.exp`` and
``numpy.exp`` differ in the last ulp, so mixing them would break the
contract.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

import numpy as np

__all__ = [
    "STREAMS",
    "spawn_streams",
    "ScalarExp",
    "ScalarUniform",
    "ScalarNormal",
    "ScalarGamma",
    "BlockExp",
    "BlockUniform",
    "BlockNormal",
    "BlockGamma",
]

#: Purpose -> index of the spawned child seed.  Background streams follow
#: at ``N_CORE_STREAMS + service_index`` in ``AppSpec.service_names``
#: order.
STREAMS = {"arrivals": 0, "plan": 1, "entry": 2, "demand": 3, "wait": 4}
N_CORE_STREAMS = len(STREAMS)

#: Variates pre-drawn per refill of a block stream.  Any value yields the
#: same sequence (block boundaries don't change the bit stream); 4096
#: amortizes the per-call Generator overhead without hoarding memory.
BLOCK = 4096


def spawn_streams(
    seed: int, n_services: int
) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
    """The per-purpose generators for one simulation run.

    Returns ``(core, background)``: the five core-purpose generators in
    ``STREAMS`` order plus one background generator per service.  Both
    simulator modes call this with the same seed, so stream *k* starts
    from the same PCG64 state in both.
    """
    children = np.random.SeedSequence(seed).spawn(N_CORE_STREAMS + n_services)
    gens = [np.random.default_rng(child) for child in children]
    return gens[:N_CORE_STREAMS], gens[N_CORE_STREAMS:]


# -- scalar streams (the reference: one Generator call per variate) ------------
class ScalarExp:
    """Standard-exponential variates, one scalar draw per call."""

    __slots__ = ("_gen",)

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen

    def next(self) -> float:
        return float(self._gen.standard_exponential())


class ScalarUniform:
    """Uniform [0, 1) variates, one scalar draw per call."""

    __slots__ = ("_gen",)

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen

    def next(self) -> float:
        return float(self._gen.random())


class ScalarNormal:
    """Standard-normal variates, one scalar draw per call."""

    __slots__ = ("_gen",)

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen

    def next(self) -> float:
        return float(self._gen.standard_normal())


class ScalarGamma:
    """Gamma(shape, 1) variates, one scalar draw per call."""

    __slots__ = ("_gen", "_shape")

    def __init__(self, gen: np.random.Generator, shape: float) -> None:
        if shape <= 0:
            raise ValueError("shape must be positive")
        self._gen = gen
        self._shape = shape

    def next(self) -> float:
        return float(self._gen.standard_gamma(self._shape))


# -- block streams (vectorized: pre-draw BLOCK variates, serve in order) -------
def _draw_list(draw) -> list[float]:
    return draw().tolist()


class _BlockStream:
    """Serve pre-drawn variates in draw order, refilling in BLOCK chunks.

    ``next`` is a C-level callable, ``partial(next, chain)`` over lazily
    drawn blocks, so serving a variate runs no Python frame.  A block is
    drawn only when the previous one is used up, so the served sequence
    stays bit-identical to the block draw (and therefore to sequential
    scalar draws).  The chain holds the generator's draw method, not the
    stream object, so dropping the stream frees its block at once
    instead of at the next cyclic collection.
    """

    __slots__ = ("next",)

    def __init__(self, draw) -> None:
        """``draw()`` returns the next BLOCK variates as an array."""
        # ``iter(f, None)`` is endless: a list is never None.
        blocks = iter(partial(_draw_list, draw), None)
        self.next = partial(next, chain.from_iterable(blocks))


class BlockExp(_BlockStream):
    """Block-buffered standard-exponential stream."""

    __slots__ = ()

    def __init__(self, gen: np.random.Generator) -> None:
        super().__init__(partial(gen.standard_exponential, BLOCK))


class BlockUniform(_BlockStream):
    """Block-buffered uniform [0, 1) stream."""

    __slots__ = ()

    def __init__(self, gen: np.random.Generator) -> None:
        super().__init__(partial(gen.random, BLOCK))


class BlockNormal(_BlockStream):
    """Block-buffered standard-normal stream."""

    __slots__ = ()

    def __init__(self, gen: np.random.Generator) -> None:
        super().__init__(partial(gen.standard_normal, BLOCK))


class BlockGamma(_BlockStream):
    """Block-buffered Gamma(shape, 1) stream."""

    __slots__ = ()

    def __init__(self, gen: np.random.Generator, shape: float) -> None:
        if shape <= 0:
            raise ValueError("shape must be positive")
        super().__init__(partial(gen.standard_gamma, shape, BLOCK))
