"""Random-number management and categorical sampling for simulations.

All stochastic code in :mod:`repro` takes an explicit
:class:`numpy.random.Generator`; the ``make_rng``/``spawn_rngs`` helpers
centralize construction so experiments are reproducible end to end from
a single seed.

The module also defines the :class:`UniformSource` protocol — the
first-class form of the ``random(shape)`` contract the batch kernels
consume.  A source produces ``(chunk, kinds, lanes)`` uniform blocks;
*which stream* each lane draws from is the source's business:

* a plain :class:`numpy.random.Generator` — every lane shares one
  stream (it satisfies the protocol structurally);
* :class:`FanInSource` — lane ``l`` draws from its own device
  generator, serially (the reference fleet fan-in, with shape
  validation);
* :class:`~repro.sim.rng_batched.BatchedPCG64Source` — the vectorized
  PCG64 implementation over a column of stream positions,
  byte-identical to :class:`FanInSource` for PCG64 streams at a
  fraction of the per-device overhead.

The module also owns the shared categorical-sampling semantics: a
distribution is compiled once into a normalized cumulative row
(:func:`categorical_cumsum`) and sampled with inverse-CDF lookups — one
uniform per draw, ``side="right"`` (the first index whose cumulative
mass strictly exceeds the uniform).  This is the same scheme
:meth:`numpy.random.Generator.choice` uses internally, so a scalar draw
consumes exactly one ``rng.random()`` and is stream- and
value-compatible with ``choice``.  :func:`sample_categorical` is the
loop backend's (and StationaryPolicyAgent's) sampler;
:func:`sample_categorical_batch` is the *reference* batched form whose
semantics the vector backend's fused offset-cumsum ``searchsorted``
sampling must reproduce — the equivalence suite cross-checks the two.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.util.validation import ValidationError

__all__ = [
    "FanInSource",
    "UniformSource",
    "categorical_cumsum",
    "child_rngs",
    "device_rng",
    "make_rng",
    "sample_categorical",
    "sample_categorical_batch",
    "spawn_rngs",
]


@runtime_checkable
class UniformSource(Protocol):
    """Anything that can fill a ``(chunk, kinds, lanes)`` uniform block.

    The batch kernel
    (:meth:`repro.sim.backends.vector.VectorBackend.step_lanes`) is
    generic over this protocol: it requests one float64 block of
    uniforms in ``[0, 1)`` per chunk and never touches generator state
    directly.  Implementations define the stream
    topology — one shared stream, one private stream per lane, or a
    vectorized stack of per-lane streams — and own the consistency of
    any backing :class:`numpy.random.Generator` objects.

    ``random(shape)`` must return a float64 array of exactly ``shape``,
    consuming each backing stream in ``(slice, kind)`` order for its
    lane(s).  Implementations that carry per-lane generators should
    raise :class:`~repro.util.validation.ValidationError` on a request
    whose dimensions disagree with their declared geometry instead of
    silently desynchronizing streams.
    """

    def random(self, shape: tuple) -> np.ndarray:
        """Return a float64 block of ``shape`` uniforms in ``[0, 1)``."""
        ...  # pragma: no cover - protocol stub


def _validate_block_shape(
    shape, n_lanes: int, n_kinds: int | None, max_chunk: int | None, label: str
) -> tuple[int, int, int]:
    """Shared request validation for per-lane uniform sources.

    A mismatched kernel request against a per-lane source is never
    recoverable — the wrong lanes would consume the wrong draws and
    every stream after the call would be silently desynchronized — so
    the contract is to fail loudly *before* drawing anything.
    """
    shape = tuple(int(v) for v in shape)
    if len(shape) != 3:
        raise ValidationError(
            f"{label} serves (chunk, kinds, lanes) blocks; "
            f"got request shape {shape}"
        )
    chunk, kinds, lanes = shape
    if lanes != n_lanes:
        raise ValidationError(
            f"{label} built for {n_lanes} lanes, kernel asked for {lanes}"
        )
    if chunk <= 0:
        raise ValidationError(f"{label}: chunk must be > 0, got {chunk}")
    if kinds <= 0:
        raise ValidationError(f"{label}: kinds must be > 0, got {kinds}")
    if n_kinds is not None and kinds != n_kinds:
        raise ValidationError(
            f"{label} declared {n_kinds} uniform kinds per slice, kernel "
            f"asked for {kinds} — a mismatched request would "
            f"desynchronize every lane's stream"
        )
    if max_chunk is not None and chunk > max_chunk:
        raise ValidationError(
            f"{label} declared a chunk cap of {max_chunk} slices, kernel "
            f"asked for {chunk}"
        )
    return chunk, kinds, lanes


class FanInSource:
    """Per-lane fan-in: lane ``l`` draws from its own device generator.

    The reference :class:`UniformSource` for heterogeneous streams —
    it works with *any* :class:`numpy.random.Generator` (PCG64 or
    foreign bit generators) by looping lanes serially, which is also
    what makes it the fleet's fallback when the vectorized
    :class:`~repro.sim.rng_batched.BatchedPCG64Source` is not
    applicable.  Draws continue each device's private stream in
    ``(slice, kind)`` order — exactly the order a single-device batch
    would consume.

    Parameters
    ----------
    generators:
        One stream per lane, lane order: a generator, or anything
        whose ``random(shape)`` draws like one (the fleet passes a
        :class:`~repro.sim.rng_batched.PositionStream` for a lane
        whose stream is a position row).
    n_kinds:
        Declared uniform kinds per slice (3 for fully deterministic
        policy batches, 4 otherwise).  When given, a request with a
        different kind count raises
        :class:`~repro.util.validation.ValidationError` instead of
        silently feeding every stream the wrong draws.
    max_chunk:
        Declared chunk cap (the fleet controller passes
        :data:`~repro.runtime.controller.FLEET_CHUNK_SLICES`);
        oversized requests are rejected the same way.
    """

    def __init__(
        self,
        generators,
        n_kinds: int | None = None,
        max_chunk: int | None = None,
    ):
        self._generators = list(generators)
        self._n_kinds = None if n_kinds is None else int(n_kinds)
        self._max_chunk = None if max_chunk is None else int(max_chunk)

    @property
    def generators(self) -> list:
        """The per-lane streams, lane order."""
        return self._generators

    @property
    def n_lanes(self) -> int:
        """Number of lanes served."""
        return len(self._generators)

    def random(self, shape) -> np.ndarray:
        """Fill a ``(chunk, kinds, lanes)`` block, one lane per stream."""
        chunk, n_kinds, _ = _validate_block_shape(
            shape, len(self._generators), self._n_kinds, self._max_chunk,
            type(self).__name__,
        )
        out = np.empty(shape)
        for lane, generator in enumerate(self._generators):
            out[:, :, lane] = generator.random((chunk, n_kinds))
        return out


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a PCG64 generator from ``seed`` (fresh entropy if None)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators.

    Uses :class:`numpy.random.SeedSequence` spawning, so parallel
    replications of an experiment never share streams.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(int(count))]


def device_rng(seed: int, index: int) -> np.random.Generator:
    """The canonical per-device generator: ``(seed, device index)``.

    Spawn keys make the streams statistically independent and — more
    importantly for the fleet — *addressable*: any device can be
    re-created in isolation with the exact stream it had inside the
    fleet.  :func:`repro.sim.rng_batched.device_positions` computes
    the starting positions of a whole block of these streams at once.
    """
    sequence = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
    return np.random.default_rng(sequence)


def child_rngs(
    rng: np.random.Generator | int | None, count: int
) -> list[np.random.Generator]:
    """``count`` independent generators derived from ``rng``.

    Accepts either a seed (``int`` or ``None``, forwarded to
    :func:`spawn_rngs`) or an existing generator, whose stream is used to
    draw one child seed per generator.  Batch simulation helpers use
    this so each agent/replication gets its own stream regardless of how
    the caller specified randomness.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if rng is None or isinstance(rng, (int, np.integer)):
        return spawn_rngs(None if rng is None else int(rng), count)
    seeds = rng.integers(0, np.iinfo(np.int64).max, size=int(count))
    return [np.random.default_rng(int(seed)) for seed in seeds]


def categorical_cumsum(probabilities: np.ndarray, axis: int = -1) -> np.ndarray:
    """Compile distributions into normalized cumulative rows.

    The cumulative sum along ``axis`` is divided by its final entry so
    the last value is exactly 1.0 — without this, floating-point dust in
    the row sum could make the final state unreachable (or reachable
    with the wrong mass) at the very top of the unit interval.
    """
    arr = np.asarray(probabilities, dtype=float)
    cum = np.cumsum(arr, axis=axis)
    last = np.take(cum, [-1], axis=axis)
    if not np.all(last > 0):
        raise ValueError("each distribution must have positive total mass")
    return cum / last


def sample_categorical(cumsum: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one category index from a compiled cumulative row.

    Consumes exactly one uniform; ``side="right"`` makes zero-probability
    leading categories unreachable even for a draw of exactly 0.0.
    """
    index = int(np.searchsorted(cumsum, rng.random(), side="right"))
    if index >= cumsum.shape[-1]:  # u landed beyond the last entry
        index = cumsum.shape[-1] - 1
    return index


def sample_categorical_batch(
    cumsum_rows: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Vectorized inverse-CDF draw: one row and one uniform per lane.

    This is the reference implementation of the batched ``side="right"``
    semantics; the vector backend's hot loop samples equivalently (but
    faster) via offset cumsums and a single ``searchsorted`` — see
    :mod:`repro.sim.backends.vector`.

    Parameters
    ----------
    cumsum_rows:
        ``(n_lanes, n_categories)`` compiled cumulative rows.
    uniforms:
        ``(n_lanes,)`` uniforms in ``[0, 1)``.

    Returns
    -------
    numpy.ndarray
        ``(n_lanes,)`` int64 category indices with the same
        ``side="right"`` semantics as :func:`sample_categorical`.
    """
    # Counting entries <= u is exactly searchsorted(..., side="right")
    # applied row-wise; category counts here are small (system
    # components), so the dense comparison beats per-row searchsorted.
    indices = np.sum(cumsum_rows <= uniforms[:, None], axis=1, dtype=np.int64)
    np.clip(indices, 0, cumsum_rows.shape[1] - 1, out=indices)
    return indices
