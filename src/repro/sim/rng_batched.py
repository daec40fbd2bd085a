"""Vectorized PCG64: advance thousands of device streams as array ops.

The fleet's determinism contract gives every device a private
:class:`numpy.random.PCG64` stream, and the batch kernels consume those
streams through a ``(chunk, kinds, lanes)`` uniform block.  The
reference producer (:class:`~repro.sim.rng.FanInSource`) loops the
lanes serially — one ``Generator.random`` call per device per chunk —
which at 100k devices turns randomness plumbing into the tick's
dominant cost.  This module replaces the loop with the *same math in
stacked form*:

* A stream's *position* is one row of a ``(n, 4)`` uint64 array holding
  ``[state_hi, state_lo, inc_hi, inc_lo]`` — the 128-bit LCG state and
  increment of its PCG64, the exact integers of the
  ``bit_generator.state`` dict numpy pickles.  A fleet stores its
  devices' streams as this very layout, one ``pcg`` column per column
  set (see :mod:`repro.runtime.fleet`).
* One draw advances every lane at once: the 128-bit multiply-add
  ``state = state * MULT + inc (mod 2**128)`` is computed with 32-bit
  limb products in uint64 arrays, then the XSL-RR output function
  ``rotr64(hi ^ lo, hi >> 58)`` and the ``Generator.random`` double
  conversion ``(next64 >> 11) * 2**-53`` are applied row by row, so the
  working set stays cache-resident at any chunk length.
* The ``(draws, lanes)`` output grid *is* the ``(chunk, kinds, lanes)``
  block in row-major order — lane ``l``'s draws appear in ``(slice,
  kind)`` order, exactly the order the serial fan-in produces — so the
  final reshape is zero-copy and there is no per-lane scatter at all.

The result is **byte-identical per lane** to each device's private
stream: the same doubles the device's own ``Generator.random`` would
return, and the same final state afterwards.  The equivalence is
self-checked at import of the first source (:func:`batched_available`):
the PCG64 multiplier is derived from observed state transitions rather
than hard-coded, so a numpy build with a different PCG variant degrades
to ``batched_available() == False`` instead of corrupting streams.

:class:`BatchedPCG64Source` draws from and advances the rows of a
position column *in place*, so the column always holds every stream's
current position and there is no generator object to bring up to
date afterwards.  Generators and positions convert both ways:
:func:`pcg64_position` reads a clean PCG64 generator's row (``None``
for any other stream) and :func:`pcg64_generator` builds a fresh
generator standing at a row.  A row of zeros holds no position (a
PCG64 increment is always odd, :func:`holds_position`); the fleet
gives that row to a device whose stream stays a generator object.
When the serial fan-in serves a block, a :class:`PositionStream`
draws each row through one shared generator, so the fallback needs
no generator per device either.

Streams are *seeded* in stacked form too: :func:`device_positions`
returns the starting positions of ``device_rng(seed, i)`` for a block
of indices without building a generator per device.  It runs numpy's
:class:`~numpy.random.SeedSequence` hash mixing on uint32 lanes — only
the spawn-key word differs between devices, so everything mixed before
it is computed once per seed — then PCG64's two seeding steps with the
same 128-bit limb math the draws use.  The same self-check compares it
with ``device_rng``; where the check fails, every position comes from
a per-device ``device_rng``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.sim.rng import device_rng
from repro.util.validation import ValidationError

__all__ = [
    "BatchedPCG64Source",
    "PositionStream",
    "batched_available",
    "batched_unavailable_reason",
    "derive_pcg64_multiplier",
    "device_positions",
    "holds_position",
    "pcg64_generator",
    "pcg64_position",
]

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_S58 = np.uint64(58)
_S63 = np.uint64(63)
_U64 = np.uint64(64)
_MOD128 = 1 << 128
_MASK64 = (1 << 64) - 1
#: ``Generator.random`` double conversion: ``(next64 >> 11) * 2**-53``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0

# numpy's SeedSequence hashing constants (``numpy/random/bit_generator``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_WORD = 0xFFFFFFFF


def derive_pcg64_multiplier() -> int | None:
    """Solve this numpy build's PCG64 LCG multiplier from observed state.

    PCG64 advances ``state' = state * m + inc (mod 2**128)`` with a
    build-dependent constant ``m`` (upstream numpy has shipped more
    than one).  Two observed transitions give
    ``m = (s2 - s1) / (s1 - s0) (mod 2**128)``; the divisor is odd
    (hence invertible) whenever the two raw outputs differ in parity of
    the step, so a handful of seeds always yields a solution.  The
    candidate is verified against a third transition and an
    independently seeded stream before being trusted; ``None`` means no
    consistent multiplier exists and the vectorized path must stay off.
    """
    for seed in range(8):
        bit_generator = np.random.PCG64(seed)
        inc = bit_generator.state["state"]["inc"]
        s0 = bit_generator.state["state"]["state"]
        bit_generator.random_raw(1)
        s1 = bit_generator.state["state"]["state"]
        bit_generator.random_raw(1)
        s2 = bit_generator.state["state"]["state"]
        step = (s1 - s0) % _MOD128
        if step % 2 == 0:
            continue
        mult = ((s2 - s1) * pow(step, -1, _MOD128)) % _MOD128
        if (s1 * mult + inc) % _MOD128 != s2:
            continue
        # Cross-check on a third transition and a different stream.
        bit_generator.random_raw(1)
        s3 = bit_generator.state["state"]["state"]
        if (s2 * mult + inc) % _MOD128 != s3:
            return None
        other = np.random.PCG64(seed + 101)
        o_inc = other.state["state"]["inc"]
        o0 = other.state["state"]["state"]
        other.random_raw(1)
        if (o0 * mult + o_inc) % _MOD128 != other.state["state"]["state"]:
            return None
        return mult
    return None


#: Lazily derived multiplier and availability verdict (module cache).
_DERIVED: dict | None = None


def _derived() -> dict:
    global _DERIVED
    if _DERIVED is not None:
        return _DERIVED
    mult = derive_pcg64_multiplier()
    if mult is None:
        _DERIVED = {
            "mult": None,
            "reason": (
                "could not derive a consistent PCG64 LCG multiplier from "
                "observed state transitions (unsupported numpy build)"
            ),
        }
        return _DERIVED
    # End-to-end self-check: a stacked draw must be byte-identical to
    # the serial per-generator draws *and* land on the same final
    # bit-generator states.
    reference = [np.random.default_rng(20_000 + i) for i in range(3)]
    rows = np.array(
        [pcg64_position(generator) for generator in reference],
        dtype=np.uint64,
    )
    block = _draw_block(rows, None, 5, 4, mult)
    expected = np.empty_like(block)
    for lane, generator in enumerate(reference):
        expected[:, :, lane] = generator.random((5, 4))
    states_match = all(
        tuple(rows[lane].tolist()) == pcg64_position(reference[lane])
        for lane in range(3)
    )
    if not (block == expected).all() or not states_match:
        _DERIVED = {
            "mult": None,
            "reason": (
                "vectorized PCG64 self-check diverged from "
                "Generator.random on this numpy build"
            ),
        }
    elif not _seeding_matches(mult):
        _DERIVED = {
            "mult": None,
            "reason": (
                "vectorized stream seeding diverged from device_rng on "
                "this numpy build"
            ),
        }
    else:
        _DERIVED = {"mult": mult, "reason": None}
    return _DERIVED


#: Seeds the seeding self-check covers (one to five entropy words) and
#: the indices it seeds each at (the first and last one-word keys).
_CHECK_SEEDS = (0, 12345, 2**32, 2**130 + 99)
_CHECK_INDICES = (0, 1, _WORD)


def _seeding_matches(mult: int) -> bool:
    """Does :func:`_seed_block` start where ``device_rng`` does?"""
    indices = np.array(_CHECK_INDICES, dtype=np.uint32)
    for seed in _CHECK_SEEDS:
        block = _seed_block(seed, indices, mult)
        for row, index in zip(block.tolist(), _CHECK_INDICES):
            if tuple(row) != pcg64_position(device_rng(seed, index)):
                return False
    return True


def batched_available() -> bool:
    """Can the vectorized PCG64 path run on this numpy build?

    True only after the derived multiplier passes the byte-identity
    self-check against ``Generator.random``.  The verdict is cached;
    a False here makes the fleet controller serve every lane block
    from the serial fan-in.
    """
    return _derived()["mult"] is not None


def batched_unavailable_reason() -> str | None:
    """Why :func:`batched_available` is False (None when available)."""
    return _derived()["reason"]


def pcg64_position(generator) -> tuple[int, int, int, int] | None:
    """``generator``'s stream as a position row, or ``None``.

    ``(state_hi, state_lo, inc_hi, inc_lo)`` for a clean PCG64 stream;
    ``None`` for any other generator, which the vectorized path cannot
    carry: another bit generator, or a PCG64 holding a buffered
    half-draw (``has_uint32`` — the fleet only ever draws doubles, but
    a user-injected generator could arrive mid-``integers`` call, and
    a position row has no room for its buffered word).
    """
    try:
        state = generator.bit_generator.state
    except AttributeError:
        return None
    if state.get("bit_generator") != "PCG64" or state.get("has_uint32", 0):
        return None
    raw = state["state"]
    return (
        raw["state"] >> 64,
        raw["state"] & _MASK64,
        raw["inc"] >> 64,
        raw["inc"] & _MASK64,
    )


def _pcg64_state(position) -> dict:
    """The ``bit_generator.state`` dict of a clean PCG64 at ``position``
    (four Python ints)."""
    s_hi, s_lo, inc_hi, inc_lo = position
    return {
        "bit_generator": "PCG64",
        "state": {"state": (s_hi << 64) | s_lo, "inc": (inc_hi << 64) | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


class _PositionSeed(ISeedSequence):
    """The seed sequence of a generator built at a position.

    A position has no seed tree behind it, so this one seeds nothing
    (the position is set right after) and refuses to spawn.  It also
    spares the hashing a real :class:`numpy.random.SeedSequence` would
    cost on every materialization.
    """

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_POSITION_SEED = _PositionSeed()


def pcg64_generator(position) -> np.random.Generator:
    """A fresh generator whose PCG64 stands at ``position``.

    ``position`` is one ``[state_hi, state_lo, inc_hi, inc_lo]`` row;
    the generator's draws continue that stream exactly.  It cannot
    ``spawn``: a position carries no seed sequence.
    """
    bit_generator = np.random.PCG64(_POSITION_SEED)
    bit_generator.state = _pcg64_state([int(value) for value in position])
    return np.random.Generator(bit_generator)


def holds_position(positions: np.ndarray) -> np.ndarray:
    """Which rows of an ``(n, 4)`` position array hold a position.

    A PCG64 increment is odd, so a row whose ``inc_lo`` is even (the
    zero row) holds none.
    """
    return (positions[:, 3] & np.uint64(1)).astype(bool)


def _split_mult(mult: int) -> tuple:
    """The multiplier's uint64 scalar limbs for the stacked kernel."""
    return (
        np.uint64(mult >> 64),
        np.uint64(mult & _MASK64),
        np.uint64((mult >> 32) & 0xFFFFFFFF),
        np.uint64(mult & 0xFFFFFFFF),
    )


def _lcg_step(s_hi, s_lo, inc_hi, inc_lo, limbs, scratch, hh, lo) -> None:
    """``hh:lo = (s_hi:s_lo * MULT + inc_hi:inc_lo) mod 2**128``, per lane.

    The 128-bit product is schoolbook multiplication over 32-bit limbs
    in uint64 arrays.  ``limbs`` is :func:`_split_mult`'s output,
    ``scratch`` six lane-sized uint64 buffers; ``hh`` and ``lo`` must
    not alias the inputs.
    """
    m_hi, m_lo, m_lo_hi, m_lo_lo = limbs
    a_lo, a_hi, ll, lh, hl, t = scratch
    # --- state * MULT ---
    np.bitwise_and(s_lo, _M32, out=a_lo)
    np.right_shift(s_lo, _S32, out=a_hi)
    np.multiply(a_lo, m_lo_lo, out=ll)
    np.multiply(a_lo, m_lo_hi, out=lh)
    np.multiply(a_hi, m_lo_lo, out=hl)
    np.multiply(a_hi, m_lo_hi, out=hh)
    np.right_shift(ll, _S32, out=t)
    np.bitwise_and(lh, _M32, out=a_lo)
    t += a_lo
    np.bitwise_and(hl, _M32, out=a_lo)
    t += a_lo
    np.bitwise_and(ll, _M32, out=lo)
    np.left_shift(t, _S32, out=a_lo)  # (t & M32) << 32 == t << 32
    lo |= a_lo
    lh >>= _S32
    hh += lh
    hl >>= _S32
    hh += hl
    t >>= _S32
    hh += t
    np.multiply(s_lo, m_hi, out=a_lo)  # cross terms into the hi limb
    hh += a_lo
    np.multiply(s_hi, m_lo, out=a_lo)
    hh += a_lo
    # --- + inc (with carry) ---
    lo += inc_lo
    carry = lo < inc_lo
    hh += inc_hi
    hh += carry


def _lane_buffers(n_lanes: int, count: int) -> list:
    return [np.empty(n_lanes, dtype=np.uint64) for _ in range(count)]


def _draw_block(
    positions: np.ndarray, rows, chunk: int, n_kinds: int, mult: int
):
    """Advance lanes ``chunk * n_kinds`` steps, collecting outputs.

    The lanes are ``rows`` of the ``(n, 4)`` uint64 ``positions``
    (every row when ``rows`` is None), which are overwritten with the
    post-draw states.  Returns the ``(chunk, n_kinds, n_lanes)``
    float64 block.  All arithmetic runs on contiguous per-column
    copies; each draw is ~35 ufunc passes over ``n_lanes``-sized
    arrays, and the XSL-RR output + double conversion happen row by row
    so the working set never leaves cache.
    """
    lanes = slice(None) if rows is None else rows
    total = chunk * n_kinds
    limbs = _split_mult(mult)
    s_hi = np.ascontiguousarray(positions[lanes, 0])
    s_lo = np.ascontiguousarray(positions[lanes, 1])
    inc_hi = np.ascontiguousarray(positions[lanes, 2])
    inc_lo = np.ascontiguousarray(positions[lanes, 3])
    n_lanes = s_hi.shape[0]
    scratch = _lane_buffers(n_lanes, 6)
    a_lo, a_hi, ll, _, _, t = scratch
    hh, lo = _lane_buffers(n_lanes, 2)
    out = np.empty((total, n_lanes))
    for row in range(total):
        _lcg_step(s_hi, s_lo, inc_hi, inc_lo, limbs, scratch, hh, lo)
        # --- XSL-RR output + double conversion, this row only ---
        np.bitwise_xor(hh, lo, out=a_lo)  # xored halves
        np.right_shift(hh, _S58, out=a_hi)  # rotation counts
        np.right_shift(a_lo, a_hi, out=ll)
        np.subtract(_U64, a_hi, out=t)
        t &= _S63
        a_lo <<= t
        ll |= a_lo
        ll >>= _S11
        np.multiply(ll, _DOUBLE_SCALE, out=out[row])
        # The freshly advanced (hh, lo) become the state; the old state
        # buffers are recycled as next iteration's scratch.
        s_hi, s_lo, hh, lo = hh, lo, s_hi, s_lo
    positions[lanes, 0] = s_hi
    positions[lanes, 1] = s_lo
    # Lane l's rows are its draws in (slice, kind) order, so the
    # (total, lanes) grid *is* the (chunk, kinds, lanes) block.
    return out.reshape(chunk, n_kinds, n_lanes)


# ----------------------------------------------------------------------
# seeding: SeedSequence + PCG64 initialization on lanes
# ----------------------------------------------------------------------
# The hash steps below take a Python int (a word every device shares)
# or a uint32 array (one word per lane) alike: uint32 lanes wrap on
# their own, and the ``& _WORD`` masks reduce Python ints the same way.
def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix``: the mixed value and the next constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _WORD
    value = value * hash_const & _WORD
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words."""
    result = ((_MIX_MULT_L * x & _WORD) - _MIX_MULT_R * y) & _WORD
    return result ^ result >> _XSHIFT


def _entropy_words(value: int) -> list:
    """``value`` as SeedSequence entropy: little-endian 32-bit words."""
    words = [value & _WORD]
    value >>= 32
    while value:
        words.append(value & _WORD)
        value >>= 32
    return words


def _seed_block(seed: int, words: np.ndarray, mult: int) -> np.ndarray:
    """Starting positions of ``device_rng(seed, i)`` for each ``i`` in
    ``words`` (a uint32 array of one-word spawn keys), ``(n, 4)``."""
    # SeedSequence.mix_entropy: the run entropy, padded to the pool size
    # because a spawn key follows, then the spawn-key word.  Only that
    # last word differs between lanes.
    entropy = _entropy_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A
    pool: list = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in [*entropy[_POOL_SIZE:], words]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    # SeedSequence.generate_state(4, uint64): eight words off the pool,
    # paired little-endian into PCG64's seed and stream words.
    hash_const = _INIT_B
    halves: list = []
    for k in range(8):
        value, hash_const = _hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B)
        halves.append(value.astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        halves[k] | halves[k + 1] << _S32 for k in range(0, 8, 2)
    )
    # PCG64 seeding: inc = seq << 1 | 1, then state = (inc + seed) * MULT
    # + inc, the second of its two LCG steps from a zero state.
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> _S63
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    s_lo = inc_lo + seed_lo
    s_hi = inc_hi + seed_hi + (s_lo < inc_lo)
    n_lanes = words.shape[0]
    hh, lo = _lane_buffers(n_lanes, 2)
    _lcg_step(
        s_hi, s_lo, inc_hi, inc_lo, _split_mult(mult),
        _lane_buffers(n_lanes, 6), hh, lo,
    )
    return np.stack([hh, lo, inc_hi, inc_lo], axis=1)


def device_positions(seed: int, indices) -> np.ndarray:
    """The positions ``device_rng(seed, i)`` starts at, one row per ``i``.

    ``indices`` are non-negative device indices; returns their
    ``(n, 4)`` uint64 position rows, byte-identical to
    ``pcg64_position(device_rng(seed, i))``.  Indices below 2**32 (one
    spawn-key word) are seeded in one array pass once the self-check
    (:func:`batched_available`) passes.  A larger index, and every
    index on a build failing the check, takes a per-device
    ``device_rng``.
    """
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"stream seed must be >= 0, got {seed}")
    indices = np.asarray(indices, dtype=np.uint64)
    mult = _derived()["mult"]
    batched = indices <= _WORD
    if mult is None:
        batched[:] = False
    positions = np.empty((indices.shape[0], 4), dtype=np.uint64)
    if batched.any():
        positions[batched] = _seed_block(
            seed, indices[batched].astype(np.uint32), mult
        )
    for k in np.flatnonzero(~batched):
        positions[k] = pcg64_position(device_rng(seed, int(indices[k])))
    return positions


class BatchedPCG64Source:
    """The vectorized :class:`~repro.sim.rng.UniformSource`.

    Lane ``l`` is row ``rows[l]`` of ``positions``, an ``(n, 4)``
    uint64 position column (in a fleet, a column set's ``pcg``
    column).  Each block is drawn with the stacked PCG64 math of
    :func:`_draw_block` — byte-identical to each lane's private
    stream — and the advanced states are written straight back
    to those rows, so the column always holds every lane's current
    position.

    Parameters
    ----------
    positions:
        The ``(n, 4)`` uint64 position column, drawn from and advanced
        in place.
    rows:
        The lanes' row indices, lane order (default: every row).  Each
        must hold a position (:func:`holds_position`).
    n_kinds / max_chunk:
        Declared request geometry, enforced like
        :class:`~repro.sim.rng.FanInSource` — a mismatched kernel
        request raises instead of desynchronizing streams.
    """

    def __init__(
        self,
        positions: np.ndarray,
        rows=None,
        n_kinds: int | None = None,
        max_chunk: int | None = None,
    ):
        self._mult = _available_mult()
        if (
            not isinstance(positions, np.ndarray)
            or positions.dtype != np.uint64
            or positions.ndim != 2
            or positions.shape[1] != 4
        ):
            raise ValidationError(
                "positions must be an (n, 4) uint64 array of PCG64 "
                "stream positions"
            )
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
        lanes = positions if rows is None else positions[rows]
        missing = np.flatnonzero(~holds_position(lanes))
        if missing.size:
            raise ValidationError(
                f"lane {int(missing[0])}: row holds no PCG64 position "
                f"(its stream is not a clean PCG64); use the serial "
                f"fan-in for this block"
            )
        self._positions = positions
        self._rows = rows
        self._n_lanes = lanes.shape[0]
        self._n_kinds = None if n_kinds is None else int(n_kinds)
        self._max_chunk = None if max_chunk is None else int(max_chunk)

    @property
    def n_lanes(self) -> int:
        """Number of lanes served."""
        return self._n_lanes

    def random(self, shape) -> np.ndarray:
        """Fill a ``(chunk, kinds, lanes)`` block, advancing the rows."""
        chunk, n_kinds, _ = _validate_shape(
            shape, self._n_lanes, self._n_kinds, self._max_chunk
        )
        return _draw_block(
            self._positions, self._rows, chunk, n_kinds, self._mult
        )

    def sync(self) -> None:
        """Nothing to flush: every draw already advanced its rows."""


class PositionStream:
    """One row of a position column, drawn through a shared generator.

    The serial fan-in's lane for a stream kept as a position:
    :meth:`random` seats ``generator`` (any PCG64 generator; the lanes
    of one block share one) at row ``row`` of ``positions``, draws, and
    writes the advanced position back.  The draws are exactly those of
    a generator materialized at the row, and the row is current after
    every call, so the lane needs no generator object of its own.
    """

    __slots__ = ("_positions", "_row", "_generator")

    def __init__(self, positions: np.ndarray, row: int, generator):
        self._positions = positions
        self._row = int(row)
        self._generator = generator

    def random(self, shape) -> np.ndarray:
        """Draw ``shape`` doubles from the row's stream, advancing it."""
        positions, row = self._positions, self._row
        bit_generator = self._generator.bit_generator
        bit_generator.state = _pcg64_state(positions[row].tolist())
        block = self._generator.random(shape)
        # Only the state moved; the increment is the row's own.
        state = bit_generator.state["state"]["state"]
        positions[row, 0] = state >> 64
        positions[row, 1] = state & _MASK64
        return block


def _available_mult() -> int:
    """The self-checked multiplier, or a ValidationError saying why not."""
    if not batched_available():
        raise ValidationError(
            f"vectorized PCG64 unavailable: {batched_unavailable_reason()}"
        )
    return _derived()["mult"]


def _validate_shape(shape, n_lanes, n_kinds, max_chunk):
    from repro.sim.rng import _validate_block_shape

    return _validate_block_shape(
        shape, n_lanes, n_kinds, max_chunk, "BatchedPCG64Source"
    )
