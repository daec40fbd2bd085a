"""Fleet checkpointing: save and resume long campaigns deterministically.

A checkpoint captures *everything* the controller needs to continue as
if it had never stopped: every device's model, agent (including
internal heuristic state), accumulators, current joint state, workload
stream cursor and — crucially — its random stream: the PCG64 position
in the fleet's ``pcg`` column, or the generator object of a device
that keeps one (see :mod:`repro.runtime.fleet`).  Because
fleet randomness is per-device (see
:mod:`repro.runtime.controller`), a resumed campaign consumes each
device's stream from exactly where the checkpoint left it, and the
telemetry it goes on to produce is byte-identical to an uninterrupted
run's.

The format is a versioned pickle (protocol 4) of a plain payload
mapping.  Pickle is the right tool here: device state is arbitrary
Python (stateful agents, trackers, stream-driven devices' numpy
generators), the file is a private save-game rather than an
interchange format, and loading one is as trusted as importing the
code that wrote it.  The ``fleet`` entry is the
:class:`~repro.runtime.fleet.Fleet` pickle — its column arrays, stream
positions included, plus one tuple of shared-object references per
device — which is also what shard spools and gather replies carry.
Fleets pickled in the earlier per-device form (each device its own
field mapping), and fleets pickled before stream positions were a
column (a generator per device), still load: their clean PCG64
generators become positions, so the resumed run continues exactly.  A
build that predates the position column cannot read a new checkpoint
and reports it as not readable.  The ``uniform_source``
field that earlier payloads carried is ignored on load (the controller
picks the uniform producer itself).  The ``backend`` field is always
written as ``"auto"`` and otherwise ignored — the controller picks
each device's stepping path itself — except that a checkpoint saved
with ``backend="loop"`` is refused: its stationary devices stepped on
the per-device loop, and resuming them on the vector kernel would move
them onto the kernel's random-number order.  Every payload records the
chunk length the fleet was stepped at, always
:data:`~repro.runtime.controller.FLEET_CHUNK_SLICES`; a checkpoint
written at another length (earlier builds let it be set) is refused on
load, because resuming it would regroup every device's float partial
sums and break byte identity with the run that wrote it.  Fleets
containing non-serializable members (a
:class:`~repro.runtime.streams.CallableStream`, an agent closed over a
lambda) are rejected with a clear error at save time instead of a
corrupt file at 3 a.m.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path

from repro import faults
from repro.runtime.controller import FLEET_CHUNK_SLICES
from repro.util.validation import ValidationError

__all__ = [
    "CHECKPOINT_FIELDS",
    "CHECKPOINT_VERSION",
    "checkpoint_payload",
    "load_checkpoint",
    "save_checkpoint",
    "write_checkpoint",
]

#: The complete field set of a checkpoint payload.  Declared once;
#: ``repro.lint`` rule SCH001 statically checks :func:`save_checkpoint`
#: against it, so the writer and :func:`load_checkpoint`'s readers
#: cannot drift apart silently.  Adding a field here is an explicit
#: schema decision — remember to bump :data:`CHECKPOINT_VERSION` when
#: the change is incompatible.
CHECKPOINT_FIELDS = frozenset(
    {
        "format",
        "version",
        "tick",
        "slices_per_tick",
        "backend",
        "chunk_slices",
        "telemetry_every",
        "telemetry_per_device",
        "fleet",
    }
)

#: Bump on incompatible payload changes; loaders reject mismatches.
CHECKPOINT_VERSION = 1

#: Payload marker distinguishing fleet checkpoints from arbitrary pickles.
_FORMAT = "repro-fleet-checkpoint"

#: Pinned pickle protocol (stable across the supported CPythons).
_PROTOCOL = 4


def checkpoint_payload(  # repro-lint: schema=CHECKPOINT_FIELDS
    fleet,
    tick: int,
    slices_per_tick: int,
    telemetry_every: int,
    telemetry_per_device: bool,
) -> dict:
    """Build a checkpoint payload from explicit run state.

    The shared producer behind :func:`save_checkpoint` (single-process
    controller) and the service daemon's gathered-fleet checkpoints —
    one payload literal, so the two paths cannot drift and a sharded
    daemon checkpoint is byte-identical to a single-process one for
    equal fleet state.  Raises
    :class:`~repro.util.validation.ValidationError` when any device
    cannot be serialized (live callable streams), naming the device.
    """
    for device in fleet:
        if device.stream is not None and not device.stream.checkpointable:
            raise ValidationError(
                f"device {device.device_id!r} is fed by a "
                f"non-checkpointable stream "
                f"({device.stream.describe()}); replace it with a "
                f"trace/synthetic stream to checkpoint this fleet"
            )
    return {
        "format": _FORMAT,
        "version": CHECKPOINT_VERSION,
        "tick": int(tick),
        "slices_per_tick": int(slices_per_tick),
        # Always "auto": kept so checkpoint bytes, and older readers,
        # stay as they were.
        "backend": "auto",
        "chunk_slices": FLEET_CHUNK_SLICES,
        "telemetry_every": int(telemetry_every),
        "telemetry_per_device": bool(telemetry_per_device),
        "fleet": fleet,
    }


#: fsync attempts before giving up (transient EIO on networked
#: filesystems is real; a checkpoint is worth three tries).
_FSYNC_ATTEMPTS = 3


def _fsync_with_retry(fh, path) -> None:
    """fsync ``fh``, retrying transient failures a bounded number of
    times.  The fault point lets chaos plans script the failure."""
    for attempt in range(1, _FSYNC_ATTEMPTS + 1):
        try:
            faults.CHECKPOINT_FSYNC.fire(path=str(path))
            os.fsync(fh.fileno())
            return
        except OSError:
            if attempt == _FSYNC_ATTEMPTS:
                raise
            time.sleep(0.01 * attempt)


def write_checkpoint(path, payload: dict, *, fsync: bool = False) -> None:
    """Serialize a :func:`checkpoint_payload` mapping to ``path``.

    The write is atomic — a temp file in the same directory is
    ``os.replace``\\ d over ``path`` — so a writer killed mid-save can
    never leave a torn checkpoint: ``path`` holds either the previous
    complete checkpoint or the new one.  The file bytes themselves are
    unchanged (a plain protocol-4 pickle).  ``fsync=True`` additionally
    syncs the temp file before the rename so the checkpoint survives
    machine crashes, not just process ones.
    """
    try:
        blob = pickle.dumps(payload, protocol=_PROTOCOL)
    except Exception as exc:
        raise ValidationError(
            f"fleet state is not serializable ({exc}); agents and streams "
            f"must avoid lambdas and open handles to be checkpointable"
        ) from exc
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            if fsync:
                _fsync_with_retry(fh, path)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_checkpoint(path, controller, *, fsync: bool = False) -> None:
    """Write ``controller``'s full fleet state to ``path``.

    Raises :class:`~repro.util.validation.ValidationError` when any
    device cannot be serialized (live callable streams, lambda-closure
    agents), naming the offending device.
    """
    write_checkpoint(
        path,
        checkpoint_payload(
            controller.fleet,
            controller.tick,
            controller.slices_per_tick,
            controller._telemetry_every,
            controller._telemetry_per_device,
        ),
        fsync=fsync,
    )


def load_checkpoint(path) -> dict:
    """Read and validate a checkpoint payload written by
    :func:`save_checkpoint`.

    Returns the payload mapping (``fleet``, ``tick``,
    ``slices_per_tick``, telemetry settings); use
    :meth:`~repro.runtime.controller.FleetController.resume` to turn
    it straight into a running controller.  Raises
    :class:`~repro.util.validation.ValidationError` for a payload whose
    ``chunk_slices`` is not :data:`FLEET_CHUNK_SLICES`, or one saved
    with ``backend="loop"``.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"checkpoint file {path} does not exist")
    try:
        payload = pickle.loads(path.read_bytes())
    except Exception as exc:
        raise ValidationError(
            f"checkpoint file {path} is not readable ({exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValidationError(
            f"{path} is not a repro fleet checkpoint"
        )
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValidationError(
            f"checkpoint version {version!r} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    pin = payload.get("chunk_slices")
    if pin != FLEET_CHUNK_SLICES:
        raise ValidationError(
            f"checkpoint {path} was stepped with chunk_slices={pin!r}; "
            f"this build steps fleets at {FLEET_CHUNK_SLICES} only"
        )
    if payload.get("backend") == "loop":
        raise ValidationError(
            f"checkpoint {path} was stepped with backend='loop'; its "
            f"vector-eligible devices would resume on the vector kernel, "
            f"whose random-number order differs, so the resumed run "
            f"would not continue the saved one"
        )
    return payload
