"""Fleet telemetry: periodic snapshots of device and fleet metrics.

Every ``telemetry_every`` ticks the controller folds the fleet's
per-device accumulators into one :func:`snapshot` record — fleet-level
aggregates (mean/min/max of every per-slice metric average, summed
request counters) plus, optionally, one sub-record per device — and
hands it to a sink.

Records are **pure functions of fleet state**: no wall-clock
timestamps, no environment probes, insertion-ordered device traversal.
That is what makes the checkpoint/resume contract testable — a resumed
campaign's telemetry must be byte-identical to an uninterrupted run's
(see ``tests/test_runtime_fleet.py``).

Sinks:

* :class:`MemoryTelemetry` — keeps records in a list (tests, notebooks);
* :class:`JsonLinesTelemetry` — appends one compact JSON object per
  line to a file (the ``repro-dpm fleet --telemetry`` artifact).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from repro import faults
from repro.runtime.fleet import COUNTER_COLUMNS, Device, Fleet
from repro.util.validation import ValidationError

__all__ = [
    "DEVICE_RECORD_FIELDS",
    "JsonLinesTelemetry",
    "MemoryTelemetry",
    "SNAPSHOT_FIELDS",
    "device_record",
    "fleet_fold",
    "snapshot",
    "snapshot_from_folds",
    "snapshot_from_records",
]

#: The complete field set of a device sub-record.  Declared once here;
#: ``repro.lint`` rule SCH001 statically checks every marked writer
#: against it, so a writer cannot silently grow or rename a field.
DEVICE_RECORD_FIELDS = frozenset(
    {
        "id",
        "slices",
        "state",
        "averages",
        "arrivals",
        "serviced",
        "lost",
        "loss_event_slices",
        "agent",
        "workload",
    }
)

#: The complete field set of a fleet snapshot record, including the
#: optional fields stamped by the controller (``devices`` under
#: ``per_device=True``) and by the fleet daemon
#: (``quarantined`` — shard indices parked by the supervisor's
#: crash-loop breaker, only present when non-empty so fault-free
#: snapshots stay byte-identical to single-process ones).
#: Machine-checked like :data:`DEVICE_RECORD_FIELDS` — the
#: controller's writers carry cross-module
#: ``schema=repro.runtime.telemetry:SNAPSHOT_FIELDS`` markers.
SNAPSHOT_FIELDS = frozenset(
    {
        "tick",
        "n_devices",
        "fleet_slices",
        "metrics",
        "counters",
        "devices",
        "quarantined",
    }
)


def device_record(device: Device) -> dict:  # repro-lint: schema=DEVICE_RECORD_FIELDS
    """One device's telemetry sub-record."""
    ints, _ = device.row_values()  # in INT_COLUMNS order
    s, r, q, slices, arrivals, serviced, lost, loss_events = ints
    return {
        "id": device.device_id,
        "slices": slices,
        "state": [s, r, q],
        "averages": device.averages,
        "arrivals": arrivals,
        "serviced": serviced,
        "lost": lost,
        "loss_event_slices": loss_events,
        "agent": device.agent.describe(),
        "workload": device.stream.describe() if device.stream else "model",
    }


def _fold_metrics(series: dict) -> dict:
    """Fold per-device metric averages into fleet mean/min/max.

    The one reduction every snapshot producer shares — the in-process
    :func:`snapshot` and the daemon-side :func:`snapshot_from_records`
    and :func:`snapshot_from_folds` — so for equal device states they
    emit byte-identical records.
    ``series`` maps each metric name to the chunks (1-D float arrays)
    holding the averages of the devices that register it.  The mean
    is exactly rounded (``math.fsum``), so neither the chunking nor
    the order of devices, nor the Python version, can change its bits.
    """
    metrics = {}
    for name, chunks in series.items():
        values = np.concatenate(chunks)
        metrics[name] = {
            "mean": math.fsum(values.tolist()) / values.size,
            "min": float(values.min()),
            "max": float(values.max()),
        }
    return metrics


def fleet_fold(fleet: Fleet) -> tuple:
    """One fleet partition's share of a snapshot, without its devices.

    ``(n_devices, fleet_slices, counter sums, {metric: averages})``:
    the counter sums in :data:`COUNTER_COLUMNS` order, and per metric
    — in the order a walk over the partition's devices first meets it
    — one float array of the per-slice averages of the devices that
    register it.  Everything is read straight from the fleet's column
    sets.  :func:`snapshot` folds a whole fleet as one partition; a
    shard worker returns its partition's fold every tick in place of
    one record per device.
    """
    series: dict[str, list] = {}
    counters = np.zeros(len(COUNTER_COLUMNS), dtype=np.int64)
    for columns in fleet.column_sets():
        totals = columns.totals[: columns.n]
        slices = columns.slices[: columns.n]
        # A device that has not stepped yet averages 0.0.
        averages = np.zeros_like(totals)
        np.divide(
            totals, slices[:, None], out=averages, where=slices[:, None] > 0
        )
        for m, name in enumerate(columns.metric_names):
            series.setdefault(name, []).append(averages[:, m])
        counters += columns.counters[: columns.n].sum(axis=0)
    return (
        len(fleet),
        fleet.total_slices,
        counters.tolist(),
        {name: np.concatenate(chunks) for name, chunks in series.items()},
    )


def snapshot_from_folds(  # repro-lint: schema=SNAPSHOT_FIELDS
    tick: int, folds, metric_names=()
) -> dict:
    """Assemble a fleet snapshot from partitions' :func:`fleet_fold`\\ s.

    The fold behind :func:`snapshot` and the service daemon's per-tick
    aggregation.  ``metric_names`` orders the ``metrics`` keys: the
    order a walk over the whole fleet in registration order first
    meets each name, which no partition of a sharded fleet knows on
    its own (names it omits follow in the order the folds meet them).
    The mean is exactly rounded, so how the devices are partitioned
    cannot change a bit of the record.
    """
    series: dict[str, list] = {name: [] for name in metric_names}
    n_devices = fleet_slices = 0
    counters = [0] * len(COUNTER_COLUMNS)
    for n, slices, sums, averages in folds:
        n_devices += n
        fleet_slices += slices
        counters = [total + value for total, value in zip(counters, sums)]
        for name, values in averages.items():
            series.setdefault(name, []).append(values)
    return {
        "tick": int(tick),
        "n_devices": n_devices,
        "fleet_slices": fleet_slices,
        "metrics": _fold_metrics(
            {name: chunks for name, chunks in series.items() if chunks}
        ),
        "counters": dict(zip(COUNTER_COLUMNS, counters)),
    }


def snapshot(  # repro-lint: schema=SNAPSHOT_FIELDS
    fleet: Fleet, tick: int, per_device: bool = False
) -> dict:
    """Aggregate the fleet's accumulators into one snapshot record.

    Per-metric aggregates are computed over the devices that register
    the metric (heterogeneous fleets may not share cost models), metric
    names in the order a walk over the devices first meets them;
    counters are fleet-wide sums.  The fleet is folded as one
    partition (:func:`fleet_fold`).
    """
    record = snapshot_from_folds(tick, [fleet_fold(fleet)])
    if per_device:
        record["devices"] = [device_record(device) for device in fleet]
    return record


def snapshot_from_records(  # repro-lint: schema=SNAPSHOT_FIELDS
    tick: int, records: list, per_device: bool = False
) -> dict:
    """Assemble a fleet snapshot from per-device :func:`device_record`\\ s.

    The service daemon's aggregation path: shard workers report their
    devices' records, the daemon orders them canonically (global
    registration order) and folds them here through the *same*
    reduction as :func:`snapshot` — so for equal device states the two
    producers emit byte-identical records.
    """
    values: dict[str, list[float]] = {}
    for record in records:
        for name, value in record["averages"].items():
            values.setdefault(name, []).append(value)
    series = {name: [np.asarray(v, dtype=float)] for name, v in values.items()}
    record = {
        "tick": int(tick),
        "n_devices": len(records),
        "fleet_slices": sum(int(r["slices"]) for r in records),
        "metrics": _fold_metrics(series),
        "counters": {
            name: sum(r[name] for r in records) for name in COUNTER_COLUMNS
        },
    }
    if per_device:
        record["devices"] = list(records)
    return record


class MemoryTelemetry:
    """In-memory sink: appends every record to :attr:`records`."""

    def __init__(self):
        self.records: list[dict] = []

    def record(self, record: dict) -> None:
        """Store one snapshot record."""
        self.records.append(record)

    def close(self) -> None:
        """No-op (symmetry with file-backed sinks)."""


class JsonLinesTelemetry:
    """JSON-lines sink: one ``json.dumps(record, sort_keys=True)`` per line.

    Parameters
    ----------
    path:
        Output file.  Opened lazily on the first record, so constructing
        a sink for a run that fails before producing telemetry never
        truncates an existing file.
    append:
        Open in append mode — what a resumed campaign uses so its
        telemetry continues the original file.
    flush_every:
        Records between flushes (default 1: every record reaches the
        OS before the next tick starts).  Raising it trades crash
        durability for throughput on very large fleets.
    fsync:
        When True, every flush is followed by ``os.fsync`` so the
        record survives not just a process crash but a machine one —
        the fleet daemon's telemetry mode, where a killed worker or a
        crashed daemon must never lose an emitted tick.

    Crash-safety semantics: each record is emitted as a *single*
    ``write()`` of the full line (json + newline), so a concurrent
    reader never sees an interleaved record, and a crash can only tear
    the final line.  Opening in append mode repairs such a torn tail —
    the file is truncated back to its last complete (newline-ended)
    line before new records continue it, so a resumed campaign's file
    stays valid JSON-lines end to end.  A failing ``os.fsync`` is
    tolerated rather than fatal: the sync is retried on the next flush
    (and once more at :meth:`close`) and counted in
    :attr:`fsync_failures` — telemetry durability degrades before the
    fleet does.
    """

    def __init__(
        self,
        path,
        append: bool = False,
        flush_every: int = 1,
        fsync: bool = False,
    ):
        flush_every = int(flush_every)
        if flush_every <= 0:
            raise ValidationError(
                f"flush_every must be > 0, got {flush_every}"
            )
        self._path = Path(path)
        self._append = bool(append)
        self._flush_every = flush_every
        self._fsync = bool(fsync)
        self._pending = 0
        self._fsync_pending = False
        self._file = None
        #: fsync failures tolerated so far (degraded durability).
        self.fsync_failures = 0

    @property
    def path(self) -> Path:
        """The output path."""
        return self._path

    def _repair_tail(self) -> None:
        """Truncate a torn final line before appending to the file.

        A writer killed mid-``write`` can leave a last line without a
        terminating newline; everything up to the previous newline is
        complete records.  Dropping the torn tail keeps the file valid
        JSON-lines and lets the resumed run re-emit the lost record.
        """
        try:
            raw = self._path.read_bytes()
        except OSError:
            return
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1
        with open(self._path, "r+b") as fh:
            fh.truncate(keep)

    def _flush(self) -> None:
        self._file.flush()
        if self._fsync:
            try:
                faults.TELEMETRY_FSYNC.fire(path=str(self._path))
                os.fsync(self._file.fileno())
                self._fsync_pending = False
            except OSError:
                # Data reached the OS (flush succeeded); durability is
                # degraded, not lost.  Retry on the next flush.
                self.fsync_failures += 1
                self._fsync_pending = True
        self._pending = 0

    def record(self, record: dict) -> None:
        """Serialize one snapshot record; flush per ``flush_every``."""
        if self._file is None:
            if self._append:
                self._repair_tail()
            self._file = open(self._path, "a" if self._append else "w")
        # One write per record: a crash tears at most the final line
        # and concurrent readers never see a partial interleave.
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._pending += 1
        if self._pending >= self._flush_every:
            self._flush()

    def close(self) -> None:
        """Flush and close the underlying file (no-op when nothing was
        recorded)."""
        if self._file is not None and not self._file.closed:
            if self._pending or self._fsync_pending:
                self._flush()
            self._file.close()

    def __enter__(self) -> "JsonLinesTelemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
