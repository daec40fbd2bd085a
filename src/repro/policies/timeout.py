"""Fixed-timeout shutdown policies (paper Section VI-A, ref [12]).

"Timeout-based policies are widely used for disk power management.
They shut down the disk when the user has been inactive for a time
longer than the timeout period."  The timeout is counted in slices of
observed idleness (no arrivals, empty queue); a pending request always
triggers the wake command.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Observation, PolicyAgent
from repro.util.validation import ValidationError


class TimeoutAgent(PolicyAgent):
    """Shut down after ``timeout`` consecutive idle slices.

    Parameters
    ----------
    timeout:
        Idle slices to wait before issuing the sleep command; 0
        degenerates to the eager policy.
    active_command:
        Command that (re)activates the provider; issued whenever work is
        pending and also during the countdown ("timeout-based policies
        waste power while waiting for a timeout to expire",
        Section VI-C).
    sleep_command:
        Command issued once the timeout expires, until work arrives.
    """

    def __init__(self, timeout: int, active_command: int, sleep_command: int):
        timeout = int(timeout)
        if timeout < 0:
            raise ValidationError(f"timeout must be >= 0, got {timeout}")
        self._timeout = timeout
        self._active = int(active_command)
        self._sleep = int(sleep_command)
        self._idle_slices = 0

    @property
    def timeout(self) -> int:
        """The configured timeout, in slices."""
        return self._timeout

    @property
    def active_command(self) -> int:
        """The command issued while work is pending or the timeout runs."""
        return self._active

    @property
    def sleep_command(self) -> int:
        """The command issued once the timeout has expired."""
        return self._sleep

    @property
    def idle_slices(self) -> int:
        """Consecutive idle slices observed so far (the countdown).

        Settable, so a stepper that applies this agent's rule outside
        :meth:`select_command` (the fleet's vector kernel) can carry it.
        """
        return self._idle_slices

    @idle_slices.setter
    def idle_slices(self, value: int) -> None:
        self._idle_slices = int(value)

    def reset(self) -> None:
        self._idle_slices = 0

    def select_command(
        self, observation: Observation, rng: np.random.Generator
    ) -> int:
        if observation.has_pending_work:
            self._idle_slices = 0
            return self._active
        self._idle_slices += 1
        if self._idle_slices > self._timeout:
            return self._sleep
        return self._active

    def describe(self) -> str:
        return f"timeout({self._timeout})"
