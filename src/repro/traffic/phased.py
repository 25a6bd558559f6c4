"""Phase-changing composite workloads.

A :class:`PhasedSource` cycles through several traffic sources at fixed
phase boundaries — the canonical stressor for runtime adaptation, since a
static per-application profile can only fit one of the phases (see
:mod:`repro.control` and the O-series experiments).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network


class PhasedSource:
    """A workload whose communication pattern changes at phase boundaries.

    Cycles through the given sources, spending ``phase_cycles`` on each.
    """

    def __init__(self, sources: list, phase_cycles: int):
        if not sources:
            raise ValueError("need at least one source")
        self.sources = list(sources)
        self.phase_cycles = phase_cycles

    def current(self, cycle: int):
        """The source active during ``cycle``'s phase."""
        index = (cycle // self.phase_cycles) % len(self.sources)
        return self.sources[index]

    def sample_messages(self, cycle: int):
        """Delegate to the phase's active source."""
        return self.current(cycle).sample_messages(cycle)

    def tick(self, network: "Network") -> None:
        """Inject the active phase's messages into the network."""
        for msg in self.sample_messages(network.cycle):
            network.inject(msg)
