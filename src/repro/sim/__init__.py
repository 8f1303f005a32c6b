"""Simulation of LLHD designs.

Four simulators — the three of the paper's evaluation (section 6.1)
plus a levelized netlist engine:

* ``interp`` — *LLHD-Sim*, the reference interpreter: deliberately the
  simplest possible simulator of the instruction set.
* ``blaze`` — the *LLHD-Blaze* analogue: compiles every unit to Python
  code objects ahead of simulation (the paper JIT-compiles to LLVM IR).
* ``cycle`` — an independently implemented, statically scheduled
  compiled-code simulator standing in for the paper's commercial
  simulator baseline (see the README, "Substitutions", item 1).
* ``levelized`` — ahead-of-time compiled execution of netlist designs:
  techmap library cells are levelized into straight-line generated
  code with storage cells as sequential cut points; zero scheduler
  events per gate (see :mod:`repro.sim.levelize`).

All four produce :class:`~repro.sim.trace.Trace` objects that can be
compared for equivalence — the paper's "traces match" claim.
"""

from __future__ import annotations

from .batch import (
    BatchSimulationResult, BatchStimulus, demux_lanes, simulate_batch,
)
from .engine import Kernel, SignalInstance, SignalRef, advance_time
from .trace import Trace
from .values import SimulationError, default_value

BACKENDS = ("interp", "blaze", "cycle", "levelized")


class SimulationResult:
    """Outcome of a simulation run."""

    def __init__(self, design, kernel, trace):
        self.design = design
        self.kernel = kernel
        self.trace = trace
        self.assertion_failures = kernel.assertion_failures
        self.output = kernel.output
        self.stats = kernel.stats
        self.sanitizer = kernel.sanitizer

    @property
    def findings(self):
        """Sanitizer findings (empty when run without ``sanitize=True``)."""
        if self.sanitizer is None:
            return []
        return list(self.sanitizer.findings)

    @property
    def final_time_fs(self):
        return self.kernel.now[0]

    def ok(self):
        """True if no assertion failed during simulation."""
        return not self.assertion_failures


def simulate(module, top, until_fs=None, backend="interp",
             trace_filter=None, sanitize=False):
    """Elaborate and simulate ``module`` from entity ``top``.

    Returns a :class:`SimulationResult` whose trace records every signal
    value change (filtered by ``trace_filter(signal) -> bool`` if given).
    With ``sanitize=True`` the scheduler records drive races and
    oscillations as :class:`~repro.sim.sanitize.Finding` objects instead
    of raising, exposed as ``result.findings``.
    """
    trace = Trace(trace_filter)
    if backend == "interp":
        from .interp import elaborate as elaborator

        kernel = Kernel(trace=trace)
    elif backend == "blaze":
        from .blaze import elaborate_compiled as elaborator

        kernel = Kernel(trace=trace)
    elif backend == "cycle":
        from .cycle import CycleKernel
        from .cycle import elaborate_cycle as elaborator

        kernel = CycleKernel(trace=trace)
    elif backend == "levelized":
        from .levelize import elaborate_levelized as elaborator

        kernel = Kernel(trace=trace)
    else:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if sanitize:
        from .sanitize import Sanitizer

        kernel.sanitizer = Sanitizer()
    design = elaborator(module, top, kernel)
    kernel.run(until_fs=until_fs)
    trace.finalize()
    return SimulationResult(design, kernel, trace)


__all__ = [
    "BACKENDS", "BatchSimulationResult", "BatchStimulus", "Kernel",
    "SignalInstance", "SignalRef", "SimulationError", "SimulationResult",
    "Trace", "advance_time", "default_value", "demux_lanes", "simulate",
    "simulate_batch",
]
