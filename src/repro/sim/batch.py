"""Batch-parallel simulation: K stimulus lanes per elaborated design.

One elaboration + one kernel run simulates K independent "lanes" over
lane-widened values (see :mod:`repro.sim.lanes`): every ``lN`` plane and
``iN`` word carries K lane-strided copies, so uniform work costs one
scalar operation plus an O(1) broadcast regardless of K.

Two execution modes, selected automatically by :func:`simulate_batch`:

* *vectorized* — every activity runs once per activation covering all
  lanes.  Correct while control stays lane-uniform, which identical
  stimulus guarantees by induction; a divergent control point raises
  :class:`~repro.sim.lanes.LaneDivergence`.
* *replicated* — processes are elaborated once per lane over
  lane-projected ports (GPU-style predication for the process layer),
  entities stay vectorized.  Used for divergent stimulus
  (:class:`BatchStimulus`) and as the automatic fallback when a
  vectorized run diverges (deterministic re-run from t=0).

The result demultiplexes per lane: :meth:`BatchSimulationResult.lane`
returns a scalar-equivalent view whose trace, print output, assertion
failures, and finish time are byte-identical to the corresponding
scalar run.
"""

from __future__ import annotations

from .lanes import is_uniform
from .trace import Trace
from .values import SimulationError, lane_extract


class BatchStimulus:
    """Per-lane stimulus: swap a process unit for K lane variants.

    Maps a process unit *name* (as instantiated in the design) to a list
    of K replacement process units, one per lane.  All replacements must
    share the original's signature — same argument types in the same
    order — because lane k's replica binds the original instantiation's
    operands.  Any replacement forces replicated mode: divergent
    stimulus cannot run vectorized.
    """

    def __init__(self, units=None):
        self.units = dict(units or {})

    def replace(self, name, per_lane_units):
        self.units[name] = list(per_lane_units)
        return self

    def validate(self, lanes):
        for name, units in self.units.items():
            if len(units) != lanes:
                raise SimulationError(
                    f"BatchStimulus for @{name} supplies {len(units)} "
                    f"units for {lanes} lanes")
            sig0 = [a.type for a in units[0].args]
            for unit in units[1:]:
                if [a.type for a in unit.args] != sig0:
                    raise SimulationError(
                        f"BatchStimulus for @{name}: lane unit "
                        f"@{unit.name} signature differs from lane 0")


def demux_lanes(trace, types, lanes, finish_fs, finish_state):
    """Split a batched trace into one scalar trace per lane.

    ``types`` maps signal name -> element type (the lane stride is
    type-dependent).  Consecutive identical per-lane values collapse —
    a change on another lane is no change on this one — and changes
    past a lane's own finish time (``finish_fs[k]``, absent for a lane
    that never finished) are dropped (a finished lane's scalar run
    records nothing after its final instant).  The batched trace is
    per-fs last-wins, but the kernel kept running other lanes through
    later delta rounds of the finish instant; ``finish_state[k]`` (the
    kernel's snapshot at the moment lane k finished) supplies the
    lane's true final values for that instant.  A lane-uniform value
    is extracted once and shared by every lane's trace.
    """
    cuts = [finish_fs.get(k) for k in range(lanes)]
    outs = [Trace() for _ in range(lanes)]
    for name, history in trace.finalize().changes.items():
        ty = types.get(name)
        if ty is None:
            continue
        per_lane = [[] for _ in range(lanes)]
        for fs, value in history:
            uniform = is_uniform(value, ty, lanes)
            if uniform:
                # Lanes that last appended the same object share one
                # comparison with the shared value.
                shared = lane_extract(value, ty, 0, lanes)
                seen = equal = None
            for k, demuxed in enumerate(per_lane):
                cut = cuts[k]
                if cut is not None and fs >= cut:
                    continue
                if not uniform:
                    v = lane_extract(value, ty, k, lanes)
                    if demuxed and demuxed[-1][1] == v:
                        continue
                    demuxed.append((fs, v))
                    continue
                if demuxed:
                    last = demuxed[-1][1]
                    if last is not seen:
                        seen, equal = last, last == shared
                    if equal:
                        continue
                demuxed.append((fs, shared))
        for k, demuxed in enumerate(per_lane):
            cut = cuts[k]
            state = finish_state.get(k)
            if cut is not None and state is not None:
                final = state.get(name)
                if final is not None:
                    v = lane_extract(final, ty, k, lanes)
                    if not demuxed or demuxed[-1][1] != v:
                        demuxed.append((cut, v))
            outs[k].changes[name] = demuxed
    return outs


class LaneResult:
    """One lane's scalar-equivalent view of a batch run.

    Mirrors the :class:`~repro.sim.SimulationResult` surface that the
    equivalence harnesses consume (``trace``, ``output``,
    ``assertion_failures``, ``final_time_fs``, ``ok()``).  ``stats``
    are the shared kernel's and are *not* comparable to a scalar run's.
    """

    def __init__(self, lane, trace, output, assertion_failures,
                 final_time_fs, stats):
        self.lane = lane
        self.trace = trace
        self.output = output
        self.assertion_failures = assertion_failures
        self.final_time_fs = final_time_fs
        self.stats = stats

    def ok(self):
        return not self.assertion_failures


def _lane_text(entries, lane):
    """Entries attributed to ``lane`` (or to all lanes), lane markers
    stripped so instance paths read like the scalar run's."""
    marker = f"#l{lane}"
    return [text.replace(marker, "")
            for entry_lane, text in entries
            if entry_lane is None or entry_lane == lane]


class BatchSimulationResult:
    """Outcome of a batch simulation: the raw batched run + lane views."""

    def __init__(self, design, kernel, trace, lanes, mode):
        self.design = design
        self.kernel = kernel
        self.trace = trace
        self.lanes = lanes
        self.mode = mode  # "scalar" | "vectorized" | "replicated"
        self.assertion_failures = kernel.assertion_failures
        self.output = kernel.output
        self.stats = kernel.stats
        self._lane_cache = {}
        self._lane_traces = None

    @property
    def final_time_fs(self):
        return self.kernel.now[0]

    def ok(self):
        return not self.assertion_failures

    def _signal_types(self):
        types = {}
        for sig in self.kernel.signals:
            for name in sig.aliases:
                types[name] = sig.type.element
        return types

    def lane(self, k):
        """The scalar-equivalent result of lane ``k``."""
        if not 0 <= k < self.lanes:
            raise IndexError(f"lane {k} out of range for {self.lanes}")
        cached = self._lane_cache.get(k)
        if cached is not None:
            return cached
        kernel = self.kernel
        if self.mode == "scalar":
            result = LaneResult(
                k, self.trace, list(kernel.output),
                list(kernel.assertion_failures), kernel.now[0],
                kernel.stats)
        else:
            if self._lane_traces is None:
                self._lane_traces = demux_lanes(
                    self.trace, self._signal_types(), self.lanes,
                    kernel.lane_finish_fs, kernel.lane_finish_state)
            finish_fs = kernel.lane_finish_fs.get(k)
            final = finish_fs if finish_fs is not None else kernel.now[0]
            result = LaneResult(
                k, self._lane_traces[k],
                _lane_text(kernel.output, k),
                _lane_text(kernel.assertion_failures, k),
                final, kernel.stats)
        self._lane_cache[k] = result
        return result

    def lane_results(self):
        return [self.lane(k) for k in range(self.lanes)]


def _elaborate_batch(module, top, backend, trace, lanes, replicate,
                     batch_units):
    from .engine import Kernel

    if backend == "interp":
        from .interp import elaborate

        kernel = Kernel(trace=trace)
        design = elaborate(module, top, kernel, lanes=lanes,
                           replicate=replicate, batch_units=batch_units)
    elif backend == "blaze":
        from .blaze import elaborate_compiled

        kernel = Kernel(trace=trace)
        design = elaborate_compiled(
            module, top, kernel, lanes=lanes, replicate=replicate,
            batch_units=batch_units)
    elif backend == "cycle":
        from .cycle import CycleKernel, elaborate_cycle

        kernel = CycleKernel(trace=trace)
        design = elaborate_cycle(
            module, top, kernel, lanes=lanes, replicate=replicate,
            batch_units=batch_units)
    else:
        from . import BACKENDS

        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return design, kernel


def _run_batch(module, top, lanes, until_fs, backend, trace_filter,
               replicate, batch_units):
    trace = Trace(trace_filter)
    design, kernel = _elaborate_batch(
        module, top, backend, trace, lanes, replicate, batch_units)
    kernel.run(until_fs=until_fs)
    trace.finalize()
    mode = "replicated" if design.replicate else "vectorized"
    return BatchSimulationResult(design, kernel, trace, lanes, mode)


def simulate_batch(module, top, lanes, until_fs=None, backend="interp",
                   stimulus=None, trace_filter=None):
    """Simulate ``lanes`` stimulus sets through one elaborated design.

    With no ``stimulus`` every lane sees identical inputs and the run is
    vectorized (uniform fast path); should control nonetheless diverge —
    e.g. per-lane X propagation into a branch — the run deterministically
    restarts from t=0 in replicated-process mode.  A
    :class:`BatchStimulus` supplies per-lane process variants and goes
    straight to replicated mode.  ``lanes == 1`` without stimulus is the
    unmodified scalar pipeline; ``lanes < 1`` is a :class:`SimulationError`.
    """
    from .lanes import LaneDivergence

    if lanes < 1:
        raise SimulationError(
            f"a batch needs at least one lane, got {lanes}")
    batch_units = {}
    if stimulus is not None and stimulus.units:
        stimulus.validate(lanes)
        batch_units = dict(stimulus.units)
    if lanes == 1 and not batch_units:
        from . import simulate

        result = simulate(module, top, until_fs=until_fs, backend=backend,
                          trace_filter=trace_filter)
        return BatchSimulationResult(
            result.design, result.kernel, result.trace, 1, "scalar")
    if batch_units:
        return _run_batch(module, top, lanes, until_fs, backend,
                          trace_filter, True, batch_units)
    try:
        return _run_batch(module, top, lanes, until_fs, backend,
                          trace_filter, False, {})
    except LaneDivergence:
        # Divergent control under supposedly-uniform stimulus (per-lane
        # finish, X-dependent branches): re-run from t=0 replicated.
        return _run_batch(module, top, lanes, until_fs, backend,
                          trace_filter, True, {})
