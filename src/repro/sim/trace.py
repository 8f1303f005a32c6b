"""Simulation traces: recording, comparison, and VCD export.

The paper's Table 2 claim "traces match between the two simulators for all
designs" is reproduced by running every design under the interpreter, the
compiled simulator, and the independent cycle simulator, and asserting
:func:`Trace.equivalent` across the results.
"""

from __future__ import annotations

import io

from .values import format_value


class Trace:
    """A value-change trace: per-signal lists of ``(time, value)``.

    Only physical time (femtoseconds) is recorded; intra-instant delta and
    epsilon steps are simulator implementation detail, so two correct
    simulators agree on the final value a signal holds at each femtosecond
    even when their internal delta sequences differ.

    Histories are collapsed as they are recorded: each keeps the last
    value of every femtosecond, with consecutive equal values merged
    into the first of the run (delta-step churn never reaches the
    list).  :meth:`finalize` therefore has nothing left to do.
    """

    def __init__(self, signal_filter=None):
        self.changes = {}       # signal name -> [(fs, value), ...]
        self.signal_filter = signal_filter

    def record(self, time, signal, value):
        if self.signal_filter is not None and not self.signal_filter(signal):
            return
        changes = self.changes
        fs = time[0]
        # A net that absorbed others through `con` records under every
        # merged name, so netlist-level traces stay comparable with the
        # pre-techmap design signal-for-signal (aliases is a 1-tuple for
        # the vast majority of nets, which never merged).
        for name in signal.aliases:
            history = changes.get(name)
            if not history:
                if history is None:
                    history = changes[name] = []
                history.append((fs, value))
                continue
            last = history[-1]
            if last[0] == fs:
                # A later delta of the same femtosecond: last wins, and a
                # return to the value kept before it undoes the entry.
                if len(history) > 1 and history[-2][1] == value:
                    history.pop()
                else:
                    history[-1] = (fs, value)
            elif last[1] is not value and last[1] != value:
                history.append((fs, value))

    def finalize(self):
        """The trace itself: histories are already collapsed (see
        :meth:`record`), so this costs O(1)."""
        return self

    def signals(self):
        return sorted(self.changes)

    def live_signals(self):
        """Names that record an actual change beyond their initial value.

        The semantic-preservation harnesses require every live signal of
        a reference run to survive a transformation under its own name
        (declared-but-unused nets may legitimately be DCE'd away); this
        is the one shared definition of "live".
        """
        return {name for name, history in self.finalize().changes.items()
                if len(history) > 1}

    def history(self, name):
        return list(self.changes.get(name, []))

    def value_at(self, name, fs):
        """The value a signal holds at (the end of) time ``fs``."""
        result = None
        for t, value in self.changes.get(name, []):
            if t > fs:
                break
            result = value
        return result

    # -- comparison ------------------------------------------------------------

    def equivalent(self, other, signals=None):
        """True if both traces record identical value sequences.

        ``signals`` restricts the comparison (e.g. to the design's ports);
        by default all signals present in *both* traces are compared.
        """
        return not self.differences(other, signals)

    def differences(self, other, signals=None, limit=10):
        """Human-readable list of trace mismatches (empty = equivalent)."""
        a, b = self.finalize(), other.finalize()
        if signals is None:
            signals = sorted(set(a.changes) & set(b.changes))
        issues = []
        for name in signals:
            ha, hb = a.history(name), b.history(name)
            if ha == hb:
                continue
            for i in range(max(len(ha), len(hb))):
                ea = ha[i] if i < len(ha) else None
                eb = hb[i] if i < len(hb) else None
                if ea != eb:
                    issues.append(
                        f"{name}: change {i}: {_fmt(ea)} vs {_fmt(eb)}")
                    if len(issues) >= limit:
                        return issues
                    break
        return issues

    # -- export -----------------------------------------------------------------

    def to_vcd(self, timescale="1fs"):
        """Render as a Value Change Dump (two-valued signals only)."""
        out = io.StringIO()
        out.write(f"$timescale {timescale} $end\n")
        idents = {}
        for i, name in enumerate(self.signals()):
            ident = _vcd_ident(i)
            idents[name] = ident
            out.write(f"$var wire 64 {ident} {name} $end\n")
        out.write("$enddefinitions $end\n")
        events = []
        for name, history in self.changes.items():
            for fs, value in history:
                events.append((fs, name, value))
        events.sort(key=lambda e: e[0])
        current_time = None
        for fs, name, value in events:
            if fs != current_time:
                out.write(f"#{fs}\n")
                current_time = fs
            if isinstance(value, int):
                out.write(f"b{value:b} {idents[name]}\n")
            else:
                out.write(f"s{format_value(value)} {idents[name]}\n")
        return out.getvalue()


def _fmt(entry):
    if entry is None:
        return "<missing>"
    fs, value = entry
    return f"({fs}fs, {format_value(value)})"


def _vcd_ident(i):
    chars = "!#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    ident = ""
    while True:
        ident += chars[i % len(chars)]
        i //= len(chars)
        if i == 0:
            return ident
