"""Trace recording: histories are collapsed as they are recorded.

``Trace.record`` (and the levelized cone's inlined copy of it) keeps
each history in its final form — the last value of every femtosecond,
consecutive equal values merged into the first of the run — so
``finalize`` has nothing left to do.  The property below holds the
online rule to the two-pass definition it replaced: record per-fs
last-wins, then collapse.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.ir import parse_module
from repro.ir.ninevalued import LogicVec
from repro.sim import Trace, simulate


def _two_pass(records):
    """The reference: per-femtosecond last-wins, then collapse runs of
    equal values into their first entry."""
    raw = []
    for fs, value in records:
        if raw and raw[-1][0] == fs:
            raw[-1] = (fs, value)
        else:
            raw.append((fs, value))
    collapsed = []
    for fs, value in raw:
        if collapsed and collapsed[-1][1] == value:
            continue
        collapsed.append((fs, value))
    return collapsed


def _signal(*aliases):
    return SimpleNamespace(aliases=aliases)


# Values are rebuilt on every draw, so equal LogicVecs are (almost)
# never the same object: the collapse must compare by value.
_VALUES = st.one_of(
    st.integers(0, 3),
    st.sampled_from(("0", "1", "X", "Z", "01", "0X")).map(LogicVec))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2), _VALUES), max_size=40),
       st.integers(1, 3))
def test_online_collapse_equals_record_then_collapse(steps, n_aliases):
    names = tuple(f"s{k}" for k in range(n_aliases))
    sig = _signal(*names)
    trace = Trace()
    records = []
    fs = 0
    for advance, value in steps:
        fs += advance      # 0: another delta of the same femtosecond
        trace.record((fs, 0, 0), sig, value)
        records.append((fs, value))
    expected = _two_pass(records)
    for name in names:
        assert trace.changes.get(name, []) == expected
    before = {name: list(h) for name, h in trace.changes.items()}
    assert trace.finalize() is trace
    assert trace.changes == before


def test_same_femtosecond_round_trip_leaves_no_entry():
    trace = Trace()
    sig = _signal("a")
    trace.record((0, 0, 0), sig, 0)
    trace.record((5, 0, 0), sig, 1)      # A -> B ...
    trace.record((5, 1, 0), sig, 0)      # ... -> A within 5 fs
    assert trace.changes["a"] == [(0, 0)]
    trace.record((5, 2, 0), sig, 2)      # a third value still lands
    assert trace.changes["a"] == [(0, 0), (5, 2)]


def test_equal_but_distinct_logic_values_collapse():
    trace = Trace()
    sig = _signal("a")
    first = LogicVec("01X")
    trace.record((0, 0, 0), sig, first)
    trace.record((3, 0, 0), sig, LogicVec("01X"))
    assert trace.changes["a"] == [(0, first)]
    assert trace.changes["a"][0][1] is first


def test_filtered_signals_are_not_recorded():
    trace = Trace(lambda sig: "keep" in sig.aliases)
    trace.record((0, 0, 0), _signal("drop"), 1)
    trace.record((0, 0, 0), _signal("keep"), 1)
    assert trace.signals() == ["keep"]


# An inverter cone whose input glitches 0 -> 1 -> 0 across two deltas
# of one femtosecond (the output glitches with it), then rises for
# good.  The output is `con`-merged with a second net, so the cone
# records under two names.
_GLITCH = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

proc @stim () -> (i1$ %a) {
b0:
  %t1 = const time 1ns
  %t0 = const time 0s
  %d2 = const time 0s 2d
  %one = const i1 1
  %zero = const i1 0
  wait %b1 for %t1
b1:
  drv i1$ %a, %one after %t0
  drv i1$ %a, %zero after %d2
  wait %b2 for %t1
b2:
  drv i1$ %a, %one after %t0
  wait %b3 for %t1
b3:
  halt
}

entity @top () -> () {
  %z1 = const i1 0
  %a = sig i1 %z1
  %y = sig i1 %z1
  %y2 = sig i1 %z1
  con i1$ %y, %y2
  inst @cell_inv_i1 (i1$ %a) -> (i1$ %y)
  inst @stim () -> (i1$ %a)
}
"""


def test_cone_commits_collapse_glitches_on_every_alias():
    ref = simulate(parse_module(_GLITCH), "top")
    res = simulate(parse_module(_GLITCH), "top", backend="levelized")
    assert res.design.report["gates"] == 1
    assert ref.trace.changes == res.trace.changes
    assert res.trace.changes["top.a"] == [(0, 0), (2_000_000, 1)]
    for name in ("top.y", "top.y2"):
        assert res.trace.changes[name] == [(0, 1), (2_000_000, 0)]


# Two nine-valued nets with different initial values, `con`-merged: each
# name's history starts at its own initial value while the net holds
# their resolution ("Z" with "0" resolves to "0").  A buffer cell then
# drives the net to "Z" — no change for `top.y`, whose history already
# ends in "Z", a change for `top.y2`.
_DIVERGENT_ALIASES = """
entity @cell_buf_l1 (l1$ %a0) -> (l1$ %y) {
  %0 = prb l1$ %a0
  %t = const time 0s
  drv l1$ %y, %0 after %t
}

proc @stim () -> (l1$ %a) {
b0:
  %t1 = const time 1ns
  %t0 = const time 0s
  %z = const l1 "Z"
  wait %b1 for %t1
b1:
  drv l1$ %a, %z after %t0
  wait %b2 for %t1
b2:
  halt
}

entity @top () -> () {
  %l0 = const l1 "0"
  %lz = const l1 "Z"
  %y = sig l1 %lz
  %y2 = sig l1 %l0
  %a = sig l1 %l0
  con l1$ %y, %y2
  inst @cell_buf_l1 (l1$ %a) -> (l1$ %y)
  inst @stim () -> (l1$ %a)
}
"""


def test_cone_commit_compares_with_each_alias_history():
    ref = simulate(parse_module(_DIVERGENT_ALIASES), "top")
    res = simulate(parse_module(_DIVERGENT_ALIASES), "top",
                   backend="levelized")
    assert res.design.report["gates"] == 1
    assert ref.trace.changes == res.trace.changes
    z, zero = LogicVec("Z"), LogicVec("0")
    assert res.trace.changes["top.y"] == [(0, z)]
    assert res.trace.changes["top.y2"] == [(0, zero), (1_000_000, z)]
