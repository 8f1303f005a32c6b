"""Shifts by amounts at or beyond the width, in every engine.

``x << n`` on a W-bit value is 0 once ``n >= W``.  Computing it as
``(x << n) & mask`` builds a 2^n-bit intermediate first: an amount of
2^34 took seconds and gigabytes, and 2^63 raised ``MemoryError``.  Every
engine must instead answer 0 at once (``shr`` already did).  The tests
use 2^63, which fails fast instead of allocating if the bug returns.
"""

import time

import pytest

from repro.interop import netlist_design
from repro.ir import LogicVec, parse_module
from repro.sim import BatchStimulus, simulate, simulate_batch
from repro.sim.eval import int_shift, logic_shift
from repro.sim.lanes import _kernel_shift, _lanes_swar

NS = 1_000_000
HUGE = 2 ** 63


def _lconst(value, width):
    return f'"{value:0{width}b}"'


_STIM = """
proc @stim () -> (i64$ %amt, l64$ %lamt) {
entry:
  %big = const i64 AMOUNT
  %lbig = const l64 LAMOUNT
  %t = const time 1ns
  drv i64$ %amt, %big after %t
  drv l64$ %lamt, %lbig after %t
  halt
}
"""

_DESIGN = """
entity @shifter (i64$ %amt, l64$ %lamt) -> (i32$ %ri, l32$ %rl, l32$ %rll) {
  %a = prb i64$ %amt
  %la = prb l64$ %lamt
  %x = const i32 5
  %lx = const l32 LX
  %vi = shl i32 %x, %a
  %vl = shl l32 %lx, %a
  %vll = shl l32 %lx, %la
  %t0 = const time 0s
  drv i32$ %ri, %vi after %t0
  drv l32$ %rl, %vl after %t0
  drv l32$ %rll, %vll after %t0
}

entity @top () -> () {
  %zi = const i64 0
  %zl = const l64 LZERO64
  %z32 = const i32 0
  %zl32 = const l32 LZERO32
  %amt = sig i64 %zi
  %lamt = sig l64 %zl
  %ri = sig i32 %z32
  %rl = sig l32 %zl32
  %rll = sig l32 %zl32
  inst @stim () -> (i64$ %amt, l64$ %lamt)
  inst @shifter (i64$ %amt, l64$ %lamt) -> (i32$ %ri, l32$ %rl, l32$ %rll)
}
"""


def _source(amount):
    text = _STIM.replace("LAMOUNT", _lconst(amount, 64)) \
        .replace("AMOUNT", str(amount)) + _DESIGN
    return text.replace("LX", _lconst(5, 32)) \
        .replace("LZERO64", _lconst(0, 64)) \
        .replace("LZERO32", _lconst(0, 32))


def _check(trace):
    assert trace.value_at("top.ri", NS // 2) == 5
    assert trace.value_at("top.rl", NS // 2) == LogicVec.from_int(5, 32)
    assert trace.value_at("top.ri", NS) == 0
    for name in ("top.rl", "top.rll"):
        assert trace.value_at(name, NS) == LogicVec.from_int(0, 32)


def test_reference_evaluator_returns_zero_at_once():
    start = time.perf_counter()
    assert int_shift("shl", 5, HUGE, 32) == 0
    assert int_shift("shl", 5, 32, 32) == 0
    assert int_shift("shl", 5, 31, 32) == 1 << 31
    x = LogicVec.from_int(5, 32)
    assert logic_shift("shl", x, HUGE) == LogicVec.from_int(0, 32)
    assert logic_shift("shl", x, LogicVec.from_int(HUGE, 64)) == \
        LogicVec.from_int(0, 32)
    assert logic_shift("shr", x, HUGE) == LogicVec.from_int(0, 32)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("backend", ["interp", "blaze", "cycle"])
def test_engines_shift_by_huge_amount(backend):
    result = simulate(parse_module(_source(HUGE)), "top", backend=backend)
    _check(result.trace)


def test_levelized_cone_shifts_by_huge_amount():
    netlist = netlist_design(parse_module(_source(HUGE)))
    result = simulate(netlist, "top", backend="levelized")
    assert result.design.report["fallbacks"] == []
    assert result.stats["cone_gates"] >= 3
    _check(result.trace)


@pytest.mark.parametrize("backend", ["interp", "blaze"])
def test_batch_lanes_shift_by_divergent_huge_amounts(backend):
    stims = [parse_module(_STIM.replace("LAMOUNT", _lconst(a, 64))
                          .replace("AMOUNT", str(a)).replace("@stim",
                                                             f"@stim{k}"))
             .get(f"stim{k}") for k, a in enumerate((HUGE, 3))]
    module = parse_module(_source(HUGE))
    batch = simulate_batch(module, "top", 2, backend=backend,
                           stimulus=BatchStimulus({"stim": stims}))
    _check(batch.lane(0).trace)
    assert batch.lane(1).trace.value_at("top.ri", NS) == 5 << 3


def test_lane_shift_kernels_take_the_per_lane_path():
    # Lane 0 shifts by 2^63, lane 1 by 3: divergent amounts skip the
    # uniform fast path.
    amount = HUGE | (3 << 64)
    a = 5 | (5 << 32)
    assert _kernel_shift("shl", 32, 64, 2)(a, amount) == (5 << 3) << 32
    inst = parse_module("""
    func @f (i32 %x, i64 %n) i32 {
    entry:
      %r = shl i32 %x, %n
      ret i32 %r
    }
    """).get("f").blocks[0].instructions[0]
    assert _lanes_swar(inst, (a, amount), 2) == (5 << 3) << 32
