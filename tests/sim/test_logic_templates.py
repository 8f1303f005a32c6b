"""The blaze lN op templates against the reference evaluator.

``blaze._INLINE_LOGIC_OPS`` emits four-state arithmetic, compares,
shifts, resizes and slices as inline plane expressions instead of calls
into ``repro.sim.eval``; the levelized cone reuses the same emitter.
This pins every table entry to ``eval.evaluate``: each op is compiled
with ``UnitCompiler.expr`` and run on seeded nine-valued operands at
widths 1, 8, 64 and 65, with every operand either a runtime value or a
compile-time constant (which the emitter folds).

Lane mode (``UnitCompiler(unit, lanes=K)``) emits the bitwise templates
as they stand and the other lN ops as their iN lane kernels on the
``val`` planes, and fuses 2-way muxes; the lane tests pin those forms
lane by lane to ``evaluate`` as well, and check that a uniform batch of
the four-state designs never falls back to the generic lane evaluator
for them.
"""

import itertools
import random

import pytest

from repro.designs import DESIGNS, compile_design
from repro.ir import Argument, Entity, Instruction, LogicVec
from repro.ir.ninevalued import VALUES
from repro.ir.types import array_type, int_type, logic_type
from repro.sim import blaze, lanes, simulate_batch
from repro.sim.blaze import (
    _INLINE_CMP, _INLINE_LOGIC_OPS, _LANE_LOGIC_OPS, UnitCompiler,
)
from repro.sim.eval import evaluate
from repro.sim.values import SimulationError

from ..designs import SUITE_TEST_CYCLES

WIDTHS = (1, 8, 64, 65)
HUGE = 2 ** 63 - 1


def _logic(rng, width, alphabet):
    return LogicVec("".join(rng.choice(alphabet) for _ in range(width)))


def _operands(rng, width):
    """Strong, weak (L/H) and unknown (each of U X Z W -) vectors."""
    top = 1 << (width - 1)
    out = [LogicVec.from_int(v, width)
           for v in (0, 1, top, (1 << width) - 1, top | 1)]
    out += [_logic(rng, width, "01") for _ in range(4)]
    out += [_logic(rng, width, "01LH") for _ in range(3)]
    for state in "UXZW-":
        bits = list(_logic(rng, width, "01").bits)
        bits[rng.randrange(width)] = state
        out.append(LogicVec("".join(bits)))
    out.append(_logic(rng, width, VALUES))
    return out


def _amounts(width):
    """Shift amounts: 0, width-1, width, and a huge one, as i64 and l64,
    plus a weak and an unknown l64 amount."""
    ints = [0, max(width - 1, 0), width, HUGE]
    lv = [LogicVec.from_int(a, 64) for a in ints]
    lv.append(LogicVec("L" * 62 + "HL"))            # two-valued weak: 2
    lv.append(LogicVec("0" * 63 + "X"))
    return [(int_type(64), a) for a in ints] + \
        [(logic_type(64), a) for a in lv]


def _cases(op, width, rng):
    """(operand types, result type, attrs, operand tuples) per shape."""
    lt = logic_type(width)
    vecs = _operands(rng, width)
    if op in ("shl", "shr"):
        for ty, amount in _amounts(width):
            yield (lt, ty), lt, None, [(v, amount) for v in vecs]
        return
    if op in ("neg", "not"):
        yield (lt,), lt, None, [(v,) for v in vecs]
        return
    if op in ("zext", "sext"):
        wide = logic_type(width + 3)
        yield (lt,), wide, None, [(v,) for v in vecs]
        return
    if op == "trunc":
        narrow = logic_type(max(width - 3, 1))
        yield (lt,), narrow, None, [(v,) for v in vecs]
        return
    if op == "exts":
        offset = width // 3
        length = max(width - offset - 1, 1)
        yield (lt,), logic_type(length), \
            {"offset": offset, "length": length}, [(v,) for v in vecs]
        return
    result = int_type(1) if op in _INLINE_CMP else lt
    shuffled = vecs[3:] + vecs[:3]
    pairs = list(zip(vecs, shuffled)) + [(v, v) for v in vecs[:6]]
    # mul overflow, sign-bit compares, and division by zero.
    pairs += list(itertools.product(vecs[:5], repeat=2))
    yield (lt, lt), result, None, pairs


def _run(op, types, result, attrs, values, consts):
    """The emitted expression's value, with operands in ``consts`` bound
    as compile-time constants."""
    unit = Entity("t", (), (), (), ())
    operands = []
    for k, (ty, value) in enumerate(zip(types, values)):
        if k in consts:
            operands.append(Instruction("const", ty, (), {"value": value}))
        else:
            operands.append(Argument(ty, f"a{k}"))
    inst = Instruction(op, result, tuple(operands), dict(attrs or {}))
    comp = UnitCompiler(unit)
    source = comp.expr(inst)
    namespace = dict(comp.globals)
    for operand, value in zip(operands, values):
        namespace[comp.name(operand)] = value
    return inst, source, _outcome(lambda: eval(source, namespace))


def _outcome(fn):
    try:
        return fn()
    except SimulationError:
        return SimulationError


@pytest.mark.parametrize("op", sorted(_INLINE_LOGIC_OPS))
def test_template_matches_reference_evaluator(op):
    rng = random.Random(f"logic-templates:{op}")
    checked = 0
    for width in WIDTHS:
        for types, result, attrs, tuples in _cases(op, width, rng):
            for values in tuples:
                for consts in ((), (0,), (len(values) - 1,)):
                    inst, source, got = _run(op, types, result, attrs,
                                             values, consts)
                    want = _outcome(lambda: evaluate(inst, values))
                    assert got == want and type(got) is type(want), \
                        (op, width, values, consts, source)
                    checked += 1
    assert checked > 100


def test_unknown_results_share_one_vector_per_width():
    x = LogicVec("0X")
    one = LogicVec("01")
    _, _, first = _run("add", (logic_type(2), logic_type(2)),
                       logic_type(2), None, (x, one), ())
    _, _, second = _run("shl", (logic_type(2), logic_type(2)),
                        logic_type(2), None, (one, x), ())
    assert first == LogicVec("XX")
    assert first is second


def test_templates_bind_no_runtime_constants():
    # The levelized cone rejects cells that bind runtime constants; the
    # templates must reach the all-X vector through a global instead.
    for op in sorted(_INLINE_LOGIC_OPS):
        rng = random.Random(op)
        for types, result, attrs, tuples in _cases(op, 8, rng):
            unit = Entity("t", (), (), (), ())
            operands = tuple(Argument(ty, f"a{k}")
                             for k, ty in enumerate(types))
            comp = UnitCompiler(unit)
            comp.expr(Instruction(op, result, operands, dict(attrs or {})))
            assert comp._const_counter == 0, op


# -- lane mode ---------------------------------------------------------------

LANES = (2, 5, 16)


def _is_known(value):
    return not isinstance(value, LogicVec) or \
        not (value._unk or value._weak)


def _lane_shapes(tuples, k):
    """Per-lane operand tuples: every lane equal, lanes different, and
    one lane with an X/Z/L/H operand among known ones."""
    known = [t for t in tuples if all(_is_known(v) for v in t)]
    odd = [t for t in tuples if t not in known]
    for t in tuples:
        yield [t] * k
    # A shift by an unknown amount has no known operand tuple.
    known = known or tuples
    for j in range(len(known)):
        yield [known[(j + 3 * lane) % len(known)] for lane in range(k)]
    for j, t in enumerate(odd):
        shape = [known[(j + lane) % len(known)] for lane in range(k)]
        shape[j % k] = t
        yield shape


def _run_lanes(op, types, result, attrs, per_lane, k, consts):
    """Compile ``op`` for ``k`` lanes and run it on the packed operands;
    a constant operand holds lane 0's value in every lane."""
    unit = Entity("t", (), (), (), ())
    operands = []
    for i, ty in enumerate(types):
        if i in consts:
            operands.append(Instruction("const", ty, (),
                                        {"value": per_lane[0][i]}))
        else:
            operands.append(Argument(ty, f"a{i}"))
    per_lane = [tuple(per_lane[0][i] if i in consts else v
                      for i, v in enumerate(t)) for t in per_lane]
    inst = Instruction(op, result, tuple(operands), dict(attrs or {}))
    comp = UnitCompiler(unit, lanes=k)
    source = comp.expr(inst)
    namespace = dict(comp.globals)
    for i, (operand, ty) in enumerate(zip(operands, types)):
        namespace[comp.name(operand)] = lanes.lane_pack(
            [t[i] for t in per_lane], ty, k)
    got = _outcome(lambda: eval(source, namespace))
    return inst, source, per_lane, got


def _assert_lanes_match(inst, per_lane, got, k, what):
    wants = [_outcome(lambda: evaluate(inst, t)) for t in per_lane]
    if SimulationError in wants:
        assert got is SimulationError, what
        return
    assert got is not SimulationError, what
    for lane, want in enumerate(wants):
        value = lanes.lane_get(got, inst.type, lane, k)
        assert value == want and type(value) is type(want), (what, lane)


@pytest.mark.parametrize("k", LANES)
@pytest.mark.parametrize("op", sorted(_LANE_LOGIC_OPS))
def test_lane_template_matches_reference_evaluator(op, k):
    rng = random.Random(f"lane-templates:{op}:{k}")
    checked = 0
    for width in WIDTHS:
        for types, result, attrs, tuples in _cases(op, width, rng):
            for n, per_lane in enumerate(_lane_shapes(tuples, k)):
                # Constant folding on every fourth shape keeps the
                # number of compiles down.
                variants = ((), (0,), (len(types) - 1,)) if n % 4 == 0 \
                    else ((),)
                for consts in variants:
                    inst, source, values, got = _run_lanes(
                        op, types, result, attrs, per_lane, k, consts)
                    _assert_lanes_match(inst, values, got, k,
                                        (op, width, values, consts, source))
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("k", LANES)
def test_fused_mux_blends_lanes(k):
    rng = random.Random(f"lane-mux:{k}")
    full = (1 << k) - 1
    selectors = (0, full, 0b0110 & full or 1, rng.randrange(1, full))
    element = logic_type(4)
    for ty in (logic_type(8), int_type(8), array_type(2, element)):
        unit = Entity("t", (), (), (), ())
        f, t, sel = (Argument(ty, "f"), Argument(ty, "t"),
                     Argument(int_type(1), "c"))
        arr = Instruction("array", array_type(2, ty), (f, t))
        mux = Instruction("mux", ty, (arr, sel))
        unit.body.append(arr)
        unit.body.append(mux)
        comp = UnitCompiler(unit, lanes=k)
        assert id(arr) in comp._elided
        source = comp.expr(mux)
        assert "_evl" not in source

        def scalar():
            if ty.is_int:
                return rng.randrange(256)
            if ty.is_logic:
                return _logic(rng, 8, VALUES)
            return tuple(_logic(rng, 4, VALUES) for _ in range(2))

        fs = [scalar() for _ in range(k)]
        ts = [scalar() for _ in range(k)]
        for mask in selectors:
            namespace = dict(comp.globals)
            namespace[comp.name(f)] = lanes.lane_pack(fs, ty, k)
            namespace[comp.name(t)] = lanes.lane_pack(ts, ty, k)
            namespace[comp.name(sel)] = mask
            got = eval(source, namespace)
            for lane in range(k):
                want = evaluate(mux, ((fs[lane], ts[lane]),
                                      (mask >> lane) & 1))
                assert lanes.lane_get(got, ty, lane, k) == want, \
                    (ty, mask, lane)


@pytest.mark.parametrize("name", ("sorter_l", "riscv_l"))
def test_uniform_four_state_batch_never_evaluates_templated_ops(
        name, monkeypatch):
    """A uniform batch holds no unknown bits in these designs' datapath,
    so every templated op must take its lane kernel; an ``_evl`` call
    for one would mean the fast path silently fell back."""
    fallbacks = []
    for module in (blaze, lanes):
        original = module.evaluate_lanes

        def counting(inst, operands, k, _original=original):
            if inst.opcode in _LANE_LOGIC_OPS:
                fallbacks.append(inst.opcode)
            return _original(inst, operands, k)
        monkeypatch.setattr(module, "evaluate_lanes", counting)
    batch = simulate_batch(
        compile_design(name, cycles=SUITE_TEST_CYCLES[name]),
        DESIGNS[name].top, 4, backend="blaze")
    assert batch.mode == "vectorized"
    assert batch.ok()
    assert fallbacks == []
