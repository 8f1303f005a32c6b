"""The blaze lN op templates against the reference evaluator.

``blaze._INLINE_LOGIC_OPS`` emits four-state arithmetic, compares,
shifts, resizes and slices as inline plane expressions instead of calls
into ``repro.sim.eval``; the levelized cone reuses the same emitter.
This pins every table entry to ``eval.evaluate``: each op is compiled
with ``UnitCompiler.expr`` and run on seeded nine-valued operands at
widths 1, 8, 64 and 65, with every operand either a runtime value or a
compile-time constant (which the emitter folds).
"""

import itertools
import random

import pytest

from repro.ir import Argument, Entity, Instruction, LogicVec
from repro.ir.ninevalued import VALUES
from repro.ir.types import int_type, logic_type
from repro.sim.blaze import _INLINE_CMP, _INLINE_LOGIC_OPS, UnitCompiler
from repro.sim.eval import evaluate
from repro.sim.values import SimulationError

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
