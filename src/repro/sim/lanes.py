"""Typed lane (batch) operations over runtime values.

Batch simulation runs K independent stimulus sets ("lanes") through one
elaborated design.  Every runtime value is *lane-widened*:

=========  ==========================================================
``lN``     one :class:`LogicVec` of width K*N, lane-strided (lane k
           occupies bits [k*N, (k+1)*N) of every plane)
``iN``     one ``int`` of K*N bits, same lane-strided layout
``nN``     one ``int``, lane stride ``bit_width(nN)``
``time``   a single :class:`TimeValue` (delays are lane-invariant)
array      tuple / :class:`PackedLogicArray` of lane-widened elements
struct     tuple of lane-widened fields
=========  ==========================================================

This module is the single place that knows the layout.  It provides the
typed primitives (broadcast / extract / insert / uniformity), the generic
lane-aware evaluator used by both the interpreter plans and the Blaze
code generator, and the control-point guards: batched *data* may diverge
freely between lanes (handled per lane), but batched *control* — branch
conditions, dynamic indices — must be lane-uniform; a divergent control
value raises :class:`LaneDivergence`, which the batch driver catches to
re-run the simulation with per-lane replicated processes.

The fast path everywhere is uniformity: when all lanes hold the same
scalar (the case for identical-stimulus batches, and an invariant that
propagates through every operation), an op costs one uniformity check,
one scalar evaluation, and one O(1) broadcast — so the *per-lane*
marginal cost shrinks roughly by 1/K.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from ..ir.ninevalued import (
    LogicVec, expand_lane_mask, lane_blend, lane_ones, lane_slice,
    lane_uniform,
)
from .eval import evaluate, logic_level
from .values import (
    PackedLogicArray, SimulationError, default_value, mask,
    lane_extract as lane_get, lane_stride as stride,
    lane_widen as broadcast,
)


class LaneDivergence(SimulationError):
    """Raised when batched *control flow* diverges between lanes.

    Data divergence is handled per lane; control divergence (a branch
    condition or dynamic index that differs between lanes) cannot be,
    because one process activity has a single program counter.  The
    batch driver catches this and re-runs in replicated-process mode.
    """


# broadcast / lane_get / lane_set / stride live in repro.sim.values
# (imported above) so the path-step machinery can use them without a
# circular import; this module re-exports them under their lane names.

def lane_pack(scalars, ty, lanes):
    """Assemble one lane-widened value from K scalar values."""
    if lanes == 1:
        return scalars[0]
    if ty.is_logic:
        w = ty.width
        val = unk = weak = aux = 0
        for k, s in enumerate(scalars):
            sh = k * w
            val |= s._val << sh
            unk |= s._unk << sh
            weak |= s._weak << sh
            aux |= s._aux << sh
        return LogicVec._make(w * lanes, val, unk, weak, aux)
    if ty.is_int or ty.is_enum:
        w = stride(ty)
        out = 0
        for k, s in enumerate(scalars):
            out |= s << (k * w)
        return out
    if ty.is_array:
        elems = tuple(
            lane_pack([s[i] for s in scalars], ty.element, lanes)
            for i in range(ty.length))
        if ty.element.is_logic:
            return PackedLogicArray.from_elements(elems)
        return elems
    if ty.is_struct:
        return tuple(lane_pack([s[i] for s in scalars], f, lanes)
                     for i, f in enumerate(ty.fields))
    if ty.is_time:
        return scalars[0]
    raise SimulationError(f"cannot lane-pack values of type {ty}")


def is_uniform(value, ty, lanes):
    """True if every lane of a lane-widened value holds the same scalar."""
    if lanes == 1:
        return True
    if ty.is_logic:
        return lane_uniform(value, ty.width, lanes)
    if ty.is_int or ty.is_enum:
        w = stride(ty)
        return value == (value & mask(w)) * lane_ones(w, lanes)
    if ty.is_array:
        el = ty.element
        return all(is_uniform(v, el, lanes) for v in value)
    if ty.is_struct:
        return all(is_uniform(v, f, lanes)
                   for v, f in zip(value, ty.fields))
    if ty.is_time:
        return True
    return False


def lane_default(ty, lanes):
    """The lane-widened initial value of a type."""
    return broadcast(default_value(ty), ty, lanes)


def lane_path(ty, lane, lanes):
    """The projection path that selects one lane of a batched signal."""
    if lanes == 1:
        return ()
    return (("lane", lane, lanes, ty),)


def path_of_lanes(inst, lanes):
    """Lane-aware variant of :func:`repro.sim.eval.path_of` for ``exts``.

    Slices of int/logic values must be gathered per lane in a batched
    parent (an ``lslice`` step carrying the parent's scalar stride);
    array slices select whole batched elements and stay lane-transparent.
    """
    inner = inst.operands[0].type
    if inner.is_signal:
        inner = inner.element
    elif inner.is_pointer:
        inner = inner.pointee
    offset = inst.attrs["offset"]
    length = inst.attrs["length"]
    if inner.is_int:
        return ("lslice", offset, length, "int", lanes, inner.width)
    if inner.is_logic:
        return ("lslice", offset, length, "logic", lanes, inner.width)
    return ("slice", offset, length, "array")


# -- control-point guards -----------------------------------------------------

def u1(cond, lanes):
    """Collapse a batched ``i1`` to a Python bool; all lanes must agree."""
    if cond == 0:
        return False
    if cond == lane_ones(1, lanes):
        return True
    raise LaneDivergence(
        f"branch condition diverges between lanes (mask {cond:#x})")


def uindex(value, lanes):
    """Collapse a batched dynamic index to a scalar int; must be uniform."""
    if isinstance(value, LogicVec):
        w = value._width // lanes
        if not lane_uniform(value, w, lanes):
            raise LaneDivergence("dynamic index diverges between lanes")
        v = lane_slice(value, 0, w)
        if not v.is_two_valued:
            raise SimulationError("dynamic index is unknown (X)")
        return v.to_int()
    # ints are packed with the operand's stride; uniformity is checked by
    # the caller supplying the stride via `uindex_int`.
    return value


def uindex_int(value, width, lanes):
    """Uniform dynamic index from a batched iN value."""
    if isinstance(value, LogicVec):
        return uindex(value, lanes)
    lane0 = value & mask(width)
    if value != lane0 * lane_ones(width, lanes):
        raise LaneDivergence("dynamic index diverges between lanes")
    return lane0


# -- generic lane-aware evaluation -------------------------------------------

_BITWISE_INT = {"and": int.__and__, "or": int.__or__, "xor": int.__xor__}

# Lane-exact fast paths for the hot opcodes.  The generic tiers below
# are correct for every op but cost ~15 Python calls per instruction
# (uniformity probes, per-lane extraction, scalar evaluation,
# re-packing); on the opcodes that dominate compiled processes —
# arithmetic, compares, shifts, resizes, mux — that overhead is the
# entire batch runtime.  Each function here computes the same result as
# the scalar evaluator applied per lane, and returns ``None`` to defer
# to the generic tiers for the operand shapes it does not cover (``lN``
# values, enums, divergent selectors on aggregate types).

_REL_OPS = {
    "lt": operator.lt, "gt": operator.gt,
    "le": operator.le, "ge": operator.ge,
}


def _lanes_swar(inst, operands, lanes):
    # The same ``iN`` kernels blaze lane mode binds.  A SWAR op's first
    # operand has the result's type (arithmetic, shifts) or is typed
    # like its last operand (compares; resizes and slices have only
    # one), so these two checks cover every operand.
    if inst.type.is_int and inst.operands[-1].type.is_int:
        return swar_kernel(inst, lanes)(*operands)
    return None


def _lanes_mux(inst, operands, lanes):
    choices, sel = operands
    sty = inst.operands[1].type
    n = len(choices)
    if sty.is_int:
        ws = sty.width
        ms = mask(ws)
        s0 = sel & ms
        if sel == s0 * lane_ones(ws, lanes):
            return choices[min(s0, n - 1)]
        if inst.type.is_int:
            # Divergent selector over an int array: gather per lane
            # with plain integer arithmetic.
            w = inst.type.width
            mw = mask(w)
            out = 0
            for k in range(lanes):
                idx = (sel >> (k * ws)) & ms
                if idx >= n:
                    idx = n - 1
                out |= ((choices[idx] >> (k * w)) & mw) << (k * w)
            return out
        return None
    if isinstance(sel, LogicVec):
        ws = sel._width // lanes
        if lane_uniform(sel, ws, lanes):
            v = lane_slice(sel, 0, ws)
            if not v.is_two_valued:
                raise SimulationError("mux selector is unknown (X)")
            return choices[min(v.to_int(), n - 1)]
    return None


def _uniform_index(value, ty, lanes):
    """A lane-uniform element index as an int, or ``None``."""
    if isinstance(value, LogicVec):
        w = value._width // lanes
        if not lane_uniform(value, w, lanes):
            return None
        v = lane_slice(value, 0, w)
        if not v.is_two_valued:
            raise SimulationError("index is unknown (X)")
        return v.to_int()
    w = stride(ty)
    lane0 = value & mask(w)
    if value != lane0 * lane_ones(w, lanes):
        return None
    return lane0


def _lanes_extf(inst, operands, lanes):
    # Element extraction is lane-transparent: the aggregate's elements
    # are themselves lane-widened, so a (uniform) index selects the
    # whole batched element.
    index = inst.attrs.get("index")
    if index is None:
        index = _uniform_index(operands[1], inst.operands[1].type, lanes)
        if index is None:
            return None
    agg = operands[0]
    if not 0 <= index < len(agg):
        raise SimulationError(
            f"extf index {index} out of range for {len(agg)} elements")
    return agg[index]


def _lanes_insf(inst, operands, lanes):
    index = inst.attrs.get("index")
    if index is None:
        index = _uniform_index(operands[2], inst.operands[2].type, lanes)
        if index is None:
            return None
    agg, value = operands[0], operands[1]
    if not 0 <= index < len(agg):
        raise SimulationError(
            f"insf index {index} out of range for {len(agg)} elements")
    return agg[:index] + (value,) + agg[index + 1:]


def _lanes_array(inst, operands, lanes):
    if inst.attrs.get("splat"):
        elems = tuple(operands[0] for _ in range(inst.type.length))
    else:
        elems = tuple(operands)
    if inst.type.element.is_logic:
        return PackedLogicArray.from_elements(elems)
    return elems


def _lanes_struct(inst, operands, lanes):
    return tuple(operands)


# -- per-instruction specialized kernels --------------------------------------
#
# Each builder is pure in its arguments (opcode, widths, K), so one
# kernel serves every instruction of that shape.  Each kernel uses O(1)
# SWAR arithmetic where the op allows it, and a tight O(K) integer loop
# otherwise.


@lru_cache(maxsize=1024)
def _kernel_addsub(op, w, lanes):
    # Clearing (add) or presetting (sub) the per-lane MSB keeps carries
    # and borrows from crossing lane boundaries; the MSB is then patched
    # via XOR.  Exact for every width including w == 1.
    ones = lane_ones(w, lanes)
    high = (1 << (w - 1)) * ones
    low = (mask(w) * ones) ^ high
    if op == "add":
        def f(a, b):
            return ((a & low) + (b & low)) ^ ((a ^ b) & high)
    else:
        def f(a, b):
            return ((a | high) - (b & low)) ^ ((a ^ b) & high) ^ high
    return f


@lru_cache(maxsize=1024)
def _kernel_mul(w, lanes):
    mw = mask(w)
    ones = lane_ones(w, lanes)
    shifts = tuple(k * w for k in range(lanes))

    def f(a, b):
        a0 = a & mw
        b0 = b & mw
        if a == a0 * ones and b == b0 * ones:
            return ((a0 * b0) & mw) * ones
        out = 0
        for sh in shifts:
            out |= ((((a >> sh) & mw) * ((b >> sh) & mw)) & mw) << sh
        return out
    return f


@lru_cache(maxsize=1024)
def _kernel_compare(op, w, lanes):
    mw = mask(w)
    ones = lane_ones(w, lanes)
    full = lane_ones(1, lanes)
    half = 1 << (w - 1)
    span = 1 << w
    shifts = tuple(k * w for k in range(lanes))
    if op in ("eq", "neq"):
        want = op == "eq"

        def f(a, b):
            if a == b:
                return full if want else 0
            a0 = a & mw
            b0 = b & mw
            if a == a0 * ones and b == b0 * ones:
                return 0 if want else full
            out = 0
            for k, sh in enumerate(shifts):
                if ((((a >> sh) ^ (b >> sh)) & mw) == 0) == want:
                    out |= 1 << k
            return out
        return f
    rel = _REL_OPS[op[1:]]
    if op[0] == "s":
        def f(a, b):
            a0 = a & mw
            b0 = b & mw
            if a == a0 * ones and b == b0 * ones:
                if a0 & half:
                    a0 -= span
                if b0 & half:
                    b0 -= span
                return full if rel(a0, b0) else 0
            out = 0
            for k, sh in enumerate(shifts):
                x = (a >> sh) & mw
                y = (b >> sh) & mw
                if x & half:
                    x -= span
                if y & half:
                    y -= span
                if rel(x, y):
                    out |= 1 << k
            return out
    else:
        def f(a, b):
            a0 = a & mw
            b0 = b & mw
            if a == a0 * ones and b == b0 * ones:
                return full if rel(a0, b0) else 0
            out = 0
            for k, sh in enumerate(shifts):
                if rel((a >> sh) & mw, (b >> sh) & mw):
                    out |= 1 << k
            return out
    return f


@lru_cache(maxsize=1024)
def _kernel_shift(op, w, wa, lanes):
    mw = mask(w)
    ma = mask(wa)
    ones_a = lane_ones(wa, lanes)
    ones_w = lane_ones(w, lanes)
    keeps = tuple(mask(w - s) * ones_w for s in range(w))
    shl = op == "shl"
    pairs = tuple((k * w, k * wa) for k in range(lanes))

    def f(a, amount):
        amt0 = amount & ma
        if amount == amt0 * ones_a:
            if amt0 >= w:
                return 0
            if shl:
                return (a & keeps[amt0]) << amt0
            return (a >> amt0) & keeps[amt0]
        out = 0
        for sh, sha in pairs:
            x = (a >> sh) & mw
            amt = (amount >> sha) & ma
            if amt >= w:
                continue
            v = ((x << amt) & mw) if shl else (x >> amt)
            out |= v << sh
        return out
    return f


@lru_cache(maxsize=1024)
def _kernel_resize(op, w, wd, lanes):
    mw = mask(w)
    md = mask(wd)
    ones = lane_ones(w, lanes)
    ones_d = lane_ones(wd, lanes)
    half = 1 << (w - 1)
    ext = md ^ (md & mw)
    pairs = tuple((k * w, k * wd) for k in range(lanes))
    if op == "trunc":
        def f(a):
            a0 = a & mw
            if a == a0 * ones:
                return (a0 & md) * ones_d
            out = 0
            for sh, shd in pairs:
                out |= ((a >> sh) & md) << shd
            return out
    elif op == "sext":
        def f(a):
            a0 = a & mw
            if a == a0 * ones:
                if a0 & half:
                    a0 |= ext
                return a0 * ones_d
            out = 0
            for sh, shd in pairs:
                x = (a >> sh) & mw
                if x & half:
                    x |= ext
                out |= x << shd
            return out
    else:
        def f(a):
            a0 = a & mw
            if a == a0 * ones:
                return a0 * ones_d
            out = 0
            for sh, shd in pairs:
                out |= ((a >> sh) & mw) << shd
            return out
    return f


def _kernel_mux(inst, w, ws, lanes):
    ms = mask(ws)
    ones_s = lane_ones(ws, lanes)
    mw = mask(w) if w is not None else None
    pairs = tuple((k * w if w is not None else 0, k * ws)
                  for k in range(lanes))

    def f(choices, sel):
        n = len(choices)
        s0 = sel & ms
        if sel == s0 * ones_s:
            return choices[s0 if s0 < n else n - 1]
        if mw is not None:
            out = 0
            for sh, shs in pairs:
                idx = (sel >> shs) & ms
                if idx >= n:
                    idx = n - 1
                out |= ((choices[idx] >> sh) & mw) << sh
            return out
        return evaluate_lanes(inst, (choices, sel), lanes)
    return f


@lru_cache(maxsize=1024)
def _kernel_slice(offset, w, length, lanes):
    mw = mask(w)
    ml = mask(length)
    ones = lane_ones(w, lanes)
    ones_l = lane_ones(length, lanes)
    pairs = tuple((k * w + offset, k * length) for k in range(lanes))

    def f(a):
        a0 = a & mw
        if a == a0 * ones:
            return ((a0 >> offset) & ml) * ones_l
        out = 0
        for sh, shl in pairs:
            out |= ((a >> sh) & ml) << shl
        return out
    return f


def _operand_width(inst, index):
    return inst.operands[index].type.width


#: The ``iN`` lane kernels by opcode, each built from the instruction's
#: widths (and slice offset) and K.  An ``lN`` value uses the same lane
#: stride as an ``iN`` one, so the kernels compute an ``lN`` op's known
#: result on the ``val`` planes too (see ``blaze.UnitCompiler._logic_expr``).
_SWAR_KERNELS = {
    "add": lambda inst, k: _kernel_addsub("add", inst.type.width, k),
    "sub": lambda inst, k: _kernel_addsub("sub", inst.type.width, k),
    "mul": lambda inst, k: _kernel_mul(inst.type.width, k),
    "shl": lambda inst, k: _kernel_shift(
        "shl", inst.type.width, _operand_width(inst, 1), k),
    "shr": lambda inst, k: _kernel_shift(
        "shr", inst.type.width, _operand_width(inst, 1), k),
    "exts": lambda inst, k: _kernel_slice(
        inst.attrs["offset"], _operand_width(inst, 0), inst.type.width, k),
}
_SWAR_KERNELS.update(
    (op, lambda inst, k: _kernel_resize(
        inst.opcode, _operand_width(inst, 0), inst.type.width, k))
    for op in ("zext", "sext", "trunc"))
_SWAR_KERNELS.update(
    (op, lambda inst, k: _kernel_compare(
        inst.opcode, _operand_width(inst, 0), k))
    for op in ("eq", "neq", "ult", "ugt", "ule", "uge",
               "slt", "sgt", "sle", "sge"))
SWAR_OPS = frozenset(_SWAR_KERNELS)


def swar_kernel(inst, lanes):
    """The ``iN`` lane kernel of an instruction's opcode and widths.

    Returns ``fn(*operands) -> int`` over lane-strided ints, or ``None``
    for an opcode without one.  The caller vouches for the operand
    shape: plain ``iN`` words, or the ``val`` planes of two-valued
    ``lN`` vectors.
    """
    build = _SWAR_KERNELS.get(inst.opcode)
    if build is None:
        return None
    return build(inst, lanes)


def lane_kernel(inst, lanes):
    """Compile one pure instruction to a specialized lane callable.

    Returns ``fn(*operands) -> value`` with every type query, mask, and
    lane shift precomputed at compile time, or ``None`` when the
    op/type combination has no specialized form.  The Blaze lane-mode
    code generator binds the callable as a compiled-code constant, so
    executing the op costs one call — no per-execution dispatch.
    """
    ops = inst.operands
    ty = inst.type
    if inst.opcode == "mux":
        if ops[1].type.is_int:
            w = ty.width if ty.is_int else None
            return _kernel_mux(inst, w, ops[1].type.width, lanes)
        return None
    if ty.is_int and all(o.type.is_int for o in ops):
        return swar_kernel(inst, lanes)
    return None


_LANE_FAST = dict.fromkeys(SWAR_OPS, _lanes_swar)
_LANE_FAST.update(mux=_lanes_mux, extf=_lanes_extf, insf=_lanes_insf,
                  array=_lanes_array, struct=_lanes_struct)


def evaluate_lanes(inst, operands, lanes):
    """Evaluate one pure instruction over lane-widened operands.

    ``const`` broadcasts; every other op takes the first of four tiers
    that applies:

    1. bitwise ops (`and`/`or`/`xor`/`not`) are lane-exact on the widened
       planes — the same single integer expression as the scalar op;
    2. ``_LANE_FAST``: ``iN`` arithmetic, compares, shifts, resizes and
       slices by their lane kernels (:func:`swar_kernel`), ``mux`` by a
       lane-uniform or ``iN`` selector, and ``extf``/``insf`` by a
       lane-uniform index and ``array``/``struct`` packing, which are
       lane-transparent;
    3. when every operand is lane-uniform, evaluate once on lane 0 and
       broadcast (the identical-stimulus fast path);
    4. otherwise loop over lanes, evaluating the scalar op per lane —
       per-lane *data* divergence is handled exactly, and any per-lane
       error (division by zero, X selector) surfaces as the scalar run's
       :class:`SimulationError`.

    Blaze lane-mode code reaches this only for ops it has no inline form
    or kernel for, and for ``lN`` ops whose operands hold an unknown
    (X/Z/U/W/-) or, for resizes and slices, a weak (L/H) bit.
    """
    op = inst.opcode
    if op == "const":
        return broadcast(inst.attrs["value"], inst.type, lanes)
    ops = inst.operands
    if op in _BITWISE_INT and len(operands) == 2:
        a, b = operands
        if ops[0].type.is_logic:
            if op == "and":
                return a.and_(b)
            if op == "or":
                return a.or_(b)
            return a.xor(b)
        if ops[0].type.is_int:
            return _BITWISE_INT[op](a, b)
    elif op == "not":
        a = operands[0]
        if ops[0].type.is_logic:
            return a.not_()
        if inst.type.is_int:
            return (~a) & mask(inst.type.width * lanes)
    fast = _LANE_FAST.get(op)
    if fast is not None:
        result = fast(inst, operands, lanes)
        if result is not None:
            return result
    types = [o.type for o in ops]
    if all(is_uniform(v, t, lanes) for v, t in zip(operands, types)):
        scalars = [lane_get(v, t, 0, lanes)
                   for v, t in zip(operands, types)]
        return broadcast(evaluate(inst, scalars), inst.type, lanes)
    per_lane = []
    for k in range(lanes):
        scalars = [lane_get(v, t, k, lanes)
                   for v, t in zip(operands, types)]
        per_lane.append(evaluate(inst, scalars))
    return lane_pack(per_lane, inst.type, lanes)


# -- intrinsics ---------------------------------------------------------------

def intrinsic_lanes(kernel, name, args, types, lanes, where=""):
    """Invoke an intrinsic from a lane-vectorized context.

    Uniform arguments collapse to one scalar invocation applying to all
    lanes (``kernel.current_lane`` stays ``None``); divergent arguments
    invoke per lane with lane attribution, so assertion failures, print
    output, and per-lane ``finish`` land on the right lane.
    """
    if all(is_uniform(v, t, lanes) for v, t in zip(args, types)):
        scalars = [lane_get(v, t, 0, lanes) for v, t in zip(args, types)]
        return kernel.intrinsic(name, scalars, where)
    result = None
    try:
        for k in range(lanes):
            if hasattr(kernel, "finished_lanes") and \
                    k in kernel.finished_lanes:
                continue
            kernel.current_lane = k
            scalars = [lane_get(v, t, k, lanes)
                       for v, t in zip(args, types)]
            result = kernel.intrinsic(name, scalars, where)
    finally:
        kernel.current_lane = None
    return result


# -- entity helpers: per-lane conditional drives and vectorized reg ----------

def drive_cond_lanes(kernel, order, inst_key, target, vty, value, delay,
                     cond, lanes):
    """Per-lane conditional drive from a vectorized entity.

    Lanes whose condition bit is set drive their lane projection of the
    target under a per-lane driver key; keying is per-lane even when the
    condition happens to be uniform, so a lane's drive timeline stays
    consistent across activations (cancellation semantics).
    """
    if cond == 0:
        return
    from .engine import SignalRef

    m = cond
    while m:
        low = m & -m
        k = low.bit_length() - 1
        m ^= low
        if isinstance(target, SignalRef):
            ref = SignalRef(
                target.signal, target.path + lane_path(vty, k, lanes),
                target.type)
        else:
            ref = SignalRef(target, lane_path(vty, k, lanes), target.type)
        kernel.schedule_drive(
            ("drv", order, inst_key, k), ref,
            lane_get(value, vty, k, lanes), delay)


def blend(old, new, lane_mask, ty, lanes):
    """Per-lane select between two lane-widened values of type ``ty``."""
    full = lane_ones(1, lanes)
    if lane_mask == 0:
        return old
    if lane_mask == full:
        return new
    if ty.is_logic:
        return lane_blend(old, new, lane_mask, ty.width, lanes)
    if ty.is_int or ty.is_enum:
        w = stride(ty)
        mexp = expand_lane_mask(lane_mask, w, lanes)
        return (old & ~mexp) | (new & mexp)
    if ty.is_array:
        elems = tuple(blend(o, v, lane_mask, ty.element, lanes)
                      for o, v in zip(old, new))
        if ty.element.is_logic:
            return PackedLogicArray.from_elements(elems)
        return elems
    if ty.is_struct:
        return tuple(blend(o, v, lane_mask, f, lanes)
                     for o, v, f in zip(old, new, ty.fields))
    raise SimulationError(f"cannot lane-blend a value of type {ty}")


def edge_mask(mode, prev, cur, ty, lanes):
    """The K-bit lane mask of a ``reg`` trigger's firing lanes.

    Single-bit ``l1`` triggers (the ubiquitous clock case) compute the
    mask with O(1) plane arithmetic; wider or integer triggers take the
    uniform fast path or fall back to a per-lane loop.  The per-lane
    rules mirror ``plan._reg_step`` exactly (X counts as the matching
    previous level for rise/fall).
    """
    full = lane_ones(1, lanes)
    if ty.is_logic and ty.width == 1:
        pv, pu = prev._val, prev._unk
        cv, cu = cur._val, cur._unk
        if mode == "rise":
            return cv & ~cu & (pu | ~pv) & full
        if mode == "fall":
            return ~cv & ~cu & (pu | pv) & full
        if mode == "both":
            return ((pv ^ cv) | (pu ^ cu) | (prev._weak ^ cur._weak)
                    | (prev._aux ^ cur._aux)) & full
        if mode == "high":
            return cv & ~cu & full
        return ~cv & ~cu & full
    if is_uniform(prev, ty, lanes) and is_uniform(cur, ty, lanes):
        hit = _edge_hit(mode, lane_get(prev, ty, 0, lanes),
                        lane_get(cur, ty, 0, lanes))
        return full if hit else 0
    out = 0
    for k in range(lanes):
        if _edge_hit(mode, lane_get(prev, ty, k, lanes),
                     lane_get(cur, ty, k, lanes)):
            out |= 1 << k
    return out


def _edge_hit(mode, prev, cur):
    if isinstance(cur, LogicVec):
        if mode == "rise":
            return logic_level(cur) == 1 and logic_level(prev) in (0, -1)
        if mode == "fall":
            return logic_level(cur) == 0 and logic_level(prev) in (1, -1)
        if mode == "both":
            return prev != cur
        if mode == "high":
            return logic_level(cur) == 1
        return logic_level(cur) == 0
    if mode == "rise":
        return prev == 0 and cur == 1
    if mode == "fall":
        return prev == 1 and cur == 0
    if mode == "both":
        return prev != cur
    if mode == "high":
        return cur == 1
    return cur == 0
