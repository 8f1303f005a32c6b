"""Predecoded execution plans for the reference interpreter.

The interpreter's original hot loop re-dispatched on each instruction's
opcode string, rebuilt operand lists through ``inst.operands``, and
re-resolved projection paths on every activation.  This module predecodes
each unit *once* into a plan of small step closures:

* every non-terminator instruction becomes one ``step(env, act)``
  closure with its operand environment keys, evaluator, masks, and
  projection paths resolved at plan-build time;
* every terminator becomes a ``term(env, act)`` closure that
  applies the phi parallel copies for the taken edge and returns the next
  :class:`BlockPlan` (or ``None`` when the activity suspends or halts);
* entity bodies become a flat tuple of steps replayed per activation.

Plans capture unit-level statics (instruction identities, constants,
types) plus the design's kernel, so one plan is shared by every
elaborated instance of the unit in a design —
the per-instance state stays in the activity's ``env`` dict, exactly as
before.  This is still an interpreter (values flow through ``env``, no
Python code is generated); it is the classic predecoded-bytecode layout.
"""

from __future__ import annotations

from ..ir.ninevalued import LogicVec, lane_ones
from ..ir.values import TimeValue
from .engine import SignalInstance, SignalRef
from .eval import (
    EVALUATORS, _logic_binary, logic_compare, logic_level, logic_shift,
    path_of,
)
from .lanes import (
    LaneDivergence, drive_cond_lanes, evaluate_lanes, lane_path,
    path_of_lanes, u1, uindex, uindex_int,
)
from .lanes import edge_mask as lane_edge_mask
from .values import (
    SimulationError, extract_path, insert_path, lane_extract, lane_widen,
    mask, to_signed,
)

_EPSILON = TimeValue(0, 0, 1)


class Cell:
    """A mutable memory cell backing ``var``/``alloc``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class CellRef:
    """A projection into a cell: result of extf/exts on a pointer."""

    __slots__ = ("cell", "path")

    def __init__(self, cell, path=()):
        self.cell = cell
        self.path = tuple(path)

    def load(self):
        return extract_path(self.cell.value, self.path)

    def store(self, value):
        self.cell.value = insert_path(self.cell.value, self.path, value)

    def project(self, step):
        return CellRef(self.cell, self.path + (step,))


def _as_cellref(pointer):
    if type(pointer) is Cell:
        return CellRef(pointer)
    return pointer


def _dynamic_index(value):
    from ..ir.ninevalued import LogicVec

    if isinstance(value, LogicVec):
        if not value.is_two_valued:
            raise SimulationError("dynamic index is unknown (X)")
        return value.to_int()
    return value


def probe_value(target, kernel):
    """Read a signal operand (fast path for unmerged whole signals)."""
    if type(target) is SignalInstance:
        if target._rep is None:
            return target.value
        return target.find().value
    return kernel.probe(target)


class BlockPlan:
    """One basic block: straight-line steps plus a terminator."""

    __slots__ = ("steps", "term")

    def __init__(self):
        self.steps = ()
        self.term = None


class _Timeout:
    """Resume-after-timeout token; stale tokens are ignored."""

    __slots__ = ("proc", "token")

    def __init__(self, proc, token):
        self.proc = proc
        self.token = token

    @property
    def order(self):
        return self.proc.order

    def run(self, kernel):
        if self.proc.status == "waiting" and \
                self.proc.wait_token == self.token:
            # timed_out=True: lane-replicated processes must not apply
            # their change-detection wake gate to a timeout resume.
            self.proc.run(kernel, True)


# -- step builders -------------------------------------------------------------

def _const_step(inst):
    key = id(inst)
    value = inst.attrs["value"]

    def step(env, act):
        env[key] = value
    return step


def _binary_int_step(inst):
    """Specialized iN arithmetic/logical/compare steps."""
    op = inst.opcode
    key = id(inst)
    a, b = id(inst.operands[0]), id(inst.operands[1])
    ty = inst.operands[0].type
    if op == "add":
        m = mask(inst.type.width)

        def step(env, act):
            env[key] = (env[a] + env[b]) & m
    elif op == "sub":
        m = mask(inst.type.width)

        def step(env, act):
            env[key] = (env[a] - env[b]) & m
    elif op == "mul":
        m = mask(inst.type.width)

        def step(env, act):
            env[key] = (env[a] * env[b]) & m
    elif op == "and":
        def step(env, act):
            env[key] = env[a] & env[b]
    elif op == "or":
        def step(env, act):
            env[key] = env[a] | env[b]
    elif op == "xor":
        def step(env, act):
            env[key] = env[a] ^ env[b]
    elif op == "eq":
        def step(env, act):
            env[key] = 1 if env[a] == env[b] else 0
    elif op == "neq":
        def step(env, act):
            env[key] = 1 if env[a] != env[b] else 0
    elif op == "ult":
        def step(env, act):
            env[key] = 1 if env[a] < env[b] else 0
    elif op == "ugt":
        def step(env, act):
            env[key] = 1 if env[a] > env[b] else 0
    elif op == "ule":
        def step(env, act):
            env[key] = 1 if env[a] <= env[b] else 0
    elif op == "uge":
        def step(env, act):
            env[key] = 1 if env[a] >= env[b] else 0
    elif op in ("slt", "sgt", "sle", "sge"):
        w = ty.width
        rel = op[1:]

        def step(env, act):
            sa = to_signed(env[a], w)
            sb = to_signed(env[b], w)
            if rel == "lt":
                env[key] = 1 if sa < sb else 0
            elif rel == "gt":
                env[key] = 1 if sa > sb else 0
            elif rel == "le":
                env[key] = 1 if sa <= sb else 0
            else:
                env[key] = 1 if sa >= sb else 0
    else:
        return None
    return step


_INT_FAST_OPS = frozenset({
    "add", "sub", "mul", "and", "or", "xor",
    "slt", "sgt", "sle", "sge",
})
_CMP_FAST_OPS = frozenset({"eq", "neq", "ult", "ugt", "ule", "uge"})


def _binary_logic_step(inst):
    """Specialized lN steps: table ops dispatch straight to LogicVec."""
    op = inst.opcode
    key = id(inst)
    a, b = id(inst.operands[0]), id(inst.operands[1])
    if op == "and":
        def step(env, act):
            env[key] = env[a].and_(env[b])
    elif op == "or":
        def step(env, act):
            env[key] = env[a].or_(env[b])
    elif op == "xor":
        def step(env, act):
            env[key] = env[a].xor(env[b])
    elif op in ("shl", "shr"):
        def step(env, act):
            env[key] = logic_shift(op, env[a], env[b])
    elif op in ("add", "sub", "mul", "udiv", "sdiv", "umod", "smod",
                "urem", "srem"):
        def step(env, act):
            env[key] = _logic_binary(op, env[a], env[b])
    elif op in ("eq", "neq", "ult", "ugt", "ule", "uge", "slt", "sgt",
                "sle", "sge"):
        def step(env, act):
            env[key] = logic_compare(op, env[a], env[b])
    else:
        return None
    return step


def _pure_step(inst):
    """A step for a side-effect-free instruction."""
    op = inst.opcode
    if op == "const":
        return _const_step(inst)
    key = id(inst)
    ops = inst.operands
    opids = tuple(id(o) for o in ops)
    if len(ops) == 2:
        if ops[0].type.is_logic:
            step = _binary_logic_step(inst)
            if step is not None:
                return step
        elif (op in _INT_FAST_OPS and inst.type.is_int) or \
                (op in _CMP_FAST_OPS and
                 (ops[0].type.is_int or op in ("eq", "neq"))):
            step = _binary_int_step(inst)
            if step is not None:
                return step
    if op == "not" and ops and ops[0].type.is_logic:
        a = opids[0]

        def step(env, act):
            env[key] = env[a].not_()
        return step
    if op == "not" and inst.type.is_int:
        a = opids[0]
        m = mask(inst.type.width)

        def step(env, act):
            env[key] = (~env[a]) & m
        return step
    if op == "trunc" and ops[0].type.is_int:
        a = opids[0]
        m = mask(inst.type.width)

        def step(env, act):
            env[key] = env[a] & m
        return step
    if op in ("shl", "shr") and inst.type.is_int and \
            not ops[1].type.is_logic:
        a, b = opids
        w = inst.type.width
        m = mask(w)
        if op == "shl":
            def step(env, act):
                amount = env[b]
                env[key] = (env[a] << amount) & m if amount < w else 0
        else:
            def step(env, act):
                env[key] = env[a] >> env[b]
        return step
    if op == "zext":
        a = opids[0]
        if ops[0].type.is_logic:
            w = inst.type.width

            def step(env, act):
                env[key] = env[a].zext(w)
        else:
            def step(env, act):
                env[key] = env[a]
        return step
    if op in ("sext", "trunc") and ops[0].type.is_logic:
        a = opids[0]
        w = inst.type.width
        if op == "sext":
            def step(env, act):
                env[key] = env[a].sext(w)
        else:
            def step(env, act):
                env[key] = env[a].trunc(w)
        return step
    # Generic fallback: evaluator resolved once, operands by captured keys.
    fn = EVALUATORS.get(op)
    if fn is None:
        raise SimulationError(f"plan: not a pure instruction: {op}")
    if len(opids) == 1:
        a = opids[0]

        def step(env, act):
            env[key] = fn(inst, (env[a],))
    elif len(opids) == 2:
        a, b = opids

        def step(env, act):
            env[key] = fn(inst, (env[a], env[b]))
    else:
        def step(env, act):
            env[key] = fn(inst, [env[i] for i in opids])
    return step


def _ext_step(inst, kernel):
    """extf/exts over values, signals, and pointers."""
    key = id(inst)
    base = inst.operands[0]
    bid = id(base)
    base_ty = base.type
    rty = inst.type
    if inst.opcode == "extf" and inst.attrs.get("index") is None:
        iid = id(inst.operands[1])
        if base_ty.is_signal:
            def step(env, act):
                b = env[bid]
                if type(b) is SignalInstance:
                    b = SignalRef(b, (), b.type)
                env[key] = b.project(
                    ("field", _dynamic_index(env[iid])), rty)
        elif base_ty.is_pointer:
            def step(env, act):
                env[key] = _as_cellref(env[bid]).project(
                    ("field", _dynamic_index(env[iid])))
        else:
            def step(env, act):
                env[key] = extract_path(
                    env[bid], (("field", _dynamic_index(env[iid])),))
        return step
    if inst.opcode == "extf":
        path_step = ("field", inst.attrs["index"])
    else:
        path_step = path_of(inst)
    if base_ty.is_signal:
        def step(env, act):
            b = env[bid]
            if type(b) is SignalInstance:
                b = SignalRef(b, (), b.type)
            env[key] = b.project(path_step, rty)
    elif base_ty.is_pointer:
        def step(env, act):
            env[key] = _as_cellref(env[bid]).project(path_step)
    else:
        path = (path_step,)

        def step(env, act):
            env[key] = extract_path(env[bid], path)
    return step


def _prb_step(inst, kernel):
    key = id(inst)
    sid = id(inst.operands[0])

    def step(env, act):
        target = env[sid]
        if type(target) is SignalInstance:
            if target._rep is None:
                env[key] = target.value
            else:
                env[key] = target.find().value
        else:
            env[key] = kernel.probe(target)
    return step


def _drv_step(inst, kernel):
    sid = id(inst.drv_signal())
    vid = id(inst.drv_value())
    did = id(inst.drv_delay())
    cond = inst.drv_condition()
    if cond is None:
        def step(env, act):
            kernel.schedule_drive(act.order, env[sid], env[vid], env[did])
    else:
        cid = id(cond)

        def step(env, act):
            if env[cid]:
                kernel.schedule_drive(
                    act.order, env[sid], env[vid], env[did])
    return step


def _sig_step(inst, kernel):
    key = id(inst)
    init = id(inst.operands[0])
    label = inst.name or id(inst)
    ty = inst.type

    def step(env, act):
        if key not in env:
            env[key] = act.design.create_signal(
                f"{act.path}.{label}", ty, env[init])
    return step


def _cell_step(inst, kernel):
    key = id(inst)
    init = id(inst.operands[0])

    def step(env, act):
        env[key] = Cell(env[init])
    return step


def _ld_step(inst, kernel):
    key = id(inst)
    pid = id(inst.operands[0])

    def step(env, act):
        p = env[pid]
        if type(p) is Cell:
            env[key] = p.value
        else:
            env[key] = p.load()
    return step


def _st_step(inst, kernel):
    pid = id(inst.operands[0])
    vid = id(inst.operands[1])

    def step(env, act):
        p = env[pid]
        if type(p) is Cell:
            p.value = env[vid]
        else:
            p.store(env[vid])
    return step


def _call_step(inst, kernel):
    key = id(inst)
    callee = inst.callee
    opids = tuple(id(o) for o in inst.operands)
    void = inst.type.is_void

    def step(env, act):
        result = act.functions.call(
            callee, [env[i] for i in opids], where=f"in {act.path}")
        if not void:
            env[key] = result
    return step


def _del_step(inst, kernel):
    key = id(inst)
    src = id(inst.operands[0])
    did = id(inst.operands[1])

    def step(env, act):
        kernel.schedule_drive(
            ("del", act.order, key), env[key],
            probe_value(env[src], kernel), env[did])
    return step


def _reg_step(inst, kernel):
    key = id(inst)
    sig_id = id(inst.reg_signal())
    trigs = tuple(
        (t["mode"], id(t["value"]), id(t["trigger"]),
         id(t["cond"]) if t["cond"] is not None else None,
         id(t["delay"]) if t["delay"] is not None else None,
         t["trigger"].type.is_logic)
        for t in inst.reg_triggers())

    def step(env, act):
        prev_list = act.reg_state[key]
        fired = False
        for i, (mode, vid, tid, cid, did, lg) in enumerate(trigs):
            cur = env[tid]
            prev = prev_list[i]
            prev_list[i] = cur
            if fired:
                continue
            if lg:
                # Nine-valued trigger: rise/fall/high/low compare X01
                # integer levels (-1 for unknowns).  A rising edge needs
                # the previous level to be 0 — exactly the iN rule — or
                # unknown, so X -> 1 counts as rise (IEEE 1800, matching
                # procgen._edge_term); 'both' keeps exact value-change
                # detection.
                if mode == "rise":
                    hit = logic_level(cur) == 1 and \
                        logic_level(prev) in (0, -1)
                elif mode == "fall":
                    hit = logic_level(cur) == 0 and \
                        logic_level(prev) in (1, -1)
                elif mode == "both":
                    hit = prev != cur
                elif mode == "high":
                    hit = logic_level(cur) == 1
                else:
                    hit = logic_level(cur) == 0
            elif mode == "rise":
                hit = prev == 0 and cur == 1
            elif mode == "fall":
                hit = prev == 1 and cur == 0
            elif mode == "both":
                hit = prev != cur
            elif mode == "high":
                hit = cur == 1
            else:
                hit = cur == 0
            if not hit:
                continue
            if cid is not None and not env[cid]:
                continue
            kernel.schedule_drive(
                ("reg", act.order, key), env[sig_id], env[vid],
                env[did] if did is not None else _EPSILON)
            fired = True
    return step


# -- lane-mode step builders ---------------------------------------------------
#
# When a design is elaborated with K > 1 lanes in *vectorized* mode, every
# runtime value is lane-widened (see repro.sim.lanes) and one activation
# covers all K lanes.  Bitwise table ops stay inline (they are lane-exact
# on widened planes); everything else goes through evaluate_lanes, whose
# uniformity fast path keeps the per-activation cost near scalar for
# identical-stimulus batches.  Control points (branch conditions, signal
# projections by dynamic index) collapse through u1/uindex and raise
# LaneDivergence when lanes disagree — the batch driver then re-runs the
# design with per-lane replicated processes (which use the *scalar* plans).

def _pure_step_lanes(inst, lanes):
    op = inst.opcode
    key = id(inst)
    if op == "const":
        value = lane_widen(inst.attrs["value"], inst.type, lanes)

        def step(env, act):
            env[key] = value
        return step
    ops = inst.operands
    opids = tuple(id(o) for o in ops)
    if len(ops) == 2 and op in ("and", "or", "xor"):
        a, b = opids
        if ops[0].type.is_logic:
            if op == "and":
                def step(env, act):
                    env[key] = env[a].and_(env[b])
            elif op == "or":
                def step(env, act):
                    env[key] = env[a].or_(env[b])
            else:
                def step(env, act):
                    env[key] = env[a].xor(env[b])
            return step
        if ops[0].type.is_int:
            if op == "and":
                def step(env, act):
                    env[key] = env[a] & env[b]
            elif op == "or":
                def step(env, act):
                    env[key] = env[a] | env[b]
            else:
                def step(env, act):
                    env[key] = env[a] ^ env[b]
            return step
    if op == "not" and ops:
        a = opids[0]
        if ops[0].type.is_logic:
            def step(env, act):
                env[key] = env[a].not_()
            return step
        if inst.type.is_int:
            m = mask(inst.type.width * lanes)

            def step(env, act):
                env[key] = (~env[a]) & m
            return step
    if op not in EVALUATORS:
        raise SimulationError(f"plan: not a pure instruction: {op}")
    if len(opids) == 1:
        a = opids[0]

        def step(env, act):
            env[key] = evaluate_lanes(inst, (env[a],), lanes)
    elif len(opids) == 2:
        a, b = opids

        def step(env, act):
            env[key] = evaluate_lanes(inst, (env[a], env[b]), lanes)
    else:
        def step(env, act):
            env[key] = evaluate_lanes(
                inst, [env[i] for i in opids], lanes)
    return step


def _ext_step_lanes(inst, kernel, lanes):
    """Lane-mode extf/exts.

    Projections through signals and pointers build one reference, so a
    dynamic index must be lane-uniform; int/logic ``exts`` paths become
    per-lane ``lslice`` steps.  Extractions from plain *values* go
    through evaluate_lanes, which handles a lane-divergent dynamic index
    per lane (data divergence).
    """
    key = id(inst)
    base = inst.operands[0]
    bid = id(base)
    base_ty = base.type
    rty = inst.type
    if not base_ty.is_signal and not base_ty.is_pointer:
        return _pure_step_lanes(inst, lanes)
    if inst.opcode == "extf" and inst.attrs.get("index") is None:
        idx_ty = inst.operands[1].type
        iid = id(inst.operands[1])

        def dyn_index(value):
            if isinstance(value, LogicVec):
                return uindex(value, lanes)
            return uindex_int(value, idx_ty.width if idx_ty.is_int
                              else 1, lanes)
        if base_ty.is_signal:
            def step(env, act):
                b = env[bid]
                if type(b) is SignalInstance:
                    b = SignalRef(b, (), b.type)
                env[key] = b.project(("field", dyn_index(env[iid])), rty)
        else:
            def step(env, act):
                env[key] = _as_cellref(env[bid]).project(
                    ("field", dyn_index(env[iid])))
        return step
    if inst.opcode == "extf":
        path_step = ("field", inst.attrs["index"])
    else:
        path_step = path_of_lanes(inst, lanes)
    if base_ty.is_signal:
        def step(env, act):
            b = env[bid]
            if type(b) is SignalInstance:
                b = SignalRef(b, (), b.type)
            env[key] = b.project(path_step, rty)
    else:
        def step(env, act):
            env[key] = _as_cellref(env[bid]).project(path_step)
    return step


def _drv_step_lanes(inst, kernel, lanes, entity):
    """Lane-mode drive.

    Unconditional drives stay whole-width (one transaction covers all
    lanes).  A *process* conditional drive collapses its condition with
    u1 — lane-divergent process control re-runs replicated.  An *entity*
    conditional drive is data flow (the mux-like enable may legitimately
    diverge), so set lanes drive their lane projection under per-lane
    driver keys.
    """
    sid = id(inst.drv_signal())
    vid = id(inst.drv_value())
    did = id(inst.drv_delay())
    cond = inst.drv_condition()
    if cond is None:
        def step(env, act):
            kernel.schedule_drive(act.order, env[sid], env[vid], env[did])
        return step
    cid = id(cond)
    if not entity:
        def step(env, act):
            if u1(env[cid], lanes):
                kernel.schedule_drive(
                    act.order, env[sid], env[vid], env[did])
        return step
    inst_key = id(inst)
    vty = inst.drv_value().type

    def step(env, act):
        drive_cond_lanes(
            kernel, act.order, inst_key, env[sid], vty, env[vid],
            env[did], env[cid], lanes)
    return step


def _call_step_lanes(inst, kernel, lanes):
    key = id(inst)
    callee = inst.callee
    opids = tuple(id(o) for o in inst.operands)
    types = tuple(o.type for o in inst.operands)
    void = inst.type.is_void

    def step(env, act):
        result = act.functions.call(
            callee, [env[i] for i in opids], where=f"in {act.path}",
            types=types)
        if not void:
            env[key] = result
    return step


def _reg_step_lanes(inst, kernel, lanes, replicate):
    """Lane-vectorized ``reg``: per-trigger lane fire masks.

    Each trigger contributes an edge-detection lane mask (O(1) plane
    arithmetic for the ubiquitous ``l1`` clock); lanes pick their first
    matching trigger, scalar-style.  In vectorized mode the mask must be
    all-or-nothing (a partial mask is control divergence: the whole-width
    drive could not represent per-lane timelines) and fires one
    whole-width transaction; in replicated mode — where stimulus phases
    legitimately differ per lane — each firing lane drives its lane
    projection under a per-lane driver key, so per-lane transport
    timelines stay independent exactly like the scalar runs they mirror.
    """
    key = id(inst)
    sig_id = id(inst.reg_signal())
    vty = inst.reg_signal().type.element
    full = lane_ones(1, lanes)
    trigs = tuple(
        (t["mode"], id(t["value"]), id(t["trigger"]),
         id(t["cond"]) if t["cond"] is not None else None,
         id(t["delay"]) if t["delay"] is not None else None,
         t["trigger"].type)
        for t in inst.reg_triggers())

    def step(env, act):
        prev_list = act.reg_state[key]
        fired = 0
        for i, (mode, vid, tid, cid, did, tty) in enumerate(trigs):
            cur = env[tid]
            prev = prev_list[i]
            prev_list[i] = cur
            if fired == full:
                continue
            hit = lane_edge_mask(mode, prev, cur, tty, lanes)
            if cid is not None:
                hit &= env[cid]
            hit &= ~fired & full
            if not hit:
                continue
            fired |= hit
            delay = env[did] if did is not None else _EPSILON
            if not replicate:
                if hit != full:
                    raise LaneDivergence(
                        "reg trigger fires on a strict subset of lanes")
                kernel.schedule_drive(
                    ("reg", act.order, key), env[sig_id], env[vid], delay)
                continue
            target = env[sig_id]
            if type(target) is not SignalRef:
                target = SignalRef(target, (), target.type)
            value = env[vid]
            m = hit
            while m:
                low = m & -m
                k = low.bit_length() - 1
                m ^= low
                ref = SignalRef(
                    target.signal,
                    target.path + lane_path(vty, k, lanes), vty)
                kernel.schedule_drive(
                    ("reg", act.order, key, k), ref,
                    lane_extract(value, vty, k, lanes), delay)
    return step


_STEP_BUILDERS = {
    "prb": _prb_step,
    "drv": _drv_step,
    "sig": _sig_step,
    "var": _cell_step,
    "alloc": _cell_step,
    "ld": _ld_step,
    "st": _st_step,
    "call": _call_step,
    "extf": _ext_step,
    "exts": _ext_step,
}


def _step_for(inst, allowed, where, kernel, lanes=1, entity=False):
    op = inst.opcode
    if op == "free":
        return None
    builder = _STEP_BUILDERS.get(op)
    if builder is not None:
        if op not in allowed:
            raise SimulationError(f"{where}: '{op}' not allowed here")
        if lanes > 1:
            if op in ("extf", "exts"):
                return _ext_step_lanes(inst, kernel, lanes)
            if op == "drv":
                return _drv_step_lanes(inst, kernel, lanes, entity)
            if op == "call":
                return _call_step_lanes(inst, kernel, lanes)
        return builder(inst, kernel)
    if op in EVALUATORS:
        if lanes > 1:
            return _pure_step_lanes(inst, lanes)
        return _pure_step(inst)
    raise SimulationError(f"{where}: '{op}' not allowed here")


# -- terminators ---------------------------------------------------------------

def _edge_copies(pred, succ):
    """Phi parallel copies for the CFG edge pred -> succ."""
    phis = succ.phis()
    if not phis:
        return ()
    return tuple((id(p), id(p.phi_value_for(pred))) for p in phis)


def _apply_copies(env, copies):
    values = [env[s] for _, s in copies]
    for (d, _), v in zip(copies, values):
        env[d] = v


def _term_br(inst, block, plans, kernel, lanes=1):
    if inst.is_conditional_branch:
        cid = id(inst.operands[0])
        f_dest, t_dest = inst.operands[1], inst.operands[2]
        t_plan, f_plan = plans[id(t_dest)], plans[id(f_dest)]
        t_copies = _edge_copies(block, t_dest)
        f_copies = _edge_copies(block, f_dest)
        if lanes > 1:
            # Control point: all lanes must take the same edge.
            def term(env, act):
                if u1(env[cid], lanes):
                    if t_copies:
                        _apply_copies(env, t_copies)
                    return t_plan
                if f_copies:
                    _apply_copies(env, f_copies)
                return f_plan
            return term
        if not t_copies and not f_copies:
            def term(env, act):
                return t_plan if env[cid] else f_plan
            return term

        def term(env, act):
            if env[cid]:
                if t_copies:
                    _apply_copies(env, t_copies)
                return t_plan
            if f_copies:
                _apply_copies(env, f_copies)
            return f_plan
        return term
    dest = inst.operands[0]
    plan = plans[id(dest)]
    copies = _edge_copies(block, dest)
    if not copies:
        def term(env, act):
            return plan
        return term

    def term(env, act):
        _apply_copies(env, copies)
        return plan
    return term


def _term_wait(inst, block, plans, kernel, lanes=1):
    dest = inst.wait_dest()
    dest_plan = plans[id(dest)]
    copies = _edge_copies(block, dest)
    time_op = inst.wait_time()
    tid = id(time_op) if time_op is not None else None
    sig_ids = tuple(id(s) for s in inst.wait_signals())

    def term(env, act):
        if copies:
            _apply_copies(env, copies)
        act._bp = dest_plan
        act.status = "waiting"
        order = act.order
        subscribed = act.subscribed
        for i in sig_ids:
            sig = env[i]
            if type(sig) is SignalRef:
                sig = sig.signal
            if sig._rep is not None:
                sig = sig.find()
            sig.proc_waiters[order] = act
            subscribed.append(sig)
        if tid is not None:
            kernel.schedule_resume(
                _Timeout(act, act.wait_token), env[tid])
        return None
    return term


def _term_halt(inst, block, plans, kernel, lanes=1):
    def term(env, act):
        act.status = "halted"
        return None
    return term


def _term_ret(inst, block, plans, kernel, lanes=1):
    if inst.operands:
        vid = id(inst.operands[0])

        def term(env, act):
            act.result = env[vid]
            return None
    else:
        def term(env, act):
            act.result = None
            return None
    return term


_TERM_BUILDERS = {"br": _term_br, "wait": _term_wait, "halt": _term_halt}


# -- plan construction ---------------------------------------------------------

_PROC_OPS = frozenset({
    "prb", "drv", "sig", "var", "alloc", "ld", "st", "call", "extf", "exts",
})
_ENTITY_OPS = frozenset({"prb", "drv", "call", "extf", "exts"})
_FUNC_OPS = frozenset({"var", "alloc", "ld", "st", "call", "extf", "exts"})


def _build_cfg_plan(unit, allowed, terms, kind, kernel, lanes=1):
    where = f"@{unit.name}"
    plans = {id(b): BlockPlan() for b in unit.blocks}
    for block in unit.blocks:
        plan = plans[id(block)]
        instructions = block.instructions
        if not instructions or not instructions[-1].is_terminator:
            raise SimulationError(f"{where}: block without terminator")
        phis = block.phis()
        steps = []
        for inst in instructions[len(phis):-1]:
            step = _step_for(inst, allowed, where, kernel, lanes)
            if step is not None:
                steps.append(step)
        plan.steps = tuple(steps)
        term_inst = instructions[-1]
        builder = terms.get(term_inst.opcode)
        if builder is None:
            raise SimulationError(
                f"{where}: '{term_inst.opcode}' not allowed in {kind}")
        plan.term = builder(term_inst, block, plans, kernel, lanes)
    return plans[id(unit.entry)]


def build_process_plan(unit, kernel, lanes=1):
    """Predecode a process unit; returns the entry :class:`BlockPlan`.

    One plan serves every instance of the unit: steps key the environment
    by instruction identity, which is shared across instances.  With
    ``lanes`` > 1 the plan executes all K batch lanes per activation
    (lane-vectorized mode — see :mod:`repro.sim.lanes`).
    """
    return _build_cfg_plan(unit, _PROC_OPS, _TERM_BUILDERS, "a process",
                           kernel, lanes)


def build_function_plan(unit, kernel, lanes=1):
    """Predecode a function body; returns the entry :class:`BlockPlan`.

    Functions run to a ``ret``: the frame object passed as the activity
    receives the return value in its ``result`` attribute.
    """
    return _build_cfg_plan(
        unit, _FUNC_OPS, {"br": _term_br, "ret": _term_ret}, "a function",
        kernel, lanes)


def build_entity_plan(unit, kernel, lanes=1, replicate=False):
    """Predecode an entity body's re-activation steps.

    Elaboration-only instructions (``sig``, ``inst``, ``con``) are
    skipped; ``del`` re-drives, ``reg`` detects trigger edges, everything
    else re-evaluates dataflow.  Entities stay lane-vectorized in *both*
    batch modes; ``replicate`` only switches ``reg`` to per-lane driver
    keys (divergent stimulus phases need per-lane drive timelines).
    """
    where = f"@{unit.name}"
    steps = []
    for inst in unit.body:
        op = inst.opcode
        if op in ("sig", "inst", "con"):
            continue
        if op == "del":
            steps.append(_del_step(inst, kernel))
        elif op == "reg":
            if lanes > 1:
                steps.append(_reg_step_lanes(inst, kernel, lanes,
                                             replicate))
            else:
                steps.append(_reg_step(inst, kernel))
        else:
            step = _step_for(inst, _ENTITY_OPS, where, kernel, lanes,
                             entity=True)
            if step is not None:
                steps.append(step)
    return tuple(steps)
