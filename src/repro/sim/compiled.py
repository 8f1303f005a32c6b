"""Code generation for levelized cones.

Two halves:

* **templates** — each library cell *type* compiles once to a short
  straight-line Python recipe via the blaze :class:`UnitCompiler` (the
  per-opcode expression emitter is shared with the event-driven
  compiled engine; the input ports become ``__INk__`` placeholders that
  are substituted with ``V[slot]`` reads per gate instance);
* **cone modules** — :func:`generate_source` concatenates the gate
  recipes in levelized order into ``_settle_all(V)`` plus one
  specialized ``_settle_d<k>(V)`` per clock domain, each returning the
  list of net slots it changed, and emits each storage cell's triggers
  as a straight-line ``_seq<k>(V)`` (mode and ``iN``/``lN`` test fixed
  at generation time).  :func:`compile_cone` compiles and executes
  that module against the blaze runtime helper namespace.
"""

from __future__ import annotations

from ..ir.instructions import Instruction
from ..ir.ninevalued import LogicVec
from ..ir.values import TimeValue
from .blaze import _BASE_GLOBALS, _TRIGGER_TESTS, UnitCompiler
from .eval import path_of
from .values import SimulationError

class TemplateError(Exception):
    """The cell body cannot be turned into a straight-line recipe."""


def _const_literal(value):
    """A source expression reconstructing a cell-body constant."""
    if isinstance(value, bool):
        return repr(int(value))
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, LogicVec):
        return repr(value)   # LogicVec("01XZ...") round-trips
    if isinstance(value, tuple):
        inner = ", ".join(_const_literal(v) for v in value)
        tail = "," if len(value) == 1 else ""
        return f"({inner}{tail})"
    raise TemplateError(
        f"cell constant {value!r} has no source literal")


class CellTemplate:
    """One cell type's body as substitutable straight-line Python."""

    __slots__ = ("unit", "lines", "out_expr", "n_inputs")

    def __init__(self, unit, lines, out_expr, n_inputs):
        self.unit = unit
        self.lines = lines
        self.out_expr = out_expr
        self.n_inputs = n_inputs


def _projection_probe_expr(comp, placeholders, src):
    """Expression for a probe through an extf/exts chain of a port
    (memory read-port wiring cells)."""
    chain = []
    value = src
    while isinstance(value, Instruction) and value.opcode in ("extf",
                                                              "exts"):
        chain.append(value)
        value = value.operands[0]
    root_ph = placeholders.get(id(value))
    if root_ph is None:
        raise TemplateError("probe source is not an input port")
    steps = []
    for inst in reversed(chain):
        if inst.opcode == "exts":
            steps.append(repr(path_of(inst)))
        else:
            index = inst.attrs.get("index")
            if index is not None:
                steps.append(f"('field', {index})")
            else:
                nm = comp.names.get(id(inst.operands[1]))
                if nm is None:
                    raise TemplateError(
                        "dynamic field index is not a port probe")
                steps.append(f"('field', _idx({nm}))")
    return f"_extract({root_ph}, ({', '.join(steps)},))"


def build_template(unit):
    """Compile one library cell entity into a :class:`CellTemplate`.

    Only called for bodies that already passed
    :func:`repro.interop.techmap.cell_eval_form` comb classification;
    raises :class:`TemplateError` for anything it cannot express as
    self-contained source (the caller falls back to event-driven
    execution for that cell type).
    """
    comp = UnitCompiler(unit)
    placeholders = {}
    for k, arg in enumerate(unit.inputs):
        placeholders[id(arg)] = f"__IN{k}__"
    lines = []
    out_expr = None
    probes = 0
    for inst in unit.body:
        op = inst.opcode
        if op == "drv":
            out_expr = comp.name(inst.drv_value())
            continue
        if op == "prb":
            src = inst.operands[0]
            ph = placeholders.get(id(src))
            if ph is not None:
                comp.names[id(inst)] = ph
                continue
            expr = _projection_probe_expr(comp, placeholders, src)
            name = f"p{probes}"
            probes += 1
            comp.names[id(inst)] = name
            lines.append(f"{name} = {expr}")
            continue
        if op in ("extf", "exts") and inst.type.is_signal:
            continue   # input projection chain, folded at the probe
        if op == "const":
            value = inst.attrs["value"]
            if isinstance(value, TimeValue):
                continue   # the drive delay; not part of the data path
            comp.names[id(inst)] = _const_literal(value)
            continue
        if id(inst) in comp._elided:
            continue   # fused into its consuming mux
        try:
            expr = comp.expr(inst)
        except SimulationError as exc:
            raise TemplateError(str(exc))
        lines.append(f"{comp.name(inst)} = {expr}")
    if out_expr is None:
        raise TemplateError("cell has no output drive")
    if comp._const_counter:
        raise TemplateError("cell body binds runtime-only constants")
    return CellTemplate(unit, lines, out_expr, len(unit.inputs))


# -- source generation ---------------------------------------------------------


def _emit_gate(buf, template, in_slots, out_slot):
    subst = [(f"__IN{k}__", f"V[{s}]")
             for k, s in enumerate(in_slots)]

    def sub(text):
        for ph, rep in subst:
            if ph in text:
                text = text.replace(ph, rep)
        return text

    for line in template.lines:
        buf.append(f"    {sub(line)}")
    buf.append(f"    t = {sub(template.out_expr)}")
    buf.append(f"    if t != V[{out_slot}]:")
    buf.append(f"        V[{out_slot}] = t")
    buf.append(f"        ap({out_slot})")


def _emit_settle(buf, name, gates, members=None):
    buf.append(f"def {name}(V):")
    buf.append("    ch = []")
    buf.append("    ap = ch.append")
    positions = range(len(gates)) if members is None else members
    for pos in positions:
        template, in_slots, out_slot = gates[pos]
        _emit_gate(buf, template, in_slots, out_slot)
    buf.append("    return ch")


def _path_expr(proto):
    """Source for a storage cell's projection path, reading dynamic
    indices from ``V``."""
    steps = []
    for step in proto:
        if step[0] == "fielddyn":
            steps.append(f"('field', _idx(V[{step[1]}]))")
        else:
            steps.append(repr(step))
    if not steps:
        return "()"
    return f"({', '.join(steps)},)"


def _emit_seq(buf, cell, prev_base):
    """``_seq<index>(V)``: the cell's fire ``(path, data, delay)`` or
    None.  Every trigger's previous value is updated before any test
    (``_reg_step`` updates it whether or not an earlier trigger hit),
    the first hit whose condition holds fires.  ``delay`` is None when
    the drive lands within the current femtosecond (an epsilon step or
    a zero-fs ``after``), which the cone commits in the same settle."""
    buf.append(f"def _seq{cell.index}(V, P=PREV):")
    for i, (_m, _d, trig, _c, _dl, _lg) in enumerate(cell.triggers):
        buf.append(f"    c{i} = V[{trig}]")
        buf.append(f"    p{i} = P[{prev_base + i}]")
        buf.append(f"    P[{prev_base + i}] = c{i}")
    path = _path_expr(cell.path_proto)
    for i, (mode, data, _t, cond, delay, logic) in enumerate(cell.triggers):
        test = _TRIGGER_TESTS[mode, logic].format(p=f"p{i}", c=f"c{i}")
        if cond is not None:
            test = f"({test}) and V[{cond}]"
        dl = "None" if delay is None or not delay.fs \
            else f"DELAYS[{prev_base + i}]"
        buf.append(f"    if {test}:")
        buf.append(f"        return {path}, V[{data}], {dl}")
    buf.append("    return None")


def generate_source(plan):
    """The cone as a self-contained Python module (one string).

    Besides the settle functions it defines ``SEQS``, one trigger
    function per storage cell.  They keep their previous trigger values
    in the namespace's flat ``PREV`` list and read real-time delays
    from ``DELAYS`` (both indexed per trigger, cell after cell), which
    :func:`compile_cone` binds.
    """
    buf = []
    _emit_settle(buf, "_settle_all", plan.gates)
    for di, (slot, covered, members) in enumerate(plan.domains):
        buf.append("")
        _emit_settle(buf, f"_settle_d{di}", plan.gates, members)
    buf.append("")
    if plan.domains:
        buf.append("DOMAINS = (")
        for di, (slot, covered, members) in enumerate(plan.domains):
            cov = ", ".join(map(str, sorted(covered)))
            buf.append(f"    ({slot}, frozenset(({cov},)), "
                       f"_settle_d{di}),")
        buf.append(")")
    else:
        buf.append("DOMAINS = ()")
    base = 0
    for cell in plan.seqs:
        buf.append("")
        _emit_seq(buf, cell, base)
        base += len(cell.triggers)
    buf.append("")
    names = "".join(f"_seq{cell.index}, " for cell in plan.seqs)
    buf.append(f"SEQS = ({names})")
    buf.append("")
    return "\n".join(buf)


def compile_cone(plan):
    """The cone module's executable namespace."""
    ns = dict(_BASE_GLOBALS)
    ns["PREV"] = [v for cell in plan.seqs for v in cell.prev]
    ns["DELAYS"] = tuple(t[4] for cell in plan.seqs for t in cell.triggers)
    try:
        exec(compile(generate_source(plan), "<levelized-cone>", "exec"), ns)
    except Exception as exc:
        raise SimulationError(
            "levelized: generated cone module failed to compile "
            f"(this is a bug in repro.sim.compiled): {exc}") from exc
    return ns
