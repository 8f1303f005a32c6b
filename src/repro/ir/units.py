"""LLHD design units and modules.

The three unit kinds differ in execution paradigm and timing model
(Table 1 of the paper):

=========  ============  =========  =================================
Unit       Execution     Timing     Use
=========  ============  =========  =================================
Function   control flow  immediate  user-defined SSA mapping
Process    control flow  timed      behavioural circuit description
Entity     data flow     timed      structural circuit description
=========  ============  =========  =================================

A :class:`Module` is a single LLHD source text: an ordered collection of
units plus declarations of externally defined units (resolved by the
linker).
"""

from __future__ import annotations

from .types import void_type
from .values import Argument, Block


class Unit:
    """Common base of functions, processes, and entities."""

    kind = "unit"

    def __init__(self, name):
        self.name = name
        self.module = None

    @property
    def is_function(self):
        return self.kind == "func"

    @property
    def is_process(self):
        return self.kind == "proc"

    @property
    def is_entity(self):
        return self.kind == "entity"

    def __repr__(self):
        return f"<{self.kind} @{self.name}>"


class ControlFlowUnit(Unit):
    """A unit whose body is a CFG of basic blocks (function or process)."""

    def __init__(self, name):
        super().__init__(name)
        self.blocks = []

    @property
    def entry(self):
        return self.blocks[0] if self.blocks else None

    def create_block(self, name=None, before=None):
        """Create a new block, appended or inserted before another block."""
        block = Block(name)
        block.parent = self
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        return block

    def remove_block(self, block):
        """Unlink a block; its instructions must already be cleared."""
        self.blocks.remove(block)
        block.parent = None

    def instructions(self):
        """Iterate all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions


class Function(ControlFlowUnit):
    """``func @name (T %a, ...) T_ret { ... }`` — immediate execution.

    Functions map input values to at most one return value; they may not
    interact with signals or suspend, and exist only between time steps.
    """

    kind = "func"

    def __init__(self, name, arg_types=(), arg_names=(), return_type=None):
        super().__init__(name)
        self.return_type = return_type if return_type is not None else void_type()
        self.args = []
        for i, ty in enumerate(arg_types):
            arg_name = arg_names[i] if i < len(arg_names) else f"arg{i}"
            self.args.append(Argument(ty, arg_name, self, "in"))


class Process(ControlFlowUnit):
    """``proc @name (ins) -> (outs) { ... }`` — timed control flow.

    Inputs and outputs must be of signal type.  Processes persist for the
    lifetime of the design and communicate exclusively through probing and
    driving their signals.
    """

    kind = "proc"

    def __init__(self, name, input_types=(), input_names=(),
                 output_types=(), output_names=()):
        super().__init__(name)
        self.inputs = []
        self.outputs = []
        for i, ty in enumerate(input_types):
            if not ty.is_signal:
                raise TypeError(f"process input must be a signal, got {ty}")
            nm = input_names[i] if i < len(input_names) else f"in{i}"
            self.inputs.append(Argument(ty, nm, self, "in"))
        for i, ty in enumerate(output_types):
            if not ty.is_signal:
                raise TypeError(f"process output must be a signal, got {ty}")
            nm = output_names[i] if i < len(output_names) else f"out{i}"
            self.outputs.append(Argument(ty, nm, self, "out"))

    @property
    def args(self):
        return self.inputs + self.outputs


class Entity(Unit):
    """``entity @name (ins) -> (outs) { ... }`` — timed data flow.

    The body is a set of instructions forming a data-flow graph: all are
    executed once at initialization and re-executed whenever one of their
    inputs changes.  Entities build hierarchy via ``inst``.
    """

    kind = "entity"

    def __init__(self, name, input_types=(), input_names=(),
                 output_types=(), output_names=()):
        super().__init__(name)
        self.inputs = []
        self.outputs = []
        for i, ty in enumerate(input_types):
            if not ty.is_signal:
                raise TypeError(f"entity input must be a signal, got {ty}")
            nm = input_names[i] if i < len(input_names) else f"in{i}"
            self.inputs.append(Argument(ty, nm, self, "in"))
        for i, ty in enumerate(output_types):
            if not ty.is_signal:
                raise TypeError(f"entity output must be a signal, got {ty}")
            nm = output_names[i] if i < len(output_names) else f"out{i}"
            self.outputs.append(Argument(ty, nm, self, "out"))
        self.body = Block("body")
        self.body.parent = self

    @property
    def args(self):
        return self.inputs + self.outputs

    def instructions(self):
        yield from self.body.instructions

    # Entities reuse block-based helpers through the single implicit body.
    @property
    def blocks(self):
        return [self.body]


class UnitDecl:
    """A declaration of an externally defined unit (for linking).

    ``declare @name (T1, T2) -> (T3)`` — carries only the signature.
    """

    def __init__(self, name, kind, input_types=(), output_types=(),
                 return_type=None):
        self.name = name
        self.kind = kind  # "func" | "proc" | "entity"
        self.input_types = tuple(input_types)
        self.output_types = tuple(output_types)
        self.return_type = return_type

    def __repr__(self):
        return f"<declare @{self.name}>"


class Module:
    """A single LLHD source text: an ordered collection of units.

    Only global names (``@foo``) are visible across modules; linking
    resolves declarations in one module against definitions in another
    (see :mod:`repro.ir.linker`).
    """

    def __init__(self, name="module"):
        self.name = name
        self.units = {}
        self.declarations = {}

    def add(self, unit):
        """Add a unit definition; replaces a same-named declaration."""
        if unit.name in self.units:
            raise ValueError(f"duplicate unit @{unit.name}")
        unit.module = self
        self.units[unit.name] = unit
        self.declarations.pop(unit.name, None)
        return unit

    def declare(self, decl):
        """Add an external declaration unless a definition already exists."""
        if decl.name not in self.units:
            self.declarations[decl.name] = decl
        return decl

    def get(self, name):
        """Return the unit or declaration named ``name``, or None."""
        return self.units.get(name) or self.declarations.get(name)

    def __contains__(self, name):
        return name in self.units or name in self.declarations

    def __iter__(self):
        return iter(self.units.values())

    def functions(self):
        return [u for u in self if u.is_function]

    def processes(self):
        return [u for u in self if u.is_process]

    def entities(self):
        return [u for u in self if u.is_entity]

    def remove(self, name):
        """Remove a unit definition by name."""
        unit = self.units.pop(name)
        unit.module = None
        return unit

    def __repr__(self):
        return f"<Module {self.name!r} with {len(self.units)} units>"


def entity_signature(unit):
    """Return (input_types, output_types) for a process/entity or decl."""
    if isinstance(unit, UnitDecl):
        return unit.input_types, unit.output_types
    return ([a.type for a in unit.inputs], [a.type for a in unit.outputs])
