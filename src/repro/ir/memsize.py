"""In-memory size accounting for LLHD modules (Table 4's last column).

Deep ``sys.getsizeof`` over the module object graph, visiting every unit,
block, instruction, operand list, use list, and attribute payload exactly
once.  Interned types are counted once per module, as in a real shared
type table.
"""

from __future__ import annotations

import sys

from .instructions import Instruction, RegTrigger
from .ninevalued import LogicVec
from .types import Type
from .values import Argument, Block, TimeValue, Use


def deep_size(obj, seen=None):
    """Recursively sum ``sys.getsizeof`` over an object graph."""
    if seen is None:
        seen = set()
    key = id(obj)
    if key in seen:
        return 0
    seen.add(key)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            size += deep_size(k, seen)
            size += deep_size(v, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += deep_size(item, seen)
    elif isinstance(obj, (Instruction, Argument, Block)):
        size += deep_size(vars(obj), seen)
    elif isinstance(obj, Use):
        size += sys.getsizeof(obj.index) if obj.index not in seen else 0
    elif isinstance(obj, RegTrigger):
        size += sum(sys.getsizeof(getattr(obj, slot))
                    for slot in RegTrigger.__slots__)
    elif isinstance(obj, TimeValue):
        size += (sys.getsizeof(obj.fs) + sys.getsizeof(obj.delta)
                 + sys.getsizeof(obj.epsilon))
    elif isinstance(obj, LogicVec):
        # Four plane integers; the bits string is a lazy cache, not state.
        size += (sys.getsizeof(obj._val) + sys.getsizeof(obj._unk)
                 + sys.getsizeof(obj._weak) + sys.getsizeof(obj._aux))
    elif isinstance(obj, Type):
        size += deep_size(vars(obj), seen) if hasattr(obj, "__dict__") \
            else 0
    elif hasattr(obj, "__dict__"):
        size += deep_size(vars(obj), seen)
    return size


def module_size(module):
    """Total in-memory bytes of a module's object graph."""
    seen = set()
    total = sys.getsizeof(module)
    total += deep_size(module.units, seen)
    total += deep_size(module.declarations, seen)
    return total
