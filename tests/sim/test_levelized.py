"""Levelized netlist engine: edge cases the suite designs under-cover.

The 22-design staged harness (test_semantic_preservation) already holds
the levelized engine to byte-identical traces at the netlist level; the
tests here pin down the corners: latch cells, register-cut feedback,
multi-clock-domain cones, zero-delay combinational cycles, per-cell
event-driven fallbacks, the multi-driver diagnosis, that a run writes
no files, and the determinism of the lowered netlist across processes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir import parse_module
from repro.ir.ninevalued import LogicVec
from repro.sim import SimulationError, simulate
from repro.sim.levelize import elaborate_levelized

# A transparent-high latch cell: the storage cell techmap emits for a
# level-sensitive reg (mode ``high`` fires on every evaluation while
# the enable is high).
_LATCH = """
entity @cell_latch_i8 (i8$ %d0, i1$ %t0) -> (i8$ %q) {
  %0 = prb i8$ %d0
  %1 = prb i1$ %t0
  %2 = const time 0s
  reg i8$ %q, %0 high %1 after %2
}

proc @stim () -> (i8$ %d, i1$ %en) {
b0:
  %t = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  %v1 = const i8 17
  %v2 = const i8 42
  %v3 = const i8 99
  drv i8$ %d, %v1 after %t0
  drv i1$ %en, %one after %t0
  wait %b1 for %t
b1:
  drv i8$ %d, %v2 after %t0
  wait %b2 for %t
b2:
  drv i1$ %en, %zero after %t0
  wait %b3 for %t
b3:
  drv i8$ %d, %v3 after %t0
  wait %b4 for %t
b4:
  halt
}

entity @top () -> () {
  %z8 = const i8 0
  %z1 = const i1 0
  %d = sig i8 %z8
  %en = sig i1 %z1
  %q = sig i8 %z8
  inst @cell_latch_i8 (i8$ %d, i1$ %en) -> (i8$ %q)
  inst @stim () -> (i8$ %d, i1$ %en)
}
"""

# A toggle flip-flop: the feedback path q -> inverter -> d is cut only
# by the register, so the combinational part must levelize acyclically.
_TOGGLE = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

entity @cell_dff_i1 (i1$ %d0, i1$ %t0) -> (i1$ %q) {
  %0 = prb i1$ %d0
  %1 = prb i1$ %t0
  %t = const time 0s
  reg i1$ %q, %0 rise %1 after %t
}

proc @clkgen () -> (i1$ %clk) {
b0:
  %half = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %clk, %one after %t0
  wait %b1 for %half
b1:
  drv i1$ %clk, %zero after %t0
  wait %b2 for %half
b2:
  br %b0
}

entity @top () -> () {
  %z1 = const i1 0
  %clk = sig i1 %z1
  %q = sig i1 %z1
  %d = sig i1 %z1
  inst @cell_inv_i1 (i1$ %q) -> (i1$ %d)
  inst @cell_dff_i1 (i1$ %d, i1$ %clk) -> (i1$ %q)
  inst @clkgen () -> (i1$ %clk)
}
"""

# Two independent clock domains (1ns and 1.5ns half-periods), each a
# toggle flip-flop — the plan builds one specialized settle function
# per clock net.
_TWO_CLOCKS = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

entity @cell_dff_i1 (i1$ %d0, i1$ %t0) -> (i1$ %q) {
  %0 = prb i1$ %d0
  %1 = prb i1$ %t0
  %t = const time 0s
  reg i1$ %q, %0 rise %1 after %t
}

proc @clkgen_a () -> (i1$ %clk) {
b0:
  %half = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %clk, %one after %t0
  wait %b1 for %half
b1:
  drv i1$ %clk, %zero after %t0
  wait %b2 for %half
b2:
  br %b0
}

proc @clkgen_b () -> (i1$ %clk) {
b0:
  %half = const time 1500ps
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %clk, %one after %t0
  wait %b1 for %half
b1:
  drv i1$ %clk, %zero after %t0
  wait %b2 for %half
b2:
  br %b0
}

entity @top () -> () {
  %z1 = const i1 0
  %clka = sig i1 %z1
  %clkb = sig i1 %z1
  %qa = sig i1 %z1
  %qb = sig i1 %z1
  %da = sig i1 %z1
  %db = sig i1 %z1
  inst @cell_inv_i1 (i1$ %qa) -> (i1$ %da)
  inst @cell_dff_i1 (i1$ %da, i1$ %clka) -> (i1$ %qa)
  inst @cell_inv_i1 (i1$ %qb) -> (i1$ %db)
  inst @cell_dff_i1 (i1$ %db, i1$ %clkb) -> (i1$ %qb)
  inst @clkgen_a () -> (i1$ %clka)
  inst @clkgen_b () -> (i1$ %clkb)
}
"""

# A cross-coupled NOR pair (SR latch built from gates): the two gates
# form a zero-delay cycle that cannot levelize — the cone must diagnose
# it and still settle the stable stimulus by fixpoint iteration.
_SR_LATCH = """
entity @cell_nor_i1 (i1$ %a0, i1$ %a1) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %1 = prb i1$ %a1
  %t = const time 0s
  %o = or i1 %0, %1
  %n = not i1 %o
  drv i1$ %y, %n after %t
}

proc @stim () -> (i1$ %s, i1$ %r) {
b0:
  %t = const time 1ns
  %t0 = const time 0s
  %one = const i1 1
  %zero = const i1 0
  drv i1$ %s, %one after %t0
  wait %b1 for %t
b1:
  drv i1$ %s, %zero after %t0
  wait %b2 for %t
b2:
  drv i1$ %r, %one after %t0
  wait %b3 for %t
b3:
  halt
}

entity @top () -> () {
  %z1 = const i1 0
  %s = sig i1 %z1
  %r = sig i1 %z1
  %q = sig i1 %z1
  %qn = sig i1 %z1
  inst @cell_nor_i1 (i1$ %r, i1$ %qn) -> (i1$ %q)
  inst @cell_nor_i1 (i1$ %s, i1$ %q) -> (i1$ %qn)
  inst @stim () -> (i1$ %s, i1$ %r)
}
"""

# A "cell" with a non-zero gate delay: recognized as combinational but
# not absorbable (the cone is zero-delay), so it must fall back to the
# event-driven machinery — and the hybrid still traces identically.
_SLOW_CELL = """
entity @cell_slow_inv (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 1ns
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

proc @stim () -> (i1$ %a) {
b0:
  %t = const time 2ns
  %t0 = const time 0s
  %one = const i1 1
  drv i1$ %a, %one after %t0
  wait %b1 for %t
b1:
  halt
}

entity @top () -> () {
  %z1 = const i1 0
  %a = sig i1 %z1
  %y = sig i1 %z1
  inst @cell_slow_inv (i1$ %a) -> (i1$ %y)
  inst @stim () -> (i1$ %a)
}
"""

# Two combinational cells driving the same net: not a levelizable
# netlist, and the diagnosis must name the net.
_MULTI_DRIVER = """
entity @cell_inv_i1 (i1$ %a0) -> (i1$ %y) {
  %0 = prb i1$ %a0
  %t = const time 0s
  %n = not i1 %0
  drv i1$ %y, %n after %t
}

entity @top () -> () {
  %z1 = const i1 0
  %a = sig i1 %z1
  %b = sig i1 %z1
  %y = sig i1 %z1
  inst @cell_inv_i1 (i1$ %a) -> (i1$ %y)
  inst @cell_inv_i1 (i1$ %b) -> (i1$ %y)
}
"""


def _run_both(source, top="top", until_fs=None):
    """Simulate under interp and levelized; assert identical traces."""
    ref = simulate(parse_module(source), top, until_fs=until_fs)
    res = simulate(parse_module(source), top, until_fs=until_fs,
                   backend="levelized")
    assert ref.trace.differences(res.trace) == []
    assert res.assertion_failures == ref.assertion_failures
    return res


# -- generated storage-cell triggers vs plan._reg_step -------------------------

#: Trigger value pools per trigger type: two-state 0/1 plus a wide
#: value, and the nine-valued 0/1/X/Z/L/H (plus U/W/-) and wide values
#: with and without unknown bits.
_TRIGGER_VALUES = {
    "i1": (0, 1),
    "i8": (0, 1, 2, 255),
    "l1": tuple(LogicVec(c) for c in "01XZLHUW-"),
    "l4": tuple(LogicVec(t) for t in
                ("0000", "0001", "0010", "00X1", "ZZZZ", "000H", "LLLL")),
}

_ZERO_TEXT = {"i1": "0", "i8": "0", "l1": '"0"', "l4": '"0000"'}

_MODES = ("rise", "fall", "both", "high", "low")


def _trigger_cell_source(ty, clauses):
    """A one-cell netlist: an i8 storage cell whose reg has one clause
    per ``(mode, gated, delay)`` — ``gated`` adds an ``if`` condition
    port, ``delay`` an ``after`` constant (None: the epsilon step)."""
    ports, body, reg, sigs = [], [], [], []
    for k, (mode, gated, delay) in enumerate(clauses):
        names = [("d", "i8"), ("t", ty)] + ([("c", "i1")] if gated else [])
        for prefix, pty in names:
            ports.append(f"{pty}$ %{prefix}{k}")
            body.append(f"  %p{prefix}{k} = prb {pty}$ %{prefix}{k}")
            zero = "%zt" if prefix == "t" else \
                "%z8" if prefix == "d" else "%z1"
            sigs.append(f"  %{prefix}{k} = sig {pty} {zero}")
        clause = f"%pd{k} {mode} %pt{k}"
        if gated:
            clause += f" if %pc{k}"
        if delay is not None:
            body.append(f"  %dl{k} = const time {delay}")
            clause += f" after %dl{k}"
        reg.append(clause)
    port_list = ", ".join(ports)
    return "\n".join([
        f"entity @cell ({port_list}) -> (i8$ %q) {{",
        *body,
        f"  reg i8$ %q, {', '.join(reg)}",
        "}",
        "",
        "entity @top () -> () {",
        "  %z8 = const i8 0",
        "  %z1 = const i1 0",
        f"  %zt = const {ty} {_ZERO_TEXT[ty]}",
        *sigs,
        "  %q = sig i8 %z8",
        f"  inst @cell ({port_list}) -> (i8$ %q)",
        "}",
        "",
    ])


def _check_triggers_match_reg_step(ty, clauses, seed):
    """Drive the generated ``_seq0`` and ``plan._reg_step`` with the same
    random trigger/data/condition sequence (and from every prev/cur
    pair) and require identical fire decisions, data and delays."""
    import random
    from types import SimpleNamespace

    from repro.sim.compiled import compile_cone
    from repro.sim.levelize import _build_plan
    from repro.sim.plan import _reg_step

    module = parse_module(_trigger_cell_source(ty, clauses))
    design = elaborate_levelized(module, "top", analysis=True)
    assert design.report["seqs"] == 1 and design.report["fallbacks"] == []
    plan = _build_plan(design)
    ns = compile_cone(plan)
    seq, prev = ns["SEQS"][0], ns["PREV"]
    slot = {name.split(".")[-1]: i
            for i, sig in enumerate(plan.slot_sigs) for name in sig.aliases}

    cell = module.get("cell")
    reg = next(i for i in cell.body if i.opcode == "reg")
    port_of = {id(i): i.operands[0].name for i in cell.body
               if i.opcode == "prb"}
    fires = []
    kernel = SimpleNamespace(
        schedule_drive=lambda key, target, value, delay:
            fires.append((value, delay)))
    step = _reg_step(reg, kernel)
    act = SimpleNamespace(order=0, reg_state={})

    def run(values, prevs):
        V = [None] * len(plan.slot_sigs)
        env = {}
        for name, value in values.items():
            V[slot[name]] = value
        for inst in cell.body:
            if inst.opcode == "prb":
                env[id(inst)] = values[port_of[id(inst)]]
            elif inst.opcode == "const":
                env[id(inst)] = inst.attrs["value"]
        env[id(reg.reg_signal())] = None
        prev[:] = prevs
        act.reg_state[id(reg)] = list(prevs)
        fire = seq(V)
        fires.clear()
        step(env, act)
        expected = None
        if fires:
            # The cone commits a drive landing within the femtosecond
            # itself (delay None) and schedules only real-time delays.
            value, delay = fires[0]
            expected = (value, delay if delay.fs else None)
        got = None
        if fire is not None:
            path, data, delay = fire
            assert path == ()
            got = (data, delay)
        assert got == expected, (ty, clauses, values, prevs)
        assert prev == act.reg_state[id(reg)], (ty, clauses, values, prevs)
        return list(prev)

    pool = _TRIGGER_VALUES[ty]
    rng = random.Random(seed)
    n = len(clauses)

    def draw(trigs):
        values = {}
        for k, (_mode, gated, _delay) in enumerate(clauses):
            values[f"d{k}"] = rng.randrange(256)
            values[f"t{k}"] = trigs[k]
            if gated:
                values[f"c{k}"] = rng.randrange(2)
        return values

    # Every (prev, cur) pair from a fresh state ...
    for p in pool:
        for c in pool:
            run(draw([c] * n), [p] * n)
    # ... and one long run, where prev must carry across evaluations.
    prevs = [pool[0]] * n
    for _ in range(300):
        prevs = run(draw([rng.choice(pool) for _ in range(n)]), prevs)


@pytest.mark.parametrize("ty", sorted(_TRIGGER_VALUES))
@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("gated", (False, True))
def test_generated_trigger_matches_reg_step(ty, mode, gated):
    _check_triggers_match_reg_step(ty, [(mode, gated, None)],
                                   f"{ty}:{mode}:{gated}")


@pytest.mark.parametrize("ty", sorted(_TRIGGER_VALUES))
@pytest.mark.parametrize("modes", [("rise", "fall"), ("high", "both"),
                                   ("low", "rise"), ("fall", "high")])
def test_generated_two_trigger_cell_matches_reg_step(ty, modes):
    """First hit wins, a false condition passes the fire on to the next
    trigger, both prevs update on every evaluation, and a non-zero
    ``after`` delay reaches the drive (zero-fs delays too)."""
    clauses = [(modes[0], True, "0s"), (modes[1], False, "1ns")]
    _check_triggers_match_reg_step(ty, clauses, f"{ty}:{modes}")


def test_latch_cell_absorbed():
    res = _run_both(_LATCH)
    report = res.design.report
    assert report["seqs"] == 1
    assert report["fallbacks"] == []
    # The latch tracked the data while transparent and held it after.
    history = dict(res.trace.finalize().changes)["top.q"]
    assert history[-1][1] == 42


def test_register_cut_feedback_levelizes():
    res = _run_both(_TOGGLE, until_fs=20_000_000)
    report = res.design.report
    assert report["gates"] == 1 and report["seqs"] == 1
    assert report["cycles"] == []
    # The register actually toggled.
    history = dict(res.trace.finalize().changes)["top.q"]
    assert len(history) > 4


def test_real_time_clock_to_output_goes_through_the_scheduler():
    """A storage cell with a non-zero ``after`` drives through the
    kernel and re-enters the cone as an external change."""
    source = _TOGGLE.replace("  %t = const time 0s\n  reg",
                             "  %t = const time 100ps\n  reg")
    res = _run_both(source, until_fs=20_000_000)
    assert res.design.report["seqs"] == 1
    history = dict(res.trace.finalize().changes)["top.q"]
    assert len(history) > 4
    assert all(t % 2_000_000 == 100_000 for t, _ in history[1:])


def test_multi_clock_domains():
    res = _run_both(_TWO_CLOCKS, until_fs=30_000_000)
    cone = res.design.cone
    assert len(cone.domains) == 2
    # Each domain's specialized function covers strictly fewer gates
    # than the full cone.
    for _slot, covered, _fn in cone.domains:
        assert len(covered) < len(cone.slot_sigs)


def test_combinational_cycle_diagnosed_and_settled():
    res = _run_both(_SR_LATCH)
    report = res.design.report
    assert report["cycles"], "cross-coupled NORs must be diagnosed"
    assert any("top.q" in members for members in report["cycles"])
    history = dict(res.trace.finalize().changes)["top.q"]
    assert history[-1][1] == 0  # reset won


def test_nonzero_delay_cell_falls_back():
    res = _run_both(_SLOW_CELL)
    fallbacks = res.design.fallback_cells
    assert len(fallbacks) == 1
    path, reason = fallbacks[0]
    assert "cell_slow_inv" in path
    assert "delay" in reason


def test_multi_driven_net_raises():
    with pytest.raises(SimulationError, match="more than one"):
        simulate(parse_module(_MULTI_DRIVER), "top", backend="levelized")


def test_sanitize_rejected():
    with pytest.raises(SimulationError, match="sanitizer"):
        simulate(parse_module(_TOGGLE), "top", until_fs=4_000_000,
                 backend="levelized", sanitize=True)


def test_analysis_mode_skips_codegen():
    design = elaborate_levelized(parse_module(_TOGGLE), "top",
                                 analysis=True)
    assert design.cone is None
    assert design.report["gates"] == 1


# -- side effects and determinism ---------------------------------------------


def test_levelized_run_writes_no_files(tmp_path, monkeypatch):
    for var in ("HOME", "XDG_CACHE_HOME", "REPRO_CACHE_DIR"):
        monkeypatch.setenv(var, str(tmp_path))
    res = simulate(parse_module(_TOGGLE), "top", until_fs=8_000_000,
                   backend="levelized")
    assert res.design.cone is not None
    assert list(tmp_path.iterdir()) == []


_NETLIST_DIGESTS = """
import hashlib, sys
from repro.designs import compile_design
from repro.interop import netlist_design
from repro.ir.bitcode import write_module
from repro.passes import lower_to_structural

for name in sys.argv[2:]:
    for _ in range(int(sys.argv[1])):
        module = compile_design(name, cycles=4)
        lower_to_structural(module, strict=False)
        bitcode = write_module(netlist_design(module))
        print(name, hashlib.sha256(bitcode).hexdigest())
"""


def _netlist_digests(hash_seed, repeats, names):
    src = Path(__file__).resolve().parents[2] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", _NETLIST_DIGESTS, str(repeats), *names],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return out.stdout.splitlines()


def test_netlist_bitcode_is_stable_across_processes():
    # Deseq orders DNF terms and reg triggers by creation serial
    # (ir.Value.serial), never by id() or hash order, so the lowered
    # netlist is the same bytes in every process and on every compile.
    # Object addresses differ between compiles in one process as well,
    # and an id()-ordered sort changes riscv_l's netlist on about one
    # compile in three, hence the repeats.
    names = ("riscv_l", "sorter_l")
    lines = _netlist_digests(1, 6, names) + _netlist_digests(2, 6, names)
    digests = {}
    for line in lines:
        name, digest = line.split()
        digests.setdefault(name, set()).add(digest)
    assert {name: len(found) for name, found in digests.items()} == \
        {"riscv_l": 1, "sorter_l": 1}


# -- reach accounting and CLI --------------------------------------------------


def test_netlist_engine_report_lists_levelized():
    from repro.designs import netlist_engine_report

    engines, notes = netlist_engine_report("gray", cycles=4)
    assert engines == ["interp", "blaze", "cycle", "levelized"]
    assert notes == []


def test_cli_levelized_stats_and_cache(capsys):
    from repro.sim.__main__ import main

    assert main(["--design", "lfsr", "--cycles", "4", "--engine",
                 "levelized", "--stats"]) == 0
    err = capsys.readouterr().err
    assert re.search(r"^# levelized cone: \d+ nets / \d+ gates / "
                     r"\d+ storage cells$", err, re.M)
    assert "cache" not in err


def test_cli_netlist_cross_check_includes_levelized(capsys):
    from repro.sim.__main__ import main

    rc = main(["--design", "gray", "--cycles", "4", "--netlist",
               "--cross-check"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "identical across interp, blaze, levelized" in err


def test_cli_rejects_levelized_batch_and_sanitize():
    from repro.sim.__main__ import main

    with pytest.raises(SystemExit):
        main(["--design", "gray", "--engine", "levelized", "--batch", "2"])
    with pytest.raises(SystemExit):
        main(["--design", "gray", "--engine", "levelized", "--sanitize"])
