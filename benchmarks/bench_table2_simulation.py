"""Table 2: simulation performance of the three simulators.

Paper columns: LLHD reference interpreter ("Int."), JIT-accelerated
simulator ("JIT"), commercial simulator ("Comm." — here the independent
cycle simulator, README "Substitutions" item 1), over the ten evaluation
designs.  The claims being reproduced:

* the interpreter is orders of magnitude slower than compiled simulation;
* the compiled (Blaze-style) simulator is competitive with the
  independent baseline (0.2×–2.4× in the paper);
* traces match between all simulators for all designs (asserted here for
  every benchmark run).

Run: ``pytest benchmarks/bench_table2_simulation.py --benchmark-only -s``

The module is also an executable harness that records the performance
trajectory for the repository::

    python -m benchmarks.bench_table2_simulation --quick --label after

measures the designs under interp and blaze, asserts the traces are
byte-identical, and merges the timings into ``BENCH_sim.json`` under the
given label (``before``/``after``), computing speedup ratios when both
labels are present.
"""

import pytest

from repro.designs import (
    ALL_DESIGNS, DESIGNS, NETLIST_DESIGNS, TABLE2_ORDER, compile_design,
)
from repro.sim import simulate

from .common import (
    BENCH_CYCLES, baseline_from_results, compare_to_baseline, extrapolate,
    format_row, merge_bench_json, run_sim_benchmarks, timed_simulation,
)

# Representative subset for --quick runs (CI smoke): covers a dataflow
# filter, a FIFO with memory, the RISC-V core (process-heavy), the
# sorter (compute-bound, where compiled execution dominates), two
# nine-valued variants exercising the packed value representation, and
# a loop-heavy core that now unrolls to the netlist level.
QUICK_DESIGNS = ("gray", "fir", "fifo", "riscv", "sorter",
                 "gray_l", "fir_l", "lzc_l")

#: Four-state designs measured additionally at the netlist level
#: (lowered + technology-mapped): BENCH_sim.json then records what
#: gate-level granularity costs on nine-valued data.
NETLIST_BENCH = tuple(d for d in NETLIST_DESIGNS if d.endswith("_l"))

#: Designs measured under the levelized ahead-of-time compiled netlist
#: engine (``levelized@netlist`` rows): the whole suite — the engine's
#: acceptance target is netlist cost <= 1.5x the behavioural blaze
#: marginal cost, enforced per design by the committed
#: ``netlist_cost_ceilings`` in BENCH_baseline.json.
LEVELIZED_BENCH = tuple(NETLIST_DESIGNS)

BACKENDS = ("interp", "blaze", "cycle")
_PAPER_COLUMNS = {"interp": "Int.", "blaze": "JIT", "cycle": "Comm."}

# The full matrix is expensive under the interpreter; benchmark the
# interpreter on a representative subset and the compiled simulators on
# every design.  (The table test below still measures all cells once.)
_INTERP_SUBSET = ("gray", "lzc", "fifo", "riscv")


def _run(name, backend, cycles):
    module = compile_design(name, cycles=cycles)
    top = DESIGNS[name].top
    result = simulate(module, top, backend=backend)
    assert result.assertion_failures == []
    return result


@pytest.mark.parametrize("name", TABLE2_ORDER)
@pytest.mark.parametrize("backend", ("blaze", "cycle"))
def test_simulation_speed_compiled(benchmark, name, backend):
    cycles = BENCH_CYCLES[name]
    benchmark.extra_info["design"] = name
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["paper_column"] = _PAPER_COLUMNS[backend]
    benchmark.pedantic(
        _run, args=(name, backend, cycles), rounds=3, iterations=1,
        warmup_rounds=1)


@pytest.mark.parametrize("name", _INTERP_SUBSET)
def test_simulation_speed_interpreter(benchmark, name):
    # The RISC-V program needs ~110 cycles to run to completion; the
    # other testbenches self-check incrementally and can be shortened.
    cycles = BENCH_CYCLES[name] if name == "riscv" \
        else max(BENCH_CYCLES[name] // 4, 8)
    benchmark.extra_info["design"] = name
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["paper_column"] = "Int."
    benchmark.pedantic(
        _run, args=(name, "interp", cycles), rounds=2, iterations=1)


def test_print_table2(capsys):
    """Measure every cell and print the Table 2 reproduction.

    Extrapolation to the paper's cycle counts uses the *marginal* cost
    per cycle (two-point slope), so one-time elaboration/compilation
    overhead — which dominates short Python runs but amortizes to zero
    over millions of cycles — does not distort the long-run comparison.
    This mirrors the paper, whose interpreter column is itself
    extrapolated.
    """
    rows = []
    ratios = []
    for name in TABLE2_ORDER:
        design = DESIGNS[name]
        per_cycle = {}
        traces = {}
        for backend in BACKENDS:
            # Trace-equivalence run at the common cycle budget.
            _, result = timed_simulation(name, backend, BENCH_CYCLES[name])
            traces[backend] = result.trace
            # Timing runs: grow until long enough to time reliably.
            short = BENCH_CYCLES[name]
            t_short, _ = timed_simulation(name, backend, short)
            while t_short < 0.05 and short < 100_000:
                short *= 4
                t_short, _ = timed_simulation(name, backend, short)
            long = short * 3
            t_short = min(t_short,
                          timed_simulation(name, backend, short)[0])
            t_long = min(timed_simulation(name, backend, long)[0]
                         for _ in range(2))
            slope = (t_long - t_short) / (long - short)
            if slope <= 0:  # timing noise: fall back to the mean cost
                slope = t_long / long
            per_cycle[backend] = slope
        # The paper: "traces match between the two simulators for all
        # designs" — here across all three.
        assert traces["interp"].differences(traces["blaze"]) == []
        assert traces["interp"].differences(traces["cycle"]) == []
        target = design.paper_cycles
        jit_vs_comm = per_cycle["cycle"] / per_cycle["blaze"]
        ratios.append(jit_vs_comm)
        rows.append((
            design.paper_name,
            design.sv_loc(short),
            f"{target/1e6:.1f}M",
            f"{per_cycle['interp'] * target:.0f}",
            f"{per_cycle['blaze'] * target:.0f}",
            f"{per_cycle['cycle'] * target:.0f}",
            f"{per_cycle['interp'] / per_cycle['blaze']:.1f}",
            f"{jit_vs_comm:.2f}",
        ))
    with capsys.disabled():
        print()
        print("Table 2 — Simulation performance "
              "(marginal cost extrapolated to the paper's cycle counts)")
        header = ("Design", "LoC", "Cycles", "Int.[s]", "JIT[s]",
                  "Comm.[s]", "Int/JIT", "Comm/JIT")
        widths = [16, 5, 7, 9, 8, 8, 8, 9]
        print(format_row(header, widths))
        print("-" * (sum(widths) + 2 * len(widths)))
        for row in rows:
            print(format_row(row, widths))
        print("\nTraces match across interp/blaze/cycle for all designs.")
        print(f"Comm/JIT range: {min(ratios):.2f}x – {max(ratios):.2f}x "
              f"(paper: 0.2x – 2.4x)")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_table2_simulation",
        description="Record simulation timings into BENCH_sim.json")
    parser.add_argument("--quick", action="store_true",
                        help="benchmark the representative subset only")
    parser.add_argument("--designs", nargs="*", metavar="NAME",
                        help="explicit design list (default: table order)")
    parser.add_argument("--label", default="after",
                        choices=("before", "after"),
                        help="label to file the measurements under")
    parser.add_argument("--out", default="BENCH_sim.json",
                        help="output JSON path (merged, not overwritten)")
    parser.add_argument("--runs", type=int, default=1,
                        help="timing repetitions per point (min is kept)")
    parser.add_argument("--no-netlist", action="store_true",
                        help="skip the netlist-level four-state rows")
    parser.add_argument("--no-batch", action="store_true",
                        help="skip the K-lane batched blaze rows")
    parser.add_argument("--batch-lanes", type=int, nargs="*",
                        default=(1, 4, 16), metavar="K",
                        help="lane counts for the batched rows "
                             "(default: 1 4 16)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="compare marginal us/cycle against a "
                             "committed baseline JSON; exit 1 when any "
                             "engine regresses beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression for --compare "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--no-normalize", action="store_true",
                        help="with --compare: do not cancel the uniform "
                             "machine-speed shift before gating")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the measurements as a new committed "
                             "baseline JSON")
    args = parser.parse_args(argv)

    if args.designs:
        unknown = [d for d in args.designs if d not in DESIGNS]
        if unknown:
            parser.error(f"unknown designs: {', '.join(unknown)}")
        designs = args.designs
    elif args.quick:
        designs = QUICK_DESIGNS
    else:
        designs = ALL_DESIGNS

    netlist_designs = () if args.no_netlist else \
        tuple(d for d in designs if d in NETLIST_BENCH)
    levelized_designs = () if args.no_netlist else \
        tuple(d for d in designs if d in LEVELIZED_BENCH)
    batch_designs = () if args.no_batch else tuple(designs)
    results = run_sim_benchmarks(designs, runs=args.runs,
                                 netlist_designs=netlist_designs,
                                 batch_designs=batch_designs,
                                 batch_lanes=tuple(args.batch_lanes),
                                 levelized_designs=levelized_designs)
    import platform

    doc = merge_bench_json(
        args.out, args.label, results,
        meta={"python": platform.python_version(),
              "designs": list(designs)})
    widths = [16, 8, 12, 12, 12]
    print(format_row(("Design", "Engine", "cycles", "wall[ms]",
                      "marg[us/cy]"), widths))
    for name in designs:
        for engine, m in results[name]["backends"].items():
            print(format_row(
                (name, engine, m["cycles"], f"{m['wall_s']*1e3:.1f}",
                 f"{m['per_cycle_us']:.1f}"), widths))
    for name in designs:
        speedup = doc["designs"][name].get("speedup", {})
        if speedup:
            print(f"{name}: " + ", ".join(
                f"{k} {v:.2f}x" for k, v in sorted(speedup.items())))
    print(f"wrote {args.out} [{args.label}] — traces identical across "
          "engines for all measured designs")

    if args.write_baseline:
        import json

        baseline = baseline_from_results(
            results, meta={"python": platform.python_version(),
                           "runs": args.runs,
                           "designs": list(designs)})
        with open(args.write_baseline, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote baseline {args.write_baseline}")

    if args.compare:
        import json

        with open(args.compare) as fh:
            baseline = json.load(fh)
        regressions, lines = compare_to_baseline(
            results, baseline, tolerance=args.tolerance,
            normalize=not args.no_normalize)
        print(f"bench-regression gate vs {args.compare} "
              f"(tolerance {args.tolerance:.0%}):")
        for line in lines:
            print(line)
        if regressions:
            print(f"FAIL: {len(regressions)} cell(s) regressed beyond "
                  f"{args.tolerance:.0%}:")
            for name, engine, rel in regressions:
                print(f"  {name}/{engine}: {rel:.2f}x")
            return 1
        print("gate passed: no engine regressed beyond the tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
