"""Layer table of one flow step on each benchmark workload.

For each workload that BENCHMARK.json names, builds the state that
perfbench/workloads.py's config and initial map give, and for each extra
row of ROWS the state of its config; advances it a few steps, and times
steps from that state, and a ledger record after them,
with every function that they call wrapped in a span of perfbench's
tracer (perfbench/tracer.py, which this script only imports).  A layer is
the self time of one function, its time less that of the spans it calls:

    action.step           the acceptance test, u_new - u and the bookkeeping
    action._trial         the trial arithmetic u + dt rhs into a fresh map
    target.project        the in-place projection onto the target
    Stencil.load          the load of the candidate
    action._action_terms  the sums of the B and V terms (the fields' integral)
    Stencil.dirichlet     E from the two difference stacks
    two_form.pullback     the pullback of the two-form (B term)
    potential.shifted     the shifted potential (V term)
    action._loaded_rhs    the rhs's fresh array, its subtractions and weight
    Stencil.laplacian     the Laplacian
    target.sff_trace      the II term
    action._bfield_force  the force sum's zeroing, weight and potential fold
    two_form.add_gradient the wedges and fluxes of the B-force
    tangent_project       the force's one projection
    l2_inner              the kinetic energy's sum

and for the record: action._record, ball_sum_map, Stencil.energy_density
and Stencil.hessian_sq.  Layers of a field that does not act read 0.

Each repeat steps `number` copies of the state untraced, then `number`
copies traced, and records once; the table keeps the median and quartiles
over the repeats of each layer's self time per step, in microseconds, and
its calls per step.  The layers and the step's own self time add up to
the traced step; `unaccounted_ratio` is the share of the step's own self
time in it, and `trace_overhead_ratio` the traced step over the untraced
one, less 1.

The `kernels` section times the stencil work of one load at 32^2, 48^2,
64^2, 96^2, 128^2 and 256^2 (q = 4, a component-major unit map, as in a
run): `Stencil.load`, then `dirichlet`, `laplacian` and `centred` on the
stencil that a run's workspace builds, with the median and quartiles in
microseconds, the sizes taken in turn within each repeat.

The `code_lines` section holds `bench/code_lines.py`'s count of the code
lines of src/stringflow: the total and the count per file.

The `presets` section times every preset of stringflow.config.PRESETS end
to end: `run()` from the preset's built objects, the presets taken in turn
within each repeat, with the median and quartiles of its wall time in
seconds, its step count and the steps per second at the median.

    python bench/bench_layers.py [--repeats N] [--seed N] [--workload NAME]...

Repeat --workload for each workload to time (--workload A --workload B);
a name is a workload of perfbench/workloads.py or a row of ROWS.

Writes BENCH_<sha>.json at the repository root (the sha of HEAD, with
`dirty` set when src/ or bench/ differ from it) and prints its path.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import stringflow as sf  # noqa: E402
from stringflow import action  # noqa: E402
from stringflow.grid import Stencil  # noqa: E402
from code_lines import file_counts  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARM_STEPS = 10         # steps from u0 before timing: a running state
BLOCK_S = 5e-3          # each timed block of `number` steps lasts about this
RECORD = ("action._record", "ball_sum_map", "Stencil.energy_density",
          "Stencil.hessian_sq")


def _clifford_128(seed: int) -> dict:
    """The bfield_clifford preset (its fields and Clifford map) at 128^2,
    with bfield_128's t_end: the row where the two-form acts (|B_term|
    about 0.08, against about 1e-5 on bfield_128's wrap).  The map has no
    seed."""
    cfg = sf.preset_config("bfield_clifford")
    cfg["grid"].update(nx=128, ny=128)
    cfg["flow"]["t_end"] = 0.02
    return cfg


def _bubble_s2_64(seed: int) -> dict:
    """rescale_probe's centred bump (scale 0.3) at 64^2 on S^2 (q = 3),
    the target on which the bubble cannot unwind; bubble_probe_64 steps
    the same bump on S^3 from a seeded centre.  The map has no seed."""
    cfg = sf.preset_config("rescale_probe")
    cfg["target"]["q"] = 3
    return cfg


# layer rows beyond the benchmark's workloads: name -> seed -> raw config
ROWS = {"bfield_clifford": _clifford_128, "bubble_s2": _bubble_s2_64}


def _state(name: str, seed: int):
    workload = WORKLOADS.get(name)
    config = ROWS[name] if workload is None else workload.config
    cfg = sf.validate_config(config(seed))
    grid, target, fields, u0, flow_cfg = sf.build_objects(cfg)
    if workload is not None and workload.initial_map is not None:
        u0 = workload.initial_map(sf, grid, target, seed)
    state = sf.init_state(u0, grid, target, fields, flow_cfg)
    for _ in range(WARM_STEPS):
        sf.step(state)
    return state


def _layers(state) -> dict:
    """layer -> (owner, attribute): the functions that a step and a record
    of `state` call, as they look them up."""
    target, fields = type(state.target), state.fields
    return {
        "action.step": (action, "step"),
        "action._trial": (action, "_trial"),
        "target.project": (target, "project"),
        "Stencil.load": (Stencil, "load"),
        "action._action_terms": (action, "_action_terms"),
        "Stencil.dirichlet": (Stencil, "dirichlet"),
        "two_form.pullback": (type(fields.b), "pullback"),
        "potential.shifted": (type(fields.V), "shifted"),
        "action._loaded_rhs": (action, "_loaded_rhs"),
        "Stencil.laplacian": (Stencil, "laplacian"),
        "target.sff_trace": (target, "sff_trace"),
        "action._bfield_force": (action, "_bfield_force"),
        "two_form.add_gradient": (type(fields.b), "add_gradient"),
        "tangent_project": (action, "tangent_project"),
        "l2_inner": (action, "l2_inner"),
        "action._record": (action, "_record"),
        "ball_sum_map": (action, "ball_sum_map"),
        "Stencil.energy_density": (Stencil, "energy_density"),
        "Stencil.hessian_sq": (Stencil, "hessian_sq"),
    }


def _quartiles(xs: list, unit: str = "us") -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {f"median_{unit}": med, f"q1_{unit}": q1, f"q3_{unit}": q3}


def _per_call_s(fn, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number


def kernel_table(repeats: int) -> dict:
    """Microseconds of one load and the operators a step applies to it,
    per size, over `repeats` rounds that each time every size once."""
    sphere = sf.make_target("sphere", 4)
    work = {}
    for n in (32, 48, 64, 96, 128, 256):
        grid = sf.build_grid(n, n)
        u = sf.empty_map((n, n, 4))
        u[...] = sf.perturb(sf.constant_map(grid, sphere), seed=0,
                            amplitude=0.3).values
        st, lap = Stencil(grid, u), sf.empty_map(u.shape)

        def once(st=st, u=u, lap=lap):
            st.load(u)
            st.dirichlet()
            st.laplacian(lap)
            st.centred()

        number = max(1, math.ceil(BLOCK_S / min(_per_call_s(once, 1)
                                                for _ in range(3))))
        work[f"{n}x{n}"] = (once, number, [])
    for _ in range(repeats):
        for once, number, us in work.values():
            us.append(1e6 * _per_call_s(once, number))
    return {size: {**_quartiles(us), "calls_per_sample": number}
            for size, (_, number, us) in work.items()}


def preset_table(repeats: int) -> dict:
    """Wall time of run() per preset, over `repeats` rounds that each run
    every preset once, and its steps per second at the median."""
    built = {name: sf.build_objects(sf.preset_config(name))
             for name in sf.PRESETS}
    times, steps = {name: [] for name in built}, {}
    for _ in range(repeats):
        for name, (grid, target, fields, u0, flow_cfg) in built.items():
            t0 = time.perf_counter()
            state = sf.run(u0, grid, target, fields, flow_cfg)
            times[name].append(time.perf_counter() - t0)
            steps[name] = state.steps
    table = {}
    for name, xs in times.items():
        row = _quartiles(xs, "s")
        table[name] = {**row, "steps": steps[name],
                       "steps_per_s": steps[name] / row["median_s"]}
    return table


def layer_table(name: str, seed: int, repeats: int) -> dict:
    state = _state(name, seed)
    layers = _layers(state)
    tracer = Tracer()
    originals = {k: getattr(o, a) for k, (o, a) in layers.items()}
    wrapped = {k: tracer.span(k, f) for k, f in originals.items()}

    def bind(fns):
        for k, (owner, attr) in layers.items():
            setattr(owner, attr, fns[k])

    def copies(number):
        return [replace(state, ledger=sf.EnergyLedger(), events=[],
                        snapshots=[]) for _ in range(number)]

    def block(number):
        """Seconds per step over `number` copies of the state, and the last
        copy, whose map the run's stencil holds."""
        states = copies(number)
        t0 = time.perf_counter()
        for s in states:
            action.step(s)      # the module's name, which bind() rebinds
        return (time.perf_counter() - t0) / number, states[-1]

    number = max(1, math.ceil(BLOCK_S / min(block(1)[0] for _ in range(3))))
    step_s, ratios, self_us, calls = [], [], {k: [] for k in layers}, {}
    try:
        for _ in range(repeats):
            step_s.append(block(number)[0])
            bind(wrapped)
            before = tracer.snapshot()
            _, last = block(number)
            action._record(last)
            after = tracer.snapshot()
            bind(originals)
            def spent(kind, k):
                return after[kind].get(k, 0.0) - before[kind].get(k, 0.0)

            per_step = {k: spent("self", k) / number
                        for k in layers if k not in RECORD}
            per_step.update({k: spent("self", k) for k in RECORD})
            for k, v in per_step.items():
                self_us[k].append(1e6 * v)
            step_total = spent("total", "action.step") / number
            ratios.append((per_step["action.step"] / step_total, step_total))
    finally:
        bind(originals)
    for k in layers:
        n = tracer.calls.get(k, 0) / repeats
        calls[k] = n if k in RECORD else n / number
    table = {k: {**_quartiles(xs), "calls": calls[k]}
             for k, xs in self_us.items()}
    step_us = 1e6 * statistics.median(step_s)
    traced_us = 1e6 * statistics.median(t for _, t in ratios)
    g = state.grid
    return {
        "grid": [g.nx, g.ny], "q": state.target.q,
        "two_form": not state.fields.b.is_zero,
        "potential": not state.fields.V.is_zero,
        "conformal": not g.is_flat,
        "steps_per_sample": number,
        "step_us": step_us,
        "traced_step_us": traced_us,
        "trace_overhead_ratio": traced_us / step_us - 1.0,
        "layers": {k: v for k, v in table.items() if k not in RECORD},
        "record": {k: table[k] for k in RECORD},
        "unaccounted_ratio": statistics.median(r for r, _ in ratios),
    }


def code_line_table() -> dict:
    """The code lines of src/stringflow (bench/code_lines.py): the total
    and the count per file, keyed by its path from the repository root."""
    counts = file_counts(Path(ROOT, "src", "stringflow"))
    return {"total": sum(counts.values()),
            "files": {str(p.relative_to(ROOT)): n for p, n in counts.items()}}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=21,
                   help="interleaved repeats per entry (at least 5)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=sorted(WORKLOADS) + sorted(ROWS),
                   help="a workload to time (repeatable; default: the "
                        "workloads of BENCHMARK.json, then the rows of "
                        "ROWS)")
    args = p.parse_args(argv)
    if args.repeats < 5:
        p.error("--repeats must be at least 5")
    names = args.workload
    if not names:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        names += list(ROWS)
    sha = _git("rev-parse", "HEAD")
    result = {
        "git_sha": sha,
        "dirty": bool(_git("status", "--porcelain", "--", "src", "bench")),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "repeats": args.repeats,
        "warm_steps": WARM_STEPS,
        "workloads": {name: layer_table(name, args.seed, args.repeats)
                      for name in names},
        "kernels": kernel_table(args.repeats),
        "code_lines": code_line_table(),
        "presets": preset_table(args.repeats),
    }
    path = os.path.join(ROOT, f"BENCH_{sha[:12]}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(path)
    for name, t in result["workloads"].items():
        print(f"{name}: step {t['step_us']:.0f} us (traced "
              f"{t['traced_step_us']:.0f} us), unaccounted "
              f"{t['unaccounted_ratio']:.3f}")
    for size, t in result["kernels"].items():
        print(f"kernels {size}: {t['median_us']:.1f} us "
              f"({t['q1_us']:.1f}-{t['q3_us']:.1f})")
    print(f"code lines: {result['code_lines']['total']}")
    for name, t in result["presets"].items():
        print(f"preset {name}: {t['median_s']:.3f} s, {t['steps']} steps, "
              f"{t['steps_per_s']:.0f} steps/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
