"""Benchmark of extenlab, run from the root of a checkout.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 40 --trace 0

Workloads (operations fixed, order drawn from the seed; BENCHMARK.json
says why each was chosen):

  repro    the 13 `run_example` reproductions at their pinned resolutions;
  refine   pathcomp, sine-not-eclosed, comb and hawaii at 2^-9;
  recheck  write the 48 obstruction certificates of the family catalog at
           2^-8 and re-check each through `extenlab.cli.main(["certify"])`.

Every pass of a workload runs in a fresh interpreter (`worker.py`) with
BLAS limited to one thread, one pass at a time, and checks every output
against `digests.json`.  Pass i of a run uses the seed 1000 * seed + i.
Passes are started until the next one would end after `--seconds`; at
least one always runs.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: medians
over the passes of the timed wall and CPU time and of the peak RSS, and
the median set-up time over the passes and a few import-only probes.
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json as medians over the traced passes
(see tracer.py); `other.self_s` is the traced wall time that no layer
span covers, so it and the layer self times add up to `trace.wall_s`,
and `trace.overhead_s` is the traced minus the untraced median wall.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the seed, the environment and every pass.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (stdlib only at import time)
from tracer import add_totals  # noqa: E402

OPERATIONS = {"repro": len(worker.REPRO), "refine": len(worker.REFINE),
              "recheck": len(worker.RECHECK)}
SETUP_PROBES = 4
RUN_LIMIT_S = 170          # a run must end within 180 s, whatever hangs
# BLAS gets one thread, so numpy does not spread a pass over both cores
# on its own; threads the program starts itself still run and show up
# as cpu_s above wall_s.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def spawn(options, deadline):
    """Run one worker; its result dict, or None if it failed."""
    env = {**os.environ, **THREAD_ENV}
    started = time.monotonic_ns()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *options,
             "--spawn-ns", str(started)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker timed out: {options}\n")
        return None
    if done.returncode != 0:
        sys.stderr.write(f"worker exit {done.returncode}: {options}\n")
        return None
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"worker printed no result: {options}\n")
        return None


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")},
            "worker_thread_env": THREAD_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "extenlab" / "__init__.py").is_file():
        sys.stderr.write(f"no extenlab sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S

    # The first import of a fresh checkout compiles bytecode; not timed.
    if spawn(["--workload", args.workload, "--seed", "0",
              "--setup-only"], deadline) is None:
        return 1
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(["--workload", args.workload, "--seed", "0",
                           "--setup-only"], deadline)
            if probe is None:
                return 1
            setups.append(probe["setup_s"])

    kinds = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    durations = []
    attempted = failed = 0
    index = 0
    budget = min(args.seconds, RUN_LIMIT_S)
    while index < len(kinds) or (time.monotonic() - began + max(durations)
                                 <= budget):
        traced = kinds[index % len(kinds)]
        seed = args.seed * 1000 + index
        options = ["--workload", args.workload, "--seed", str(seed)]
        started = time.monotonic()
        result = spawn(options + (["--trace"] if traced else []), deadline)
        durations.append(time.monotonic() - started)
        index += 1
        if result is None:
            attempted += OPERATIONS[args.workload]
            failed += OPERATIONS[args.workload]
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        passes[traced].append(result)

    untraced, traced = passes[False], passes[True]
    if not untraced or (args.trace and not traced):
        sys.stderr.write("no pass completed\n")
        return 1
    if args.trace:
        traced_wall = median([p["wall_s"] for p in traced])
        metrics = add_totals({name: median([p["layers"][name] for p in traced])
                              for name in traced[0]["layers"]}, traced_wall)
        metrics["trace.overhead_s"] = traced_wall - median(
            [p["wall_s"] for p in untraced])
    else:
        setups += [p["setup_s"] for p in untraced]
        metrics = {name: median([p[name] for p in untraced])
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"metrics not measured: {missing}\n")
        return 1

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": environment(),
                      "setup_probes_s": setups[:SETUP_PROBES],
                      "passes": untraced + traced}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
