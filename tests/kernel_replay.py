"""Replay the modulus kernel calls of one refine and one repro pass.

Runs the examples of perfbench's `refine` and `repro` workloads once in
this process (one pass each, in the catalog's order), recording every
call of `metric._measured_bounds` (the measure behind a measured step
modulus) and of `check_modulus` (as `MapSample.validity_report` calls
it), with its arguments.  It then replays the recorded calls in process,
with every net's pair table already built (warm), and prints per
workload and kernel the call count and the best total over the rounds,
and a SHA-256 over the measured tables (radii and bounds bytes) and the
check answers, in call order.  The digests do not depend on timing, so
two checkouts whose kernels agree print the same ones.

Not a test (pytest collects only test_*.py); run it from the repository
root as

    PYTHONPATH=src python tests/kernel_replay.py [--rounds N]
"""

import argparse
import hashlib
import pathlib
import sys
import time

import extenlab
from extenlab import maps, metric
from extenlab.spaces import clear_caches

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))
from worker import REFINE, REFINE_EPSILON, REPRO  # noqa: E402

WORKLOADS = (("refine", REFINE, REFINE_EPSILON), ("repro", REPRO, None))


def record(names, epsilon) -> list:
    """[(kernel, args)] of every kernel call of one run of each example."""
    calls = []
    measure, check = metric._measured_bounds, maps.check_modulus

    def measuring(net, stack):
        calls.append(("measure", (net, stack)))
        return measure(net, stack)

    def checking(f, slack):
        calls.append(("check", (f, slack)))
        return check(f, slack)

    metric._measured_bounds, maps.check_modulus = measuring, checking
    try:
        clear_caches()
        for name in names:
            extenlab.run_example(name, epsilon=epsilon)
    finally:
        metric._measured_bounds, maps.check_modulus = measure, check
    return calls


def replay(calls, rounds: int):
    """({kernel: best total seconds}, SHA-256 of the results)."""
    kernels = {"measure": metric._measured_bounds,
               "check": metric.check_modulus}
    best = dict.fromkeys(kernels, float("inf"))
    digest = None
    for _ in range(rounds):
        spent = dict.fromkeys(kernels, 0.0)
        h = hashlib.sha256()
        for kernel, args in calls:
            start = time.perf_counter()
            out = kernels[kernel](*args)
            spent[kernel] += time.perf_counter() - start
            if kernel == "measure":
                h.update(out[0].tobytes() + out[1].tobytes())
            else:
                h.update(b"1" if out else b"0")
        for kernel in kernels:
            best[kernel] = min(best[kernel], spent[kernel])
        if digest not in (None, h.hexdigest()):
            raise SystemExit("a replayed kernel gave another result")
        digest = h.hexdigest()
    return best, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=7,
                        help="replays of each workload's calls (best of)")
    args = parser.parse_args(argv)
    for workload, names, epsilon in WORKLOADS:
        calls = record(names, epsilon)
        best, digest = replay(calls, max(1, args.rounds))
        for kernel, seconds in best.items():
            count = sum(k == kernel for k, _ in calls)
            print(f"{workload:7s} {kernel:8s} {count:4d} calls "
                  f"{1e3 * seconds:9.1f} ms")
        print(f"{workload:7s} sha256   {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
