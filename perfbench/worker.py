"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload repro --seed 7 [--spawn-ns T]
        [--trace | --record | --setup-only]

The pass imports extenlab from the checkout's `src/`, runs every
operation of the workload once, in an order drawn from `--seed`, and
checks each output against the reference digests in `digests.json`.  An
operation is one example run (`repro`, `refine`) or one certificate
re-check (`recheck`); a digest mismatch, a non-zero `certify` exit code
or an exception fails that operation and never the pass.  The last line
of standard output is one JSON object with the pass's measurements;
`order` names the timed steps in the order of `op_s`, their wall times.

`--spawn-ns` is the parent's CLOCK_MONOTONIC reading just before it
started this process; set-up time runs from there until `extenlab` and
`extenlab.cli` are imported.  `--setup-only` stops there.  `--record`
prints the observed digests instead of checking them.
"""

import argparse
import hashlib
import json
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

_STARTED_NS = time.monotonic_ns()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"       # files the recheck pass writes

# The thirteen reproductions at their pinned resolutions.
REPRO = ("anr-eclosed", "anr-eopen", "comb", "cone-contraction",
         "eop-homotopy", "equiconnected", "hawaii", "loc-ext",
         "ndagger-eclosed", "ndagger-not-eopen", "pathcomp",
         "sine-not-eclosed", "sine-not-eopen")

# The four family examples whose nets grow, one halving below their pin.
REFINE = ("pathcomp", "sine-not-eclosed", "comb", "hawaii")
REFINE_EPSILON = 2.0 ** -9

# Every obstruction certificate the family catalog builds at 2^-8 for
# the rows the reproductions tabulate: (family, member n or None for the
# limit).  16 path-component, 20 clopen, 2 mandatory-crossing, 10 winding.
RECHECK_EPSILON = 2.0 ** -8
RECHECK = ([("pathcomp", None), ("sine-eclosed", None), ("comb", None)]
           + [("sine-eopen", n) for n in range(1, 16)]
           + [("ndagger-eopen", n) for n in range(1, 21)]
           + [("hawaii", n) for n in range(1, 11)])


class Pass:
    """Timed operations of one pass, their digests and failures."""

    def __init__(self, expected):
        self.expected = expected          # digest key -> hex, or None
        self.observed = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.op_s = []

    def timed(self, fn, *args):
        """Run fn inside the timed region; returns (ok, result)."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            return True, fn(*args)
        except Exception:                  # an operation fails, not the pass
            self.failures.append(traceback.format_exc(limit=4))
            return False, None
        finally:
            self.op_s.append(time.perf_counter() - wall0)
            self.wall_s += self.op_s[-1]
            self.cpu_s += time.process_time() - cpu0

    def check(self, key: str, data: bytes) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        self.observed[key] = digest
        if self.expected is None:
            return True
        if self.expected.get(key) != digest:
            self.failures.append(f"digest mismatch: {key}")
            return False
        return True

    def outcome(self, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1


def run_examples(p: Pass, extenlab, names, epsilon, prefix, rng):
    dumps = extenlab.serialization.dumps

    def one(name):
        report = extenlab.run_example(name, epsilon=epsilon)
        return dumps(report.as_dict())

    order = list(names)
    rng.shuffle(order)
    for name in order:
        ok, text = p.timed(one, name)
        p.outcome(ok and p.check(f"{prefix}/{name}", text.encode()))
    return order


def run_recheck(p: Pass, extenlab, work: Path, rng):
    ser = extenlab.serialization
    eps = RECHECK_EPSILON

    def write(family, n, base):
        fam = extenlab.example_family(family, eps)
        phi = fam.limit if n is None else fam.member(n)
        cert = extenlab.build_negative_certificate(family, n, eps)
        problem = {"pair": ser.pair_to_ref(fam.pair),
                   "map": ser.map_to_json(phi)}
        (base / "problem.json").write_text(ser.dumps(problem) + "\n",
                                           encoding="utf-8")
        (base / "certificate.json").write_text(
            ser.dumps(ser.certificate_to_json(cert, eps)) + "\n",
            encoding="utf-8")

    def certify(base):
        return extenlab.cli.main(["certify", str(base / "problem.json"),
                                  str(base / "certificate.json"),
                                  "--out", str(base / "verdict.json")])

    def key(family, n):
        return f"recheck/{family}/{'limit' if n is None else n}"

    written = {}
    order = list(RECHECK)
    rng.shuffle(order)
    for family, n in order:
        base = work / key(family, n).replace("/", "_")
        base.mkdir()
        ok, _ = p.timed(write, family, n, base)
        written[(family, n)] = ok and all(
            [p.check(f"{key(family, n)}/{f}",
                     (base / f"{f}.json").read_bytes())
             for f in ("problem", "certificate")])
    ops = [f"write {key(f, n)}" for f, n in order]
    rng.shuffle(order)
    for family, n in order:
        base = work / key(family, n).replace("/", "_")
        ok, code = p.timed(certify, base)
        if ok and code != 0:
            p.failures.append(f"certify exit {code}: {key(family, n)}")
        ok = ok and code == 0 and p.check(
            f"{key(family, n)}/verdict", (base / "verdict.json").read_bytes())
        p.outcome(written[(family, n)] and ok)
    return ops + [f"certify {key(f, n)}" for f, n in order]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("repro", "refine", "recheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, default=_STARTED_NS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the package is imported")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import extenlab
    import extenlab.cli
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    source = Path(extenlab.__file__).resolve()
    if source.parent != ROOT / "src" / "extenlab":
        sys.stderr.write(f"extenlab imported from {source}, "
                         "not from the checkout\n")
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("extenlab")

    expected = None if args.record else json.loads(
        (HERE / "digests.json").read_text(encoding="utf-8"))
    p = Pass(expected)
    rng = random.Random(args.seed)
    if args.workload == "repro":
        order = run_examples(p, extenlab, REPRO, None, "repro", rng)
    elif args.workload == "refine":
        order = run_examples(p, extenlab, REFINE, REFINE_EPSILON, "refine",
                             rng)
    else:
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="recheck-", dir=WORK))
        try:
            order = run_recheck(p, extenlab, work, rng)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:           # another pass is still using it
                pass

    for failure in p.failures[:5]:
        sys.stderr.write(failure.rstrip() + "\n")
    result = {"workload": args.workload, "seed": args.seed, "order": order,
              "setup_s": setup_s, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": p.attempted, "failed": p.failed, "op_s": p.op_s,
              "threads": _thread_count()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(p.wall_s, REPRO)
    if args.record:
        result["digests"] = p.observed
    print(json.dumps(result, sort_keys=True))
    return 0


def _thread_count() -> int:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
