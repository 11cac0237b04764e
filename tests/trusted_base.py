"""Print the checker's trusted base: the extenlab function lines certify runs.

Emits one certificate of each of the five kinds at 2^-6 (the families and
members of test_cli._ONE_OF_KIND), then traces `certify` on each file with
sys.setprofile, each time with the catalog caches cleared, as in a
process of its own.  A function counts with all its source lines
(inspect.getsourcelines) once it is called; lines shared by nested
functions count once.  Prints the line and function totals per extenlab
module, then the sum.  Building the files is not traced.

Not a test (pytest collects only test_*.py); run it from the repository
root as

    PYTHONPATH=src python tests/trusted_base.py
"""

import contextlib
import inspect
import io
import json
import pathlib
import sys
import tempfile

from extenlab.spaces import clear_caches
from test_cli import _ONE_OF_KIND, _certify, _emitted


def reached_code(paths) -> dict:
    """code object -> module name, over the extenlab functions certify
    calls on each (directory, problem, certificate text) of paths."""
    called = {}

    def profile(frame, event, arg):
        module = str(frame.f_globals.get("__name__"))
        if event == "call" and module.startswith("extenlab"):
            called[frame.f_code] = module

    for tmp, problem, text in paths:
        clear_caches()          # so that certify builds what it reads
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = _certify(tmp, problem, text)
        finally:
            sys.setprofile(None)
        if code != 0:
            raise SystemExit(f"certify exited {code} on {problem}")
    return called


def module_lines(called) -> dict:
    """module -> (set of source lines, function count) over the named
    functions called holds.  Comprehensions and lambdas lie in the lines
    of the function that holds them; methods that dataclasses and
    namedtuples generate have no source file and are left out."""
    out: dict = {}
    for code, module in called.items():
        if code.co_name.startswith("<") or code.co_filename.startswith("<"):
            continue
        lines, start = inspect.getsourcelines(code)
        seen, count = out.get(module, (set(), 0))
        seen.update(range(start, start + len(lines)))
        out[module] = (seen, count + 1)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for kind, (family, n) in sorted(_ONE_OF_KIND.items()):
            tmp = pathlib.Path(root, kind)
            tmp.mkdir()
            problem, cert = _emitted(tmp, family, n)
            paths.append((tmp, problem, json.dumps(cert)))
        per_module = module_lines(reached_code(paths))
    total_lines = total_functions = 0
    for module, (lines, functions) in sorted(per_module.items()):
        print(f"{len(lines):6d} lines {functions:4d} functions  {module}")
        total_lines += len(lines)
        total_functions += functions
    print(f"{total_lines:6d} lines {total_functions:4d} functions  "
          f"trusted base of certify ({len(_ONE_OF_KIND)} kinds at 2^-6)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
