#!/usr/bin/env python3
"""Reachability audit: which functions of ``src/repro`` does some traffic enter?

    python tools/reach.py run OUT -- CMD [ARG...]
    python tools/reach.py report OUT [OUT...] [--never]

``run`` puts a generated ``sitecustomize`` first on ``PYTHONPATH``: every
Python process CMD starts writes the ``src/repro`` functions it entered under
OUT at exit (``atexit`` / ``os._exit``; not when killed by a signal).  It
exits 0 whatever CMD returns: an audit, not a gate.  ``report`` prints per
module the lines of entered functions against those of all its functions (a
line belongs to its innermost def); ``--never`` lists the functions missed.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SITECUSTOMIZE = """\
import atexit, json, os, sys, threading
_OUT, _SRC, _codes = {out!r}, {src!r}, {{}}
def _trace(frame, event, arg, _seen=_codes.setdefault):  # outlives teardown
    _seen(id(frame.f_code), frame.f_code)
def _dump():
    by_file = {{}}
    for code in list(_codes.values()):
        by_file.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    hits = []
    for name, lines in by_file.items():
        path = os.path.realpath(name)
        if path.startswith(_SRC):
            hits += [[path[len(_SRC):], line] for line in sorted(lines)]
    os.makedirs(_OUT, exist_ok=True)
    name = "%d-%s.json" % (os.getpid(), os.urandom(4).hex())
    with open(os.path.join(_OUT, name), "w") as fh:
        json.dump(hits, fh)
def _exit(status, _real=os._exit):
    try: _dump()
    finally: _real(status)
os._exit = _exit
atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
"""


def run(out: str, cmd: list) -> int:
    old = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(":") if p]
    with tempfile.TemporaryDirectory(prefix="reach-") as hook:
        Path(hook, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(out=os.path.abspath(out), src=f"{SRC}/")
        )
        path = ":".join([hook, str(SRC)] + old)
        status = subprocess.call(cmd, env=dict(os.environ, PYTHONPATH=path))
    print(f"reach: {' '.join(cmd)} exited {status} (not a gate)", file=sys.stderr)
    return 0


def functions(path: Path):
    """``[(qualname, first_lines, own_line_count)]`` of one module."""
    found, owner = [], {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                firsts = {child.lineno} | {d.lineno for d in child.decorator_list}
                found.append((prefix + child.name, firsts))
                for line in range(min(firsts), child.end_lineno + 1):
                    owner[line] = len(found) - 1  # inner defs overwrite
                visit(child, prefix + child.name + ".")
            else:
                named = isinstance(child, ast.ClassDef)
                visit(child, prefix + child.name + "." if named else prefix)

    visit(ast.parse(path.read_text()), "")
    counts = Counter(owner.values())
    return [(name, firsts, counts[i]) for i, (name, firsts) in enumerate(found)]


def report(outs: list, never: bool) -> int:
    dumps = [dump for out in outs for dump in Path(out).glob("*.json")]
    hits = {tuple(hit) for dump in dumps for hit in json.loads(dump.read_text())}
    total = reached = src_lines = 0
    missed = []
    print(f"{'module':<44} entered/function lines")
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = str(path.relative_to(SRC))
        src_lines += len(path.read_text().splitlines())
        mod_total = mod_reached = 0
        for name, firsts, n in functions(path):
            mod_total += n
            if any((module, line) in hits for line in firsts):
                mod_reached += n
            else:
                missed.append((module, min(firsts), name, n))
        total, reached = total + mod_total, reached + mod_reached
        share = 100.0 * mod_reached / mod_total if mod_total else 100.0
        print(f"{module:<44} {mod_reached:>7}/{mod_total:<7} {share:5.1f}%")
    print(f"\n{reached}/{total} function lines entered; {total - reached} of the "
          f"{src_lines} lines in src/ sit in {len(missed)} functions never entered")
    for module, line, name, n in missed if never else ():
        print(f"  {module}:{line} {name} ({n} lines)")
    return 0


if __name__ == "__main__":
    verb, *args = sys.argv[1:] or [""]
    outs = [arg for arg in args if arg != "--never"]
    if verb == "run" and len(args) > 1:
        sys.exit(run(args[0], args[2:] if args[1] == "--" else args[1:]))
    if verb == "report" and outs:
        sys.exit(report(outs, "--never" in args))
    sys.exit(__doc__)  # usage, exit status 1
