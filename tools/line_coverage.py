"""List the lines of ``src/locfield`` that a pytest run never executes.

Run from the repository root::

    python3 tools/line_coverage.py
    python3 tools/line_coverage.py tests/test_cli.py -k config

Any arguments go to pytest (none: the suite of ``pyproject.toml``).
No coverage package is needed: pytest runs in this process under a
:func:`sys.settrace` tracer that follows only the frames of code in
``src/locfield`` and records each line they execute.  A module's
executable lines are those in the ``co_lines`` tables of its code
objects, compiled from its source.  For each module the tool prints the
number of executable lines, the number that never ran and those lines,
as ranges; then it exits with pytest's status.

Code that runs only in a child process, such as ``python -m locfield``
in a subprocess, is not seen, so ``__main__.py`` counts as unrun.  The
tracer slows the suite down: the whole suite took 43 s under it,
against 26 s without, on a 2-core machine.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "locfield"


def executable_lines(path: Path) -> set:
    """The line numbers in the co_lines tables of a module's code (not
    line 0, where a module's code starts before its first line)."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"),
                                  str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated ranges, "3-5, 9"."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # "call" starts each frame: follow it only in src/locfield, where
        # its first line (a function's def, a module's first statement)
        # runs as it starts
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"\n{'module':<14} {'lines':>6} {'unrun':>6}  unrun lines")
    total = unrun_total = 0
    for name, path in files.items():
        lines = executable_lines(path)
        unrun = lines - ran[name]
        total += len(lines)
        unrun_total += len(unrun)
        print(f"{path.name:<14} {len(lines):>6} {len(unrun):>6}  "
              f"{ranges(unrun)}")
    print(f"{'total':<14} {total:>6} {unrun_total:>6}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
