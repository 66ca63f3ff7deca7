"""Print the lines of ``src/xbarnet`` that no test runs.

Runs pytest in this process under a ``sys.settrace`` line collector that
records only frames of files in ``src/xbarnet``, then prints, per file, the
executable lines that never ran and a total.  Standard library only, since
no coverage package is assumed.  It is run by hand, not as a test: tracing
makes the suite a few times slower.  The source is read again at the end
to map line numbers, so edit no file under ``src/xbarnet`` while it runs.

    python tools/unrun_lines.py              # the tier-1 selection
    python tools/unrun_lines.py -k golden    # arguments go to pytest

A line counts as executable when the compiler gives it bytecode (the line
table of the module's code objects).  Lines listed in ``EXPECTED`` never
run under a test on purpose and are left out of the count.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xbarnet"

# (file name, stripped source line) that no test is meant to reach
EXPECTED = {
    ("cli.py", "sys.exit(main())"),  # the module run as a script
}


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    todo = [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = n_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        unrun = sorted(
            line for line in lines - ran.get(str(path), set())
            if (path.name, source[line - 1].strip()) not in EXPECTED
        )
        total += len(unrun)
        n_lines += len(lines)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun")
            for line in unrun:
                print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"total: {total} of {n_lines} executable lines unrun")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
