"""List the lines of src/fusionkit that the test suite never executes.

Run from the repository root, with pytest's own arguments after the script:

    python3 tools/untested_lines.py            # the whole suite, about 4 minutes
    python3 tools/untested_lines.py tests/test_normal_maps.py -k refus

A pytest plugin traces every line run inside src/fusionkit with
``sys.settrace`` (the standard library only; ``coverage`` is not needed).
The lines that count are those of functions, methods, lambdas and
comprehensions, as their code objects record them.  Module-level lines and
class bodies run at import and are left out, and so is each function's
``def`` line.  One line is printed per line never run, as
``path:line: source``, grouped by file, and the last line gives the total
and the count for each module; the exit code is pytest's.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fusionkit"


def _function_lines(code) -> set[int]:
    """The lines of the function code objects nested in ``code``."""
    lines = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                lines.update(line for _, _, line in const.co_lines() if line is not None)
                lines.discard(const.co_firstlineno)
            lines |= _function_lines(const)
    return lines


def runnable_lines(path: Path) -> set[int]:
    return _function_lines(compile(path.read_text(), str(path), "exec"))


class LineTracer:
    """Records (file, line) for every line run in a file under ``root``."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.hit: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.root) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hit.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    # The tests' conftest imports the package; tracing starts before it loads.
    @pytest.hookimpl(tryfirst=True)
    def pytest_load_initial_conftests(self, early_config, parser, args):
        sys.settrace(self._call)

    def pytest_unconfigure(self, config):
        sys.settrace(None)


def untested(tracer: LineTracer) -> list[tuple[Path, int]]:
    return [
        (path, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in sorted(runnable_lines(path))
        if (str(path), line) not in tracer.hit
    ]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(PACKAGE)
    code = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[tracer])
    missed = untested(tracer)
    sources = {}
    for path, line in missed:
        text = sources.setdefault(path, path.read_text().splitlines())[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    # most_common keeps the files' order among equal counts
    counts = Counter(path.stem for path, _ in missed).most_common()
    per_module = ", ".join(f"{name} {n}" for name, n in counts)
    print(f"{len(missed)} lines of src/fusionkit never ran: {per_module}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
