"""Which function bodies of the package no command-line test runs.

Runs ``tests/test_cli.py`` in this process under a line tracer and, for
each module of ``src/unimet``, prints the executable lines inside function
bodies (methods, nested functions and comprehensions included) that no
test ran, grouped by function, then the unreached share of all such lines
and the package's size, the line count of ``src/unimet/*.py`` (what
``cat src/unimet/*.py | wc -l`` prints).  Module-level and class-level
statements run on import, so they are left out.  It exits with pytest's
status when the tests fail, else with 1 when the unreached share is above
``UNREACHED_LIMIT``, else with 0.

    python3 tests/reach.py

The name has no ``test_`` prefix, so pytest does not collect it.
"""

import dis
import sys
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "unimet"
# The largest share of function-body lines that no command-line test may run.
UNREACHED_LIMIT = 0.09


def _function_codes(code):
    """Every code object under ``code`` that runs as a function body."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a class body
                yield const
            yield from _function_codes(const)


def executable_lines(path):
    """{line: qualified name of the outermost function holding it}."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines = {}
    for code in _function_codes(module):
        name = getattr(code, "co_qualname", code.co_name)
        for _, line in dis.findlinestarts(code):
            # The def line itself runs when the function is defined.
            if line is not None and line != code.co_firstlineno:
                lines.setdefault(line, name.split(".<locals>")[0])
    return lines


def ranges(numbers):
    """``1-3, 7`` for [1, 2, 3, 7]."""
    out, start = [], None
    for n in sorted(numbers) + [None]:
        if start is None:
            start = end = n
        elif n == end + 1:
            end = n
        else:
            out.append(str(start) if start == end else f"{start}-{end}")
            start = end = n
    return ", ".join(out)


def run_traced(pytest_args):
    """pytest's exit status and the (file, line) pairs of the package
    that ran under it."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return status, ran


def main():
    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = run_traced(["-q", "-p", "no:cacheprovider", str(TESTS / "test_cli.py")])
    total = unreached = size = 0
    for path in sorted(PACKAGE.glob("*.py")):
        size += path.read_text(encoding="utf-8").count("\n")
        lines = executable_lines(path)
        missed = defaultdict(list)
        for line, name in lines.items():
            if (str(path), line) not in ran:
                missed[name].append(line)
        count = sum(map(len, missed.values()))
        total += len(lines)
        unreached += count
        print(f"{path.name}: {count} of {len(lines)} function-body lines unreached")
        for name in sorted(missed, key=lambda key: min(missed[key])):
            print(f"  {name}: {ranges(missed[name])}")
    share = unreached / total if total else 0.0
    print(f"unreached: {unreached} of {total} executable function-body lines ({share:.1%})")
    print(f"package size: {size} lines in src/unimet/*.py")
    if status == 0 and share > UNREACHED_LIMIT:
        print(f"the unreached share is above {UNREACHED_LIMIT:.0%}")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
