"""Child-process side of the benchmark.

    python3 bench/probe.py setup
        import hopfcheck and build the catalog; print the seconds it took.
    python3 bench/probe.py reference
        run the reference loop four times (a fresh-interpreter host-speed sample).
    python3 bench/probe.py request OUT.json trace|profile -- <cli arguments>
        run one hopfcheck CLI request with span tracing or scalar counting,
        and write the timings split into import, catalog build and command.

The parent process puts the checkout's ``src`` on PYTHONPATH.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def reference_loop_s() -> float:
    """Seconds taken by a fixed pure-Python loop (rational sums and list
    comprehensions, like the program's kernels): the host's current speed."""
    from fractions import Fraction

    start = time.perf_counter()
    acc, rows = Fraction(0), [list(range(40)) for _ in range(40)]
    for k in range(1, 300):
        acc += Fraction(k % 13 + 1, k)
        rows = [[x + y if y else x for x, y in zip(r, rows[k % 40])] for r in rows]
    return time.perf_counter() - start


def setup():
    import hopfcheck

    hopfcheck.catalog_entries()
    took = time.perf_counter() - START
    print(json.dumps({"setup_s": took, "module": os.path.realpath(hopfcheck.__file__)}))
    return 0


def request(out_path, mode, argv):
    import hopfcheck.cli

    imported = time.perf_counter()
    import spans

    tracer = prof = None
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
    else:
        prof = spans.cProfile.Profile()
        prof.enable()
    try:
        built_start = time.perf_counter()
        hopfcheck.catalog.catalog_entries()
        built = time.perf_counter()
        code = hopfcheck.cli.main(argv)
        sys.stdout.flush()
        done = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            prof.disable()
    result = {
        "in_child_s": done - START,
        "import_s": imported - START,
        "catalog_s": built - built_start,
        "command_s": done - built,
        "code": code,
    }
    if tracer is not None:
        result["trace"] = tracer.export()
        result["main_calls"] = tracer.calls("cli.main")
    else:
        result["counts"] = spans.counts_from_profile(prof)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def main(argv):
    if argv[:1] == ["setup"]:
        return setup()
    if argv[:1] == ["reference"]:
        for _ in range(4):  # about as much Python as an import and catalog build
            reference_loop_s()
        return 0
    if len(argv) >= 4 and argv[0] == "request" and argv[2] in ("trace", "profile") and argv[3] == "--":
        return request(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
