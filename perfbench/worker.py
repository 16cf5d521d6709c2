"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py MANIFEST OUT [--trace] [--setup-only]

Imports toriq from `src/`, reads the manifest (the pass is then ready:
that instant ends set-up), asserts that every cached toriq function is
empty, and runs each item once, timing only the library calls.  Writes a
JSON result to OUT: the ready instant on the monotonic clock, per item
the exit code, stdout, extra outputs, error and seconds, the pass's
peak RSS, the caches' hit counts and, with --trace, per-function counts.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import toriq.cli  # noqa: E402
from toriq import FanData, IntMatrix, classify, fans  # noqa: E402

import tracer  # noqa: E402


def run_item(item: dict) -> dict:
    """The timed calls of one item; returns what the check needs."""
    if item["kind"] == "analyze":
        argv = ["analyze", item["path"]]
    elif item["kind"] == "classify":
        argv = ["classify", item["path"], "--factor", str(item["factor"])]
    else:
        argv = ["fan", item["path"], "--point", ",".join(map(str, item["point"]))]
    buf = io.StringIO()
    extra = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = toriq.cli.main(argv)
        if item["kind"] == "classify" and item["fano"]:
            extra = [e[2] for e in classify.enumerate_fano_family(IntMatrix(item["doc"]["matrix"]))]
        elif item["kind"] == "cell" and code == 0:
            out = json.loads(buf.getvalue())
            fan = FanData(IntMatrix(out["fan_matrix"]), [[i - 1 for i in c] for c in out["max_cones"]])
            extra = [list(g) for g in fans.nef_cone(IntMatrix(item["doc"]["matrix"]), fan).generators]
        error = None
    except Exception as exc:  # the pass records every failure and goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {
        "id": item["id"],
        "exit": code,
        "stdout": buf.getvalue(),
        "extra": extra,
        "error": error,
        "seconds": seconds,
    }


def main(argv) -> int:
    manifest_path, out_path = argv[0], argv[1]
    with open(manifest_path, "r", encoding="utf-8") as fh:
        items = json.load(fh)
    ready = time.monotonic()

    caches = tracer.cached_functions()
    warm = sorted(name for name, fn in caches.items() if fn.cache_info().currsize)
    if warm:
        print(f"caches not empty at pass start: {warm}", file=sys.stderr)
        return 3
    result = {"ready": ready}
    if "--setup-only" not in argv:
        trace = tracer.Tracer() if "--trace" in argv else None
        if trace is not None:
            trace.install()
        result["items"] = [run_item(item) for item in items]
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["caches"] = {name: list(fn.cache_info()[:2]) for name, fn in caches.items()}
        if trace is not None:
            result["trace"] = trace.stats
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
