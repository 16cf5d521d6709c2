"""toriq benchmark: seeded workloads through the public CLI and library.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads: `fixtures`, `products`,
`families`, `cells` (see `gen.py` and `predictions.json`).  Each timed
pass is a fresh interpreter (`worker.py`), started one at a time, with
`TORIQ_THREADS` unset and a fixed `PYTHONHASHSEED`, so toriq's caches
start empty as they do for every `toriq` CLI call.  Passes repeat until
`--seconds` is used up, at least twice, each on its own seeded stream of
inputs in a seeded order.  Every pass's outputs are checked after timing
(`checks.py`).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics
(see `tracer.py`).  The last stdout line is the JSON result; the line
before it states the environment, pass and sample counts and the status
of the known-defect probe.  Exits 2 without a result when toriq's source
is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 15  # set-ups per run, counting those of the timed passes
SETUP_PER_ROUND = 3  # set-up-only starts after each round, so they spread over the run
MIN_PASSES = 2  # untraced passes per run even when one fills --seconds
PASS_TIMEOUT = 150

sys.path.insert(0, os.path.join(ROOT, "src"))  # the checks of `cells` call toriq
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402


def pass_env() -> dict:
    env = dict(os.environ)
    env.pop("TORIQ_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(manifest: str, out: str, *flags) -> dict:
    """One fresh interpreter; returns its result with `setup_s` added."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, manifest, out, *flags],
        env=pass_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=PASS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass worker failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    with open(out, "r", encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(out)
    res["setup_s"] = res["ready"] - start
    return res


def write_inputs(items: list, workdir: str) -> str:
    """Write each item's document and the pass manifest; returns its path."""
    manifest = []
    for i, item in enumerate(items):
        path = os.path.join(workdir, f"in{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.dump(item["doc"]))
        manifest.append(dict(item, path=path))
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.dump(manifest))
    return path


def run_probe(workdir: str) -> tuple:
    """The known-defect probe, untimed, in its own interpreter.  It passes
    once it exits 0 with a report or 2 with a typed error object."""
    item = {"id": gen.PROBE_ID, "kind": "analyze", "doc": gen.PROBE_DOC}
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    manifest = write_inputs([item], probe_dir)
    res = run_worker(manifest, os.path.join(probe_dir, "out.json"))["items"][0]
    ok = False
    if res["exit"] in (0, 2):
        out = json.loads(res["stdout"])
        ok = "error" not in out if res["exit"] == 0 else isinstance(out.get("error"), dict)
    status = f"exit {res['exit']}" if res["error"] is None else f"uncaught {res['error'].split(':')[0]}"
    return ok, status


def _output(res: dict) -> tuple:
    return res["exit"], res["stdout"], res["extra"], res["error"]


def hd_quantile(values: list, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by Beta((n+1)p, (n+1)(1-p)) over their share of
    [0, 1].  A plain quantile reads one or two samples; this one spreads
    its weight over many, so an input that ran in a slow stretch of a
    shared machine moves it less."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)

    def log_pdf(x):  # up to a constant, which the normalisation removes
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    mode = min(max((a - 1) / (a + b - 2), 1e-9), 1 - 1e-9) if a + b > 2 else 0.5
    top = log_pdf(mode)

    def pdf(x):
        return math.exp(log_pdf(x) - top) if 0 < x < 1 else 0.0

    weights = []
    for i in range(n):  # Simpson's rule on [i/n, (i+1)/n]
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes: list, setups: list, ok_fracs: list) -> dict:
    pool = [r["seconds"] for p in passes for r in p["items"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(r["seconds"] for r in p["items"]) for p in passes),
        "input_p50_s": hd_quantile(pool, 0.5),
        "input_p90_s": hd_quantile(pool, 0.9),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_frac": statistics.median(ok_fracs),
    }


def per_layer(names: list, traced: list, plain: list) -> dict:
    """Medians over the traced passes of every per-layer metric."""

    def one(p):
        stats = p["trace"]
        vals = {}
        for name in names:
            parts = name.split(".")
            if parts[0] == "cache":
                hits, misses = p["caches"].get(parts[1], (0, 0))
                vals[name] = hits / (hits + misses) if hits + misses else 0.0
            elif parts[0] == "trace":
                continue
            elif len(parts) == 2:
                keys = [k for k in stats if k.split(".", 1)[0] == parts[0]]
                col = 0 if parts[1] == "calls" else 1
                vals[name] = sum(stats[k][col] for k in keys)
            else:
                vals[name] = stats.get(f"{parts[0]}.{parts[1]}", (0, 0.0))[0]
        return vals

    rows = [one(p) for p in traced]
    out = {n: statistics.median(r[n] for r in rows) for n in rows[0]}
    wall = [sum(r["seconds"] for r in p["items"]) for p in traced]
    base = [sum(r["seconds"] for r in p["items"]) for p in plain]
    out["trace.overhead_frac"] = statistics.median(wall) / statistics.median(base) - 1
    return {n: out[n] for n in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="toriq benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "toriq", "__init__.py")):
        print("toriq source not found under src/; run from a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    golden = gen.load_golden()
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    out = os.path.join(workdir, "out.json")
    rounds = []  # (items, untraced pass, traced pass or None)
    try:
        # Timed passes until the time is used up, each on its own stream of
        # inputs.  With --trace 1 each round runs its inputs traced and
        # untraced, so the overhead ratio compares like with like; the
        # per-layer counts repeat exactly, so one round will do.  Set-up-only
        # starts follow each round, so set-up time is sampled all through
        # the run and not in one stretch at its end.
        min_rounds = 1 if args.trace else MIN_PASSES
        setups = []
        start = time.monotonic()
        while len(rounds) < min_rounds or time.monotonic() - start < args.seconds:
            items = gen.generate(args.workload, args.seed, golden, stream=len(rounds))
            passdir = os.path.join(workdir, f"pass{len(rounds)}")
            os.makedirs(passdir)
            manifest = write_inputs(items, passdir)
            traced_pass = run_worker(manifest, out, "--trace") if args.trace else None
            rounds.append((items, run_worker(manifest, out), traced_pass))
            setups += [p["setup_s"] for p in rounds[-1][1:] if p is not None]
            for _ in range(SETUP_PER_ROUND):
                setups.append(run_worker(manifest, out, "--setup-only")["setup_s"])
        plain = [r[1] for r in rounds]
        traced = [r[2] for r in rounds if r[2] is not None]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(manifest, out, "--setup-only")["setup_s"])
        probe = run_probe(workdir) if args.workload == "fixtures" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Untimed checks of every pass against the references; a traced pass
    # must also give exactly the outputs of its untraced twin.
    check = checks.checker(args.workload)
    failures, ok_fracs, attempted, failed = [], [], 0, 0
    for k, (items, plain_pass, traced_pass) in enumerate(rounds):
        runs = 1 if traced_pass is None else 2
        bad = 0
        for i, item in enumerate(items):
            res = plain_pass["items"][i]
            why = check(golden, item, res)
            if traced_pass is not None and why is None and _output(traced_pass["items"][i]) != _output(res):
                why = "traced output differs from untraced"
            if why:
                bad += 1
                failures.append(f"pass {k} {item['id']}: {why}")
                print(f"FAIL pass {k} {item['id']}: {why}", file=sys.stderr)
        attempted += runs * len(items)
        failed += runs * bad
        ok, total = len(items) - bad, len(items)
        if probe is not None:
            ok, total = ok + probe[0], total + 1
        ok_fracs.append(ok / total)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain),
        "traced_passes": len(traced),
        "inputs_per_pass": len(rounds[0][0]),
        "input_samples": sum(len(p["items"]) for p in plain),
        "failed_inputs": failures,
    }
    if probe is not None:
        info["probe"] = {"id": gen.PROBE_ID, "passes": probe[0], "status": probe[1]}
    print("info " + json.dumps(info, sort_keys=True))

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(names, traced, plain)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end(plain, setups, ok_fracs)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
