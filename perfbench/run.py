"""Benchmark of the simplexsp CLI on generated inputs.

Run from the repository root:

    python3 perfbench/run.py --workload learn-knn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another
    python3 perfbench/run.py --smoke               # n~40: every workload, untraced and traced
    python3 perfbench/run.py --record-reference    # reference/ from the current program

``--trace 0`` times real CLI commands, each in a fresh interpreter, for
``--seconds`` seconds and reports the end-to-end metrics (median wall time
per command, median set-up time, median peak RSS).  ``--trace 1`` calls
``simplexsp.cli.main`` in-process, alternately untraced and with span
recorders at every layer boundary, and reports per-layer self times and
work counters.  Every run's outputs are checked (see check.py).  Details,
the environment and the spans go to ``.perfbench_runs/``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: OpenBLAS otherwise starts
# one per core, and timings on a shared machine then depend on its other load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

MIN_SAMPLES = 3  # fresh-process commands per untraced run, however long they take
MIN_REPS = 2  # untraced/traced in-process pairs per traced run
HARD_LIMIT_S = 170.0  # per workload: no new command starts once it could end past this


class BenchError(Exception):
    """The benchmark cannot run, or a count that must repeat did not."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list, cwd: Path, deadline: float | None = None) -> tuple:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).

    The child is killed at the deadline (a perf_counter value), but not
    before 5 s; without one, after HARD_LIMIT_S.
    """
    limit = HARD_LIMIT_S if deadline is None else max(5.0, deadline - time.perf_counter())
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _cli_argv(argv: list) -> list:
    return [sys.executable, "-m", "simplexsp.cli", *argv]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": src_digest(),
    }


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def require_program() -> None:
    if not (SRC / "simplexsp" / "cli.py").is_file():
        raise BenchError(f"no simplexsp sources under {SRC}; run from a repository checkout")


def _size(name: str, smoke: bool) -> dict:
    return WORKLOADS[name].smoke if smoke else WORKLOADS[name].full


def _fresh_out(work: Path) -> None:
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()


def prepare(name: str, seed: int, smoke: bool) -> tuple:
    """Generate the inputs into a clean work directory; returns (work, inputs)."""
    work = RUNS / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work, WORKLOADS[name].generate(seed, work, smoke)


def checker(name: str, seed: int, smoke: bool, inp) -> check.Checker:
    """Output checks; at the default seed and full size, against the reference."""
    reference = None
    if seed == DEFAULT_SEED and not smoke:
        reference = check.load_reference(name, WORKLOADS[name].full)
    return check.Checker(name, inp, reference)


def check_import(work: Path, deadline: float) -> None:
    """Untimed warm-up import, which also writes the bytecode caches; it must load src/."""
    spawn([sys.executable, "-c", "import simplexsp.cli as c; print(c.__file__)"], work, deadline)
    where = Path((work / "stdout.txt").read_text().strip())
    if SRC.resolve() not in where.resolve().parents:
        raise BenchError(f"simplexsp imported from {where}, not from {SRC}")


def time_import(work: Path, deadline: float) -> float:
    """Wall time of `import simplexsp.cli` in a fresh interpreter."""
    wall, _, rc = spawn([sys.executable, "-c", "import simplexsp.cli"], work, deadline)
    if rc != 0:
        raise BenchError(f"import simplexsp.cli exited with {rc}")
    return wall


def verify_counters(key: str, kind: str, counts: dict) -> None:
    """Fail if counts differ from those an earlier run stored under the same key."""
    path = RUNS / "counters.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    entry = stored.setdefault(key, {})
    previous = entry.get(kind)
    if previous is not None and previous != counts:
        diff = {k: (previous.get(k), counts.get(k)) for k in set(previous) | set(counts)
                if previous.get(k) != counts.get(k)}
        raise BenchError(f"{kind} counters of {key} differ from an earlier run: {diff}")
    entry[kind] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    tmp.replace(path)


def _median(values: list) -> float | None:
    return float(statistics.median(values)) if values else None


def _keep_going(count: int, minimum: int, started: float, seconds: float, durations: list,
                deadline: float) -> bool:
    """Another sample fits in the run, or the minimum is not reached yet."""
    est = max(durations) if durations else 0.0
    if count >= minimum and time.perf_counter() - started + est > seconds:
        return False
    if count >= 1 and est > deadline - time.perf_counter():
        return False
    return True


def run_untraced(name: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    work, inp = prepare(name, seed, smoke)
    check_run = checker(name, seed, smoke, inp)
    check_import(work, deadline)
    setup, walls, rss, failures, identical = [], [], [], [], []
    durations = []
    started = time.perf_counter()
    while _keep_going(len(walls) + len(failures), MIN_SAMPLES, started, seconds, durations,
                      deadline):
        t0 = time.perf_counter()
        # set-up samples interleave with the commands, so both see the same machine load
        setup.append(time_import(work, deadline))
        _fresh_out(work)
        wall, peak, rc = spawn(_cli_argv(inp.argv), work, deadline)
        verdict = check_run(work)
        if rc != 0 or not verdict.ok:
            err = (work / "stderr.txt").read_text()[-2000:]
            failures.append({"exit_code": rc, "problems": verdict.problems[:10], "stderr": err})
        else:
            walls.append(wall)
            rss.append(peak)
            identical.append(verdict.byte_identical)
        durations.append(time.perf_counter() - t0)
    attempted = len(walls) + len(failures)
    short = len(walls) < MIN_SAMPLES
    metrics = {
        "wall_s": {"value": _median(walls), "unit": "s", "samples": len(walls)},
        "setup_s": {"value": _median(setup), "unit": "s", "samples": len(setup)},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB", "samples": len(rss)},
    }
    return {
        "workload": name, "seed": seed, "trace": 0, "smoke": smoke, "size": _size(name, smoke),
        "sizes": inp.sizes, "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "short": short,
        "outputs_byte_identical": (min(identical) if identical and identical[0] is not None
                                   else None),
        "outputs_total": len(inp.outputs),
        "metrics": metrics, "samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss},
        "failures": failures, "work": work,
    }


def _call_main(cli, argv: list, work: Path) -> tuple:
    """In-process `simplexsp.cli.main(argv)` inside the work directory: (wall s, exit code)."""
    _fresh_out(work)
    here = Path.cwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the run is recorded as failed and the benchmark goes on
            traceback.print_exc()
            rc = 1
        return time.perf_counter() - start, rc
    finally:
        os.chdir(here)


def run_traced(name: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    work, inp = prepare(name, seed, smoke)
    check_run = checker(name, seed, smoke, inp)
    sys.path.insert(0, str(SRC))
    import simplexsp.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"simplexsp imported from {cli.__file__}, not from {SRC}")
    plain, traced, recorders, failures, durations = [], [], [], [], []
    started = time.perf_counter()
    while _keep_going(len(recorders), MIN_REPS, started, seconds, durations, deadline):
        t0 = time.perf_counter()
        rec = spans.Recorder(trace_id=len(recorders))
        pair = [(plain, contextlib.nullcontext()), (traced, spans.instrument(rec))]
        if len(recorders) % 2:  # alternate which side runs first
            pair.reverse()
        for walls, ctx in pair:
            with ctx:
                wall, rc = _call_main(cli, inp.argv, work)
            verdict = check_run(work)
            if rc != 0 or not verdict.ok:
                failures.append({"exit_code": rc, "problems": verdict.problems[:10]})
            else:
                walls.append(wall)
        recorders.append(rec)
        durations.append(time.perf_counter() - t0)

    spans_path = RUNS / "spans" / f"{name}-seed{seed}{'-smoke' if smoke else ''}.jsonl"
    spans.write_spans(spans_path, recorders)
    per_rep = [r.self_times() for r in recorders]
    work_counts = []
    for r, selfs in zip(recorders, per_rep):
        counts = {f"{k}.calls": calls for k, (_, calls) in selfs.items()}
        counts.update(r.counts)
        work_counts.append(counts)
    if not failures and any(c != work_counts[0] for c in work_counts):
        raise BenchError(f"work counters of {name} seed {seed} differ between traced runs")

    metrics = {}
    for module, attr in spans.BOUNDARIES:
        key = f"{module}.{attr}"
        metrics[f"{key}.self_s"] = {
            "value": _median([s.get(key, (0.0, 0))[0] for s in per_rep]), "unit": "s"}
        metrics[f"{key}.calls"] = {"value": work_counts[0].get(f"{key}.calls", 0),
                                   "unit": "count"}
    for key, (suffix, _) in spans.COUNTERS.items():
        unit = "B" if suffix == "bytes" else "count"
        metrics[f"{key}.{suffix}"] = {"value": work_counts[0].get(f"{key}.{suffix}", 0),
                                      "unit": unit}
    for k, v in inp.sizes.items():
        metrics[f"sizes.{k}"] = {"value": v, "unit": "count"}
    overhead = _median(traced) / _median(plain) - 1.0 if traced and plain else None
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    attempted = len(plain) + len(traced) + len(failures)
    return {
        "workload": name, "seed": seed, "trace": 1, "smoke": smoke, "size": _size(name, smoke),
        "sizes": inp.sizes, "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "short": len(recorders) < MIN_REPS,
        "metrics": metrics,
        "samples": {"untraced_s": plain, "traced_s": traced}, "failures": failures,
        "work_counts": work_counts[0], "spans": str(spans_path.relative_to(ROOT)), "work": work,
    }


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool, env: dict) -> dict:
    deadline = time.perf_counter() + HARD_LIMIT_S
    result = (run_traced if trace else run_untraced)(name, seed, seconds, smoke, deadline)
    size = json.dumps(_size(name, smoke), sort_keys=True)
    key = f"{name}|{size}|seed={seed}|src={env['src_sha256']}"
    verify_counters(key, "sizes", result["sizes"])
    if trace and not result["failed"]:
        verify_counters(key, "work", result["work_counts"])
    shutil.rmtree(result.pop("work"), ignore_errors=True)
    result["env"] = env
    out = RUNS / "results" / f"{name}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    _report(result)
    return result


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _report(r: dict) -> None:
    m = r["metrics"]
    head = f"{r['workload']} seed={r['seed']} trace={r['trace']}"
    if r["trace"] == 0:
        parts = [f"{k}={_fmt(v['value'])} {v['unit']} (median of {v['samples']})"
                 for k, v in m.items()]
        ident = r["outputs_byte_identical"]
        parts.append(f"failed_frac={r['failed_frac']:.4f} ({r['failed']}/{r['attempted']})")
        parts.append("outputs_byte_identical=" + (f"{ident}/{r['outputs_total']}"
                                                  if ident is not None else "n/a (no reference)"))
    else:
        top = sorted((k for k in m if k.endswith(".self_s")),
                     key=lambda k: -(m[k]["value"] or 0.0))[:5]
        parts = [f"{k}={_fmt(m[k]['value'])} s" for k in top]
        parts.append(f"trace_overhead_frac={_fmt(m['trace_overhead_frac']['value'])}")
        parts.append(f"failed_frac={r['failed_frac']:.4f} ({r['failed']}/{r['attempted']})")
    if r["short"]:
        least = MIN_REPS if r["trace"] else MIN_SAMPLES
        parts.append(f"SHORT: the time limit cut the run below {least} samples")
    print(head + ": " + ", ".join(parts), flush=True)
    for f in r["failures"]:
        print(f"  FAILED: {f}", file=sys.stderr)


def _final_line(results: list, prefix: bool, declared: dict) -> dict:
    """The JSON result line: per run, the metrics BENCHMARK.json declares for its mode."""
    metrics = {}
    for r in results:
        for m in declared[r["trace"]]:
            v = r["metrics"][m["name"]]
            metrics[f"{r['workload']}.{m['name']}" if prefix else m["name"]] = {
                "value": v["value"], "unit": v["unit"]}
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def smoke_run(env: dict, declared: dict) -> list:
    """Every workload at n~40, untraced and traced; every named metric must appear with its unit."""
    results = []
    for name in WORKLOADS:
        for trace in (0, 1):
            r = run_one(name, DEFAULT_SEED, 0.0, trace, True, env)
            for metric in declared[trace]:
                got = r["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    raise BenchError(f"{name} trace={trace}: metric {metric['name']} "
                                     f"missing or not in {metric['unit']}: {got}")
            results.append(r)
    return results


def record_reference(env: dict) -> None:
    for name, wl in WORKLOADS.items():
        work, inp = prepare(name, DEFAULT_SEED, False)
        _fresh_out(work)
        _, _, rc = spawn(_cli_argv(inp.argv), work)
        if rc != 0:
            raise BenchError(f"{name}: CLI exited with {rc}: {(work / 'stderr.txt').read_text()}")
        check.record_reference(name, wl.full, work, inp, env["git_commit"] or env["src_sha256"])
        verdict = check.Checker(name, inp, check.load_reference(name, wl.full))(work)
        if not verdict.ok:
            raise BenchError(f"{name}: fresh reference does not verify: {verdict.problems}")
        shutil.rmtree(work, ignore_errors=True)
        print(f"recorded reference for {name}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="n~40 run of every workload")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        require_program()
        bench = json.loads(BENCHMARK_JSON.read_text())
        declared = {0: bench["end_to_end"], 1: bench["per_layer"]}  # metrics each mode emits
        env = environment()
        print("env: " + json.dumps(env, sort_keys=True), flush=True)
        if args.record_reference:
            record_reference(env)
            return 0
        if args.smoke:
            results = smoke_run(env, declared)
            print(json.dumps(_final_line(results, True, declared)))
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_one(n, args.seed, args.seconds, args.trace, False, env) for n in names]
    except (BenchError, check.CheckError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_final_line(results, args.workload == "all", declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
