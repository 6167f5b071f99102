"""gtprior benchmark: end-to-end metrics per workload, or a traced per-layer split.

Run from the root of a checkout (it imports ``gtprior`` from ``src/``):

    python3 bench/run.py --workload ci-grid-10 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

Workloads (each a closed loop: one caller, the next pass starts when the
previous one returns):

* ``ci-grid-10`` -- ``gtprior experiment --preset ci-grid-10 --dump-trials``
  through ``gtprior.cli.main``: the paper's desk protocol, dominated by
  branch-and-bound over the ising_map ILPs.
* ``lp-grid-14`` -- ``harness.run_experiment`` with relaxed sparsity and
  ising_map decoders on a 14x14 grid at rho 0 and 0.01: single large LPs,
  no branching, so the dense simplex and the model size dominate.
* ``prep-28`` -- what full-grid-28 and full-block-28 do before their first
  solve (truth Gibbs sampling, designs, channel, model builds): the only
  workload where prior, testing and model building dominate.

``--seconds`` bounds the measured passes: after two, another pass starts
only if one of the mean length still ends within that time.  Two is the
least that keeps one pass slowed by a burst of load on the host from being
a run's only sample.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics: ``setup_s`` (median over fresh processes of the time
from process start until the workload's inputs are built), ``wall_s``
(median seconds per pass) and ``peak_rss_mb``.  Failed operations go into
``failed``/``attempted``; their ratio is printed above as ``failed_frac``.
A decode fails when its status is not optimal or its objective differs
from scipy HiGHS on the same model by more than ``oracle.OBJ_TOL``; a
prep-28 operation fails when it raises or when its model is infeasible at
the truth or has the wrong objective there.  With ``--trace 1`` half of the
time runs untraced and half traced, and the last line holds the per-layer
metrics.  Spans go to ``bench/out/spans-<workload>-<seed>.jsonl``, and every
run appends its record to ``bench/out/results.jsonl``.

Each pass's report body (wall times dropped) is digested; a digest that
differs between passes, or from an earlier run of the same workload and
seeds in this checkout (``bench/out/digests.json``), makes the run
incorrect.  ``--protocol-seed`` runs a workload on another truth seed; see
``workloads.py`` for which inputs each seed draws.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 5
BLAS_THREADS = 1  # never more than nproc; one thread keeps runs steady on a shared machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("ci-grid-10", "lp-grid-14", "prep-28")


def _declared_metrics() -> tuple:
    """{name: unit} of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, or a child failed)."""


def _cap_threads() -> int:
    cap = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def _import_program() -> dict:
    """Import gtprior from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gtprior" / "__init__.py").is_file():
        raise BenchError(f"no gtprior source tree under {src}")
    sys.path.insert(0, str(src))
    import gtprior
    from gtprior import cli, decoders, harness, milp, prior, rng, testing
    if Path(gtprior.__file__).resolve().parent != (src / "gtprior").resolve():
        raise BenchError(f"gtprior imported from {gtprior.__file__}, not {src}")
    return {"cli": cli, "decoders": decoders, "harness": harness, "milp": milp,
            "prior": prior, "rng": rng, "testing": testing}


def _make_workload(args):
    gt = _import_program()
    OUT.mkdir(parents=True, exist_ok=True)
    import workloads
    return gt, workloads.WORKLOADS[args.workload](gt, args.seed, args.protocol_seed, str(OUT))


def _probe_setup(args) -> float:
    """Seconds from starting a fresh process until it has built the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.protocol_seed is not None:
        cmd += ["--protocol-seed", str(args.protocol_seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe exited with {rc}")
    return elapsed


def _measure(workload, seconds: float, tracer=None, min_passes: int = 2):
    """Closed loop of passes: at least ``min_passes``, then more while
    another pass of the mean length still ends within ``seconds``.
    Returns (pass seconds, what each pass keeps for verification, pass
    digests, span index ranges)."""
    times, kept, digests, ranges = [], [], [], []
    start = time.perf_counter()
    while True:
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        raw = workload.run_pass(tracer)
        times.append(time.perf_counter() - t0)
        ranges.append((first, len(tracer.spans) if tracer else 0))
        digest, keep = workload.finish_pass(raw)
        del raw  # not alive during the next pass, so it cannot raise the peak RSS
        digests.append(digest)
        kept.append(keep)
        if (len(times) >= min_passes
                and time.perf_counter() - start + statistics.mean(times) > seconds):
            return times, kept, digests, ranges


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # a checkout exported without git metadata
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, workload, threads: int) -> dict:
    import importlib.metadata
    import numpy
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
            "git_commit": _git_commit(), "blas_threads": threads,
            "seed": args.seed, "protocol_seed": workload.protocol_seed}


def _check_digests(key: str, digests: list) -> list:
    """Problems with the pass digests: passes that disagree, or a digest that
    differs from the one an earlier run recorded under ``key``."""
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"report digests differ between passes: {sorted(set(digests))}")
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != digests[0]:
        problems.append(f"report digest {digests[0]} differs from earlier run's {known[key]}")
    elif key not in known:
        known[key] = digests[0]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problems


def run_workload(args) -> int:
    threads = _cap_threads()
    gt, wl = _make_workload(args)
    setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    import oracle
    budget = args.seconds / 2 if args.trace else args.seconds
    times, kept, digests, _ = _measure(wl, budget, min_passes=1 if args.trace else 2)
    traced = None
    if args.trace:
        from tracing import Tracer
        with Tracer(gt) as tracer:
            traced = _measure(wl, budget, tracer, min_passes=1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        kept += traced[1]
        digests += traced[2]
    check = wl.verify(kept)
    key = f"{args.workload}|seed={args.seed}|protocol_seed={wl.protocol_seed}"
    problems = _check_digests(key, digests) + check.reasons
    wall_s = statistics.median(times)
    e2e = {"setup_s": statistics.median(setup), "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    e2e_units, layer_units = _declared_metrics()
    failed_frac = check.failed / check.attempted
    env = _environment(args, wl, threads)

    print(f"workload {args.workload}  seed {args.seed}  protocol_seed {wl.protocol_seed}  "
          f"passes {len(times)}{f' + {len(traced[0])} traced' if traced else ''}")
    for name, unit in e2e_units.items():
        print(f"  {name:<12} {e2e[name]:.6g} {unit}")
    print(f"  {'failed_frac':<12} {failed_frac:.6g} ratio "
          f"({check.failed}/{check.attempted}, HiGHS objective tolerance {oracle.OBJ_TOL})")
    print(f"  digest {digests[0]}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    print("env " + json.dumps(env, sort_keys=True))

    if traced:
        from tracing import layer_metrics
        t_times, _, _, ranges = traced
        per_pass = [layer_metrics(tracer.spans, a, b, dt) for (a, b), dt in zip(ranges, t_times)]
        layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        for k in ("rows", "vars", "nnz", "bytes"):
            layers[f"decoders.model_{k}"] = check.shapes[k]
        layers["trace.overhead_s"] = statistics.median(t_times) - wall_s
        tracer.dump(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in layer_units.items()}
        for k, u in layer_units.items():
            print(f"  {k:<28} {layers[k]:.6g} {u}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in e2e_units.items()}

    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "pass_s": times, "digest": digests[0], "failed": check.failed,
              "attempted": check.attempted, "problems": problems, "metrics": metrics}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": not problems and check.failed == 0,
                      "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of end-to-end metrics."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.protocol_seed is not None:
            cmd += ["--protocol-seed", str(args.protocol_seed)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            raise BenchError(f"{name} exited with {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
        rows.append((name, res))
    if not args.trace:
        units = {**_declared_metrics()[0], "failed_frac": "ratio"}
        print(f"\n{'workload':<12} " + " ".join(f"{k + ' [' + u + ']':>18}" for k, u in units.items()))
        for name, res in rows:
            vals = [res["metrics"][k]["value"] for k in units if k != "failed_frac"]
            vals.append(res["failed"] / res["attempted"])
            print(f"{name:<12} " + " ".join(f"{v:>18.6g}" for v in vals))
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--protocol-seed", type=int, default=None,
                        help="truth seed; default: the workload's protocol seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            _cap_threads()
            _make_workload(args)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
