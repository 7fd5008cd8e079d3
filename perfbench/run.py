"""statepool benchmark: one workload, closed loop, one caller, one BLAS thread.

    python3 perfbench/run.py --workload batch-grid --seed 1 --seconds 30 --trace 0

Workloads: batch-grid, bayes-pool, cli-roundtrip (see ``workloads.py``).
With ``--trace 0`` the last line of standard output is a JSON object
holding every ``end_to_end`` metric named in ``BENCHMARK.json``; with
``--trace 1`` a separate traced run reports every ``per_layer`` metric.
Lines before it give each metric with its sample count, ``error_rate``
and the run environment.  The full record, and the spans of a traced run,
go to ``perfbench/out/``.

The workload runs in a child process (``worker.py``) so that set-up time
covers interpreter start, ``import statepool``, input generation and
warm-up, and so that peak RSS is the workload's own.  Set-up is timed
``SETUP_RUNS`` times, half of them before the measured worker and half
after it so that they meet the machine at two times.  Each set-up worker
times the reference loop (``reference.py``) right after it is ready, and
the median of the set-ups at the loop's nominal speed is reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 15
TIME_LIMIT_S = 170  # the whole run, workers included, ends within this


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, mode: str, workdir: Path, deadline: float, spans: Path | None = None):
    """Start worker.py; return (seconds from start to ``ready``, result or None).

    The worker is killed if it is still running at ``deadline`` (perf_counter).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "ready" and ready is None:
                ready = time.perf_counter() - t0
            elif tag == "result":
                result = json.loads(payload)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0 or ready is None or result is None:
        raise WorkerFailed(f"worker ({mode}) exited with code {code}")
    return ready, result


def timed_setup(args, workdir: Path, deadline: float):
    """One set-up worker; return (raw seconds, seconds at the reference's nominal speed)."""
    ready, result = run_worker(args, "setup", workdir, deadline)
    return ready, ready * result["nominal_ms"] / result["reference_ms"]


def code_version() -> dict:
    """Which code ran: git commit where the checkout has one, and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT_S
    # SIGTERM unwinds through run_worker, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "statepool" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no statepool source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = HERE / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"{tag}-spans.jsonl" if args.trace else None
    try:
        before = 0 if args.trace else SETUP_RUNS // 2
        after = 0 if args.trace else SETUP_RUNS - before
        setups = [timed_setup(args, workdir, deadline) for _ in range(before)]
        mode = "trace" if args.trace else "measure"
        result = run_worker(args, mode, workdir, deadline, spans)[1]
        setups += [timed_setup(args, workdir, deadline) for _ in range(after)]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(s for _, s in setups)
        metrics["setup_raw_s"] = statistics.median(r for r, _ in setups)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0 and result["checks_ok"]
    env = {**result["env"], **code_version()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": result["failures"], "env": env,
        "setup_runs_s": [r for r, _ in setups], "setup_runs_scaled_s": [s for _, s in setups],
        **{k: v for k, v in result.items()
           if k not in ("metrics", "attempted", "failed", "failures", "env", "checks_ok")},
        "metrics": metrics,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    spec_order = [m["name"] for m in wanted]
    for name in spec_order + sorted(set(metrics) - set(spec_order), key=_by_dim):
        print(f"  {name:42s} {metrics[name]:.6g}{_note(name, record)}")
    print(f"  {'error_rate':42s} {record['error_rate']:.6g}  ({failed} failed / {attempted} attempted)")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _by_dim(name: str):
    """Sort key putting ``x.d8`` before ``x.d16``."""
    stem = name.rstrip("0123456789")
    return stem, int(name[len(stem):] or 0)


def _note(name: str, record: dict) -> str:
    samples = record.get("sample_counts", {})
    dim = name.rpartition(".")[2]
    if name.startswith("ms_per_instance_p90."):
        return f"  (p90 of {samples[dim]} samples)"
    if name.startswith("ms_per_instance_raw."):
        return f"  (median of {samples[dim]} samples, raw)"
    if name.startswith("ms_per_instance."):
        return f"  (median of {samples[dim]} samples, at the reference speed)"
    if name == "setup_s":
        return f"  (median of {len(record['setup_runs_s'])} set-ups, at the reference speed)"
    if name == "setup_raw_s":
        return f"  (median of {len(record['setup_runs_s'])} set-ups, raw)"
    note = record.get("notes", {}).get(name)
    return f"  ({note})" if note else ""


if __name__ == "__main__":
    sys.exit(main())
