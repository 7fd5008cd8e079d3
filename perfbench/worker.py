"""One workload in one process: set up, print ``ready``, measure, print ``result``.

Started by ``run.py``; not meant to be run by hand.  ``--mode setup``
exits right after set-up, so ``run.py`` can time set-up several times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread, fixed before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

import statepool  # noqa: E402
from reference import NOMINAL_MS, SHARE, Reference  # noqa: E402
from tracing import EXACT_COUNTERS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

P90_MIN_SAMPLES = 100
# Set-up is interpreter and import work, so it is set against the reference
# loop at its smallest, interpreter-bound dim, timed for about 5% of a set-up.
SETUP_REF_DIM = 2
SETUP_REF_BUDGET_MS = 12.5
# Seed of the extra traced round that proves the exact counters do not
# depend on the drawn inputs.
ALT_SEED_OFFSET = 1_000_003
# Errors quantum_pool raises itself; any other class is counted as "other".
POOLING_ERRORS = ("NonHermitianPoolingProductError", "IncompatibleAssignmentsError",
                  "PriorSupportError", "NotPSDError")
# Notes printed beside per-layer metrics: what is computed rather than timed,
# the base of each ratio, and which counters must repeat exactly.
NOTES = {
    **{k: "exact" for k in EXACT_COUNTERS},
    "scenario.kraus_bytes": "exact; computed from Kraus operator shapes",
    "linalg.eig_n3": "exact; computed: sum of n^3 over decompositions",
    "io.bytes_in": "computed: sizes of the files handed to cli.main; repeats for one seed",
    "io.bytes_out": "computed: length of the text io.dumps returns; repeats for one seed",
    "compatibility.compatible_frac": "base: compatibility.calls",
    "pooling.success_frac": "base: pooling.calls",
    **{f"pooling.errors.{e}": "base: pooling.calls" for e in (*POOLING_ERRORS, "other")},
}


class Tally:
    """Timed requests of one kind (untraced or traced) and their latency samples.

    ``samples`` hold raw ms per instance; ``scaled`` the same samples
    at the reference loop's nominal speed (see ``reference.py``).
    """

    def __init__(self, dims):
        self.samples = {d: [] for d in dims}
        self.scaled = {d: [] for d in dims}
        self.request_ns = 0
        self.instances = 0

    def end_to_end(self) -> dict:
        m = {}
        for dim, xs in self.scaled.items():
            if not xs:  # every instance of the dim failed; run.py reports it missing
                continue
            m[f"ms_per_instance.d{dim}"] = statistics.median(xs)
            if len(xs) >= P90_MIN_SAMPLES:
                m[f"ms_per_instance_p90.d{dim}"] = statistics.quantiles(xs, n=10)[8]
            m[f"ms_per_instance_raw.d{dim}"] = statistics.median(self.samples[dim])
        # Throughput on a mix of one instance per dim, the baseline grid's
        # equal count per cell, so it does not depend on ``reps``.
        if all(self.scaled.values()):
            m["instances_per_s"] = 1e3 * len(self.samples) / sum(
                m[f"ms_per_instance.d{d}"] for d in self.samples)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return m


class Loop:
    """Closed loop with one caller over a workload's blocks and rounds."""

    def __init__(self, workload, tracer: Tracer | None = None):
        self.w = workload
        self.tracer = tracer
        self.ref = Reference()
        self.last_group_ms = {}  # dim -> timed ms of its last group
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.round_counts: list[dict] = []
        self.next_request = 0

    def measure(self, seconds: float, tally: Tally) -> None:
        """Untraced blocks, dim after dim, until ``seconds`` have passed.

        Every metric is per dim, so the run may end inside a round, but
        not inside the first, so that every dim is measured.
        """
        deadline = time.perf_counter() + seconds
        while True:
            for dim in self.w.dims:
                if self.rounds and time.perf_counter() >= deadline:
                    return
                self.block(dim, tally)
            self.rounds += 1

    def round(self, plan, tallies: dict) -> None:
        """One round: ``plan`` lists (dim, traced) blocks; counts what traced ones did."""
        before = self.tracer.snapshot()
        for dim, traced in plan:
            self.block(dim, tallies[traced], traced)
        after = self.tracer.snapshot()
        self.round_counts.append({k: after[k] - before[k] for k in after})
        self.rounds += 1

    def block(self, dim: int, tally: Tally, traced: bool = False) -> None:
        """``reps[dim]`` groups of one dim, traced or not."""
        if traced:
            self.tracer.install()
            bytes_in = self.w.bytes_in
        try:
            for _ in range(self.w.reps[dim]):
                self._group(dim, tally, traced)
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.counts["io.bytes_in"] += self.w.bytes_in - bytes_in

    def _group(self, dim: int, tally: Tally, traced: bool) -> None:
        rdim = self.w.reference_dim[dim]
        ref_before = self.ref.mean_ms(rdim, SHARE * self.last_group_ms.get(dim, 0.0))
        group_ns = 0
        group_instances = 0
        for req in self.w.group(dim):
            rid = self.next_request
            self.next_request += 1
            scope = self.tracer.request(rid) if traced else nullcontext()
            self.attempted += req.instances
            try:
                with scope:
                    t0 = time.perf_counter_ns()
                    out = req.call()
                    dt = time.perf_counter_ns() - t0
                req.check(out)
            except Exception as exc:  # a failed or wrong instance is counted, not fatal
                self.failed += req.instances
                if len(self.failures) < 20:
                    self.failures.append(f"d={dim} request {rid}: {type(exc).__name__}: {exc}")
                continue
            group_ns += dt
            group_instances += req.instances
        self.last_group_ms[dim] = group_ns / 1e6
        scale = self.ref.scale(rdim, ref_before, self.ref.mean_ms(rdim, SHARE * group_ns / 1e6))
        if group_instances:
            ms = group_ns / group_instances / 1e6
            tally.samples[dim].append(ms)
            tally.scaled[dim].append(ms * scale)
            tally.request_ns += group_ns
            tally.instances += group_instances


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally) -> dict:
    """Per-instance layer metrics of the traced blocks."""
    n = traced.instances
    c = tracer.counts

    def ms(ns: int) -> float:
        return ns / 1e6 / n

    m = {
        "scenario.generate_ms": ms(tracer.group_ns["scenario.generate"]),
        "scenario.channel_ms": ms(tracer.group_ns["scenario.channel"]),
        "scenario.kraus_applications": c["scenario.kraus_applications"] / n,
        "scenario.kraus_bytes": c["scenario.kraus_bytes"] / n,
        "scenario.batch_self_ms": ms(tracer.fn_self_ns["scenario.batch_report"]),
        "linalg.eigh_calls": c["linalg.eigh_calls"] / n,
        "linalg.eigvalsh_calls": c["linalg.eigvalsh_calls"] / n,
        "linalg.eig_ms": ms(tracer.group_ns["linalg.eig"]),
        "linalg.eig_n3": c["linalg.eig_n3"] / n,
        "compatibility.calls": c["compatibility.calls"] / n,
        "compatibility.ms": ms(tracer.group_ns["compatibility"]),
        "compatibility.compatible_frac": _frac(c["compatibility.compatible"], c["compatibility.calls"]),
        "pooling.ms": ms(tracer.group_ns["pooling"]),
        "pooling.calls": c["pooling.calls"] / n,
        "pooling.success_frac": _frac(c["pooling.success"], c["pooling.calls"]),
        "regions.bayes_ms": ms(tracer.group_ns["regions.bayes"]),
        "io.encode_ms": ms(tracer.group_ns["io.encode"]),
        "io.decode_ms": ms(tracer.group_ns["io.decode"]),
        "io.bytes_out": c["io.bytes_out"] / n,
        "io.bytes_in": c["io.bytes_in"] / n,
        "trace.spans": c["trace.spans"] / n,
        # Every traced block is paired with the same block run untraced
        # next to it, so drift of the machine cancels.
        "trace.overhead": traced.request_ns / untraced.request_ns - 1.0,
    }
    errors = {k.rpartition(".")[2]: v for k, v in c.items() if k.startswith("pooling.errors.")}
    for err in POOLING_ERRORS:
        m[f"pooling.errors.{err}"] = _frac(errors.pop(err, 0), c["pooling.calls"])
    m["pooling.errors.other"] = _frac(sum(errors.values()), c["pooling.calls"])
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = ms(tracer.self_ns[layer])
    return m


def _frac(part: int, base: int) -> float:
    return part / base if base else 0.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "statepool": statepool.__version__,
    }


def blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library where it can be."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.workdir)
    for req in workload.group(workload.dims[0]):  # warm-up
        req.check(req.call())
    emit("ready", {})
    if args.mode == "setup":
        # The host's state over the end of this set-up, for run.py to scale it.
        emit("result", {"reference_ms": Reference().mean_ms(SETUP_REF_DIM, SETUP_REF_BUDGET_MS),
                        "nominal_ms": NOMINAL_MS[SETUP_REF_DIM]})
        return 0

    if args.mode == "measure":
        loop = Loop(workload)
        tally = Tally(workload.dims)
        loop.measure(args.seconds, tally)
        emit("result", {"attempted": loop.attempted, "failed": loop.failed,
                        "failures": loop.failures, "checks_ok": True,
                        "metrics": tally.end_to_end(),
                        "sample_counts": {f"d{d}": len(xs) for d, xs in tally.samples.items()},
                        "samples_ms": {f"d{d}": xs for d, xs in tally.samples.items()},
                        "scaled_samples_ms": {f"d{d}": xs for d, xs in tally.scaled.items()},
                        "rounds": loop.rounds, "env": environment()})
        return 0

    # Traced run: one traced round on another seed, then rounds in which
    # each dim's block runs untraced and traced next to each other, the
    # order swapped every round.  Rounds go on while the next one fits in
    # ``--seconds``.
    start = time.perf_counter()
    tracer = Tracer()
    alt_dir = os.path.join(args.workdir, "alt")
    os.makedirs(alt_dir, exist_ok=True)
    alt = Loop(cls(args.seed + ALT_SEED_OFFSET, alt_dir), tracer)
    alt.round([(d, True) for d in workload.dims], {True: Tally(workload.dims)})
    tracer.reset_counters()
    loop = Loop(workload, tracer)
    tallies = {False: Tally(workload.dims), True: Tally(workload.dims)}
    while True:
        t0 = time.perf_counter()
        order = (False, True) if loop.rounds % 2 == 0 else (True, False)
        loop.round([(d, traced) for d in workload.dims for traced in order], tallies)
        now = time.perf_counter()
        if now + (now - t0) - start > args.seconds:
            break

    checks = []
    exact = [{k: rc[k] for k in EXACT_COUNTERS} for rc in loop.round_counts + alt.round_counts]
    if any(rc != exact[0] for rc in exact):
        checks.append(f"exact counters differ between rounds or seeds: {exact}")
    if any(rc != loop.round_counts[0] for rc in loop.round_counts):
        checks.append(f"counters differ between rounds of one seed: {loop.round_counts}")
    if args.workload == "bayes-pool":
        c = tracer.counts
        if 3 * c["compatibility.compatible"] != 2 * c["compatibility.calls"]:
            checks.append(f"compatible_frac {c['compatibility.compatible']}/{c['compatibility.calls']} != 2/3")
        if 3 * c["pooling.success"] != c["pooling.calls"]:
            checks.append(f"success_frac {c['pooling.success']}/{c['pooling.calls']} != 1/3")
    n_spans = tracer.write_spans(args.spans) if args.spans else 0
    emit("result", {
        "attempted": alt.attempted + loop.attempted,
        "failed": alt.failed + loop.failed,
        "failures": alt.failures + loop.failures + checks,
        "checks_ok": not checks,
        "metrics": per_layer(tracer, tallies[True], tallies[False]),
        "counts_per_round": loop.round_counts[0],
        "rounds": {"paired": loop.rounds, "alt_seed": alt.rounds},
        "spans_written": n_spans,
        "notes": NOTES,
        "env": environment(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
