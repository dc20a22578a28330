"""Benchmark of the padic-mcf command line, end to end and layer by layer.

    python3 bench/run.py --workload rational --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each workload is a seeded stream of CLI requests (see workloads.py) that is
driven in process through `padic_mcf.cli.main(argv, out)`: a closed loop
with one client, one worker process and one thread.  With --trace 0 the run
reports the end-to-end metrics: set-up time as the median of SETUP_SAMPLES
fresh processes, request latency, rows per second and peak memory, with
times scaled to a reference speed of the host (see worker.py).  With
--trace 1 a separate run wraps each layer's public functions (tracing.py)
and reports per-layer calls and self times.  Every request's output is
checked; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only when every request passed its check.
--record-reference stores the output digests of the default seed, which
later runs with that seed must reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from worker import DEFAULT_SEED, REFERENCE  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes per run; the last one goes on to the requests
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_worker(*args: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    samples = []
    if not trace:
        samples = [run_worker(*common, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(*common, "--seconds", str(seconds), "--trace", str(trace))
    samples.append(result)
    if trace:
        metrics = result["per_layer"]
    else:
        result["setup_s"] = statistics.median(s["setup_s"] for s in samples)
        result["unscaled"]["setup_s"] = statistics.median(s["setup_unscaled_s"] for s in samples)
        metrics = {key: (result[key], unit) for key, unit in END_TO_END.items()}
    result["metrics"] = {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()}
    result["failed_frac"] = result["failed"] / result["attempted"]
    return result


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "src_lines": src_lines(),
    }


def report(name: str, result: dict) -> None:
    """Human-readable lines; the machine-readable result is the last line."""
    print(f"[{name}] requests {result['requests']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  failed_frac {result['failed_frac']:.4f} frac")
    for key, m in result["metrics"].items():
        print(f"[{name}] {key} {m['value']:.6g} {m['unit']}")
    for key, value in result.get("unscaled", {}).items():
        print(f"[{name}] unscaled {key} {value:.6g}")
    print(f"[{name}] output digest {result['digest']} "
          f"(first {result['digest_requests']} requests)")
    for failure in result["failures"]:
        print(f"[{name}] FAILED {failure}")
    for target in result.get("missing_targets", ()):
        print(f"[{name}] trace target not found: {target}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full record as JSON")
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store the output digests of seed {DEFAULT_SEED}")
    args = ap.parse_args(argv)
    if not (SRC / "padic_mcf" / "cli.py").is_file():
        print(f"error: no padic_mcf sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        ap.error(f"--record-reference needs --seed {DEFAULT_SEED} and --trace 0")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    meta = metadata(args.seed)
    for key, value in meta.items():
        print(f"meta {key} {value}")
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, results[name])
        if args.record_reference:
            REFERENCE.mkdir(exist_ok=True)
            path = REFERENCE / f"{name}.json"
            path.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": results[name]["digests"]},
                                       indent=1) + "\n")

    if args.out:
        for result in results.values():
            del result["digests"]
        args.out.write_text(json.dumps({"meta": meta, "workloads": results}, indent=2) + "\n")

    failed = sum(r["failed"] for r in results.values())
    prefix = len(names) > 1
    final = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {
            (f"{name}.{key}" if prefix else key): m
            for name, r in results.items()
            for key, m in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
