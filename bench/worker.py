"""One benchmark worker process: measure set-up, then run requests.

run.py starts this file in a fresh interpreter for every sample, one
process at a time:

    python3 bench/worker.py --workload W --seed N --setup-only
    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1

The worker imports `padic_mcf` from the `src/` directory next to `bench/`
and prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 1

MIN_REQUESTS = 100  # so the 90th percentile has at least ten samples beyond it
MIN_TRACED = 20
LOOP_CAP_S = 140.0  # keeps the whole command under three minutes
DIGEST_REQUESTS = 100  # every run makes at least this many requests

# The speed of a shared host drifts by 20% and more within seconds, and a
# CPU-time clock drifts with it.  So every time below is scaled to a
# reference speed: a fixed kernel of the program's kinds of arithmetic is
# timed before each request (and repeatedly around set-up), and a time t is
# reported as t * (KERNEL_REF_S / k) ** KERNEL_EXPONENT, where k is the
# median kernel time of the nearest samples.  Under that drift the
# program's times move by about three quarters as much as the kernel's (on
# all four workloads, measured on a 2-vCPU shared host), so the exponent
# removes most of the drift without over-correcting.
KERNEL_REF_S = 0.0015
KERNEL_EXPONENT = 0.75
KERNEL_WINDOW = 12  # requests on each side whose kernel times are pooled
SETUP_KERNELS = 9  # before and again after the set-up


_KERNEL_INT = 3**1200 + 12345


def speed_kernel() -> float:
    """Seconds for a fixed piece of the two kinds of work the program does:
    small Fraction arithmetic and digit extraction from a large integer."""
    t0 = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 200):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i)
    r = _KERNEL_INT
    for _ in range(200):
        r = (r - r % 7) // 7
    return time.perf_counter() - t0


def scale_to_reference(times, kernels):
    """Each time scaled by the kernel median of its neighbourhood."""
    out = []
    for i, t in enumerate(times):
        near = kernels[max(0, i - KERNEL_WINDOW) : i + KERNEL_WINDOW + 1]
        out.append(t * (KERNEL_REF_S / statistics.median(near)) ** KERNEL_EXPONENT)
    return out


def measure_setup(workload: str, seed: int):
    """Seconds to import the CLI and build the first request's field and
    embedding, as a CLI invocation pays them, unscaled and scaled; also
    returns cli.main."""
    field = workloads.first_field(workload, seed)
    sys.path.insert(0, str(SRC))
    kernels = [speed_kernel() for _ in range(SETUP_KERNELS)]
    t0 = time.perf_counter()
    from padic_mcf import cli
    from padic_mcf.numberfield import NumberField, PAdicEmbedding

    if field is not None:
        coeffs, p, precision = field
        PAdicEmbedding.create(NumberField(coeffs), p, precision)
    setup_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"padic_mcf was imported from {cli.__file__}, not from {SRC}")
    kernels += [speed_kernel() for _ in range(SETUP_KERNELS)]
    scale = (KERNEL_REF_S / statistics.median(kernels)) ** KERNEL_EXPONENT
    return setup_s, setup_s * scale, cli.main


def execute(main, req):
    """Run one request; returns (seconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(req.argv, out)
        except Exception as exc:  # a raising request is a failed request
            seconds = time.perf_counter() - t0
            return seconds, None, "", f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return seconds, rc, out.getvalue(), err.getvalue()


def digest(rc, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def judge(req, rc, stdout: str, stderr: str, reference: str | None):
    """(rows, failure message or None) for one request's outcome."""
    if rc not in req.expected_rc:
        return 0, f"exit code {rc}, expected {req.expected_rc}: {stderr.strip()[:200]}"
    try:
        rows = req.check(rc, stdout)
    except workloads.CheckFailed as exc:
        return 0, str(exc)
    except Exception as exc:  # malformed output that the check could not parse
        return 0, f"check raised {type(exc).__name__}: {exc}"
    if reference is not None and digest(rc, stdout) != reference:
        return 0, f"output differs from the reference recorded for seed {DEFAULT_SEED}"
    return rows, None


class Run:
    """Outcome counts and output digests of one worker's requests."""

    def __init__(self, workload: str, seed: int):
        self.references = []
        path = REFERENCE / f"{workload}.json"
        if seed == DEFAULT_SEED and path.is_file():
            self.references = json.loads(path.read_text(encoding="utf-8"))["digests"]
        self.requests = 0
        self.attempted = 0
        self.failures = []
        self.digests = []

    def record(self, req, rc, stdout, stderr):
        """Judge one execution of the current request; returns its rows."""
        i = self.requests
        reference = self.references[i] if i < len(self.references) else None
        rows, failure = judge(req, rc, stdout, stderr, reference)
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"request {i} {req.argv[:3]}: {failure}")
        return rows

    def finish_request(self, rc, stdout):
        if self.requests < DIGEST_REQUESTS:
            self.digests.append(digest(rc, stdout))
        self.requests += 1

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "digest": hashlib.sha256("".join(self.digests).encode()).hexdigest(),
            "digest_requests": len(self.digests),
            "digests": self.digests,
        }


def run_untraced(main, stream, run: Run, seconds: float) -> dict:
    times, kernels, rows = [], [], 0
    req = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (
            elapsed >= seconds and run.requests >= MIN_REQUESTS and req.ends_round
        ):
            break
        req = next(stream)
        kernels.append(speed_kernel())
        dt, rc, stdout, stderr = execute(main, req)
        times.append(dt)
        rows += run.record(req, rc, stdout, stderr)
        run.finish_request(rc, stdout)
    scaled = scale_to_reference(times, kernels)
    return {
        "request_p50_ms": 1e3 * statistics.median(scaled),
        "request_p90_ms": 1e3 * statistics.quantiles(scaled, n=10, method="inclusive")[8],
        "rows_per_s": rows / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unscaled": {
            "request_p50_ms": 1e3 * statistics.median(times),
            "request_p90_ms": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
            "rows_per_s": rows / sum(times),
            "kernel_ms": 1e3 * statistics.median(kernels),
        },
    }


def run_traced(main, stream, run: Run, seconds: float) -> dict:
    """Every request runs twice, untraced and traced, in alternating order;
    the two outputs must be identical."""
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and run.requests >= MIN_TRACED):
            break
        req = next(stream)
        outputs = {}
        for traced in (False, True) if run.requests % 2 == 0 else (True, False):
            if traced:
                tracer.enable()
                try:
                    dt, rc, stdout, stderr = tracer.request(execute, main, req)
                finally:
                    tracer.disable()
                traced_s += dt
            else:
                dt, rc, stdout, stderr = execute(main, req)
                untraced_s += dt
            run.record(req, rc, stdout, stderr)
            outputs[traced] = (rc, stdout)
        if outputs[True] != outputs[False]:
            run.failures.append(f"request {run.requests}: tracing changed the output")
        run.finish_request(*outputs[False])
    per_layer = tracer.metrics(run.requests)
    per_layer["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    return {"per_layer": per_layer, "missing_targets": tracer.missing}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup_unscaled_s, setup_s, cli_main = measure_setup(args.workload, args.seed)
    result = {"setup_s": setup_s, "setup_unscaled_s": setup_unscaled_s}
    if not args.setup_only:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
            stream = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
            run = Run(args.workload, args.seed)
            loop = run_traced if args.trace else run_untraced
            result.update(loop(cli_main, stream, run, args.seconds))
            result.update(run.summary())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
