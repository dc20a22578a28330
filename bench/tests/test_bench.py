"""Tests of the benchmark itself: seeded inputs, output checks, the
truncated backend against the exact one, and the tracing wrappers.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import execute, judge  # noqa: E402
from padic_mcf import cli  # noqa: E402


def take(workload, seed, n, workdir):
    stream = workloads.WORKLOADS[workload](seed, workdir)
    return [next(stream) for _ in range(n)]


def run(req):
    out = io.StringIO()
    rc = cli.main(req.argv, out)
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", ["rational", "algebraic", "approx"])
def test_inputs_follow_the_seed_and_never_repeat(workload, tmp_path):
    first = [r.argv for r in take(workload, 3, 60, tmp_path)]
    assert first == [r.argv for r in take(workload, 3, 60, tmp_path)]
    assert first != [r.argv for r in take(workload, 4, 60, tmp_path)]
    assert len({tuple(a) for a in first}) == len(first)


def test_verify_files_follow_the_seed_and_never_repeat(tmp_path):
    def contents(seed, sub):
        (tmp_path / sub).mkdir()
        reqs = take("verify", seed, 12, tmp_path / sub)
        return [Path(r.argv[-1]).read_text() for r in reqs]

    first = contents(3, "a")
    assert first == contents(3, "b")
    assert first != contents(4, "c")
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("workload", ["rational", "algebraic", "approx", "verify"])
def test_outputs_pass_their_checks(workload, tmp_path):
    for req in take(workload, 5, 6, tmp_path):
        rc, stdout = run(req)
        rows, failure = judge(req, rc, stdout, "", None)
        assert failure is None and rows > 0


def test_checks_reject_a_changed_digit(tmp_path):
    expand, euclid = take("rational", 5, 2, tmp_path)
    rc, stdout = run(expand)
    lines = stdout.splitlines()
    digits = lines[2].split(", ")
    digits[-1] = str(Fraction(digits[-1]) + 1)
    lines[2] = ", ".join(digits)
    with pytest.raises(workloads.CheckFailed):
        expand.check(rc, "\n".join(lines) + "\n")
    rc, stdout = run(expand)
    expand.check(rc, stdout)
    d = json.loads(run(euclid)[1])
    first = d["quotients"]["a"][0]
    first[1] = str(Fraction(first[1]) + 1)
    with pytest.raises(workloads.CheckFailed):
        euclid.check(0, json.dumps(d))


def test_checks_reject_a_changed_determinant(tmp_path):
    req = next(r for r in take("verify", 5, 6, tmp_path) if r.argv[0] == "check")
    rc, stdout = run(req)
    req.check(rc, stdout)
    assert "det B_0 = 1 (" in stdout
    with pytest.raises(workloads.CheckFailed):
        req.check(rc, stdout.replace("det B_0 = 1 (", "det B_0 = -1 ("))


@pytest.mark.parametrize("seed", [1, 2])
def test_approx_rows_equal_the_exact_expansion(seed, tmp_path):
    """The truncated backend against the exact numberfield backend on the
    same field elements: the rows it emits must be the first exact rows."""
    reqs = [r for r in take("approx", seed, 12, tmp_path) if r.field[2] <= 500][:4]
    assert reqs
    for req in reqs:
        rc, stdout = run(req)
        assert rc == 2
        approx_rows = json.loads(stdout)["quotients"]["a"]
        argv = list(req.argv)
        i = argv.index("--backend")
        del argv[i : i + 4]  # --backend approx --precision P
        out = io.StringIO()
        assert cli.main(argv, out) == 2
        assert json.loads(out.getvalue())["quotients"]["a"] == approx_rows


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def padic_mcf_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "padic_mcf"]


def test_every_target_exists_and_every_import_site_is_bound():
    tracer = tracing.Tracer()
    assert tracer.missing == []
    sites = {(ns.__name__, key) for ns, key, _, _ in tracer._bindings}
    for site in [
        ("padic_mcf.padic", "browkin_s"),
        ("padic_mcf.jacobi_perron", "browkin_s"),
        ("padic_mcf.cli", "browkin_s"),
        ("padic_mcf.mcf", "valuation"),
        ("padic_mcf.numberfield", "valuation"),
        ("padic_mcf.cli", "evaluate_finite"),
        ("padic_mcf.jacobi_perron", "evaluate_finite"),
        ("padic_mcf.cli", "jp_expand"),
        ("padic_mcf", "jp_expand"),
        ("PAdicApprox", "__radd__"),
        ("AlgebraicNumber", "__rmul__"),
    ]:
        assert site in sites, site

    originals = {id(original) for _, _, original, _ in tracer._bindings}
    tracer.enable()
    try:
        for ns, key, _, wrapper in tracer._bindings:
            assert vars(ns)[key] is wrapper
        for mod in padic_mcf_modules():
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{key} is unwrapped"
    finally:
        tracer.disable()
    for ns, key, original, _ in tracer._bindings:
        assert vars(ns)[key] is original


def traced_metrics(workload, n, tmp_path):
    tracer = tracing.Tracer()
    reqs = take(workload, 7, n, tmp_path)
    for req in reqs:
        tracer.enable()
        try:
            _, rc, stdout, stderr = tracer.request(execute, cli.main, req)
        finally:
            tracer.disable()
        assert judge(req, rc, stdout, stderr, None)[1] is None
    return {k: v for k, (v, _) in tracer.metrics(n).items()}


# Which spans must be active (> 0 calls) on which workload; every other
# span in this table must have no calls there.
ACTIVE = {
    "rational": {"padic.browkin_s", "padic.valuation", "mcf.push", "mcf.evaluate_finite",
                 "jacobi_perron.expand"},
    "algebraic": {"padic.browkin_s", "padic.valuation", "padic.approx_digits",
                  "padic.approx_arith", "numberfield.alg_mul", "numberfield.alg_inverse",
                  "numberfield.field_init", "numberfield.padic_roots", "numberfield.embed",
                  "numberfield.refine", "jacobi_perron.expand"},
    "approx": {"padic.browkin_s", "padic.valuation", "padic.approx_digits",
               "padic.approx_arith", "numberfield.field_init", "numberfield.padic_roots",
               "numberfield.embed", "numberfield.refine", "jacobi_perron.expand"},
    "verify": {"padic.valuation", "mcf.push", "mcf.evaluate_finite",
               "mcf.determinant_check", "mcf.conditions"},
}


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_span_counts_match_the_layer_map(workload, tmp_path):
    n = 4 if workload == "rational" else 3
    metrics = traced_metrics(workload, n, tmp_path)
    every = set().union(*ACTIVE.values())
    for span in every:
        calls = metrics[f"{span}.calls"]
        if span in ACTIVE[workload]:
            assert calls > 0, span
        else:
            assert calls == 0, span
    assert metrics["cli.self_ms"] > 0
    if "jacobi_perron.expand" in ACTIVE[workload]:
        assert metrics["jacobi_perron.rows"] > 0
        assert metrics["jacobi_perron.self_us_per_row"] > 0
