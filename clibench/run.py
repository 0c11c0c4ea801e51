"""End-to-end benchmark of the coopbasis CLI.

Usage, from the repository root::

    python3 clibench/run.py --workload verify-p2 --seed 1 --seconds 25 --trace 0

Each CLI invocation is a child process (``python -m coopbasis.cli ...`` with
``PYTHONPATH=src``), driven by one closed-loop client: the next invocation
starts only when the previous one has exited.  Every output is checked
against the reference recorded in ``clibench/reference`` and against exact
identities (``check.py``).

``--trace 0`` measures the end-to-end metrics of ``END_TO_END``.  ``--trace 1``
alternates untraced passes with passes whose invocations run under
``tracer.py``, then times the kernels cold and warm (``kernels.py``), and
reports the per-layer metrics of ``PER_LAYER``.

Stdout ends with two lines: a JSON report (environment, sample counts, the
tail percentile, every per-layer value) and the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

from check import check_result
from child import CLI, IMPORT_ONLY, run_child
from record import reference_path
from workloads import GOLDEN_FILE, WORKLOADS, pass_queries, query_pool

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = (sys.executable, os.path.join(BENCH_DIR, "tracer.py"))
KERNELS = (sys.executable, os.path.join(BENCH_DIR, "kernels.py"))
TRACE_PREFIX = "CLIBENCH-TRACE "

INVOCATION_TIMEOUT_S = 60
SETUP_SAMPLES_PER_PASS = 3
MIN_SETUP_SAMPLES = 30
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Passes a run makes even when they overrun --seconds.  The tail percentile
# is chosen from the invocations these passes guarantee (5 x 8 = 40 on
# query-mix: p75), so it does not change with how many passes fit.
MIN_PASSES = {"query-mix": 5}

END_TO_END = {
    "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MiB",
    "setup_s": "s", "ok_ratio": "ratio",
}

SUBCOMMANDS = ("phi", "g", "expand", "check-integrality", "weight", "verify", "margolis")
LAYERS = ("poly", "semistable", "phi", "filtration", "margolis", "arith", "cli")
KERNEL_NAMES = ("poly_pow", "expand_in_g", "is_semistable_2local", "residues", "phi_family",
                "hazewinkel_oracle", "weight", "enumerate_m1", "margolis_homology")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


# Every per-layer value the traced run reports.
PER_LAYER_ALL = tuple(
    [
        "poly.mul.calls", "poly.mul.self_s", "poly.mul.coeff_products",
        "poly.mul.max_coeff_bits", "poly.pow.calls", "poly.pow.total_s",
        "poly.add.calls", "poly.add.self_s", "poly.parse.total_s", "poly.to_json.total_s",
        "semistable.expand_in_g.calls", "semistable.expand_in_g.self_s",
        "semistable.expand_in_g.total_s", "semistable.expand_in_g.max_degree",
        "semistable.g_poly.calls", "semistable.g_poly.misses", "semistable.g_poly.hit_ratio",
        "semistable.is_semistable_2local.total_s",
        "semistable.residues.calls", "semistable.residues.self_s", "semistable.residues.evals",
        "semistable.residues.over_budget", "semistable.residues.decided_ratio",
        "phi.phi_family.calls", "phi.phi_family.total_s", "phi.phi_family.useful_ratio",
        "phi.phi_family_oracle.total_s", "phi.hazewinkel.total_s",
        "phi.symbolic_mul.calls", "phi.symbolic_mul.self_s",
        "phi.phi_monomial.calls", "phi.phi_monomial.total_s",
        "filtration.weight.calls", "filtration.weight.self_s", "filtration.weight.total_s",
        "filtration.verify_congruences.total_s",
        "filtration.expand_in_phi.total_s", "filtration.expand_in_phi.steps",
        "margolis.enumerate_m1.calls", "margolis.enumerate_m1.self_s",
        "margolis.enumerate_m1.basis_max", "margolis.enumerate_m1.basis_total",
        "margolis.matrix_cells", "margolis.degree_slice.calls", "margolis.degree_slice.self_s",
        "margolis.margolis_homology.total_s", "margolis.q_square_is_zero.total_s",
        "margolis.homologous.total_s", "margolis.apply_q.calls",
        "arith.nu_p.calls", "arith.nu_p.self_s",
    ]
    + [f"cli.{sub}.total_s" for sub in SUBCOMMANDS]
    + [f"{layer}.self_s" for layer in LAYERS]
    + [f"{layer}.self_share" for layer in LAYERS]
    + [f"kernel.{k}.{state}_s" for k in KERNEL_NAMES for state in ("cold", "warm")]
    + ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
)
# Values that read 0 (or 0/0, printed as null) on every run of some
# workload, because it never enters the span: the residue tester at p = 2,
# expand_in_g, g_poly and the weight calculus at p = 3, expand_in_phi and the
# parser outside query-mix, the phi oracle and Margolis homology checks outside
# verify, and the subcommands a workload does not run.  They go to the report
# only; the result line holds the values that are nonzero on all four
# workloads.  The kernel timings still cover every one of these modules.
REPORT_ONLY = frozenset(
    [
        "poly.parse.total_s", "poly.to_json.total_s",
        "semistable.expand_in_g.calls", "semistable.expand_in_g.self_s",
        "semistable.expand_in_g.total_s", "semistable.expand_in_g.max_degree",
        "semistable.g_poly.calls", "semistable.g_poly.misses", "semistable.g_poly.hit_ratio",
        "semistable.is_semistable_2local.total_s",
        "semistable.residues.calls", "semistable.residues.self_s", "semistable.residues.evals",
        "semistable.residues.over_budget", "semistable.residues.decided_ratio",
        "phi.phi_family_oracle.total_s", "phi.hazewinkel.total_s",
        "phi.symbolic_mul.calls", "phi.symbolic_mul.self_s",
        "filtration.weight.calls", "filtration.weight.self_s", "filtration.weight.total_s",
        "filtration.verify_congruences.total_s",
        "filtration.expand_in_phi.total_s", "filtration.expand_in_phi.steps",
        "filtration.self_s", "filtration.self_share",
        "margolis.q_square_is_zero.total_s", "margolis.homologous.total_s",
    ]
    + [f"cli.{sub}.total_s" for sub in SUBCOMMANDS]
)
PER_LAYER = {name: _unit(name) for name in PER_LAYER_ALL if name not in REPORT_ONLY}


def _rank(percentile: float, n: int) -> int:
    """The nearest-rank position (1-based) of ``percentile`` among ``n`` samples."""
    return max(1, math.ceil(Fraction(str(percentile)) * n / 100))


def tail_percentile(n: int) -> float:
    """The highest of ``TAIL_PERCENTILES`` with at least ten of ``n`` samples beyond it.

    With too few samples for any of them the tail is the largest sample,
    percentile 100.
    """
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= 10:
            return q
    return 100.0


def nearest_rank(samples: list[float], percentile: float) -> float:
    return sorted(samples)[_rank(percentile, len(samples)) - 1]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    try:
        with open(".git/HEAD", encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "loadavg_start": os.getloadavg()[0],
    }


class Client:
    """The closed-loop client: runs invocations one at a time and checks each."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pool = query_pool() if workload == "query-mix" else {}
        with open(reference_path(workload), encoding="utf-8") as handle:
            self.references = json.load(handle)
        self.golden = None
        if workload == "query-mix":
            with open(GOLDEN_FILE, encoding="utf-8") as handle:
                self.golden = json.load(handle)
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []

    def run_pass(self, index: int, traced: bool = False) -> dict:
        """One pass of the workload: wall time, latencies, peak RSS, and trace sums."""
        launcher = TRACED_CLI if traced else CLI
        queries = pass_queries(self.workload, self.seed, index, self.pool)
        start = time.perf_counter()
        results = [run_child((*launcher, *query.args), INVOCATION_TIMEOUT_S)
                   for query in queries]
        wall = time.perf_counter() - start
        # Checks run after the pass clock has stopped, so wall_s is the CLI's alone.
        sums, maxima = {}, {}
        for query, result in zip(queries, results):
            self.attempted += 1
            reason = ("timed out" if result.timed_out else
                      check_result(query, result.exit_code, result.stdout,
                                   self.references[query.key], self.golden))
            if reason:
                self.failures.append(f"{' '.join(query.args)}: {reason}")
            if traced:
                trace = _trace_of(result.stderr)
                for name, value in trace["sum"].items():
                    sums[name] = sums.get(name, 0) + value
                for name, value in trace["max"].items():
                    maxima[name] = max(maxima.get(name, 0), value)
        return {"wall": wall, "latencies": [r.seconds for r in results],
                "rss": max(r.maxrss_mb for r in results), "sums": sums, "maxima": maxima}

    def sample_setup(self, count: int) -> None:
        for _ in range(count):
            result = run_child(IMPORT_ONLY, INVOCATION_TIMEOUT_S)
            if result.exit_code != 0:
                raise RuntimeError("import coopbasis.cli failed")
            self.setup_samples.append(result.seconds)


def _trace_of(stderr: bytes) -> dict:
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return {"sum": {}, "max": {}}


def measure(client: Client, seconds: float) -> tuple[dict, dict]:
    """Passes, each followed by set-up samples, until the next would overrun ``seconds``.

    At least ``MIN_PASSES`` passes are made, whatever ``seconds`` is.
    """
    min_passes = MIN_PASSES.get(client.workload, 1)
    passes, rounds = [], []
    start = time.perf_counter()
    while len(passes) < min_passes or (time.perf_counter() - start
                                       + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        passes.append(client.run_pass(len(passes)))
        client.sample_setup(SETUP_SAMPLES_PER_PASS)
        rounds.append(time.perf_counter() - round_start)
    client.sample_setup(max(0, MIN_SETUP_SAMPLES - len(client.setup_samples)))
    latencies = [t for p in passes for t in p["latencies"]]
    percentile = tail_percentile(min_passes * len(passes[0]["latencies"]))
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": nearest_rank(latencies, percentile),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
        "setup_s": statistics.median(client.setup_samples),
        "ok_ratio": (client.attempted - len(client.failures)) / client.attempted,
    }
    detail = {
        "passes": len(passes),
        "wall_s_samples": [p["wall"] for p in passes],
        "invocations": len(latencies),
        "op_tail_percentile": percentile,
        "setup_samples": len(client.setup_samples),
        "fail_ratio": len(client.failures) / client.attempted,
    }
    return metrics, detail


def _layer_metrics(sums: dict, maxima: dict) -> dict:
    """Per-layer values of one traced pass, from the summed span records."""
    def get(name: str) -> float:
        return sums.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float | None:
        return numerator / denominator if denominator else None

    values = {name: maxima.get(name, get(name)) for name in PER_LAYER_ALL}
    hits, misses = get("semistable.g_poly.hits"), get("semistable.g_poly.misses")
    residue_calls = get("semistable.residues.calls")
    values["semistable.g_poly.hit_ratio"] = ratio(hits, hits + misses)
    values["semistable.residues.decided_ratio"] = ratio(
        residue_calls - get("semistable.residues.over_budget"), residue_calls)
    values["phi.phi_family.useful_ratio"] = ratio(get("phi.phi_family.distinct"),
                                                  get("phi.phi_family.calls"))
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in sums.items():
        if name.endswith(".self_s"):
            layer_self[name.split(".", 1)[0]] += value
    traced_total = get("cli.main.total_s")
    for layer, value in layer_self.items():
        values[f"{layer}.self_s"] = value
        values[f"{layer}.self_share"] = ratio(value, traced_total)
    return values


def _median_or_none(values: list[float | None]) -> float | None:
    """The median of the defined values; None (a 0/0 ratio) when there are none."""
    defined = [v for v in values if v is not None]
    return statistics.median(defined) if defined else None


def measure_traced(client: Client, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes for ``seconds``, then time the kernels."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + untraced[-1]["wall"]
                         + traced[-1]["wall"] <= seconds):
        untraced.append(client.run_pass(len(untraced)))
        traced.append(client.run_pass(len(traced), traced=True))
    per_pass = [_layer_metrics(p["sums"], p["maxima"]) for p in traced]
    metrics = {name: _median_or_none([v[name] for v in per_pass])
               for name in PER_LAYER_ALL if not name.startswith(("kernel.", "trace."))}
    kernels = run_child(KERNELS, 10 * INVOCATION_TIMEOUT_S)
    if kernels.exit_code != 0:
        raise RuntimeError("kernel timing failed: " + kernels.stderr.decode()[-500:])
    metrics.update(json.loads(kernels.stdout))
    metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p["wall"] for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, {"traced_passes": len(traced), "untraced_passes": len(untraced)}


def preflight() -> str | None:
    """Why the benchmark cannot run here, or None.  Also compiles the package once."""
    if not os.path.isdir("src/coopbasis"):
        return "src/coopbasis not found: run from the root of a coopbasis checkout"
    if run_child(IMPORT_ONLY, INVOCATION_TIMEOUT_S).exit_code != 0:
        return "import coopbasis.cli failed"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = environment()
    client = Client(args.workload, args.seed)
    if args.trace:
        values, detail = measure_traced(client, args.seconds)
        reported = PER_LAYER
    else:
        values, detail = measure(client, args.seconds)
        reported = END_TO_END
    failed = len(client.failures)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, **detail, "failures": client.failures[:10]}
    if args.trace:
        report["per_layer_all"] = values
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
