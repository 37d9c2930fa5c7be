"""Command-line front end: point-cloud ingestion, solver invocation, and the
iteration-scaling benchmark harness.

Exit codes, mapped in ``main``: 0 success, 2 bad flags (flag sizes too
large for memory, ``bench``'s exact solver above its dimension, a gradcheck
smoother that overflows, an unwritable output), 3 input parse errors or an
input too large for memory, 4 solver errors, 5 gradcheck tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import core
from .baselines import WELZL_MAX_DIM, badoiu_clarkson, welzl_exact
from .errors import ContractViolationError, EmptyInputError, InputFormatError, SmoothmaxError
from .families import SmoothingParams
from .meb import MebConfig, PointCloud, solve_meb
from .testkit import (
    DISTRIBUTIONS,
    finite_diff_gradient,
    finite_diff_jacobian,
    random_point_cloud,
    RandomQuadraticFamily,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4
# Not 1, which is also the exit code of an uncaught Python exception.
EXIT_TOLERANCE = 5


def non_negative_int(text: str) -> int:
    """argparse type of every --seed: NumPy rejects a negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_points_csv(path: str) -> PointCloud:
    """One point per line, comma-separated coordinates.

    A single leading header line is skipped when its first token is not
    numeric; a UTF-8 byte-order mark is dropped before it.  All rows must
    share the same column count of finite values, and the cloud must fit
    ``PointCloud``'s overflow guard.
    The rows are converted in one ``np.loadtxt`` pass, which reads plain
    decimal tokens only: a digit-group underscore or a non-ASCII digit,
    which ``float`` would accept, is a parse error.  Only a failed
    conversion is scanned for its line and column.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise EmptyInputError(f"{path}: no points found")
    start = 0 if _is_number(lines[0].split(",")[0]) else 1
    rows = lines[start:]
    if not rows:
        raise EmptyInputError(f"{path}: no points found")
    width = rows[0].count(",") + 1
    points = _read_rows(rows, width)
    if points is None:
        # The file's own line numbers, blank lines included.
        linenos = [k for k, line in enumerate(text.splitlines(), start=1) if line.strip()]
        _raise_first_bad_row(path, rows, width, linenos[start:])
    try:
        return PointCloud(points)
    except ContractViolationError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def _read_rows(rows: list[str], width: int) -> np.ndarray | None:
    """The nonblank lines ``rows`` as a (len(rows), width) array of finite
    values, or None when any row has another column count or a token that
    does not convert to a finite number."""
    try:
        points = np.loadtxt(io.StringIO("\n".join(rows)), delimiter=",", comments=None,
                            ndmin=2)
    except ValueError:
        return None
    if points.shape != (len(rows), width) or not np.isfinite(points).all():
        return None
    return points


def _raise_first_bad_row(path: str, rows: list[str], width: int, linenos: list[int]) -> None:
    """Raise InputFormatError for the first row, in file order, that
    ``_read_rows`` rejects; ``linenos`` holds each row's line number in the
    file.  The row is found by halving, so the scan converts about as many
    rows as the failed pass did."""
    lo, hi = 0, len(rows)  # rows[:lo] read; a bad row lies in rows[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _read_rows(rows[lo:mid], width) is None:
            hi = mid
        else:
            lo = mid
    lineno = linenos[lo]
    tokens = rows[lo].split(",")
    if len(tokens) != width:
        raise InputFormatError(
            f"{path}: line {lineno} has {len(tokens)} columns, expected {width}",
            line=lineno,
        )
    for col, token in enumerate(tokens, start=1):
        if not token.strip() or _read_rows([token], 1) is None:
            raise InputFormatError(
                f"{path}: {token.strip()!r} at line {lineno}, column {col} is not a "
                f"finite decimal number",
                line=lineno,
                column=col,
            )
    # Each token reads alone, but the row does not: name the line only.
    raise InputFormatError(f"{path}: line {lineno} is not {width} finite numbers",
                           line=lineno)


def _emit(*writes: tuple[str, str | None]) -> None:
    """Write each ``(payload, output)`` pair, in order, to standard output
    (``output`` None or "-") or to the file ``output``, whose bytes are the
    payload's as given.  Every file is opened before any payload is written:
    when one cannot be opened, those opened before it are removed and
    nothing is written."""
    files = []
    try:
        for _, output in writes:
            files.append(None if output in (None, "-") else open(output, "w", newline=""))
    except OSError:
        for fh in filter(None, files):
            fh.close()
            os.remove(fh.name)
        raise
    for (payload, _), fh in zip(writes, files):
        if fh is None:
            sys.stdout.write(payload)
            if not payload.endswith("\n"):
                sys.stdout.write("\n")
        else:
            with fh:
                fh.write(payload)


def _solve_once(cloud: PointCloud, algorithm: str, epsilon: float | None, seed: int,
                progress=None, iterate_observer=None) -> dict:
    """Run one algorithm (smooth unless "exact" or "coreset"), observed by
    the smooth solver's hooks, and return the JSON fields of its
    ``MebResult``; a certified result adds how it stopped and its constants."""
    t0 = time.perf_counter()
    if algorithm == "exact":
        res = welzl_exact(cloud, seed=seed)
    elif algorithm == "coreset":
        res = badoiu_clarkson(cloud, epsilon)
    else:
        res = solve_meb(cloud, MebConfig(epsilon), progress=progress,
                        iterate_observer=iterate_observer)
    wall_ms = (time.perf_counter() - t0) * 1e3
    result = {
        "algorithm": algorithm,
        "n": cloud.n,
        "d": cloud.dim,
        "epsilon": epsilon,
        "center": [float(c) for c in res.center],
        "radius": float(res.radius),
        "iterations": int(res.iterations),
        "planned_iterations": int(res.planned_iterations),
        "wall_time_ms": wall_ms,
    }
    if res.certified_radius_lower is not None:
        rep = res.solve_report
        # A cloud solved without steps (one point, or all coincident) is exact.
        result["stop_reason"] = "certified" if rep is None else rep.stop_reason
        result["certified_radius_lower"] = res.certified_radius_lower
        result["certified_ratio"] = res.certified_ratio
        if rep is not None:
            result["constants"] = dict(s=rep.s, L_s=rep.L_s, U_s=rep.U_s,
                                       kappa_s=rep.kappa_s, G_s=rep.g_s)
    return result


def cmd_solve(args) -> int:
    if args.algorithm in ("smooth", "coreset") and args.epsilon is None:
        print("error: --epsilon is required for smooth and coreset", file=sys.stderr)
        return EXIT_USAGE
    if args.epsilon is not None and not 0 < args.epsilon <= 1:
        print("error: --epsilon must be in (0, 1]", file=sys.stderr)
        return EXIT_USAGE
    if args.trace and args.algorithm != "smooth":
        print("error: --trace needs --algorithm smooth", file=sys.stderr)
        return EXIT_USAGE
    if args.trace == "-" and args.output in (None, "-"):
        print("error: --trace - and the JSON result cannot both go to standard output; "
              "give --output a file", file=sys.stderr)
        return EXIT_USAGE
    # Both files are open at once while they are written, so one file for
    # both would hold the JSON over the start of the trace.
    if (args.trace not in (None, "-") and args.output not in (None, "-")
            and os.path.realpath(args.trace) == os.path.realpath(args.output)):
        print("error: --trace and --output name the same file", file=sys.stderr)
        return EXIT_USAGE
    try:
        cloud = parse_points_csv(args.input)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    trace = progress = None
    if args.trace:
        # Rows are written as the steps run, in memory until _emit opens files.
        trace = io.StringIO()
        writer = csv.writer(trace)
        writer.writerow(["t", "smooth_value_y", "grad_norm_y"])
        progress = lambda t, value, grad_norm: writer.writerow((t, value, grad_norm))
    result = _solve_once(cloud, args.algorithm, args.epsilon, args.seed, progress=progress)
    if args.verify and cloud.dim > WELZL_MAX_DIM:
        print(f"note: --verify computed no exact radius: the exact oracle takes "
              f"d <= {WELZL_MAX_DIM}, this cloud has d = {cloud.dim}", file=sys.stderr)
        result["exact_radius"] = result["radius_over_exact"] = None
    elif args.verify:
        # An exact solve is its own reference: same oracle, same seed.
        exact_radius = (result["radius"] if args.algorithm == "exact"
                        else welzl_exact(cloud, seed=args.seed).radius)
        result["exact_radius"] = float(exact_radius)
        result["radius_over_exact"] = result["radius"] / exact_radius if exact_radius else None
    writes = [] if trace is None else [(trace.getvalue(), args.trace)]
    writes.append((json.dumps(result, indent=2), args.output))
    _emit(*writes)
    return EXIT_OK


def _log_log_slope(rows: list[dict], key: str) -> float | None:
    """Least-squares slope of log(row[key]) against log(1/epsilon); None
    with fewer than two distinct epsilons or a count of 0."""
    inv_eps = [1.0 / row["epsilon"] for row in rows]
    counts = [row[key] for row in rows]
    if len(set(inv_eps)) < 2 or min(counts) <= 0:
        return None
    return float(np.polyfit(np.log(inv_eps), np.log(counts), 1)[0])


def cmd_bench(args) -> int:
    try:
        epsilons = [float(tok) for tok in args.epsilons.split(",") if tok]
        algorithms = [tok.strip() for tok in args.algorithms.split(",") if tok.strip()]
    except ValueError:
        print("error: --epsilons must be a comma-separated list of reals", file=sys.stderr)
        return EXIT_USAGE
    if not epsilons or not algorithms:
        print("error: --epsilons and --algorithms must be nonempty", file=sys.stderr)
        return EXIT_USAGE
    bad = [a for a in algorithms if a not in ("smooth", "coreset", "exact")]
    if bad or any(not 0 < e <= 1 for e in epsilons):
        print(f"error: bad algorithm/epsilon values: {bad or epsilons}", file=sys.stderr)
        return EXIT_USAGE
    if args.n < 1 or args.dim < 1:
        print("error: need --n >= 1 and --dim >= 1", file=sys.stderr)
        return EXIT_USAGE
    if "exact" in algorithms and args.dim > WELZL_MAX_DIM:
        print(f"error: --algorithms exact needs --dim <= {WELZL_MAX_DIM}, got {args.dim}",
              file=sys.stderr)
        return EXIT_USAGE

    exact_radius = None
    cloud = random_point_cloud(args.seed, args.n, args.dim, args.distribution)
    if cloud.dim <= WELZL_MAX_DIM:
        exact_radius = welzl_exact(cloud, seed=args.seed).radius

    rows = []
    for algorithm in algorithms:
        for eps in epsilons:
            first_hit: list[int] = []
            observer = None
            if algorithm == "smooth" and exact_radius is not None:
                target = (1.0 + eps) * exact_radius

                def observer(t, x, y, f):
                    # y_t, reached after t - 1 steps, is a candidate center
                    # (the best one is returned); f is its squared radius.
                    if not first_hit and math.sqrt(f) <= target:
                        first_hit.append(t - 1)
            result = _solve_once(cloud, algorithm, eps, args.seed, iterate_observer=observer)
            observed = first_hit[0] if first_hit else None
            over = result["radius"] / exact_radius if exact_radius else None
            rows.append({
                "algorithm": algorithm,
                "epsilon": eps,
                "iterations": result["iterations"],
                "planned_iterations": result["planned_iterations"],
                "observed_to_target": observed,
                "wall_time_ms": result["wall_time_ms"],
                "us_per_step": (result["wall_time_ms"] * 1e3 / result["iterations"]
                                if result["iterations"] else None),
                "radius": result["radius"],
                "radius_over_exact": over,
                "stop_reason": result.get("stop_reason"),
                "certified_radius_lower": result.get("certified_radius_lower"),
                "certified_ratio": result.get("certified_ratio"),
            })

    slopes = {}
    for algorithm in algorithms:
        own = [row for row in rows if row["algorithm"] == algorithm]
        slopes[algorithm] = {key: _log_log_slope(own, key)
                             for key in ("planned_iterations", "iterations")}
    report = {
        "instance": {
            "seed": args.seed,
            "n": args.n,
            "dim": args.dim,
            "distribution": args.distribution,
        },
        "exact_radius": exact_radius,
        "rows": rows,
        "slopes": slopes,
    }
    if args.format == "json":
        payload = json.dumps(report, indent=2)
    else:
        header = list(rows[0])
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                "" if row[key] is None else str(row[key]) for key in header
            ))
        payload = "\n".join(lines) + "\n"
    _emit((payload, args.output))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.trials < 1 or args.n < 1 or args.dim < 1 or not 0 < args.smoother < math.inf:
        print("error: need --trials >= 1, --n >= 1, --dim >= 1, finite --smoother > 0",
              file=sys.stderr)
        return EXIT_USAGE
    params = SmoothingParams(args.smoother)
    rng = np.random.default_rng(args.seed)
    worst_grad = 0.0
    worst_hess = 0.0
    worst_case = None
    for trial in range(args.trials):
        family = RandomQuadraticFamily.from_seed(args.seed + trial, args.n, args.dim)
        x = rng.standard_normal(args.dim)
        # s times the spread of the component values past the largest double
        # turns the pass's shifted values to -inf; main maps the error.
        with np.errstate(over="raise"):
            grad = core.smooth_gradient(family, params, x)
            fd_grad = finite_diff_gradient(lambda p: core.smooth_value(family, params, p), x)
            hess = core.smooth_hessian(family, params, x)
            fd_hess = finite_diff_jacobian(lambda p: core.smooth_gradient(family, params, p), x)
        grad_err = np.linalg.norm(grad - fd_grad) / max(np.linalg.norm(fd_grad), 1e-6)
        hess_err = np.linalg.norm(hess - fd_hess) / max(np.linalg.norm(fd_hess), 1e-6)
        if grad_err > worst_grad or hess_err > worst_hess or math.isnan(grad_err + hess_err):
            worst_case = (trial, x)
        # np.maximum keeps a nan, which the builtin max may drop.
        worst_grad = float(np.maximum(worst_grad, grad_err))
        worst_hess = float(np.maximum(worst_hess, hess_err))
    print(f"max relative gradient error: {worst_grad:.3e}")
    print(f"max relative hessian error:  {worst_hess:.3e}")
    if not (worst_grad <= 1e-5 and worst_hess <= 1e-4):  # a nan error fails
        trial, x = worst_case
        print(f"tolerance failure at trial {trial}, x={x.tolist()}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: ``parse_args`` returns a new namespace each time, and no caller
    changes the parser."""
    parser = argparse.ArgumentParser(
        prog="smoothmax",
        description="Smoothed min-max solver for minimal bounding spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one bounding-sphere instance")
    solve.add_argument("--input", required=True, help="CSV file, one point per line")
    solve.add_argument("--epsilon", type=float, default=None,
                       help="relative approximation slack (smooth/coreset)")
    solve.add_argument("--algorithm", required=True,
                       choices=["smooth", "coreset", "exact"])
    solve.add_argument("--output", default=None, help="output path (default stdout)")
    solve.add_argument("--seed", type=non_negative_int, default=0)
    solve.add_argument("--trace", default=None,
                       help="optional per-iteration CSV trace (smooth only); '-' for "
                            "standard output, which then needs --output FILE")
    solve.add_argument("--verify", action="store_true",
                       help="cross-check against the exact solver when d <= 12")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="iteration/time scaling comparison")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--dim", type=int, required=True)
    bench.add_argument("--distribution", default="gaussian", choices=DISTRIBUTIONS)
    bench.add_argument("--seed", type=non_negative_int, default=0)
    bench.add_argument("--epsilons", required=True,
                       help="comma-separated list, e.g. 0.2,0.1,0.05,0.025")
    bench.add_argument("--algorithms", required=True,
                       help="comma-separated subset of smooth,coreset,exact")
    bench.add_argument("--output", default=None)
    bench.add_argument("--format", default="json", choices=["json", "csv"])
    bench.set_defaults(func=cmd_bench)

    gradcheck = sub.add_parser("gradcheck",
                               help="verify smoothed derivatives against finite differences")
    gradcheck.add_argument("--seed", type=non_negative_int, default=0)
    gradcheck.add_argument("--n", type=int, default=5)
    gradcheck.add_argument("--dim", type=int, default=4)
    gradcheck.add_argument("--smoother", type=float, default=5.0)
    gradcheck.add_argument("--trials", type=int, default=20)
    gradcheck.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    """Run one command; map each failure it raises to one ``error:`` line
    and its exit code.  A program fault keeps its traceback (exit 1)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SmoothmaxError as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:
        if args.command == "solve":
            print(f"error: {args.input} needs more memory than is available",
                  file=sys.stderr)
            return EXIT_PARSE
        print(f"error: --n {args.n} and --dim {args.dim} need more memory than is available",
              file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError:  # only gradcheck raises on overflow, driven by its smoother
        print(f"error: --smoother {args.smoother:g} overflows the smoothed pass; "
              "choose a smaller one", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # cmd_solve maps a failed read; this is a failed write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
