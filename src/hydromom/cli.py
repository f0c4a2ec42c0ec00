"""Command-line front end.

Subcommands: table (exact expectation-value grid), expect (single value),
verify (identity suites), asympt (asymptotic estimates), shift (reciprocity
energy shifts), wavefn (wavefunction sampling).  Output is CSV (UTF-8, LF,
header row) or JSON.  Exit codes: 0 success / all identities pass, 1 identity
failure, 2 usage error, 3 numerical non-convergence or arithmetic failure
(overflow, division by zero).  A reader that closes the pipe early (``| head``)
has taken what it wanted, so the command exits 0 without a traceback.

Only the exact layer is imported at the top, so ``table``, ``asympt``,
``shift`` and ``expect --f invp`` load no numpy; the moments ``expect --f
one|p|p2``, ``verify`` and ``wavefn`` import the float layer inside their
handlers.  Where numpy cannot be imported, those three print one ``error:``
line naming it and exit 2, as for any other unmet precondition of the
command line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .asympt import lambda_limit, near_circular_asymptotic, small_ell_asymptotic, swave_asymptotic
from .exact import QuantumState, _pair_float, _pair_text, format_exact
from .invp import (
    _family_pairs,
    inv_p,
    inv_p_exact,
    inv_p_series_compact,
    inv_p_series_connection,
    inv_p_swave,
    inv_p_circular,
    inv_p_near_circular,
    reconstruction_residual,
    _series_connection_unreduced,
)
from .physics import PhysicalScales, energy_shift, inv_p_physical

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _emit(rows: list[dict], fmt: str, stream) -> None:
    """Rows share a key order; CSV gets a header row, JSON an object array.

    The JSON is byte for byte ``json.dumps(rows, indent=2)``, but it comes
    from the C encoder, which CPython uses only without ``indent``.  Rows are
    non-empty flat records, so with ",\n    " as the item separator only the
    record boundaries "},\n    {" and the array's ends need re-indenting, and
    every newline in the text is a separator: the encoder escapes the ones
    inside strings.
    """
    if fmt == "json":
        text = json.dumps(rows, separators=(",\n    ", ": "))
        body = text[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
        stream.write("[\n  {\n    " + body + "\n  }\n]\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows(row.values() for row in rows)


def _table_cells(n: int, units: str) -> list[tuple[int, int, int]]:
    """The l-family at n as (num, den, pi_power) in the table's units, lowest
    terms with den > 0, straight from ``_family_pairs``.

    A pair (p, q) is pi <hbar kappa/P>, so the value is (p/q) pi^-1 and 2 pi
    times it is 2p/q: (2p, q) when q is odd and (p, q/2) when q is even, both
    already in lowest terms because p and q are coprime.
    """
    pairs = _family_pairs(n)
    if units != "table":
        return [(p, q, -1) for p, q in pairs]
    return [(p, q // 2, 0) if q % 2 == 0 else (2 * p, q, 0) for p, q in pairs]


def table_grid_csv(nmax: int, units: str = "table") -> str:
    """The exact value grid as CSV text: rows l, columns n, '-' off-triangle.

    Each column is one l-family; the rows are read across them.
    """
    columns = [
        [_pair_text(*cell) for cell in _table_cells(n, units)] + ["-"] * (nmax - n) for n in range(1, nmax + 1)
    ]
    lines = [",".join(["l/n"] + [str(n) for n in range(1, nmax + 1)])]
    lines += [",".join([str(l)] + [column[l] for column in columns]) for l in range(nmax)]
    return "\n".join(lines) + "\n"


def table_records(nmax: int, units: str) -> list[dict]:
    """The long format: one record per state, exact and float values."""
    return [
        {
            "n": n,
            "l": l,
            "value_exact": _pair_text(*cell),
            "value_float": repr(_pair_float(*cell)),
            "method": "recurrence",
        }
        for n in range(1, nmax + 1)
        for l, cell in enumerate(_table_cells(n, units))
    ]


def _require_nmax(nmax: int) -> None:
    if nmax < 1:
        raise ValueError(f"--nmax must be >= 1, got {nmax}")


def cmd_table(args) -> int:
    _require_nmax(args.nmax)
    if args.format == "json" or args.float:
        _emit(table_records(args.nmax, args.units), args.format, sys.stdout)
    else:
        sys.stdout.write(table_grid_csv(args.nmax, args.units))
    return EXIT_OK


_MOMENT_POWERS = {"one": 0.0, "invp": -1.0, "p": 1.0, "p2": 2.0}


def cmd_expect(args) -> int:
    state = QuantumState(args.n, args.l)
    scales = PhysicalScales(a=args.bohr_radius, hbar=args.hbar)
    if args.f != "invp" and args.units == "physical":
        raise ValueError(f"--units physical applies to --f invp only; --f {args.f} is reported dimensionless")
    if args.units != "physical" and (args.bohr_radius, args.hbar) != (1.0, 1.0):
        raise ValueError(
            f"--bohr-radius and --hbar apply to --units physical only; --units {args.units} is dimensionless"
        )
    if args.f == "invp":
        result = inv_p(state)
        # table is <2 pi hbar kappa/P>, dimensionless <hbar kappa/P>, physical <1/P> (float only, with the scales);
        # err_estimate, the rounding bound of inv_p's float, is scaled alike by value / result.value.
        converted = {"table": result.exact.times_two_pi(), "dimensionless": result.exact}.get(args.units)
        value = converted.to_float() if converted else inv_p_physical(state, scales)
        value_exact = format_exact(converted) if converted else ""
        err = result.err_estimate * (value / result.value)
    else:
        from .quadrature import power_moment

        result = power_moment(state, _MOMENT_POWERS[args.f])
        value, err = result.value, result.err_estimate
        value_exact = "1/1" if args.f == "one" else ""
    row = {
        "n": args.n,
        "l": args.l,
        "value_exact": value_exact,
        "value_float": repr(value),
        "method": result.method,
        "err_estimate": repr(err),
    }
    _emit([row], args.format, sys.stdout)
    return EXIT_OK


def _verify_suites(nmax: int, tol: float, inject: tuple[int, int] | None):
    """Yield (status, name, detail) per identity; status in PASS/FAIL/KNOWN-ERRATUM."""
    from .quadrature import _double_integral, _theta_form, _x_moments, swave_kernel_integral
    from .sumrules import alternating_rhs_misprinted, sum_rule_alternating, sum_rule_even
    from .wavefun import momentum_norm_exact

    # Dual series, unreduced route, recurrence family and closed-form
    # specializations, exactly.  The compact values of n <= 12 are kept as
    # the quadrature suite's references.
    exact_ok, family_ok, spec_ok, located = True, True, True, None
    references = []
    for n in range(1, nmax + 1):
        compact = []
        for l in range(n):
            a = inv_p_series_connection(n, l)
            b = inv_p_series_compact(n, l)
            c = _series_connection_unreduced(n, l)
            compact.append(b)  # unperturbed: --inject-error targets the dual-series check only
            if inject is not None and (n, l) == inject:
                b = b.scale(Fraction(1000001, 1000000))
            if not (a == b == c):
                exact_ok = False
                located = located or (n, l)
        swave = inv_p_swave(n)
        # The family's lowest-terms pairs are pi times each value, so they meet
        # the compact values' ratios with no Fraction rebuilt per l.  The seed
        # is the circular form; near-circular (l = n-2) and l = 0 are witnesses.
        pairs = _family_pairs(n)
        family_ok = family_ok and pairs == [v.coefficient.as_integer_ratio() for v in compact]
        family_ok = family_ok and pairs[0] == swave.coefficient.as_integer_ratio()
        spec_ok = spec_ok and swave == compact[0] and inv_p_circular(n) == compact[n - 1]
        spec_ok = spec_ok and (n < 2 or inv_p_near_circular(n) == compact[n - 2])
        if n <= 12:
            references.append([v.to_float() for v in compact])
    yield (
        "PASS" if exact_ok else "FAIL",
        "dual-series-equivalence",
        f"n <= {nmax}, all l" + (f"; first mismatch at (n={located[0]}, l={located[1]})" if located else ""),
    )
    yield (
        "PASS" if family_ok else "FAIL",
        "recurrence-family",
        f"n <= {nmax}, all l equal the compact series; l = 0 end equals the S-wave closed form",
    )
    yield ("PASS" if spec_ok else "FAIL", "closed-form-specialization", f"n <= {nmax}")

    # Normalization: exact identity plus the folded-weight quadrature, one
    # l-family per n.
    norm_ok = all(
        momentum_norm_exact(QuantumState(n, l)) == 1 for n in range(1, nmax + 1) for l in range(n)
    )
    families = {n: [QuantumState(n, l) for l in range(n)] for n in range(1, min(nmax, 20) + 1)}
    worst_norm = max(abs(result.value - 1.0) for states in families.values() for result in _x_moments(states, 0.0))
    norm_ok = norm_ok and worst_norm < 1e-10
    yield ("PASS" if norm_ok else "FAIL", "normalization", f"exact and quadrature (worst {worst_norm:.2e})")

    # Quadrature agreement of the x form, the theta form and the double
    # integral against the exact values, one l-family per n.
    worst = max(
        abs(result.value / ref - 1.0)
        for (n, states), family in zip(families.items(), references)
        for route in (_x_moments(states, -1.0), _theta_form(states, lambda p: 1.0 / p), _double_integral(n, range(n)))
        for result, ref in zip(route, family)
    )
    yield ("PASS" if worst < tol else "FAIL", "quadrature-agreement", f"worst rel {worst:.2e} (tol {tol:.0e})")

    # Sum rules, exactly.
    plain_ok = all(lhs == rhs for lhs, rhs in map(sum_rule_even, range(1, nmax + 1)))
    alt_ok = all(lhs == rhs for lhs, rhs in map(sum_rule_alternating, range(1, nmax + 1)))
    yield ("PASS" if plain_ok else "FAIL", "sum-rule-plain", f"exact, n <= {nmax}")
    yield ("PASS" if alt_ok else "FAIL", "sum-rule-alternating", f"exact, n <= {nmax}")

    # Connection-coefficient reconstruction, decided exactly.
    worst_rec = max(
        reconstruction_residual(n, l) for n in range(1, min(nmax, 12) + 1) for l in range(n)
    )
    yield ("PASS" if worst_rec < 1e-12 else "FAIL", "weight-shift-reconstruction", f"max residual {worst_rec:.2e}")

    # Contiguity step between the two S-wave kernel integrals.
    worst_step = 0.0
    for n in range(1, min(nmax, 10) + 1):
        direct = swave_kernel_integral(1, n) - swave_kernel_integral(0, n)
        worst_step = max(worst_step, abs(direct + n * n / (4.0 * n * n - 1.0)))
    yield ("PASS" if worst_step < 1e-10 else "FAIL", "kernel-contiguity-step", f"worst {worst_step:.2e}")

    # Documented misprints (reported, never failed).
    misprint = alternating_rhs_misprinted(1)
    yield (
        "KNOWN-ERRATUM",
        "alternating-sum-misprint",
        f"full-argument digamma variant gives {format_exact(misprint[0])} + {format_exact(misprint[1])} "
        f"= 2 - 4/(3 pi) at n=1; the half-argument form matches the exact 16/(3 pi)",
    )
    yield (
        "KNOWN-ERRATUM",
        "kernel-contiguity-misprint",
        "the +4n^2/(4n^2-1) variant of the contiguity step contradicts the defining integral; "
        "the consistent value is -n^2/(4n^2-1)",
    )
    yield (
        "KNOWN-ERRATUM",
        "near-circular-prefactor-misprint",
        "the physical-units circular asymptote must carry the factor n (2 pi a n/h); "
        "the dimensionless form 1 + 3/(4n) is the internally consistent one",
    )
    yield (
        "KNOWN-ERRATUM",
        "table-entry-misprint",
        "published grids sometimes carry 299088/24255 at (n=5, l=2); both series and the "
        "plain sum rule at n=5 require 299008/24255",
    )
    yield (
        "KNOWN-ERRATUM",
        "gamma-ratio-misprint",
        "the large-z ratio correction coefficient is (a-b)(a+b-1)/2; the (a+b+1) variant "
        "fails the exact check Gamma(z+2)/Gamma(z) = z(z+1)",
    )


def cmd_verify(args) -> int:
    _require_nmax(args.nmax)
    if not 0 < args.tol < math.inf:  # also rejects NaN
        raise ValueError(f"--tol must be finite and positive, got --tol {args.tol!r}")
    inject = None
    if args.inject_error:
        try:
            n, l = map(int, args.inject_error.split(","))
        except ValueError:
            raise ValueError(f"--inject-error takes N,L (two integers), got {args.inject_error!r}") from None
        target = QuantumState(n, l)
        if target.n > args.nmax:
            raise ValueError(f"--inject-error {args.inject_error} lies outside --nmax {args.nmax}")
        inject = (target.n, target.l)
    failed = False
    for status, name, detail in _verify_suites(args.nmax, args.tol, inject):
        print(f"{status} {name}: {detail}")
        failed = failed or status == "FAIL"
    return EXIT_IDENTITY_FAILURE if failed else EXIT_OK


_ASYMPT_DEFAULT_N = {"swave": (1, 2, 4, 8, 16, 32), "small-ell": (50, 100, 200), "near-circular": (16, 32, 64)}


def cmd_asympt(args) -> int:
    rows = []
    if args.regime == "lambda":
        # lambda_limit checks the raw value before it snaps it like this.
        limit, err = lambda_limit(args.lam, args.n_max)
        lam = Fraction(args.lam).limit_denominator(64)
        # Descriptive only: the lambda dependence looks logarithmic, so report
        # the slope of limit against log(1/lambda) without asserting a law.
        slope = ""
        if lam != Fraction(1, 2):
            half, _ = lambda_limit(Fraction(1, 2), args.n_max)
            slope = repr(-(limit - half) / (math.log(2.0) - math.log(1.0 / float(lam))))
        rows.append(
            {"lambda": str(lam), "estimate": repr(limit), "err_estimate": repr(err), "log_slope_vs_half": slope}
        )
    else:
        for n in args.n or _ASYMPT_DEFAULT_N[args.regime]:
            if args.regime == "swave":
                keys, exact, est = {}, inv_p_swave(n), swave_asymptotic(n)
            elif args.regime == "small-ell":
                keys, exact = {"l": args.l}, inv_p_exact(n, args.l)[0]
                est = small_ell_asymptotic(n, args.l)
            else:
                keys, exact = {"delta": args.delta}, inv_p_exact(n, n - 1 - args.delta)[0]
                est = near_circular_asymptotic(n, args.delta)
            ref = exact.to_float()
            rows.append(
                {"n": n, **keys, "estimate": repr(est), "exact": repr(ref), "rel_error": repr(abs(est / ref - 1.0))}
            )
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def cmd_shift(args) -> int:
    state = QuantumState(args.n, args.l)
    scales = PhysicalScales(a=args.bohr_radius, hbar=args.hbar, alpha=args.alpha, b=args.b)
    rows = [
        {
            "n": args.n,
            "l": args.l,
            "inv_p": repr(inv_p_physical(state, scales)),
            "energy_shift": repr(energy_shift(state, scales)),
        }
    ]
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def cmd_wavefn(args) -> int:
    import numpy as np

    from .wavefun import momentum_radial, position_radial

    state = QuantumState(args.n, args.l)
    kappa = PhysicalScales(a=args.bohr_radius).kappa(args.n)
    lo, hi = args.min, args.max
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not 0 <= lo <= hi < math.inf:  # also rejects NaN
        raise ValueError(f"the grid needs finite 0 <= --min <= --max, got --min {lo!r} --max {hi!r}")
    if args.grid == "log":
        if hi <= 0:
            raise ValueError(f"--grid log needs --max > 0, got --max {hi!r}")
        if lo <= 0:
            lo = min(1e-3, hi)
        grid = np.geomspace(lo, hi, args.points)
    else:
        grid = np.linspace(lo, hi, args.points)
    if args.space == "momentum":
        amplitude, grid_out = momentum_radial, grid * kappa
    else:
        amplitude, grid_out = position_radial, grid / kappa
    # The float amplitudes overflow at large n and l; refuse rather than print NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        values = amplitude(state, kappa, grid_out)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise OverflowError(f"the {args.space} amplitude of {state} is not finite at {bad} of {grid.size} points")
    rows = [{"grid_value": repr(g), "amplitude": repr(v)} for g, v in zip(grid_out.tolist(), values.tolist())]
    _emit(rows, args.format, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydromom",
        description="Momentum-space expectation values for hydrogenic bound states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="exact <2 pi hbar kappa/P> grid")
    p_table.add_argument("--nmax", type=int, default=6)
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--units", choices=["table", "dimensionless"], default="table")
    p_table.add_argument("--float", action="store_true", help="long format with a decimal column")
    p_table.set_defaults(func=cmd_table)

    p_expect = sub.add_parser("expect", help="single expectation value")
    p_expect.add_argument("--n", type=int, required=True)
    p_expect.add_argument("--l", type=int, required=True)
    p_expect.add_argument(
        "--f",
        choices=sorted(_MOMENT_POWERS),
        default="invp",
        help="invp is <hbar kappa/P> in --units; the moments one, p, p2 are dimensionless, in units of hbar*kappa",
    )
    p_expect.add_argument("--units", choices=["table", "dimensionless", "physical"], default="table")
    p_expect.add_argument("--bohr-radius", type=float, default=1.0, help="with --units physical only")
    p_expect.add_argument("--hbar", type=float, default=1.0, help="with --units physical only")
    p_expect.add_argument("--format", choices=["csv", "json"], default="csv")
    p_expect.set_defaults(func=cmd_expect)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--nmax", type=int, default=10)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument(
        "--inject-error",
        metavar="N,L",
        default=None,
        help="test hook: perturb one computed entry to demonstrate failure detection",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_asympt = sub.add_parser("asympt", help="asymptotic estimates vs exact values")
    p_asympt.add_argument("--regime", choices=["swave", "small-ell", "near-circular", "lambda"], required=True)
    p_asympt.add_argument("--n", type=int, action="append")
    p_asympt.add_argument("--l", type=int, default=0)
    p_asympt.add_argument("--delta", type=int, default=0)
    p_asympt.add_argument("--lam", type=float, default=0.5)
    p_asympt.add_argument("--n-max", type=int, default=400)
    p_asympt.add_argument("--format", choices=["csv", "json"], default="csv")
    p_asympt.set_defaults(func=cmd_asympt)

    p_shift = sub.add_parser("shift", help="first-order reciprocity energy shift")
    p_shift.add_argument("--n", type=int, required=True)
    p_shift.add_argument("--l", type=int, required=True)
    p_shift.add_argument("--alpha", type=float, default=1.0)
    p_shift.add_argument("--b", type=float, default=0.0)
    p_shift.add_argument("--bohr-radius", type=float, default=1.0)
    p_shift.add_argument("--hbar", type=float, default=1.0)
    p_shift.add_argument("--format", choices=["csv", "json"], default="csv")
    p_shift.set_defaults(func=cmd_shift)

    p_wavefn = sub.add_parser("wavefn", help="sample a radial wavefunction")
    p_wavefn.add_argument("--n", type=int, required=True)
    p_wavefn.add_argument("--l", type=int, required=True)
    p_wavefn.add_argument("--space", choices=["momentum", "position"], default="momentum")
    p_wavefn.add_argument("--grid", choices=["uniform", "log"], default="uniform")
    p_wavefn.add_argument("--min", type=float, default=0.0, help="grid start, in units of kappa (momentum) or 1/kappa (position)")
    p_wavefn.add_argument("--max", type=float, default=5.0)
    p_wavefn.add_argument("--points", type=int, default=101)
    p_wavefn.add_argument("--bohr-radius", type=float, default=1.0)
    p_wavefn.add_argument("--format", choices=["csv", "json"], default="csv")
    p_wavefn.set_defaults(func=cmd_wavefn)

    return parser


# Built once per process: parsing reads the parser and writes only the
# fresh namespace of each call, so repeated in-process calls cannot leak state.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here rather than at interpreter exit
        return code
    except BrokenPipeError:
        # Send whatever is still buffered to devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except RuntimeError as exc:  # ConvergenceError included
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ArithmeticError as exc:
        print(f"arithmetic failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: this command needs numpy, which cannot be imported ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
