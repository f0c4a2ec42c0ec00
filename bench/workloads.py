"""The three benchmark workloads: seeded op lists, result checks, edge probes.

A workload is a stream of rounds.  Round ``r`` of seed ``s`` is a pure
function of (workload, s, r), so two runs with the same seed send the same
inputs and a longer run only appends rounds.  Every round holds each op kind
of its workload in fixed proportions, with sizes drawn from fixed strata, so
a round costs about the same whatever the seed; that keeps the spread of the
timings across seeds small.

Ops call the library through module attributes (``invp.inv_p_exact``, not a
name imported from it), so the tracer's rebinding of those attributes sees
every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from hydromom import asympt, cli, exact, invp, quadrature, sumrules, wavefun

GOLDEN_TABLE = Path(__file__).resolve().parents[1] / "tests" / "data" / "table_n6.csv"
QUAD_TOL = 1e-9  # verify's default --tol
BESSEL_TOL = 1e-6  # the Bessel-oracle tolerance of acceptance criterion 5
MIN_ROUNDS = 3  # every run times at least this many rounds (and >= 100 ops)


@dataclass(frozen=True)
class Op:
    """One call into the program: an op kind and its plain-data arguments."""

    kind: str
    args: tuple


@dataclass(frozen=True)
class CliRun:
    code: object
    out: str


@dataclass(frozen=True)
class Raised:
    exc: BaseException


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    quad_rel_err: float | None = None  # gap of a quadrature-layer value from its exact value


def _rng(*key) -> random.Random:
    return random.Random(":".join(map(str, key)))


def _shuffled(values, *key) -> list:
    out = list(values)
    _rng(*key).shuffle(out)
    return out


def _strata(items: list, k: int) -> list[list]:
    """Split ``items`` into ``k`` contiguous slices of near-equal size."""
    return [items[len(items) * i // k : len(items) * (i + 1) // k] for i in range(k)]


# --------------------------------------------------------------------------
# Execution


def _state(n, l):
    return wavefun.QuantumState(n, l)


def _k_grid(kappa):
    return np.linspace(0.0, 5.0 * kappa, 200)


def _r_grid(n, kappa):
    return np.linspace(0.0, 2.0 * n / kappa, 200)


def _run_cli(*argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue())


_EXECUTORS = {
    "cli": _run_cli,
    "inv_p_exact": lambda n, l: invp.inv_p_exact(n, l)[0],
    "inv_p_series_connection": lambda n, l: invp.inv_p_series_connection(n, l),
    "lambda_limit": lambda lam, n_max: asympt.lambda_limit(lam, n_max),
    "sum_rule_even": lambda n: sumrules.sum_rule_even(n),
    "sum_rule_alternating": lambda n: sumrules.sum_rule_alternating(n),
    "inv_p_numeric": lambda n, l: quadrature.inv_p_numeric(_state(n, l)).value,
    "double_integral_rep": lambda n, l: quadrature.double_integral_rep(_state(n, l)).value,
    "legendre_projection": lambda n, l: sumrules.legendre_projection(n, l).value,
    "power_moment": lambda n, l, s: quadrature.power_moment(_state(n, l), s).value,
    "momentum_radial": lambda n, l, kappa: wavefun.momentum_radial(_state(n, l), kappa, _k_grid(kappa)),
    "position_radial": lambda n, l, kappa: wavefun.position_radial(_state(n, l), kappa, _r_grid(n, kappa)),
    "momentum_radial_numeric": lambda n, l, kappa, k: wavefun.momentum_radial_numeric(_state(n, l), kappa, k),
}


def execute(op: Op):
    """Run one op; an exception escapes to the caller, which records it."""
    return _EXECUTORS[op.kind](*op.args)


# --------------------------------------------------------------------------
# Round generators


_GRID_TABLE_NMAX = (10, 13, 16, 19, 22, 26, 26, 26, 26, 30, 35, 40)


def _grid_round(seed: int, r: int) -> list[Op]:
    rng = _rng("grid", seed, r)

    def state() -> tuple[str, str]:
        n = rng.randint(1, 20)
        return str(n), str(rng.randrange(n))

    ops = [Op("cli", ("table", "--nmax", "6"))]
    # A fixed ladder of sizes and formats: every round and every seed gets
    # the same table costs.  Four tables share nmax 26, where the 90th
    # percentile of the round's op times falls, so it is read from many like
    # ops rather than from the gap between two sizes.
    formats = [(), ("--format", "json"), ("--float",)]
    for i, nmax in enumerate(_GRID_TABLE_NMAX):
        ops.append(Op("cli", ("table", "--nmax", str(nmax)) + formats[i % 3]))
    ops.append(Op("cli", ("verify", "--nmax", str(rng.randint(14, 22)))))
    for f in ("invp", "p2", "one") * 8:
        n, l = state()
        ops.append(Op("cli", ("expect", "--n", n, "--l", l, "--f", f)))
    for regime in ("swave", "near-circular", "small-ell") * 3:
        if regime == "swave":
            extra, lo, hi = (), 1, 64
        elif regime == "near-circular":
            extra, lo, hi = ("--delta", str(rng.randint(0, 2))), 8, 64
        else:
            extra, lo, hi = ("--l", str(rng.randint(0, 2))), 20, 100
        ns = ("--n", str(rng.randint(lo, hi)), "--n", str(rng.randint(lo, hi)))
        ops.append(Op("cli", ("asympt", "--regime", regime) + ns + extra))
    for _ in range(8):
        n, l = state()
        ops.append(Op("cli", ("shift", "--n", n, "--l", l, "--b", rng.choice(("0", "1e-6", "1e-3")))))
    for space in ("momentum", "position") * 7 + ("momentum",):
        n, l = state()
        ops.append(Op("cli", ("wavefn", "--n", n, "--l", l, "--points", "200", "--space", space)))
    rng.shuffle(ops)
    return ops


_RAY_STATES = 15
_RAY_LAMBDAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 8))
_RAY_NMAX_OFFSETS = range(-40, 41, 8)


def _ray_round(seed: int, r: int) -> list[Op]:
    rng = _rng("ray", seed, r)
    # One n per stratum of [150, 700]; a seeded permutation of each stratum
    # gives every round its own n, so no state repeats within a run and a
    # cache keyed on the state is never hit.
    ns = []
    for i, stratum in enumerate(_strata(list(range(150, 701)), _RAY_STATES)):
        ns.append(_shuffled(stratum, "ray-n", seed, i)[r % len(stratum)])
    # Each n stratum gets a fixed l/n stratum (a fixed permutation), so every
    # round of every seed holds the same spread of op costs.
    fractions = [((7 * i) % _RAY_STATES + rng.random()) / _RAY_STATES for i in range(_RAY_STATES)]
    ops = []
    for n, frac in zip(ns, fractions):
        l = min(n - 1, int(frac * n))
        ops += [Op("inv_p_exact", (n, l)), Op("inv_p_series_connection", (n, l))]
    # Opposite n_max offsets on alternate rays keep the round's cost level.
    offset = _shuffled(_RAY_NMAX_OFFSETS, "ray-nmax", seed)[r % len(_RAY_NMAX_OFFSETS)]
    for i, lam in enumerate(_RAY_LAMBDAS):
        ops.append(Op("lambda_limit", (lam, 600 + (offset if i % 2 == 0 else -offset))))
    # Mirrored n inside each half of [60, 130] does the same for the sum rules.
    low = _shuffled(range(60, 95), "ray-sum-low", seed)[r % 35]
    high = _shuffled(range(95, 131), "ray-sum-high", seed)[r % 36]
    ops += [
        Op("sum_rule_even", (low,)),
        Op("sum_rule_alternating", (154 - low,)),
        Op("sum_rule_even", (high,)),
        Op("sum_rule_alternating", (225 - high,)),
    ]
    rng.shuffle(ops)
    return ops


_SHADOW_NMAX = 85  # n + l <= 169 keeps quadrature._prefactor's float factorials finite
_SHADOW_BESSEL_NMAX = 30
_SHADOW_STRATA = (6, 44)  # states per round with n <= 30 and with n > 30
SHADOW_KAPPA = 1.0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _shadow_states(seed: int, r: int) -> list[tuple[int, int]]:
    """Evenly spaced states of the (n, l)-ordered triangle, offset by round.

    Round offsets follow the golden-ratio sequence from a seeded start, so
    rounds pick distinct states (for the first few dozen rounds) with the
    same spread of n and l, and cost about the same.
    """
    triangle = [(n, l) for n in range(1, _SHADOW_NMAX + 1) for l in range(n)]
    groups = (
        [s for s in triangle if s[0] <= _SHADOW_BESSEL_NMAX],
        [s for s in triangle if s[0] > _SHADOW_BESSEL_NMAX],
    )
    u = (_rng("shadow", seed).random() + r * _GOLDEN) % 1.0
    return [group[int((i + u) * len(group) / k)] for group, k in zip(groups, _SHADOW_STRATA) for i in range(k)]


def _shadow_round(seed: int, r: int) -> list[Op]:
    rng = _rng("shadow", seed, r)
    ops = []
    kap = SHADOW_KAPPA
    bessel = 0
    for n, l in _shadow_states(seed, r):
        ops += [
            Op("inv_p_numeric", (n, l)),
            Op("double_integral_rep", (n, l)),
            Op("legendre_projection", (n, l)),
            Op("power_moment", (n, l, 0.0)),
            Op("power_moment", (n, l, 2.0)),
            Op("momentum_radial", (n, l, kap)),
            Op("position_radial", (n, l, kap)),
        ]
        if n <= _SHADOW_BESSEL_NMAX:
            # One k from a fixed ladder in [0.3, 2.55] kappa, rotating by round.
            k = kap * (0.3 + 0.45 * ((bessel + r) % _SHADOW_STRATA[0]))
            ops.append(Op("momentum_radial_numeric", (n, l, kap, k)))
            bessel += 1
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# Checks


def _exact_float(n: int, l: int) -> float:
    return invp.inv_p_exact(n, l)[0].to_float()


def _rel(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _check_amplitude(values) -> Verdict:
    values = np.asarray(values, dtype=float)
    if not _finite(values):
        return Verdict(False, f"{np.count_nonzero(~np.isfinite(values))} non-finite samples")
    if not np.any(values):
        return Verdict(False, "all samples are zero")
    return Verdict(True)


def _table_values(argv: tuple, out: str) -> dict[tuple[int, int], Fraction]:
    """Parse any ``table`` output (grid CSV, long CSV or JSON) to {(n, l): value}."""
    if "--format" in argv or "--float" in argv:
        records = json.loads(out) if "--format" in argv else list(csv.DictReader(io.StringIO(out)))
        values = {}
        for rec in records:
            value = exact.parse_exact(rec["value_exact"])
            if value.pi_power != 0 or not math.isclose(float(rec["value_float"]), value.to_float(), rel_tol=1e-12):
                raise ValueError(f"bad record {rec}")
            values[(int(rec["n"]), int(rec["l"]))] = value.coefficient
        return values
    lines = out.splitlines()
    header = lines[0].split(",")
    values = {}
    for line in lines[1:]:
        cells = line.split(",")
        l = int(cells[0])
        for n_text, cell in zip(header[1:], cells[1:]):
            n = int(n_text)
            if (cell == "-") != (l > n - 1):
                raise ValueError(f"cell ({n}, {l}) is {cell!r}")
            if cell != "-":
                value = exact.parse_exact(cell)
                if value.pi_power != 0:
                    raise ValueError(f"cell ({n}, {l}) has grade {value.pi_power}")
                values[(n, l)] = value.coefficient
    return values


def _check_table(argv: tuple, out: str) -> Verdict:
    nmax = int(argv[argv.index("--nmax") + 1])
    if argv == ("table", "--nmax", "6") and out != GOLDEN_TABLE.read_text(encoding="utf-8"):
        return Verdict(False, "golden grid differs from tests/data/table_n6.csv")
    values = _table_values(argv, out)
    if set(values) != {(n, l) for n in range(1, nmax + 1) for l in range(n)}:
        return Verdict(False, "wrong set of states")
    for n in range(1, nmax + 1):
        total = sum((2 * l + 1) * values[(n, l)] for l in range(n))
        if total != Fraction(32 * n * n, 3):
            return Verdict(False, f"sum rule fails at n={n}: {total}")
    return Verdict(True)


def _row(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _check_cli(argv: tuple, res: CliRun) -> Verdict:
    if res.code != 0:
        return Verdict(False, f"exit {res.code}")
    command = argv[0]
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if command == "table":
        return _check_table(argv, res.out)
    if command == "verify":
        bad = [line for line in res.out.splitlines() if line.startswith("FAIL")]
        return Verdict(not bad, "; ".join(bad))
    if command == "expect":
        (row,) = _row(res.out)
        n, l = int(opt["--n"]), int(opt["--l"])
        if opt["--f"] == "invp":
            reference = invp.inv_p_exact(n, l)[0]
            if exact.parse_exact(row["value_exact"]) != reference.times_two_pi():
                return Verdict(False, f"exact value {row['value_exact']}")
            gap = float(row["err_estimate"]) / reference.to_float()
        else:
            gap = abs(float(row["value_float"]) - 1.0)
        return Verdict(gap <= QUAD_TOL, f"relative gap {gap:.3e}", gap)
    if command == "asympt":
        for row in _row(res.out):
            n = int(row["n"])
            l = {"swave": 0, "small-ell": int(opt.get("--l", 0))}.get(opt["--regime"])
            if l is None:
                l = n - 1 - int(opt.get("--delta", 0))
            numbers = [float(row[key]) for key in ("estimate", "exact", "rel_error")]
            if not _finite(numbers) or not math.isclose(numbers[1], _exact_float(n, l), rel_tol=1e-12):
                return Verdict(False, f"row {row}")
        return Verdict(True)
    if command == "shift":
        (row,) = _row(res.out)
        n, l = int(opt["--n"]), int(opt["--l"])
        ok = math.isclose(float(row["inv_p"]), n * _exact_float(n, l), rel_tol=1e-12)
        return Verdict(ok and _finite(float(row["energy_shift"])), f"row {row}")
    if command == "wavefn":
        rows = _row(res.out)
        if len(rows) != int(opt["--points"]):
            return Verdict(False, f"{len(rows)} rows")
        return _check_amplitude([float(row["amplitude"]) for row in rows])
    return Verdict(False, f"no check for command {command!r}")


def check(op: Op, result, round_results: dict) -> Verdict:
    """Judge one op's result; ``round_results`` maps each op of its round to its result.

    Runs after the timed loop, so nothing here is on the clock.
    """
    if isinstance(result, Raised):
        return Verdict(False, f"raised {result.exc!r}")
    kind, args = op.kind, op.args
    if kind == "cli":
        try:
            return _check_cli(args, result)
        except (ValueError, KeyError, IndexError) as exc:
            return Verdict(False, f"unreadable output: {exc}")
    if kind in ("inv_p_exact", "inv_p_series_connection"):
        other = "inv_p_series_connection" if kind == "inv_p_exact" else "inv_p_exact"
        if round_results.get(Op(other, args)) != result:
            return Verdict(False, f"differs from {other}")
        return Verdict(True)
    if kind in ("sum_rule_even", "sum_rule_alternating"):
        lhs, rhs = result
        return Verdict(lhs == rhs, "lhs differs from rhs")
    if kind == "lambda_limit":
        return Verdict(_finite(result), f"returned {result}")
    if kind in ("inv_p_numeric", "double_integral_rep", "legendre_projection"):
        gap = _rel(result, _exact_float(*args))
        return Verdict(gap <= QUAD_TOL, f"relative gap {gap:.3e}", None if kind == "legendre_projection" else gap)
    if kind == "power_moment":
        gap = abs(result - 1.0)
        return Verdict(gap <= QUAD_TOL, f"gap from 1 is {gap:.3e}", gap)
    if kind in ("momentum_radial", "position_radial"):
        return _check_amplitude(result)
    if kind == "momentum_radial_numeric":
        n, l, kappa, k = args
        state = _state(n, l)
        want = wavefun.momentum_radial(state, kappa, k)
        scale = float(np.max(np.abs(wavefun.momentum_radial(state, kappa, _k_grid(kappa)))))
        gap = abs(result - want) / max(abs(want), 1e-2 * scale)
        return Verdict(gap <= BESSEL_TOL, f"gap {gap:.3e} from the closed form")
    return Verdict(False, f"no check for op kind {kind!r}")


def check_round(ops: list[Op], results: list) -> list[Verdict]:
    by_op = dict(zip(ops, results))
    return [check(op, res, by_op) for op, res in zip(ops, results)]


# --------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    name: str
    round: object  # (seed, r) -> list[Op]
    warmup: tuple  # one small op of every kind, run before timing
    probes: tuple  # known large-quantum-number defects; run once, untimed


WORKLOADS = {
    "grid": Workload(
        "grid",
        _grid_round,
        tuple(
            Op("cli", argv)
            for argv in (
                ("table", "--nmax", "3"),
                ("table", "--nmax", "3", "--format", "json"),
                ("table", "--nmax", "3", "--float"),
                ("verify", "--nmax", "3"),
                ("expect", "--n", "2", "--l", "1", "--f", "invp"),
                ("expect", "--n", "2", "--l", "1", "--f", "p2"),
                ("expect", "--n", "2", "--l", "1", "--f", "one"),
                ("asympt", "--regime", "swave", "--n", "2"),
                ("asympt", "--regime", "near-circular", "--n", "8"),
                ("asympt", "--regime", "small-ell", "--n", "20"),
                ("shift", "--n", "2", "--l", "1"),
                ("wavefn", "--n", "2", "--l", "1", "--points", "20"),
                ("wavefn", "--n", "2", "--l", "1", "--points", "20", "--space", "position"),
            )
        ),
        (
            Op("cli", ("expect", "--n", "180", "--l", "5")),
            Op("cli", ("wavefn", "--n", "200", "--l", "100", "--points", "200")),
        ),
    ),
    "ray": Workload(
        "ray",
        _ray_round,
        (
            Op("inv_p_exact", (12, 5)),
            Op("inv_p_series_connection", (12, 5)),
            Op("lambda_limit", (Fraction(1, 2), 100)),
            Op("sum_rule_even", (6,)),
            Op("sum_rule_alternating", (6,)),
        ),
        (),
    ),
    "shadow": Workload(
        "shadow",
        _shadow_round,
        (
            Op("inv_p_numeric", (3, 1)),
            Op("double_integral_rep", (3, 1)),
            Op("legendre_projection", (3, 1)),
            Op("power_moment", (3, 1, 0.0)),
            Op("momentum_radial", (3, 1, SHADOW_KAPPA)),
            Op("position_radial", (3, 1, SHADOW_KAPPA)),
            Op("momentum_radial_numeric", (3, 1, SHADOW_KAPPA, 0.5)),
        ),
        (
            Op("inv_p_numeric", (171, 0)),
            Op("inv_p_numeric", (180, 5)),
            Op("momentum_radial", (200, 100, 1.0 / 200)),
            Op("position_radial", (200, 100, 1.0 / 200)),
            # The same underflow inside the shadow triangle at the state's own
            # scale kappa = 1/n; the timed amplitudes use kappa = 1 instead.
            Op("momentum_radial", (85, 84, 1.0 / 85)),
        ),
    ),
}
