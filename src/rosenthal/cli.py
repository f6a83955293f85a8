"""Command-line interface.

Subcommands
-----------
bound        evaluate moment bounds on a (profile, envelope, D) JSON input
constants    print the bound constants at a given (t, D, schedule)
ratio-curve  emit the (t-1)/E|Z|^t comparison curve as CSV or JSON
verify       simulate a built-in martingale model and check the bounds

Exit codes: 0 success (for verify: check passed), 1 verify check failed,
2 usage or validation error; a bound beyond the float range is +inf, not
an error.  All floating-point output carries 12 significant digits.  The ROSENTHAL_THREADS environment
variable caps the simulation worker count and never changes results.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .bounds import (
    Pin94Config,
    best_bound,
    closed_form_min,
    corollary_bound,
    pin94_bound,
    theorem_bound,
)
from .concentration import find_bt
from .constants import compute_constants
from .core import (
    MomentProfile,
    RosenthalError,
    ValidationError,
    VarianceEnvelope,
    _check_t,
)
from .gaussian import ratio_curve
from .models import MODEL_KINDS, make_model, simulate
from .schedules import PQSchedule, default_schedule
from .verify import check_from_simulation

_FLOAT_DIGITS = ".12g"


def _round_floats(obj):
    """Recursively round floats to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(format(obj, _FLOAT_DIGITS))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(data, path: str | None) -> None:
    _write_text(json.dumps(_round_floats(data), indent=2, sort_keys=True), path)


def _flatten(data, prefix=""):
    out = {}
    if isinstance(data, dict):
        for key in sorted(data):
            out.update(_flatten(data[key], f"{prefix}{key}."))
    elif isinstance(data, (list, tuple)):
        for i, item in enumerate(data):
            out.update(_flatten(item, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = data
    return out


def _write_report(data, path: str | None, fmt: str) -> None:
    if fmt == "csv":
        flat = _flatten(_round_floats(data))
        cells = ["" if v is None else str(v) for v in flat.values()]
        _write_text(",".join(flat) + "\n" + ",".join(cells) + "\n", path)
    else:
        _write_json(data, path)


def _schedule_from_args(args) -> PQSchedule:
    if getattr(args, "beta", None) is not None:
        return PQSchedule.beta_family(args.beta)
    return default_schedule()


# The JSON form of a case file: each field that is present must have the
# form given, a number, _NUMBER_KEYS (an object whose keys read as numbers)
# or an object whose fields nest as given.  The fields of _REQUIRED must be
# present: always (None), or in a schedule of the kind given, which reads them.
_NUMBER = (int, float)
_NUMBER_KEYS = "number keys"
_CASE_FORM = {
    "profile": {"n": _NUMBER, "t": _NUMBER, "moments": _NUMBER_KEYS},
    "envelope": {"b": None},
    "D": _NUMBER,
    "schedule": {"kind": None, "beta": _NUMBER, "table": _NUMBER_KEYS},
}
_REQUIRED = {"profile": None, "profile.n": None, "profile.t": None, "profile.moments": None,
             "envelope": None, "envelope.b": None, "schedule.kind": None,
             "schedule.beta": "beta_family", "schedule.table": "custom"}


def _check_form(data, form: dict, name: str = "") -> None:
    """Raise a :class:`ValidationError` naming the first field of ``data``
    (the case file, or the field ``name``) that is missing or does not have
    the JSON form ``form`` gives it."""
    if not isinstance(data, dict):
        raise ValidationError(f"{name or 'case file'} must be a JSON object")
    for key, sub in form.items():
        field = f"{name}.{key}" if name else key
        if key not in data:
            if field in _REQUIRED and _REQUIRED[field] in (None, data.get("kind")):
                raise ValidationError(f"{field} is missing")
        elif isinstance(sub, dict):
            _check_form(data[key], sub, field)
        elif sub is _NUMBER_KEYS:
            _check_form(data[key], {}, field)
            for k in data[key]:
                try:
                    float(k)
                except ValueError:
                    raise ValidationError(f"{field} keys must be numbers, got {k!r}") from None
        elif sub is not None:
            if not isinstance(data[key], sub) or isinstance(data[key], bool):
                raise ValidationError(f"{field} must be a number")
            try:
                float(data[key])
            except OverflowError:  # an integer beyond the float range
                raise ValidationError(f"{field} must be within the float range") from None


def _load_case(path: str) -> tuple[MomentProfile, VarianceEnvelope, float, PQSchedule | None]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    _check_form(data, _CASE_FORM)
    profile = MomentProfile.from_dict(data["profile"])
    envelope = VarianceEnvelope.from_dict(data["envelope"])
    D = float(data.get("D", 1.0))
    schedule = (
        PQSchedule.from_dict(data["schedule"]) if "schedule" in data else None
    )
    return profile, envelope, D, schedule


def _scalars(case) -> tuple[float, float, float, float]:
    """(t, D, A_n(t), B_n) of a loaded case."""
    profile, envelope, D, _ = case
    return profile.t, D, profile.total(profile.t), envelope.total()


# The --method choices of ``rosenthal bound`` and the call each one makes on
# (args, (profile, envelope, D, schedule)).
_BOUND_CALLS = {
    "best": lambda args, case: best_bound(*case),
    "theorem": lambda args, case: theorem_bound(*case),
    "corollary": lambda args, case: corollary_bound(*case, lambdas="optimize"),
    "closed": lambda args, case: closed_form_min(*_scalars(case)),
    "pin94": lambda args, case: pin94_bound(*_scalars(case), Pin94Config(K=args.K, c=args.c)),
}


def _cmd_bound(args) -> int:
    case = _load_case(args.input)
    if args.beta is not None:
        case = (*case[:3], PQSchedule.beta_family(args.beta))
    report = _BOUND_CALLS[args.method](args, case)
    _write_report(report.to_dict(), args.output, args.format)
    return 0


def _cmd_constants(args) -> int:
    schedule = _schedule_from_args(args)
    cs = compute_constants(args.t, args.D, schedule)
    b_opt, c_opt = find_bt(args.t)
    data = cs.to_dict()
    data["b_t"] = b_opt
    data["C_t"] = c_opt
    data["schedule"] = schedule.to_dict()
    _write_report(data, args.output, args.format)
    return 0


def _cmd_ratio_curve(args) -> int:
    points = ratio_curve(args.t_min, args.t_max, args.steps)
    if args.format == "json":
        _write_json(
            [{"t": p.t, "ez_t": p.ez_t, "ratio": p.ratio} for p in points],
            args.output,
        )
    else:
        lines = ["t,ez_t,ratio"]
        for p in points:
            lines.append(
                f"{p.t:{_FLOAT_DIGITS}},{p.ez_t:{_FLOAT_DIGITS}},{p.ratio:{_FLOAT_DIGITS}}"
            )
        _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _parse_scale(raw: str):
    parts = [float(x) for x in raw.split(",") if x.strip()]
    if not parts:
        raise ValueError("empty scale")
    return parts[0] if len(parts) == 1 else parts


def _cmd_verify(args) -> int:
    # Only the options given and taken by the model; the rest keep the
    # defaults of the model's class.
    params = {}
    if args.p is not None and args.model in ("two_point", "lp"):
        params["prob" if args.model == "two_point" else "p"] = args.p
    if args.dim is not None and args.model in ("hilbert", "lp"):
        params["dim"] = args.dim
    model = make_model(args.model, args.n, _parse_scale(args.b), **params)
    schedule = _schedule_from_args(args)
    _check_t(args.t, "verification needs")
    sim = simulate(model, args.seed, args.reps)
    if args.dump_norms is not None:
        lines = ["replication,final_norm"]
        lines += [
            f"{i},{v:{_FLOAT_DIGITS}}" for i, v in enumerate(sim.final_norms)
        ]
        _write_text("\n".join(lines) + "\n", args.dump_norms)
    report = check_from_simulation(model, sim, args.t, schedule)
    _write_report(report.to_dict(), args.output, args.format)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosenthal",
        description="Moment bounds for martingales in 2-smooth Banach spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate bounds on a JSON case file")
    p_bound.add_argument("--input", required=True, help="JSON case file")
    p_bound.add_argument("--method", choices=list(_BOUND_CALLS), default="best")
    p_bound.add_argument("--beta", type=float, default=None, help="schedule parameter")
    p_bound.add_argument("--K", type=float, default=120.0, help="pin94 constant")
    p_bound.add_argument(
        "--c", type=float, default=None, help="pin94 balancing parameter (default: minimize)"
    )
    p_bound.add_argument("--format", choices=["json", "csv"], default="json")
    p_bound.add_argument("--output", default=None)
    p_bound.set_defaults(func=_cmd_bound)

    p_const = sub.add_parser("constants", help="print bound constants at (t, D)")
    p_const.add_argument("--t", type=float, required=True)
    p_const.add_argument("--D", type=float, default=1.0)
    p_const.add_argument("--beta", type=float, default=None)
    p_const.add_argument("--format", choices=["json", "csv"], default="json")
    p_const.add_argument("--output", default=None)
    p_const.set_defaults(func=_cmd_constants)

    p_curve = sub.add_parser("ratio-curve", help="emit the comparison curve")
    p_curve.add_argument("--t-min", type=float, default=2.0, dest="t_min")
    p_curve.add_argument("--t-max", type=float, default=4.0, dest="t_max")
    p_curve.add_argument("--steps", type=int, default=201)
    p_curve.add_argument("--format", choices=["csv", "json"], default="csv")
    p_curve.add_argument("--output", default=None)
    p_curve.set_defaults(func=_cmd_ratio_curve)

    p_verify = sub.add_parser("verify", help="simulate a model and check the bounds")
    p_verify.add_argument("--model", choices=list(MODEL_KINDS), default="rademacher")
    p_verify.add_argument("--n", type=int, default=50, help="number of steps")
    p_verify.add_argument("--t", type=float, default=3.0)
    p_verify.add_argument(
        "--b", default="1.0", help="envelope scale: single value or comma list"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--reps", type=int, default=100_000)
    p_verify.add_argument(
        "--p",
        type=float,
        default=None,
        help="model parameter: point mass (two_point) or l_p exponent (lp)",
    )
    p_verify.add_argument("--dim", type=int, default=None, help="space dimension")
    p_verify.add_argument("--beta", type=float, default=None)
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument(
        "--dump-norms", default=None, help="write per-replication norms CSV here"
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and kept for the process."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (RosenthalError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
