"""Command-line interface.

Subcommands
-----------
bound        evaluate moment bounds on a (profile, envelope, D) JSON input
constants    print the bound constants at a given (t, D, schedule)
ratio-curve  emit the (t-1)/E|Z|^t comparison curve as CSV or JSON
verify       simulate a built-in martingale model and check the bounds

Exit codes: 0 success (for verify: check passed), 1 verify check failed,
2 usage or validation error; a bound beyond the float range is +inf, not
an error.  The ROSENTHAL_THREADS environment variable caps the simulation
worker count and never changes results.

Output: stdout and ``--output FILE`` carry the same bytes, which end in a
newline.  A report is written in one walk by ``_report_text``: JSON with
sorted keys and a 2-space indent (the text of ``json.dumps(...,
indent=2, sort_keys=True)``), or a CSV header row of dotted key paths and
one row of values; each float is rounded to 12 significant digits as
``float(format(x, ".12g"))``.  The ratio-curve CSV and ``--dump-norms``
print ``format(x, ".12g")`` itself, so 4.0 prints as 4 there.

A request is parsed by its subcommand's parser alone; help, usage errors
and requests with words left over go through the whole parser, so their
messages and exit codes are those of a full parse.
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


# JSON spellings of the float reprs json.dumps replaces (allow_nan=True).
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_encode_str = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: a quoted string (a number key
    as its unrounded JSON text)."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_parts(obj, newline: str, out: list) -> None:
    """Append the JSON text of ``obj`` to ``out``: the text of
    ``json.dumps(obj, indent=2, sort_keys=True)`` with every float rounded
    to 12 significant digits, at the indent that ``newline`` ends with."""
    if isinstance(obj, float):
        text = float.__repr__(float(format(obj, _FLOAT_DIGITS)))
        out.append(_JSON_FLOATS.get(text, text))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep)
            out.append(_json_key(key))
            out.append(": ")
            _json_parts(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _csv_cells(obj, prefix: str, out: dict) -> None:
    """Add the leaves of ``obj`` to ``out`` as {dotted path: cell text}:
    dict keys in sorted order, list items by index, floats rounded to 12
    significant digits, None as an empty cell."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _csv_cells(obj[key], f"{prefix}{key}.", out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _csv_cells(item, f"{prefix}{i}.", out)
    elif isinstance(obj, float):
        out[prefix[:-1]] = str(float(format(obj, _FLOAT_DIGITS)))
    else:
        out[prefix[:-1]] = "" if obj is None else str(obj)


def _report_text(data, fmt: str) -> str:
    """The text of a report in one walk: JSON with sorted keys and a
    2-space indent, or a CSV header row and value row of its dotted leaf
    paths; every float carries 12 significant digits, and the text ends
    with a newline."""
    if fmt == "csv":
        cells: dict = {}
        _csv_cells(data, "", cells)
        return ",".join(cells) + "\n" + ",".join(cells.values()) + "\n"
    parts: list = []
    _json_parts(data, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_text(text: str, path: str | None) -> None:
    """Write ``text`` to stdout (path None or "-") or to the file ``path``:
    the same bytes either way."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    _write_text(_report_text(report.to_dict(), args.format), args.output)
    return 0


def _cmd_constants(args) -> int:
    schedule = _schedule_from_args(args)
    cs = compute_constants(args.t, args.D, schedule)
    b_opt, c_opt = find_bt(args.t)
    data = cs.to_dict()
    data["b_t"] = b_opt
    data["C_t"] = c_opt
    data["schedule"] = schedule.to_dict()
    _write_text(_report_text(data, args.format), args.output)
    return 0


def _cmd_ratio_curve(args) -> int:
    points = ratio_curve(args.t_min, args.t_max, args.steps)
    if args.format == "json":
        rows = [{"t": p.t, "ez_t": p.ez_t, "ratio": p.ratio} for p in points]
        _write_text(_report_text(rows, "json"), args.output)
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
    _write_text(_report_text(report.to_dict(), args.format), args.output)
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


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, at one parser level where it can be:
    a request whose first word names a subcommand, and whose words that
    subcommand's parser takes up entirely, is parsed by that parser alone.
    Any other request (help, a usage error, a word left over) goes through
    the whole parser, so its messages and exit code are the whole parse's."""
    if argv:
        sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices.get(argv[0])
        if parser is not None:
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                args.command = argv[0]
                return args
    return _parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
