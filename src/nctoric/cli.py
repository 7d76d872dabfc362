"""Command-line entry point.

Subcommands mirror the library modules: polytope, fan, quotient, lvm, hj,
nctorus, gvec, hh.  Output is canonical JSON (sorted keys, "p/q" rational
formatting) wrapped in a CommandResult envelope, or raw SVG for the
rendering subcommands.  Exit codes: 0 ok, 2 usage, 3 bad input, 4 domain
error (the error name is included in the JSON).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import facevectors, fan, hj, hochschild, lvm, nctorus, polytope, svg
from .errors import InputError, NctoricError
from .quotient import quotient_data
from .scalars import parse_scalar

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DOMAIN = 4


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(payload, diagnostics=None) -> str:
    return _canonical({"status": "ok", "payload": payload,
                       "diagnostics": sorted(diagnostics or [])})


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        # ValueError: malformed JSON, bytes that are not UTF-8, or an
        # integer beyond the interpreter's digit limit; RecursionError:
        # arrays or objects nested deeper than the decoder recurses
        raise InputError(f"cannot read JSON from {path}: {e}") from e


def _scalar_list(text: str):
    return [parse_scalar(part) for part in text.split(",")]


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as e:
        raise InputError(f"bad integer list {text!r}") from e


# -- subcommand handlers ------------------------------------------------------


def _cmd_polytope(args) -> str:
    P = polytope.from_json(_load_json(args.file))
    if args.action == "svg":
        return svg.polytope_svg(P)
    payload = {
        "dim": P.dim,
        "classification": polytope.classify_delzant(P),
        "vertices": [[x.to_json() for x in v] for v in P.vertices],
        "incidence": sorted(sorted(i) for i in P.incidence),
        "f_vector": polytope.face_counts(P),
        "redundant": P.redundant,
    }
    diags = [f"redundant_facet:{i}" for i, r in enumerate(P.redundant) if r]
    return _emit(payload, diags)


def _cmd_fan(args) -> str:
    if args.action == "of-polytope":
        P = polytope.from_json(_load_json(args.file))
        return _emit(fan.fan_to_json(fan.normal_fan(P)))
    if args.action == "classify":
        sigma = fan.cone_from_json(_load_json(args.file))
        result = fan.cone_classify(sigma)
        if isinstance(result, tuple):
            payload = {"class": result[0], "index": result[1]}
        else:
            payload = {"class": result}
        return _emit(payload)
    F = fan.fan_from_json(_load_json(args.file))
    return svg.fan_svg(F)


def _cmd_quotient(args) -> str:
    P = polytope.from_json(_load_json(args.polytope))
    q = quotient_data(P)
    payload = {
        "N": q.N,
        "forbidden_strata": sorted(sorted(i) for i in q.forbidden_strata),
        "kernel_basis": q.kernel_basis,
        "nu_P": [x.to_json() for x in q.nu_P],
    }
    return _emit(payload)


def _cmd_lvm(args) -> str:
    cfg = lvm.configuration_from_json(_load_json(args.config))
    if args.action == "check":
        return _emit(lvm.check_admissible(cfg))
    eps = _scalar_list(args.eps) if args.eps is not None else None
    if args.action == "gale":
        g = lvm.gale_transform(cfg, eps)
        return _emit({"vectors": [[x.to_json() for x in v] for v in g.vectors],
                      "epsilons": [e.to_json() for e in g.epsilons]})
    if args.action == "dichotomy":
        K = lvm.condition_K(cfg)
        return _emit({"condition_K": K, "dichotomy":
                      lvm.COMPACT_TORI if K else lvm.DENSE_LEAVES})
    if args.action == "fiber":
        rep = lvm.generic_fiber(cfg)
        return _emit({
            "torus_rank": rep.torus_rank,
            "rational": rep.rational,
            "slope": rep.slope.to_json() if rep.slope is not None else None,
            "foliation_subspace": [[x.to_json() for x in v]
                                   for v in rep.foliation_subspace],
        })
    P = lvm.polytope_from_gale(lvm.gale_transform(cfg, eps))
    diags = [f"redundant_facet:{i}" for i, r in enumerate(P.redundant) if r]
    return _emit(polytope.to_json(P), diags)


def _cmd_hj(args) -> str:
    if args.action == "expand":
        x = parse_scalar(args.value)
        e = hj.hj_expand(x, depth=args.depth)
        payload = {"digits": list(e.digits), "finite": e.finite}
        if not e.finite:
            payload["preperiod_len"] = e.preperiod_len
            payload["period"] = list(e.period)
        return _emit(payload)
    sigma = fan.cone_from_json(_load_json(args.cone))
    F, inserted, _ = hj.resolve_cone(sigma, depth=args.depth)
    if args.svg:
        return svg.fan_svg(F)
    return _emit({"fan": fan.fan_to_json(F),
                  "inserted_rays": [[x.to_json() for x in r]
                                    for r in inserted]})


def _cmd_nctorus(args) -> str:
    if args.action == "classify":
        theta = parse_scalar(args.theta)
        return _emit({"class": nctorus.kronecker_classify(theta)})
    t1 = parse_scalar(args.theta1)
    t2 = parse_scalar(args.theta2)
    if t1.is_rational or t2.is_rational:
        return _emit({"commutative_torus": True})
    res = nctorus.morita_equivalent(t1, t2)
    diags = ["gl2_only_certificate"] if res.get("gl2_only_certificate") else []
    return _emit({"equivalent": res["equivalent"], "witness": res["witness"]},
                 diags)


def _cmd_gvec(args) -> str:
    f = _int_list(args.f)
    result = facevectors.g_theorem_necessity(f, args.d)
    return _emit(result)


def _cmd_hh(args) -> str:
    A = hochschild.FinDimAlgebra.from_json(_load_json(args.algebra))
    if args.action == "ranks":
        upto = 3 if args.upto is None else args.upto
        return _emit({"ranks": hochschild.hh_ranks(A, upto)})
    even, odd = hochschild.hp_truncated(A, args.N, args.upto)
    return _emit({"even": even, "odd": odd, "N": args.N})


# -- parser -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later `run` in the process; parsing leaves it unchanged."""
    top = argparse.ArgumentParser(prog="nctoric")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope")
    p.add_argument("action", choices=["info", "svg"])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_polytope)

    p = sub.add_parser("fan")
    p.add_argument("action", choices=["of-polytope", "classify", "svg"])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_fan)

    p = sub.add_parser("quotient")
    p.add_argument("action", choices=["data"])
    p.add_argument("--polytope", required=True)
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("lvm")
    p.add_argument("action",
                   choices=["check", "gale", "dichotomy", "fiber", "polytope"])
    p.add_argument("--config", required=True)
    p.add_argument("--eps", default=None)
    p.set_defaults(handler=_cmd_lvm, parser=p)

    p = sub.add_parser("hj")
    p.add_argument("action", choices=["expand", "resolve"])
    p.add_argument("--value", default=None)
    p.add_argument("--cone", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(handler=_cmd_hj, parser=p)

    p = sub.add_parser("nctorus")
    p.add_argument("action", choices=["classify", "morita"])
    p.add_argument("--theta", default=None)
    p.add_argument("--theta1", default=None)
    p.add_argument("--theta2", default=None)
    p.set_defaults(handler=_cmd_nctorus, parser=p)

    p = sub.add_parser("gvec")
    p.add_argument("--f", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_gvec)

    p = sub.add_parser("hh")
    p.add_argument("action", choices=["ranks", "hp"])
    p.add_argument("--algebra", required=True)
    # default: degree 3 for ranks, 2N - 1 (the least valid) for hp
    p.add_argument("--upto", type=int, default=None)
    p.add_argument("--N", type=int, default=3)
    p.set_defaults(handler=_cmd_hh)

    return top


def _check_flags(args):
    """Flags an action needs, or does not take, that its subcommand's
    parser can neither require nor refuse, reported through that parser
    like any other usage error."""
    action = getattr(args, "action", None)
    need = {
        ("hj", "expand"): ["value"],
        ("hj", "resolve"): ["cone"],
        ("nctorus", "classify"): ["theta"],
        ("nctorus", "morita"): ["theta1", "theta2"],
    }
    refuse = {("lvm", a): ["eps"] for a in ("check", "dichotomy", "fiber")}
    missing = [f"--{flag}" for flag in need.get((args.command, action), [])
               if getattr(args, flag) is None]
    if missing:
        args.parser.error("the following arguments are required: "
                          + ", ".join(missing))
    extra = [f"--{flag}" for flag in refuse.get((args.command, action), [])
             if getattr(args, flag) is not None]
    if extra:
        args.parser.error(f"argument {extra[0]}: not allowed with {action}")


def run(argv=None) -> int:
    """Dispatch one CLI invocation; returns the exit code, prints the
    CommandResult (or SVG) to stdout and usage errors to stderr.  Safe to
    call repeatedly in one process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        _check_flags(args)
        out = args.handler(args)
    except SystemExit:
        return EXIT_USAGE
    except InputError as e:
        print(_canonical({"status": "error", "error": e.name,
                          "message": str(e)}))
        return EXIT_INPUT
    except NctoricError as e:
        print(_canonical({"status": "error", "error": e.name,
                          "message": str(e)}))
        return EXIT_DOMAIN
    print(out)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
