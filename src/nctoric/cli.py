"""Command-line entry point.

Subcommands mirror the library modules: polytope, fan, quotient, lvm, hj,
nctorus, gvec, hh.  ACTIONS declares each action's flags, library call and
payload builder.  An action accepts exactly the flags it declares, spelled
in full: a missing required flag, or a flag the action does not declare, is
a usage error, reported before any file is read.  Output is canonical JSON
(sorted keys, "p/q" rational formatting) wrapped in a CommandResult
envelope, or raw SVG for the rendering actions.  Exit codes: 0 ok, 2 usage,
3 bad input, 4 domain error (the error name is included in the JSON).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import facevectors, fan, hj, hochschild, lvm, nctorus, polytope, svg
from .errors import InputError, NctoricError, OutOfRange, _quote
from .quotient import quotient_data
from .scalars import parse_scalar

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DOMAIN = 4


def _canonical(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError as e:  # an int past the int-to-text digit limit
        raise OutOfRange.digits() from e


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
        raise InputError(f"bad integer list {_quote(text)}") from e


# -- library calls and payload builders --------------------------------------


def _polytope(args):
    return polytope.from_json(_load_json(args.file))


def _config(args):
    return lvm.configuration_from_json(_load_json(args.config))


def _eps(args):
    return _scalar_list(args.eps) if args.eps is not None else None


def _algebra(args):
    return hochschild.FinDimAlgebra.from_json(_load_json(args.algebra))


def _redundant(P):
    return [f"redundant_facet:{i}" for i, r in enumerate(P.redundant) if r]


def _json(result, args) -> str:
    return _emit(result)


def _polytope_info(P, args) -> str:
    return _emit({
        "dim": P.dim,
        "classification": polytope.classify_delzant(P),
        "vertices": [[x.to_json() for x in v] for v in P.vertices],
        "incidence": sorted(sorted(i) for i in P.incidence),
        "f_vector": polytope.face_counts(P),
        "redundant": P.redundant,
    }, _redundant(P))


def _cone_class(result, args) -> str:
    if isinstance(result, tuple):
        return _emit({"class": result[0], "index": result[1]})
    return _emit({"class": result})


def _quotient(q, args) -> str:
    return _emit({
        "N": q.N,
        "forbidden_strata": sorted(sorted(i) for i in q.forbidden_strata),
        "kernel_basis": q.kernel_basis,
        "nu_P": [x.to_json() for x in q.nu_P],
    })


def _gale(g, args) -> str:
    return _emit({"vectors": [[x.to_json() for x in v] for v in g.vectors],
                  "epsilons": [e.to_json() for e in g.epsilons]})


def _fiber(rep, args) -> str:
    return _emit({
        "torus_rank": rep.torus_rank,
        "rational": rep.rational,
        "slope": rep.slope.to_json() if rep.slope is not None else None,
        "foliation_subspace": [[x.to_json() for x in v]
                               for v in rep.foliation_subspace],
    })


def _expansion(e, args) -> str:
    payload = {"digits": list(e.digits), "finite": e.finite}
    if not e.finite:
        payload["preperiod_len"] = e.preperiod_len
        payload["period"] = list(e.period)
    return _emit(payload)


def _resolution(result, args) -> str:
    F, inserted, _ = result
    if args.svg:
        return svg.fan_svg(F)
    return _emit({"fan": fan.fan_to_json(F),
                  "inserted_rays": [[x.to_json() for x in r]
                                    for r in inserted]})


def _morita(args):
    t1 = parse_scalar(args.theta1)
    t2 = parse_scalar(args.theta2)
    if t1.is_rational or t2.is_rational:
        return None
    return nctorus.morita_equivalent(t1, t2)


def _morita_payload(res, args) -> str:
    if res is None:
        return _emit({"commutative_torus": True})
    diags = ["gl2_only_certificate"] if res.get("gl2_only_certificate") else []
    return _emit({"equivalent": res["equivalent"], "witness": res["witness"]},
                 diags)


# -- the action table ---------------------------------------------------------


_FILE = {"file": {}}
_REQUIRED = {"required": True}
_CONFIG = {"--config": _REQUIRED}

#: (command, action) -> (flags, library call, payload builder).  The flags
#: map each flag name (or positional name) to its add_argument keywords, the
#: call takes the parsed arguments and the builder takes the call's result
#: and the arguments and returns the stdout text.  gvec has no action.
ACTIONS = {
    ("polytope", "info"): (_FILE, _polytope, _polytope_info),
    ("polytope", "svg"): (
        _FILE, _polytope, lambda P, args: svg.polytope_svg(P)),
    ("fan", "of-polytope"): (
        _FILE, lambda args: fan.normal_fan(_polytope(args)),
        lambda F, args: _emit(fan.fan_to_json(F))),
    ("fan", "classify"): (
        _FILE,
        lambda args: fan.cone_classify(fan.cone_from_json(
            _load_json(args.file))),
        _cone_class),
    ("fan", "svg"): (
        _FILE, lambda args: fan.fan_from_json(_load_json(args.file)),
        lambda F, args: svg.fan_svg(F)),
    ("quotient", "data"): (
        {"--polytope": _REQUIRED},
        lambda args: quotient_data(polytope.from_json(
            _load_json(args.polytope))),
        _quotient),
    ("lvm", "check"): (
        _CONFIG, lambda args: lvm.check_admissible(_config(args)), _json),
    ("lvm", "gale"): (
        {**_CONFIG, "--eps": {}},
        lambda args: lvm.gale_transform(_config(args), _eps(args)), _gale),
    ("lvm", "dichotomy"): (
        _CONFIG, lambda args: lvm.condition_K(_config(args)),
        lambda K, args: _emit({"condition_K": K, "dichotomy":
                               lvm.COMPACT_TORI if K else lvm.DENSE_LEAVES})),
    ("lvm", "fiber"): (
        _CONFIG, lambda args: lvm.generic_fiber(_config(args)), _fiber),
    ("lvm", "polytope"): (
        {**_CONFIG, "--eps": {}},
        lambda args: lvm.polytope_from_gale(
            lvm.gale_transform(_config(args), _eps(args))),
        lambda P, args: _emit(polytope.to_json(P), _redundant(P))),
    ("hj", "expand"): (
        {"--value": _REQUIRED, "--depth": {"type": int}},
        lambda args: hj.hj_expand(parse_scalar(args.value), depth=args.depth),
        _expansion),
    ("hj", "resolve"): (
        {"--cone": _REQUIRED, "--depth": {"type": int},
         "--svg": {"action": "store_true"}},
        lambda args: hj.resolve_cone(fan.cone_from_json(
            _load_json(args.cone)), depth=args.depth),
        _resolution),
    ("nctorus", "classify"): (
        {"--theta": _REQUIRED},
        lambda args: nctorus.kronecker_classify(parse_scalar(args.theta)),
        lambda c, args: _emit({"class": c})),
    ("nctorus", "morita"): (
        {"--theta1": _REQUIRED, "--theta2": _REQUIRED}, _morita,
        _morita_payload),
    ("gvec", None): (
        {"--f": _REQUIRED, "--d": {"type": int, "required": True}},
        lambda args: facevectors.g_theorem_necessity(_int_list(args.f),
                                                     args.d),
        _json),
    ("hh", "ranks"): (
        {"--algebra": _REQUIRED, "--upto": {"type": int, "default": 3}},
        lambda args: hochschild.hh_ranks(_algebra(args), args.upto),
        lambda ranks, args: _emit({"ranks": ranks})),
    # --upto None is the least valid truncation, 2N - 1
    ("hh", "hp"): (
        {"--algebra": _REQUIRED, "--upto": {"type": int},
         "--N": {"type": int, "default": 3}},
        lambda args: hochschild.hp_truncated(_algebra(args), args.N,
                                             args.upto),
        lambda hp, args: _emit({"even": hp[0], "odd": hp[1], "N": args.N})),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, one subparser per ACTIONS entry, built on the
    first call and shared by every later `run` in the process; parsing
    leaves it unchanged."""
    top = argparse.ArgumentParser(prog="nctoric")
    commands = top.add_subparsers(dest="command", required=True)
    actions = {}
    for (command, action), entry in ACTIONS.items():
        if action is None:
            p = commands.add_parser(command, allow_abbrev=False)
        else:
            if command not in actions:
                actions[command] = commands.add_parser(
                    command).add_subparsers(dest="action", required=True)
            p = actions[command].add_parser(action, allow_abbrev=False)
        for name, keywords in entry[0].items():
            p.add_argument(name, **keywords)
        p.set_defaults(entry=entry)
    return top


def run(argv=None) -> int:
    """Dispatch one CLI invocation; returns the exit code, prints the
    CommandResult (or SVG) to stdout and usage errors to stderr.  Safe to
    call repeatedly in one process."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    _, call, build = args.entry
    try:
        out = build(call(args), args)
    except NctoricError as e:
        print(_canonical({"status": "error", "error": e.name,
                          "message": str(e)}))
        return EXIT_INPUT if isinstance(e, InputError) else EXIT_DOMAIN
    print(out)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
