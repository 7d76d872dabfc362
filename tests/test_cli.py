import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from nctoric import cli, lvm, polytope
from nctoric.cli import ACTIONS, run
from nctoric.errors import NctoricError, OutOfRange
from nctoric.hj import DEPTH_LIMIT
from nctoric.hochschild import (ground_field, group_algebra_z2, matrix_algebra,
                                product_of_fields)
from nctoric.scalars import RADICAND_LIMIT, Scalar, parse_scalar


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _captured_run(argv):
    """Exit code, stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def parse(out):
    obj = json.loads(out)
    assert set(obj) == {"status", "payload", "diagnostics"}
    assert obj["status"] == "ok"
    return obj


@pytest.fixture
def square_file(tmp_path):
    P = polytope.SimplePolytope([([1, 0], -1), ([-1, 0], -1),
                                 ([0, 1], -1), ([0, -1], -1)])
    path = tmp_path / "square.json"
    path.write_text(json.dumps(polytope.to_json(P)))
    return str(path)


@pytest.fixture
def five_vector_file(tmp_path):
    cfg = lvm.Configuration([[(1, 0)], [(0, 1)], [(0, 1)], [(1, 0)],
                             [(-2, -2)]])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(lvm.configuration_to_json(cfg)))
    return str(path)


def test_polytope_info(capsys, square_file):
    code, out = invoke(capsys, ["polytope", "info", square_file])
    assert code == 0
    obj = parse(out)
    p = obj["payload"]
    assert p["dim"] == 2
    assert p["classification"] == "IntegralDelzant"
    assert p["f_vector"] == [1, 4, 4]
    assert p["redundant"] == [False, False, False, False]
    assert obj["diagnostics"] == []


def test_polytope_svg(capsys, square_file):
    code, out = invoke(capsys, ["polytope", "svg", square_file])
    assert code == 0
    assert out.startswith("<svg ")
    assert "<!-- exact data:" in out and '"facets"' in out
    assert out.count("<circle") == 4


def test_fan_of_polytope_and_svg(capsys, tmp_path, square_file):
    code, out = invoke(capsys, ["fan", "of-polytope", square_file])
    assert code == 0
    fan_json = parse(out)["payload"]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan_json))
    code, out = invoke(capsys, ["fan", "svg", str(path)])
    assert code == 0
    assert out.startswith("<svg ") and out.count("<line") == 4


def test_fan_svg_rejects_non_simplicial_cones(capsys, tmp_path):
    # (1, 1) is no extreme ray of the quadrant, and four rays over a
    # square are dependent in R^3
    for dim, rays in ((2, [[1, 0], [1, 1], [0, 1]]),
                      (3, [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"dim": dim, "cones": [{"rays": rays}]}))
        code, out = invoke(capsys, ["fan", "svg", str(path)])
        assert code == 4
        assert json.loads(out)["error"] == "NotSimplicial"


def test_fan_classify(capsys, tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [["0", "1"], ["2", "-1"]]}))
    code, out = invoke(capsys, ["fan", "classify", str(path)])
    assert code == 0
    assert parse(out)["payload"] == {"class": "Orbifold", "index": 2}


def test_fan_classify_drops_a_ray_that_is_not_extreme(capsys, tmp_path):
    # (1, 1) lies inside the positive quadrant, which is smooth
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [[1, 0], [1, 1], [0, 1]]}))
    code, out = invoke(capsys, ["fan", "classify", str(path)])
    assert code == 0
    assert parse(out)["payload"] == {"class": "Smooth"}


def test_quotient_data(capsys, square_file):
    code, out = invoke(capsys, ["quotient", "data", "--polytope",
                                square_file])
    assert code == 0
    p = parse(out)["payload"]
    assert p["forbidden_strata"] == [[0, 1], [2, 3]]
    assert len(p["nu_P"]) == 2


def test_quotient_data_accepts_an_irrational_normal_scale(capsys, tmp_path):
    # sqrt(2) x >= 1, y >= 0, x + y <= 3: a rational polytope
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"facets": [
        {"normal": [{"a": "0", "b": "1", "d": 2}, 0], "offset": 1},
        {"normal": [0, 1], "offset": 0},
        {"normal": [-1, -1], "offset": -3}]}))
    code, out = invoke(capsys, ["quotient", "data", "--polytope", str(path)])
    assert code == 0
    assert parse(out)["payload"]["nu_P"] == [{"a": "3", "b": "-1/2", "d": 2}]


def test_lvm_subcommands(capsys, five_vector_file):
    code, out = invoke(capsys, ["lvm", "check", "--config",
                                five_vector_file])
    assert code == 0
    assert parse(out)["payload"] == {"siegel": True, "weak_hyperbolic": True}
    code, out = invoke(capsys, ["lvm", "dichotomy", "--config",
                                five_vector_file])
    assert parse(out)["payload"] == {"condition_K": True,
                                     "dichotomy": "CompactTori"}
    code, out = invoke(capsys, ["lvm", "fiber", "--config",
                                five_vector_file])
    p = parse(out)["payload"]
    assert p["torus_rank"] == 4 and p["rational"]
    assert p["slope"] == {"a": "1", "b": "0", "d": 0}
    code, out = invoke(capsys, ["lvm", "polytope", "--config",
                                five_vector_file])
    obj = parse(out)
    assert obj["payload"]["dim"] == 2
    assert obj["diagnostics"] == ["redundant_facet:4"]
    code, out = invoke(capsys, ["lvm", "polytope", "--config",
                                five_vector_file, "--eps", "2,2,2,2,1"])
    assert code == 0 and parse(out)["payload"]["dim"] == 2


def test_lvm_gale_reads_eps(capsys, five_vector_file):
    code, out = invoke(capsys, ["lvm", "gale", "--config", five_vector_file,
                                "--eps", "1,2,3,4,sqrt(2)"])
    assert code == 0
    assert parse(out)["payload"]["epsilons"] == [
        {"a": str(k), "b": "0", "d": 0} for k in (1, 2, 3, 4)] + [
        {"a": "0", "b": "1", "d": 2}]
    default = parse(invoke(capsys, ["lvm", "gale", "--config",
                                    five_vector_file])[1])["payload"]
    code, out = invoke(capsys, ["lvm", "gale", "--config", five_vector_file,
                                "--eps", "1,1,1,1,1"])
    assert code == 0 and parse(out)["payload"] == default
    # a list of the wrong length or with a bad literal is bad input
    for eps in ("1,2,3,4", "1,2,3,4,5,6", "zzz", "1,,1,1,1", ""):
        for action in ("gale", "polytope"):
            code, out = invoke(capsys, ["lvm", action, "--config",
                                        five_vector_file, f"--eps={eps}"])
            assert code == 3, (action, eps)
            assert json.loads(out)["error"] == "InputError"


#: a path that does not exist: a call that reads it before refusing a flag
#: exits 3 with a JSON error instead of 2 with nothing on stdout
MISSING = "/nonexistent/input.json"


def _base_call(key):
    """argv of the (command, action) entry of ACTIONS with every required
    flag given and no optional one; files are MISSING."""
    argv = [part for part in key if part is not None]
    for name, keywords in ACTIONS[key][0].items():
        if not name.startswith("--"):
            argv.append(MISSING)
        elif keywords.get("required"):
            argv += [name, "3" if keywords.get("type") is int else MISSING]
    return argv


def _undeclared_flags():
    """(key, flag, its keywords) for every flag that some entry of ACTIONS
    declares and the entry under key does not."""
    flags = {name: keywords for entry in ACTIONS.values()
             for name, keywords in entry[0].items() if name.startswith("--")}
    return [(key, name, flags[name]) for key in ACTIONS
            for name in sorted(flags) if name not in ACTIONS[key][0]]


def test_every_action_refuses_the_flags_it_does_not_declare(
        capsys, five_vector_file):
    calls = []
    for key, name, keywords in _undeclared_flags():
        argv = _base_call(key)
        # the call is valid without the flag: it gets to read MISSING
        assert run(argv) == 3, argv
        capsys.readouterr()
        calls.append((argv, [name] if keywords.get("action") == "store_true"
                      else [name, "1"]))
    # --eps on the lvm actions that take no epsilons, with a configuration
    # that can be read
    calls += [(["lvm", action, "--config", five_vector_file], [f"--eps={eps}"])
              for action in ("check", "dichotomy", "fiber")
              for eps in ("1,2,3,4,5", "zzz", "")]
    for argv, extra in calls:
        assert run(argv + extra) == 2, argv + extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: nctoric ")
        assert captured.err.endswith(
            "nctoric: error: unrecognized arguments: "
            + " ".join(extra) + "\n")
    for command in {command for command, action in ACTIONS if action}:
        assert run([command]) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["hj", "expand", "--value", "7/5", "--svg"],
    ["hj", "expand", "--value", "7/5", "--cone", MISSING],
    ["hj", "resolve", "--cone", MISSING, "--value", "3"],
    ["nctorus", "classify", "--theta", "sqrt(2)", "--theta1", "zzz"],
    ["nctorus", "morita", "--theta1", "sqrt(2)", "--theta2", "1+sqrt(2)",
     "--theta", "1"],
    ["hh", "ranks", "--algebra", MISSING, "--N", "5"],
    # abbreviations of declared flags, and of another action's flag
    ["hj", "expand", "--val", "7/5"],
    ["nctorus", "classify", "--the", "sqrt(2)"],
    ["lvm", "check", "--conf", MISSING],
    ["hh", "hp", "--algebra", MISSING, "--up", "5"],
    ["hj", "expand", "--value", "sqrt(2)", "--d", "3"],
], ids=" ".join)
def test_flag_the_action_does_not_declare_is_a_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_synopsis_names_every_action_and_its_flags():
    with open(README) as fh:
        section = fh.read().split("## CLI examples\n", 1)[1]
    synopsis = section.split("```text\n", 1)[1].split("```", 1)[0]
    found = {}
    for line in synopsis.splitlines():
        words = [w for w in line.split()[1:]
                 if w.islower() and not w.startswith(("-", "["))]
        found[words[0], words[1] if len(words) > 1 else None] = (
            re.findall(r"--[\w-]+", line), re.findall(r"\[(--[\w-]+)", line))
    declared = {key: ([name for name in flags if name.startswith("--")],
                      [name for name, keywords in flags.items()
                       if name.startswith("--")
                       and not keywords.get("required")])
                for key, (flags, _, _) in ACTIONS.items()}
    assert {key: (sorted(a), sorted(b)) for key, (a, b) in found.items()} == {
        key: (sorted(a), sorted(b)) for key, (a, b) in declared.items()}


def test_hj_expand(capsys):
    code, out = invoke(capsys, ["hj", "expand", "--value", "7/5"])
    assert code == 0
    assert parse(out)["payload"] == {"digits": [2, 2, 3], "finite": True}
    code, out = invoke(capsys, ["hj", "expand", "--value", "sqrt(2)",
                                "--depth", "5"])
    p = parse(out)["payload"]
    assert p["digits"] == [2, 2, 4, 2, 4]
    assert not p["finite"]
    assert p["preperiod_len"] == 1 and p["period"] == [2, 4]


def test_hj_resolve(capsys, tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [["0", "1"], ["2", "-1"]]}))
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path)])
    assert code == 0
    p = parse(out)["payload"]
    assert p["inserted_rays"] == [[{"a": "1", "b": "0", "d": 0},
                                   {"a": "0", "b": "0", "d": 0}]]
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path),
                                "--svg"])
    assert code == 0 and out.startswith("<svg ")


def test_nctorus(capsys):
    code, out = invoke(capsys, ["nctorus", "classify", "--theta", "sqrt(2)"])
    assert code == 0
    assert parse(out)["payload"] == {"class": "DenseLeaves"}
    code, out = invoke(capsys, ["nctorus", "classify", "--theta", "2/3"])
    assert parse(out)["payload"] == {"class": "ClosedLeaves"}
    code, out = invoke(capsys, ["nctorus", "morita", "--theta1", "1/2",
                                "--theta2", "sqrt(2)"])
    assert parse(out)["payload"] == {"commutative_torus": True}
    code, out = invoke(capsys, ["nctorus", "morita", "--theta1", "sqrt(2)",
                                "--theta2", "1+sqrt(2)"])
    p = parse(out)["payload"]
    assert p["equivalent"] and p["witness"] == [[1, 1], [0, 1]]
    code, out = invoke(capsys, ["nctorus", "morita", "--theta1", "sqrt(2)",
                                "--theta2", "sqrt(3)"])
    assert parse(out)["payload"] == {"equivalent": False, "witness": None}


def test_gvec(capsys):
    code, out = invoke(capsys, ["gvec", "--f", "1,6,12,8", "--d", "3"])
    assert code == 0
    p = parse(out)["payload"]
    assert p["h"] == [1, 3, 3, 1] and p["pass"]
    code, out = invoke(capsys, ["gvec", "--f", "1,6,12,7", "--d", "3"])
    assert code == 0 and not parse(out)["payload"]["pass"]


def test_gvec_with_large_entries_finishes_quickly(capsys):
    start = time.perf_counter()
    code, out = invoke(capsys, ["gvec", "--f",
                                "1,100000004,400000006,600000004,300000002",
                                "--d", "4"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert parse(out)["payload"]["g"] == [1, 99999999, 0]


def test_hh(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(ground_field().to_json()))
    code, out = invoke(capsys, ["hh", "ranks", "--algebra", str(path)])
    assert code == 0
    assert parse(out)["payload"] == {"ranks": [1, 0, 0, 0]}
    path.write_text(json.dumps(group_algebra_z2().to_json()))
    code, out = invoke(capsys, ["hh", "hp", "--algebra", str(path),
                                "--N", "2"])
    assert parse(out)["payload"] == {"even": 2, "odd": 0, "N": 2}


def test_usage_errors(capsys):
    assert invoke(capsys, ["bogus"])[0] == 2
    assert invoke(capsys, ["nctorus", "morita", "--theta1", "sqrt(2)"])[0] == 2
    assert invoke(capsys, ["hj", "expand"])[0] == 2


def _required_flags():
    """(argv, missing) for each required flag or positional of each entry
    of ACTIONS: the entry's call with every other required flag given."""
    calls = []
    for key, (flags, _, _) in ACTIONS.items():
        for name, keywords in flags.items():
            if keywords.get("required") or not name.startswith("--"):
                argv = _base_call(key)
                if name.startswith("--"):
                    i = argv.index(name)
                    del argv[i:i + 2]
                else:
                    argv.remove(MISSING)
                calls.append((argv, name))
    return calls


def test_missing_required_flag_is_named_on_stderr(capsys):
    calls = _required_flags()
    assert {missing for _, missing in calls} == {
        "file", "--polytope", "--config", "--value", "--cone", "--theta",
        "--theta1", "--theta2", "--f", "--d", "--algebra"}
    for argv, missing in calls + [
            (["nctorus", "morita", "--theta2=2"], "--theta1"),
            (["nctorus", "morita"], "--theta1, --theta2")]:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: nctoric {argv[0]} ")
        assert captured.err.endswith(
            f"error: the following arguments are required: {missing}\n")


def test_input_errors(capsys, tmp_path):
    # decimal literals are rejected, and so is deep nesting
    for value in ("1.4", "(" * 5000 + "2" + ")" * 5000):
        code, out = invoke(capsys, ["hj", "expand", "--value", value])
        assert code == 3
        err = json.loads(out)
        assert err["status"] == "error" and err["error"] == "InputError"
    # unreadable file
    code, out = invoke(capsys, ["polytope", "info",
                                str(tmp_path / "missing.json")])
    assert code == 3
    # the zero vector spans no ray
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [["0", "0"], ["1", "0"]]}))
    code, out = invoke(capsys, ["fan", "classify", str(path)])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"


def test_domain_errors(capsys, tmp_path):
    code, out = invoke(capsys, ["hj", "expand", "--value", "1/2"])
    assert code == 4
    assert json.loads(out)["error"] == "OutOfRange"
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"facets": [
        {"normal": ["1", "0"], "offset": "1"},
        {"normal": ["-1", "0"], "offset": "1"},
        {"normal": ["0", "1"], "offset": "0"},
        {"normal": ["0", "-1"], "offset": "0"}]}))
    code, out = invoke(capsys, ["polytope", "info", str(path)])
    assert code == 4
    assert json.loads(out)["error"] == "Empty"


def test_flat_polytopes_are_domain_errors(capsys, tmp_path):
    # a square squashed onto the y-axis, and the point x = -2
    path = tmp_path / "flat.json"
    for facets in ([(["1", "0"], "0"), (["-1", "0"], "0"),
                    (["0", "1"], "0"), (["0", "-1"], "-1")],
                   [(["-3/2"], "3"), (["1"], "-2")]):
        path.write_text(json.dumps({"facets": [
            {"normal": n, "offset": c} for n, c in facets]}))
        code, out = invoke(capsys, ["polytope", "info", str(path)])
        assert code == 4
        assert json.loads(out)["error"] == "NotSimple"


def test_zero_denominator_is_an_input_error(capsys, tmp_path):
    code, out = invoke(capsys, ["hj", "expand", "--value", "1/0"])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [["0", "1"], ["2", "1/0"]]}))
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path)])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"


def test_radicand_above_the_limit_is_an_input_error(capsys, tmp_path):
    code, out = invoke(capsys, ["hj", "expand", "--value",
                                "sqrt(99999999999999999999999)"])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [
        ["0", "1"], [{"a": "1", "b": "1", "d": 10**7 + 1}, "-1"]]}))
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path)])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"


def test_literal_past_the_digit_limit_is_an_input_error(capsys):
    # an integer, a denominator and a radicand each longer than the
    # interpreter reads as an int
    limit = sys.get_int_max_str_digits()
    for argv in (["hj", "expand", "--value", "1" * (limit + 700)],
                 ["nctorus", "morita", "--theta1", "sqrt(2)",
                  "--theta2", "1/" + "3" * (limit + 100)],
                 ["nctorus", "classify",
                  "--theta", "sqrt(" + "9" * (limit + 700) + ")"]):
        code, out = invoke(capsys, argv)
        assert code == 3, argv[:2]
        err = json.loads(out)
        assert (err["status"], err["error"]) == ("error", "InputError")


def test_an_error_message_quotes_a_huge_input_in_short(capsys, tmp_path):
    # a 5000-digit literal, integer list and JSON rational and a 4000-digit
    # radicand each exit 3 with a message that quotes the start of the
    # input and its length
    digits = "1" * 5000
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [["0", "1"], [{"a": digits}, "1"]]}))
    for argv, quoted in ((["hj", "expand", "--value", digits], digits),
                         (["gvec", "--f", "1," + digits, "--d", "3"],
                          "1," + digits),
                         (["hj", "resolve", "--cone", str(path)], digits),
                         (["hj", "expand", "--value", f"sqrt({digits[:4000]})"],
                          int(digits[:4000]))):
        code, out = invoke(capsys, argv)
        assert code == 3, argv[:2]
        err = json.loads(out)
        assert (err["status"], err["error"]) == ("error", "InputError")
        assert len(err["message"]) < 200
        assert f"{repr(quoted)[:100]}... ({len(repr(quoted))} characters)" \
            in err["message"]


def test_depth_below_one_is_an_input_error(capsys, tmp_path):
    code, out = invoke(capsys, ["hj", "expand", "--value", "sqrt(2)",
                                "--depth=-3"])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [["0", "1"], ["2", "-1"]]}))
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path),
                                "--depth", "0"])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"


def test_depth_above_the_limit_is_an_input_error(capsys, tmp_path):
    for depth in (DEPTH_LIMIT + 1, 3000000):
        code, out = invoke(capsys, ["hj", "expand", "--value", "1+sqrt(2)",
                                    "--depth", str(depth)])
        assert code == 3
        assert json.loads(out)["error"] == "InputError"
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [
        ["0", "1"], [{"a": "1", "b": "1", "d": 2}, "-1"]]}))
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path),
                                "--depth", "3000"])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path),
                                "--depth", str(DEPTH_LIMIT)])
    assert code == 0
    assert len(parse(out)["payload"]["inserted_rays"]) == DEPTH_LIMIT


def test_rational_chain_past_the_limit_is_a_domain_error(capsys, tmp_path):
    # (n + 1)/n has n Hirzebruch-Jung digits
    n = DEPTH_LIMIT
    code, out = invoke(capsys, ["hj", "expand", "--value", f"{n + 1}/{n}"])
    assert code == 0
    assert len(parse(out)["payload"]["digits"]) == n
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rays": [[0, 1], [n + 1, -n]]}))
    code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path)])
    assert code == 0
    assert len(parse(out)["payload"]["inserted_rays"]) == n
    path.write_text(json.dumps({"rays": [[0, 1], [n + 2, -n - 1]]}))
    for argv in (["hj", "expand", "--value", f"{n + 2}/{n + 1}"],
                 ["hj", "resolve", "--cone", str(path)],
                 ["hj", "resolve", "--cone", str(path), "--svg"]):
        code, out = invoke(capsys, argv)
        assert code == 4
        err = json.loads(out)
        assert err["error"] == "ChainTooLong"
        assert f"DEPTH_LIMIT = {n}" in err["message"]


#: 10^25 sqrt(2): neither continued fraction repeats within
#: PERIOD_SEARCH_LIMIT steps
HUGE = "sqrt(2)*10000000000000000000000000"


def test_period_search_on_a_huge_quadratic_ends_quickly(capsys):
    for argv in (["hj", "expand", "--value", HUGE, "--depth", "2"],
                 ["nctorus", "morita", f"--theta1={HUGE}",
                  "--theta2=sqrt(2)"]):
        start = time.perf_counter()
        code, out = invoke(capsys, argv)
        assert time.perf_counter() - start < 5.0
        assert code == 4
        assert json.loads(out)["error"] == "PeriodNotFound"


def test_subset_searches_above_the_limit_exit_4_at_once(tmp_path):
    # 20 generic vectors in C^6: the weak hyperbolicity check would test
    # C(20, 12) hulls and the 7-dimensional Gale polytope would solve
    # C(20, 7) facet subsets; neither finished in 20 s without the cap
    rng = random.Random(6)
    lambdas = [[(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)]
               for _ in range(20)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(lvm.configuration_to_json(
        lvm.Configuration(lambdas))))
    for action, count in (("check", "C(20, 12) = 125970"),
                          ("polytope", "C(20, 7) = 77520")):
        start = time.perf_counter()
        code, out, _ = _captured_run(["lvm", action, "--config", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 4
        err = json.loads(out)
        assert err["error"] == "TooManySubsets"
        assert count in err["message"]
        assert f"SUBSET_LIMIT = {polytope.SUBSET_LIMIT}" in err["message"]


def test_lvm_dimension_that_is_no_integer_is_an_input_error(capsys,
                                                             tmp_path):
    path = tmp_path / "cfg.json"
    for m in (1.0, True, "1", -1):
        path.write_text(json.dumps({"m": m, "lambdas": [
            [{"re": "1", "im": "0"}], [{"re": "0", "im": "1"}],
            [{"re": "-1", "im": "-1"}]]}))
        code, out = invoke(capsys, ["lvm", "check", "--config", str(path)])
        assert code == 3
        err = json.loads(out)
        assert err["error"] == "InputError"
        assert "m must be a non-negative integer" in err["message"]


def test_cone_and_fan_dimension_that_is_no_positive_integer_is_an_input_error(
        capsys, tmp_path):
    path = tmp_path / "doc.json"
    rays = [[1, 0], [0, 1]]
    for dim in (2.0, True, "2", 1.5, -1, 0):
        for argv, doc in (
                (["fan", "svg"], {"dim": dim, "cones": [{"rays": rays}]}),
                (["fan", "classify"], {"dim": dim, "rays": rays}),
                (["hj", "resolve", "--cone"], {"dim": dim, "rays": rays})):
            path.write_text(json.dumps(doc))
            code, out = invoke(capsys, argv + [str(path)])
            assert code == 3, (argv, dim)
            assert json.loads(out)["error"] == "InputError"
    # a "dim" that is a positive int but not the ray length is bad too
    path.write_text(json.dumps({"dim": 3, "rays": rays}))
    assert invoke(capsys, ["fan", "classify", str(path)])[0] == 3
    for argv, doc in ((["fan", "svg"], {"dim": 2, "cones": [{"rays": rays}]}),
                      (["fan", "classify"], {"dim": 2, "rays": rays}),
                      (["hj", "resolve", "--cone"], {"dim": 2, "rays": rays})):
        path.write_text(json.dumps(doc))
        assert invoke(capsys, argv + [str(path)])[0] == 0


def test_svg_beyond_the_float_range_is_a_domain_error(capsys, tmp_path):
    huge = 10**400
    path = tmp_path / "big.json"
    for command, doc in (
            ("polytope", {"facets": [
                {"normal": ["1", "0"], "offset": str(-huge)},
                {"normal": ["-1", "0"], "offset": "-1"},
                {"normal": ["0", "1"], "offset": "0"},
                {"normal": ["0", "-1"], "offset": "-1"}]}),
            ("fan", {"dim": 2, "cones": [{"rays": [[huge, 1], [0, 1]]}]})):
        path.write_text(json.dumps(doc))
        code, out = invoke(capsys, [command, "svg", str(path)])
        assert code == 4
        assert json.loads(out)["error"] == "OutOfRange"


def test_output_number_past_the_digit_limit_is_a_domain_error(capsys,
                                                              tmp_path):
    # every input fits the interpreter's limit on the digits of an int
    # written as text, but the vertex (A, K A) of this strip has twice as
    # many digits
    limit = sys.get_int_max_str_digits()
    A = K = 10 ** (limit // 2 + 50)
    path = tmp_path / "strip.json"
    path.write_text(json.dumps({"facets": [
        {"normal": [str(a), str(b)], "offset": str(c)}
        for (a, b), c in (((1, 0), A), ((-1, 0), -(A + 1)), ((-K, 1), 0),
                          ((K, -1), -1))]}))
    code, out = invoke(capsys, ["polytope", "info", str(path)])
    assert code == 4
    err = json.loads(out)
    assert (err["status"], err["error"]) == ("error", "OutOfRange")
    assert f"{limit}-digit limit" in err["message"]
    # the same number, as a Scalar part or as a payload integer
    for write in (lambda: Scalar(A * K).to_json(),
                  lambda: Scalar(0, A * K, 2).to_json(),
                  lambda: cli._canonical({"digits": [A * K]})):
        with pytest.raises(OutOfRange):
            write()
    assert cli._canonical({"digits": [A]}).startswith('{"digits":[1000')


def test_json_decimals_and_floats_are_input_errors(capsys, tmp_path):
    path = tmp_path / "cone.json"
    for x in ({"a": "0.1"}, {"a": 0.1}, "1e3", 2.0, True):
        path.write_text(json.dumps({"rays": [["0", "1"], [x, "-1"]]}))
        code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path)])
        assert code == 3
        assert json.loads(out)["error"] == "InputError"
    doc = ground_field().to_json()
    for bad in ({"dim": 1.7}, {"unit": ["1.0"]}, {"c": [[[1e0]]]}):
        path.write_text(json.dumps(dict(doc, **bad)))
        code, out = invoke(capsys, ["hh", "ranks", "--algebra", str(path)])
        assert code == 3
        assert json.loads(out)["error"] == "InputError"


def test_unreadable_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "cone.json"
    # bytes that are not UTF-8, an integer of 5000 digits, and arrays
    # nested deeper than the decoder recurses
    huge = b'{"rays": [[0, 1], [' + b"7" * 5000 + b', -1]]}'
    for data in (b"\xff\xfe{", huge, b"[" * 100000 + b"]" * 100000):
        path.write_bytes(data)
        code, out = invoke(capsys, ["hj", "resolve", "--cone", str(path)])
        assert code == 3
        assert json.loads(out)["error"] == "InputError"


def test_search_bound_is_no_option(capsys):
    assert invoke(capsys, ["nctorus", "morita", "--theta1", "sqrt(2)",
                           "--theta2", "1+sqrt(2)",
                           "--search-bound", "5"])[0] == 2


def test_hh_hp_truncation(capsys, tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(matrix_algebra(2).to_json()))
    # the default truncation is 2N - 1 = 5 for the default N = 3
    code, out = invoke(capsys, ["hh", "hp", "--algebra", str(path)])
    assert code == 0
    assert parse(out)["payload"] == {"even": 1, "odd": 0, "N": 3}
    code, out = invoke(capsys, ["hh", "hp", "--algebra", str(path),
                                "--upto", "3"])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"


def test_hh_rejects_zero_algebra_zero_denominator_and_negative_degree(
        capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 0, "c": [], "unit": []}))
    code, out = invoke(capsys, ["hh", "ranks", "--algebra", str(path)])
    assert code == 4
    assert json.loads(out)["error"] == "InvalidAlgebra"
    path.write_text(json.dumps({"dim": 1, "c": [[["1/0"]]], "unit": ["1"]}))
    code, out = invoke(capsys, ["hh", "ranks", "--algebra", str(path)])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"
    path.write_text(json.dumps(ground_field().to_json()))
    code, out = invoke(capsys, ["hh", "ranks", "--algebra", str(path),
                                "--upto", "-1"])
    assert code == 3
    assert json.loads(out)["error"] == "InputError"


# algebra documents for the hh fuzz test: valid tables of dim 1-3, in which
# one constant may be replaced, and tables drawn from CONSTANTS alone
VALID_ALGEBRAS = [A.to_json() for A in (ground_field(), product_of_fields(2),
                                        group_algebra_z2(),
                                        product_of_fields(3))]
CONSTANTS = ["0", "1", "-1", "1/2", "1/0", "x", None, ["1"], [["0", "1"]]]
#: wall-clock budget of one fuzzed call, in seconds
HH_CALL_BUDGET_S = 5.0


@st.composite
def algebra_documents(draw):
    constant = st.sampled_from(CONSTANTS)
    if draw(st.booleans()):
        doc = json.loads(json.dumps(draw(st.sampled_from(VALID_ALGEBRAS))))
        dim = doc["dim"]
        if draw(st.booleans()):
            i, j, t = (draw(st.integers(0, dim - 1)) for _ in range(3))
            doc["c"][i][j][t] = draw(constant)
        if draw(st.booleans()):
            doc["unit"][draw(st.integers(0, dim - 1))] = draw(constant)
        return doc
    dim = draw(st.integers(0, 3))
    return {"dim": draw(st.sampled_from((dim, dim, dim - 1, dim + 1))),
            "c": [[[draw(constant) for _ in range(dim)] for _ in range(dim)]
                  for _ in range(dim)],
            "unit": [draw(constant) for _ in range(dim)]}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(doc=algebra_documents(), action=st.sampled_from(["ranks", "hp"]),
       upto=st.one_of(st.none(), st.integers(-3, 8)),
       n=st.one_of(st.none(), st.integers(-2, 5)))
def test_hh_fuzz_ends_in_a_known_exit_code(doc, action, upto, n):
    argv = ["hh", action]
    flags = ACTIONS["hh", action][0]
    if upto is not None and "--upto" in flags:
        argv += ["--upto", str(upto)]
    if n is not None and "--N" in flags:
        argv += ["--N", str(n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv + ["--algebra", path])
        assert time.perf_counter() - start < HH_CALL_BUDGET_S
    assert code in (0, 2, 3, 4)


#: a 25-digit coefficient
BIG = st.integers(10**24, 10**25 - 1)
MALFORMED = ["1.5", "1e3", "sqrt(2)+", "(1", "x", "", "1/0", "sqrt(-2)"]
#: wall-clock budget of one fuzzed continued-fraction call, in seconds: at
#: most PERIOD_SEARCH_LIMIT steps on the largest literals drawn
CF_CALL_BUDGET_S = 10.0


@st.composite
def scalar_literals(draw):
    """Literals of the scalar grammar with 25-digit coefficients and
    radicands around RADICAND_LIMIT, or a malformed string."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(MALFORMED))
    coeff = st.one_of(st.integers(0, 9), BIG).map(str)
    atom = st.one_of(
        coeff, st.builds("{}/{}".format, coeff, st.integers(0, 9)),
        st.builds("sqrt({})".format,
                  st.one_of(st.integers(0, 12),
                            st.integers(RADICAND_LIMIT - 3,
                                        RADICAND_LIMIT + 1))))
    terms = ["*".join(draw(st.lists(atom, min_size=1, max_size=2)))
             for _ in range(draw(st.integers(1, 3)))]
    text = terms[0]
    for t in terms[1:]:
        text += draw(st.sampled_from("+-")) + t
    return f"-({text})" if draw(st.booleans()) else text


def _json_scalar(text):
    try:
        return parse_scalar(text).to_json()
    except NctoricError:  # malformed, or two fields mixed
        return text


@st.composite
def cf_calls(draw):
    """argv of hj expand/resolve and nctorus classify/morita, and the cone
    document hj resolve reads."""
    command = draw(st.sampled_from(["expand", "resolve", "classify",
                                    "morita"]))
    depth = draw(st.one_of(st.none(), st.integers(-2, DEPTH_LIMIT + 1)))
    depth = [] if depth is None else ["--depth", str(depth)]
    if command == "expand":
        value = draw(scalar_literals())
        return ["hj", "expand", f"--value={value}"] + depth, None
    if command == "resolve":
        rays = [["0", "1"], [_json_scalar(draw(scalar_literals())), "-1"]]
        return ["hj", "resolve"] + depth, {"rays": draw(st.permutations(rays))}
    if command == "classify":
        return ["nctorus", "classify",
                f"--theta={draw(scalar_literals())}"], None
    return ["nctorus", "morita", f"--theta1={draw(scalar_literals())}",
            f"--theta2={draw(scalar_literals())}"], None


@settings(derandomize=True, max_examples=150, deadline=None)
@given(call=cf_calls())
def test_continued_fraction_fuzz_ends_in_a_known_exit_code(call):
    argv, cone = call
    with tempfile.TemporaryDirectory() as tmp:
        if cone is not None:
            path = os.path.join(tmp, "cone.json")
            with open(path, "w") as fh:
                json.dump(cone, fh)
            argv = argv + ["--cone", path]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        assert time.perf_counter() - start < CF_CALL_BUDGET_S
    assert code in (0, 2, 3, 4)


#: a rational far outside the float range
HUGE_RATIONAL = "1" + "0" * 400
RATIONAL_ENTRIES = ["0", "1", "-1", "2", "-2", "1/2", "-3/2", HUGE_RATIONAL]
#: irrational entries: one field, the other, or both mixed
IRRATIONAL_ENTRIES = [["sqrt(2)", "1-sqrt(2)"], ["sqrt(3)"],
                      ["sqrt(2)", "1-sqrt(2)", "sqrt(3)"]]
#: wall-clock budget of one fuzzed polytope, fan or quotient call, in seconds
GEOMETRY_CALL_BUDGET_S = 5.0


@st.composite
def geometry_calls(draw):
    """argv of polytope info/svg, fan of-polytope/classify/svg and quotient
    data, and the polytope (up to 6 facets), cone (up to 4 rays) or fan (up
    to 3 cones) document they read, in dimension 1-3."""
    argv = draw(st.sampled_from([["polytope", "info"], ["polytope", "svg"],
                                 ["fan", "of-polytope"], ["fan", "classify"],
                                 ["fan", "svg"],
                                 ["quotient", "data", "--polytope"]]))
    dim = draw(st.integers(1, 3))
    entry = st.sampled_from([parse_scalar(x) for x in RATIONAL_ENTRIES + draw(
        st.sampled_from(IRRATIONAL_ENTRIES))])
    vector = st.lists(entry, min_size=dim, max_size=dim)
    if argv[1] == "classify":
        rays = draw(st.lists(vector, min_size=1, max_size=4))
        return argv, {"rays": [[x.to_json() for x in r] for r in rays]}
    if argv[1] == "svg" and argv[0] == "fan":
        cones = draw(st.lists(st.lists(vector, min_size=1, max_size=dim),
                              max_size=3))
        return argv, {"dim": dim, "cones": [
            {"rays": [[x.to_json() for x in r] for r in c]} for c in cones]}
    facets = []
    if draw(st.booleans()):  # start from a simplex, so the data is bounded
        facets = [([Scalar(int(i == j)) for j in range(dim)], Scalar(0))
                  for i in range(dim)] + [([Scalar(-1)] * dim, Scalar(-2))]
    facets += draw(st.lists(st.tuples(vector, entry),
                            min_size=0 if facets else 1,
                            max_size=5 - len(facets)))
    if draw(st.booleans()):  # the opposite halfspace of a facet: no interior
        n, c = draw(st.sampled_from(facets))
        facets.append(([-x for x in n], -c))
    return argv, {"facets": [{"normal": [x.to_json() for x in n],
                              "offset": c.to_json()} for n, c in facets]}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(call=geometry_calls())
def test_geometry_fuzz_ends_in_a_known_exit_code(call):
    argv, doc = call
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = run(argv + [path])
        assert time.perf_counter() - start < GEOMETRY_CALL_BUDGET_S
    assert code in (0, 2, 3, 4)
    if code == 0 and argv[:2] == ["polytope", "info"]:
        # a full-dimensional polytope has at least dim + 1 vertices
        p = json.loads(out.getvalue())["payload"]
        assert len(p["vertices"]) >= p["dim"] + 1


#: wall-clock budget of one fuzzed gvec or lvm call, in seconds
LVM_CALL_BUDGET_S = 5.0
#: an integer past the interpreter's 4300-digit limit for int()
TOO_LONG_INTEGER = "7" * 5000


@st.composite
def gvec_calls(draw):
    """argv of gvec: an f-vector (often of the length d + 1 asks for, with
    f_(-1) = 1) of small, huge or malformed entries."""
    d = draw(st.integers(-2, 8))
    entry = st.one_of(st.integers(-3, 60).map(str),
                      st.sampled_from([HUGE_RATIONAL, TOO_LONG_INTEGER,
                                       "x", "", "1.5", "1/2"]))
    if draw(st.booleans()):
        f = ["1"] + draw(st.lists(entry, min_size=max(d, 0),
                                  max_size=max(d, 0)))
    else:
        f = draw(st.lists(entry, max_size=9))
    return ["gvec", "--f", ",".join(f), "--d", str(d)]


@st.composite
def lvm_calls(draw):
    """argv of every lvm action and the configuration document it reads:
    n vectors in C^m (m <= 6, 2m <= n <= 20; "m" sometimes negative or
    not an int)
    with entries from one field, and for lvm polytope an optional --eps
    list of scalar literals."""
    action = draw(st.sampled_from(["check", "gale", "dichotomy", "fiber",
                                   "polytope"]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2 * m, 20))
    entry = st.sampled_from([parse_scalar(x).to_json() for x in
                             RATIONAL_ENTRIES + draw(
                                 st.sampled_from(IRRATIONAL_ENTRIES))])
    config = {"m": draw(st.sampled_from([m, m, m, -m, float(m), str(m),
                                         True])),
              "lambdas": [[{"re": draw(entry), "im": draw(entry)}
                           for _ in range(m)] for _ in range(n)]}
    argv = ["lvm", action]
    if action == "polytope" and draw(st.booleans()):
        size = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        argv.append("--eps=" + ",".join(
            draw(scalar_literals()) for _ in range(size)))
    return argv, config


@settings(derandomize=True, max_examples=200, deadline=None)
@given(call=st.one_of(gvec_calls().map(lambda argv: (argv, None)),
                      lvm_calls()))
def test_gvec_and_lvm_fuzz_ends_in_a_known_exit_code(call):
    argv, config = call
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = argv + ["--config", path]
        start = time.perf_counter()
        code = _captured_run(argv)[0]
        assert time.perf_counter() - start < LVM_CALL_BUDGET_S
    assert code in (0, 2, 3, 4)


def test_shared_parser_carries_no_state_between_calls(
        tmp_path, square_file, five_vector_file):
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"rays": [["0", "1"], ["2", "-1"]]}))
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps({"dim": 2, "cones": [
        {"rays": [[1, 0], [0, 1]]}, {"rays": [[0, 1], [-1, 0]]}]}))
    algebra = tmp_path / "alg.json"
    algebra.write_text(json.dumps(group_algebra_z2().to_json()))
    malformed = tmp_path / "bad.json"
    malformed.write_text('{"facets": [')
    calls = [["polytope", "info", square_file],
             ["polytope", "svg", square_file],
             ["fan", "of-polytope", square_file],
             ["fan", "classify", str(cone)], ["fan", "svg", str(fan_file)],
             ["quotient", "data", "--polytope", square_file],
             ["lvm", "check", "--config", five_vector_file],
             ["lvm", "polytope", "--config", five_vector_file,
              "--eps", "2,2,2,2,1"],
             ["hj", "expand", "--value", "sqrt(2)", "--depth", "5"],
             ["hj", "resolve", "--cone", str(cone), "--svg"],
             ["nctorus", "classify", "--theta", "2/3"],
             ["nctorus", "morita", "--theta1", "sqrt(2)",
              "--theta2", "1+sqrt(2)"],
             ["gvec", "--f", "1,6,12,8", "--d", "3"],
             ["hh", "hp", "--algebra", str(algebra), "--N", "2"],
             ["--help"], ["hj", "--help"], ["lvm", "polytope", "--help"],
             [], ["bogus"], ["hj", "expand"], ["hj", "expand", "--depth"],
             ["nctorus", "morita", "--theta1", "sqrt(2)"],
             ["gvec", "--f", "1,4"], ["hh", "ranks", "--upto", "x"],
             ["polytope", "explode", square_file],
             ["polytope", "info", str(malformed)],
             ["fan", "svg", str(malformed)],
             ["hj", "expand", "--value", "1.5"]]
    forward = [_captured_run(argv) for argv in calls]
    backward = [_captured_run(argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert {code for code, _, _ in forward} == {0, 2, 3}


def test_valid_calls_leave_no_cyclic_garbage(tmp_path, square_file,
                                             five_vector_file):
    algebra = tmp_path / "alg.json"
    algebra.write_text(json.dumps(product_of_fields(2).to_json()))
    calls = []
    for k in range(1, 5):
        calls += [["hj", "expand", "--value", f"{k + 7}/{k + 2}"],
                  ["hj", "expand", "--value", f"{k}+sqrt({k + 1})",
                   "--depth", "4"],
                  ["nctorus", "classify", f"--theta={k}/3+sqrt(5)"],
                  ["nctorus", "morita", "--theta1=sqrt(2)",
                   f"--theta2={k}+sqrt(2)"],
                  ["lvm", "polytope", "--config", five_vector_file, "--eps",
                   f"{k},2,2,2,1"],
                  ["polytope", "info", square_file],
                  ["gvec", "--f", "1,6,12,8", "--d", "3"],
                  ["gvec", "--f", f"1,{k + 3},{k + 3}", "--d", "2"],
                  ["hh", "ranks", "--algebra", str(algebra), "--upto", "2"],
                  ["hh", "hp", "--algebra", str(algebra), "--N", "1"],
                  ["hj", "expand", "--value", f"{k + 1}/1"],
                  ["nctorus", "classify", f"--theta={k}/7"]]
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert _captured_run(calls[0])[0] == 0  # builds the parser
        gc.collect()
        for argv in calls:
            assert _captured_run(argv)[0] == 0, argv
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_byte_determinism(square_file):
    cmd = [sys.executable, "-m", "nctoric.cli", "polytope", "info",
           square_file]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    cmd = [sys.executable, "-m", "nctoric.cli", "polytope", "svg",
           square_file]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
