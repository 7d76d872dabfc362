"""Golden CLI corpus: exit code and stdout bytes of a fixed set of calls.

The expected outputs in data/cli_golden.json were captured before fans
became a ray table with index-set faces and before resolutions shared the
integer Hirzebruch-Jung chain, and those of the cones with duplicate,
redundant and "p/q" rays before cones decided on primitive integer rows,
and the `quotient data` of the polytopes other than the square before
rays were stored only as primitive integer vectors and `normal_data`
divided every offset as a Scalar; each change must reproduce them byte
for byte.  Temporary paths in the output are replaced by "<tmp>".

Print a fresh capture (for review, not to paper over a difference) with
    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

from nctoric import hochschild, lvm, polytope
from nctoric.cli import run
from nctoric.scalars import Scalar

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "data", "cli_golden.json")


def _s(a, b=0, d=0):
    return Scalar(a, b, d).to_json()


def _hexagon():
    normals = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    return [(list(n), -1) for n in normals]


#: (file name, polytope facets) written as polytope JSON
POLYTOPES = {
    "square": [([1, 0], -1), ([-1, 0], -1), ([0, 1], -1), ([0, -1], -1)],
    "cube2": [(f, Fraction(c)) for f, c in
              [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0), ([0, -1], -1)]],
    "hexagon": _hexagon(),
    "trapezoid": [([0, 1], 0), ([0, -1], -2), ([1, 1], 0), ([-1, 1], -7)],
    "sqrt_box": [([1, 0], 0), ([-1, 0], Scalar(0, -1, 2)), ([0, 1], 0),
                 ([0, -1], Scalar(-1, -1, 2))],
    "sqrt_quad": [([1, 0], 0), ([0, 1], 0),
                  ([Scalar(-1), Scalar(0, -1, 2)], -3)],
}

#: (file name, rays) written as cone JSON
CONES = {
    "c_2_1": [["0", "1"], ["2", "-1"]],
    "c_5_3": [["0", "1"], ["5", "-3"]],
    "c_generic": [["3", "1"], ["5", "9"]],
    "c_a6": [["1", "0"], ["1", "7"]],
    "c_ledger": [["-1", "2"], ["-3", "5"]],
    "c_wide": [["2", "-1"], ["-1", "3"]],
    "c_smooth": [["1", "0"], ["0", "1"]],
    "c_17_5": [["0", "1"], ["17", "-5"]],
    "c_third": [["-3", "-4"], ["5", "-7"]],
    "c_long": [["0", "1"], ["101", "-100"]],
    "c_r2": [["0", "1"], [_s(0, 1, 2), "-1"]],
    "c_r5": [["0", "1"], [_s(1, 1, 5), "-2"]],
    "c_r7": [["2", "3"], [_s(0, 1, 7), "-1"]],
    "c_r3_first": [[_s(0, 1, 3), "1"], ["1", "0"]],
    "c_no_rational": [["1", _s(0, 1, 2)], [_s(0, 1, 2), "-1"]],
    # rays given twice, as a multiple, inside the cone, or as "p/q"
    "c_duplicate": [["0", "1"], ["5", "-3"], ["0", "1"], ["10", "-6"]],
    "c_redundant": [["1", "0"], ["1", "1"], ["2", "5"], ["1", "3"]],
    "c_fractions": [["1/2", "0"], ["2/3", "-5/3"], [_s("1/3", 0, 0), "0"]],
    "c_all": [["3/2", "-1"], ["0", "1/3"], ["3", "-2"], ["1", "1"],
              [_s("7/2", 0, 0), "-7/3"]],
}


def _write_inputs(tmp):
    def put(name, obj):
        with open(os.path.join(tmp, name), "w") as fh:
            json.dump(obj, fh)

    for name, facets in POLYTOPES.items():
        put(f"{name}.json", polytope.to_json(polytope.SimplePolytope(facets)))
    for d in (3, 4):
        put(f"cube{d}.json", polytope.to_json(polytope.cube(d)))
    for name, rays in CONES.items():
        put(f"{name}.json", {"rays": rays})
    put("cfg.json", lvm.configuration_to_json(lvm.Configuration(
        [[(1, 0)], [(0, 1)], [(0, 1)], [(1, 0)], [(-2, -2)]])))
    put("ground.json", hochschild.ground_field().to_json())
    put("z2.json", hochschild.group_algebra_z2().to_json())
    put("empty.json", {"facets": [
        {"normal": ["1", "0"], "offset": "1"},
        {"normal": ["-1", "0"], "offset": "1"},
        {"normal": ["0", "1"], "offset": "0"},
        {"normal": ["0", "-1"], "offset": "0"}]})


def corpus(tmp):
    """Argument vectors, in order; later calls read fans written by
    earlier ones (the "fan svg" inputs)."""
    def p(name):
        return os.path.join(tmp, name)

    calls = [
        # tests/test_cli.py
        ["polytope", "info", p("square.json")],
        ["polytope", "svg", p("square.json")],
        ["fan", "of-polytope", p("square.json")],
        ["fan", "classify", p("c_2_1.json")],
        ["quotient", "data", "--polytope", p("square.json")],
        ["lvm", "check", "--config", p("cfg.json")],
        ["lvm", "dichotomy", "--config", p("cfg.json")],
        ["lvm", "fiber", "--config", p("cfg.json")],
        ["lvm", "polytope", "--config", p("cfg.json")],
        ["lvm", "polytope", "--config", p("cfg.json"), "--eps", "2,2,2,2,1"],
        ["hj", "expand", "--value", "7/5"],
        ["hj", "expand", "--value", "sqrt(2)", "--depth", "5"],
        ["nctorus", "classify", "--theta", "sqrt(2)"],
        ["nctorus", "classify", "--theta", "2/3"],
        ["nctorus", "morita", "--theta1", "1/2", "--theta2", "sqrt(2)"],
        ["nctorus", "morita", "--theta1", "sqrt(2)", "--theta2", "1+sqrt(2)"],
        ["nctorus", "morita", "--theta1", "sqrt(2)", "--theta2", "sqrt(3)"],
        ["gvec", "--f", "1,6,12,8", "--d", "3"],
        ["gvec", "--f", "1,6,12,7", "--d", "3"],
        ["hh", "ranks", "--algebra", p("ground.json")],
        ["hh", "hp", "--algebra", p("z2.json"), "--N", "2"],
        ["bogus"],
        ["nctorus", "morita", "--theta1", "sqrt(2)"],
        ["hj", "expand"],
        ["hj", "expand", "--value", "1.4"],
        ["polytope", "info", p("missing.json")],
        ["hj", "expand", "--value", "1/2"],
        ["polytope", "info", p("empty.json")],
        # acceptance criterion 12
        ["hh", "ranks", "--algebra", p("z2.json")],
        ["gvec", "--f", "1,7,21,28,14", "--d", "4"],
        # polytopes and their normal fans
        ["lvm", "gale", "--config", p("cfg.json")],
    ]
    for name in list(POLYTOPES) + ["cube3", "cube4"]:
        calls.append(["polytope", "info", p(f"{name}.json")])
        calls.append(["fan", "of-polytope", p(f"{name}.json")])
    for name in ("square", "hexagon", "trapezoid", "sqrt_quad"):
        calls.append(["fan", "svg", p(f"fan_{name}.json")])
    # cones: classification and HJ resolutions, plain and drawn
    for name in CONES:
        calls.append(["fan", "classify", p(f"{name}.json")])
        calls.append(["hj", "resolve", "--cone", p(f"{name}.json")])
        calls.append(["hj", "resolve", "--cone", p(f"{name}.json"), "--svg"])
    for name in ("c_5_3", "c_r2", "c_r5", "c_r3_first"):
        calls.append(["hj", "resolve", "--cone", p(f"{name}.json"),
                      "--depth", "3"])
    calls.append(["fan", "svg", p("fan_c_long.json")])
    calls.append(["fan", "svg", p("fan_c_r7.json")])
    for value in ("101/100", "2", "13/4", "1+sqrt(5)", "3/2*sqrt(7)-1"):
        calls.append(["hj", "expand", "--value", value])
    # quotient data past the square: irrational offsets, rational and
    # scaled normals, and an irrational normal refused
    for name in ("sqrt_box", "cube2", "trapezoid", "hexagon", "sqrt_quad"):
        calls.append(["quotient", "data", "--polytope", p(f"{name}.json")])
    return calls


def capture(tmp):
    """[(argv with <tmp>, exit code, stdout)] of the corpus, in order."""
    _write_inputs(tmp)
    out = []
    for argv in corpus(tmp):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(argv)
        text = buf.getvalue()
        out.append([[a.replace(tmp, "<tmp>") for a in argv], code,
                    text.replace(tmp, "<tmp>")])
        # keep the fans that "fan svg" draws later in the corpus
        if code == 0 and argv[:2] == ["fan", "of-polytope"]:
            name = os.path.basename(argv[2])
            with open(os.path.join(tmp, "fan_" + name), "w") as fh:
                fh.write(json.dumps(json.loads(text)["payload"]))
        if code == 0 and argv[:2] == ["hj", "resolve"] and len(argv) == 4:
            name = os.path.basename(argv[3])
            with open(os.path.join(tmp, "fan_" + name), "w") as fh:
                fh.write(json.dumps(json.loads(text)["payload"]["fan"]))
    return out


def test_cli_output_matches_golden_corpus(tmp_path):
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    got = capture(str(tmp_path))
    assert [c[0] for c in got] == [c[0] for c in expected]
    for (argv, code, text), (_, want_code, want_text) in zip(got, expected):
        assert (code, text) == (want_code, want_text), argv


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(capture(tmp), sys.stdout, indent=1)
        sys.stdout.write("\n")
