"""CLI dispatch: a call whose first words name an action goes straight to
that action's own parser; the whole parser tree reads only the calls that
name none (usage and help).

The tree is the oracle.  For every call of the golden corpus
(tests/test_golden_cli.py) and every usage and help case below, the tree
and the dispatch must agree: the same parsed arguments for a call the tree
accepts, and for a call it refuses the same exit code, stdout and stderr,
which data/cli_usage.json pins byte for byte (help and usage wrapped at 80
columns).

Print a fresh capture (for review, not to paper over a difference) with
    PYTHONPATH=src python tests/test_cli_dispatch.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

import test_golden_cli
from nctoric import cli

USAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "data", "cli_usage.json")

#: calls the tree refuses or answers with help: no command, an unknown
#: command or action, help at each level, a "--" before or inside the
#: action's name, abbreviations, extras and bad flag values
USAGE_CASES = [
    [], ["--help"], ["-h"], ["--he"], ["--foo"],
    ["-h", "hj", "expand"], ["--", "hj", "expand", "--value", "7/5"],
    ["hj"], ["hj", "--help"], ["hj", "bogus"],
    ["hj", "exp", "--value", "7/5"], ["hj", "--", "expand", "--value", "7/5"],
    ["hj", "expand", "--help"], ["hj", "expand", "-h", "--value", "7/5"],
    ["hj", "expand", "--", "--value", "7/5"], ["hj", "expand", "--depth"],
    ["hj", "expand", "--value", "7/5", "--depth", "x"],
    ["hj", "expand", "--value", "-7/5"], ["hj", "expand", "--val", "7/5"],
    ["hj", "expand", "--value", "7/5", "--he"],
    ["hj", "expand", "--value", "7/5", "extra", "--svg"],
    ["lvm", "polytope", "--help"], ["polytope", "explode", "x.json"],
    ["polytope", "info"], ["polytope", "info", "a.json", "b.json"],
    ["gvec"], ["gvec", "x"], ["gvec", "--help"], ["gvec", "--f", "1,4"],
    ["gvec", "--f", "1,6,12,8", "--d", "3", "--f"],
    ["gvec", "--f", "1,6,12,8", "--d", "3", "x", "y"],
    ["gvec", "--f=1,6,12,8", "--d=3", "--d3"],
    ["hh", "ranks", "--upto", "x"], ["nctorus", "classify", "--the", "2"],
]

#: calls the tree accepts that the golden corpus does not spell this way
VALID_CASES = [
    ["hj", "expand", "--value=-7/5"], ["hj", "expand", "--value", "-7"],
    ["gvec", "--d", "3", "--f", "1,6,12,8"],
    ["gvec", "--f", "1,6,12,8", "--d=3", "--d", "4"],
    ["hh", "hp", "--algebra", "a.json", "--upto", "4", "--N", "2"],
    ["hj", "resolve", "--svg", "--cone", "c.json", "--svg"],
]


def _captured(parse, argv):
    """(exit code or None, stdout, stderr, parsed arguments or None) of
    parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    args, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), args


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _tree(argv):
    return _captured(cli._build_parser()[0].parse_args, argv)


def _calls(tmp):
    return test_golden_cli.corpus(tmp) + USAGE_CASES + VALID_CASES


def capture(tmp):
    """[(argv with <tmp>, exit code, stdout, stderr)] of the calls the tree
    refuses or answers with help, in order."""
    refused = []
    for argv in _calls(tmp):
        if _tree(argv)[3] is None:
            code, out, err = _run(argv)
            refused.append([[a.replace(tmp, "<tmp>") for a in argv],
                            code, out, err])
    return refused


@pytest.fixture(autouse=True)
def _eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_dispatch_agrees_with_the_tree(tmp_path):
    tmp = str(tmp_path)
    for argv in _calls(tmp):
        code, out, err, want = _tree(argv)
        if want is None:
            assert _run(argv) == (2 if code else 0, out, err), argv
            continue
        # the tree also names the command and the action it walked
        del want.command
        vars(want).pop("action", None)
        assert _captured(cli._parse, argv)[3] == want, argv
    with open(USAGE) as fh:
        pinned = json.load(fh)
    refused = capture(tmp)
    assert [case[0] for case in refused] == [case[0] for case in pinned]
    assert all(argv in (case[0] for case in refused) for argv in USAGE_CASES)
    for got, want in zip(refused, pinned):
        assert got == want, got[0]


def test_valid_calls_never_reach_the_tree(tmp_path, monkeypatch):
    class TreeAsked(Exception):
        pass

    def refuse(*args, **kwargs):
        raise TreeAsked

    top = cli._build_parser()[0]
    monkeypatch.setattr(top, "parse_args", refuse)
    monkeypatch.setattr(top, "parse_known_args", refuse)
    asked = []

    def run(argv):
        try:
            return cli.run(argv)
        except TreeAsked:
            asked.append(argv)
            return None

    monkeypatch.setattr(test_golden_cli, "run", run)
    with open(test_golden_cli.GOLDEN) as fh:
        expected = json.load(fh)
    got = test_golden_cli.capture(str(tmp_path))
    assert [c[0] for c in got] == [c[0] for c in expected]
    for (argv, code, text), (_, want_code, want_text) in zip(got, expected):
        if want_code != 2:
            assert (code, text) == (want_code, want_text), argv
    assert asked == [["bogus"]]


def test_run_reads_sys_argv_and_any_sequence(capsys, monkeypatch):
    argv = ["hj", "expand", "--value", "7/5"]
    assert cli.run(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["nctoric"] + argv)
    with pytest.raises(SystemExit) as e:
        cli.main()
    assert e.value.code == 0 and capsys.readouterr().out == want
    assert cli.run(tuple(argv)) == 0 and capsys.readouterr().out == want
    # the prefix of a tuple names the action as well as a list's does
    assert cli.run(("gvec", "--f", "1,4", "--d", "2", "x")) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nctoric [-h] ")
    assert err.endswith("nctoric: error: unrecognized arguments: x\n")
    monkeypatch.setattr(sys, "argv", ["nctoric"])
    with pytest.raises(SystemExit) as e:
        cli.main()
    assert e.value.code == 2 and capsys.readouterr().out == ""


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(capture(tmp), sys.stdout, indent=1)
        sys.stdout.write("\n")
