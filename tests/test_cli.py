import io
import json
import os
import re
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlaw.cli import COMMANDS, build_parser, main
from distlaw.errors import FileFormatError
from distlaw.globular import load_gset
from distlaw.normalize import SERIES, THEORIES

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_normalize_ring3():
    code, out = run("normalize", "--theory", "ring3", "(a+b)*(c+d)")
    assert code == 0
    assert out == "a*c + a*d + b*c + b*d\n"


def test_normalize_rig_zero_absorption():
    code, out = run("normalize", "--theory", "rig", "a*0 + b")
    assert code == 0
    assert out == "b\n"


def test_normalize_with_explicit_names():
    code, out = run("normalize", "--theory", "cmonoid", "--names", "v,w", "w*v")
    assert code == 0
    assert out == "v*w\n"


@pytest.mark.parametrize("theory, expression, expected", [
    ("ring3", "2000*a", "2000*a"),
    ("ring3", "+".join(["a"] * 3000), "3000*a"),
    ("rig", "+".join(["a"] * 3000), "3000*a"),
], ids=["literal-2000", "sum-of-3000", "rig-sum-of-3000"])
def test_normalize_large_literal_and_long_sum(theory, expression, expected):
    code, out = run("normalize", "--theory", theory, expression)
    assert code == 0
    assert out == expected + "\n"


NORMAL_THEORIES = ("monoid", "cmonoid", "ring2", "ring3", "rig")
PINNED_FORMS = {  # the form printed in each of NORMAL_THEORIES; None is a failure (exit 1)
    "0": (None, None, "0", "0", "0"),
    "1": ("1", "1", "1", "1", "1"),
    "2": (None, None, "2", "2", "2"),
    "-3": (None, None, "-3", "-3", None),
    "a*0": (None, None, "0", "0", "0"),
    "1*a*1": ("a", "a", "a", "a", "a"),
    "a+1+1": (None, None, "2 + a", "2 + a", "2 + a"),
    "(a+b)*(a-b)": (None, None, "a*a - b*b", "a*a - a*b + b*a - b*b", None),
    "0*0 + 0": (None, None, "0", "0", "0"),
    "2*(a+b) - a - b - b": (None, None, "a", "a", None),
}


@pytest.mark.parametrize("theory", NORMAL_THEORIES)
@pytest.mark.parametrize("expression", sorted(PINNED_FORMS))
def test_normalize_prints_the_pinned_form(expression, theory):
    expected = PINNED_FORMS[expression][NORMAL_THEORIES.index(theory)]
    code, out = run("normalize", "--theory", theory, expression)
    assert (code, out) == ((1, "") if expected is None else (0, expected + "\n"))


def test_normalize_unknown_theory_is_a_usage_error():
    code, _ = run("normalize", "--theory", "nope", "a")
    assert code == 2


def test_normalize_syntax_error_is_a_normalization_failure(capsys):
    for expression, message in (("a +", "unexpected token"),
                                ("", "unexpected token end of input at position 0"),
                                ("((((", "unexpected token end of input at position 4"),
                                ("a b", "token 'b' at position 2 (expected end of input)"),
                                ("(" * 1200 + "a" + ")" * 1200, "nested too deeply"),
                                ("²", "unexpected character"),
                                ("a+²", "unexpected character")):
        code, out = run("normalize", "--theory", "ring3", expression)
        assert code == 1
        assert out == ""
        assert message in capsys.readouterr().err


def test_a_rig_product_past_the_ceiling_fails_fast(capsys):
    # 3**12 copies of the unit still fit under the ceiling; 3**13 do not
    code, out = run("normalize", "--theory", "rig", "*".join(["3"] * 13))
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: rig product: enumeration exceeds ceiling")


def test_normalize_unsupported_node():
    code, _ = run("normalize", "--theory", "rig", "a - b")
    assert code == 1


def test_laws_all_monads():
    code, out = run("laws", "--generators", "2", "--bound", "2")
    assert code == 0
    assert out.endswith("PASS: 7 monads\n")
    assert "CHECK monad[free-monoid]:unit-left PASS" in out


def test_laws_that_check_nothing_are_empty():
    code, out = run("laws", "--monad", "free-semigroup", "--bound", "0")
    assert code == 1
    assert out == ("CHECK monad[free-semigroup]:unit-left EMPTY\n"
                   "CHECK monad[free-semigroup]:unit-right EMPTY\n"
                   "CHECK monad[free-semigroup]:assoc EMPTY\n"
                   "EMPTY: 1 monads\n")


def test_laws_unknown_monad():
    code, _ = run("laws", "--monad", "nope")
    assert code == 2


def test_distlaw_single_law():
    code, out = run("distlaw", "--law", "unit-absorption", "--bound", "3")
    assert code == 0
    assert out.endswith("PASS: 1 laws\n")


def test_series_rig_summary():
    code, out = run("series", "--theory", "rig", "--generators", "1", "--bound", "2")
    assert code == 0
    assert out.endswith("PASS: 4 monads, 6 laws, 4 YB triples\n")


def test_series_output_is_deterministic():
    first = run("series", "--theory", "ring3", "--generators", "1", "--bound", "2")
    second = run("series", "--theory", "ring3", "--generators", "1", "--bound", "2")
    assert first == second


def test_yang_baxter_single_triple():
    code, out = run("yang-baxter", "--theory", "rig", "--triple", "4", "3", "2",
                    "--bound", "2")
    assert code == 0
    assert "yang-baxter[rig](4,3,2) PASS" in out


def test_routes_rig():
    code, out = run("routes", "--theory", "rig", "--bound", "2")
    assert code == 0
    assert out.endswith("PASS: 5 routes agree\n")


def test_routes_single_bracketing():
    code, out = run("routes", "--theory", "rig", "--route", "(1,(2,(3,4)))",
                    "--bound", "2")
    assert code == 0
    assert out.endswith("PASS: route (1,(2,(3,4))) agrees\n")
    code, out = run("routes", "--theory", "rig", "--route", "((1,2),(3,4))", "--bound", "2")
    assert code == 0
    assert out.startswith("CHECK routes[rig]:(1,(2,(3,4)))vs((1,2),(3,4)) PASS\n")


def test_the_reference_route_is_compared_with_the_next_bracketing():
    code, out = run("routes", "--theory", "rig", "--route", "(1,(2,(3,4)))", "--bound", "2")
    assert code == 0
    assert out.startswith("CHECK routes[rig]:(1,(2,(3,4)))vs(1,((2,3),4)) PASS\n")
    code, out = run("routes", "--theory", "ring2", "--route", "(1,2)", "--bound", "2")
    assert code == 0
    assert out == "CHECK routes[ring2]:single PASS\nPASS: route (1,2) agrees\n"


@pytest.mark.parametrize("argv", [
    ("distlaw", "--law", "unit-absorption", "--bound", "-1"),
    ("laws", "--bound", "-3"),
    ("routes", "--theory", "rig", "--bound", "-1"),
    ("laws", "--generators", "0"),
    ("laws", "--generators", "-1"),
    ("laws", "--names", "a,a"),
    ("normalize", "--theory", "ring3", "--names", "a,a", "a"),
    ("routes", "--theory", "rig", "--route", ""),
    ("normalize", "--theory", "ring3", "--names", "", "a"),
])
def test_negative_bound_or_empty_carrier_is_a_usage_error(argv, capsys):
    code, out = run(*argv)
    assert code == 2
    assert "PASS" not in out
    assert "error" in capsys.readouterr().err


def test_routes_bad_bracketing_is_a_usage_error(capsys):
    for route in ("((1,2)", "(1,2,3)", "[1,2]", "(True,2)", "(1,-2)", "x", "{[1]}"):
        code, out = run("routes", "--theory", "rig", "--route", route)
        assert code == 2
        assert out == ""
        assert "error: route" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("yang-baxter", "--theory", "ring3", "--triple", "5", "2", "1"),
    ("yang-baxter", "--theory", "ring3", "--triple", "0", "-1", "-2"),
    ("yang-baxter", "--theory", "ring3", "--triple", "1", "2", "3"),
    ("yang-baxter", "--theory", "ring2", "--triple", "3", "2", "1"),
    ("yang-baxter", "--theory", "ring2"),
    ("routes", "--theory", "ring3", "--route", "(0,(1,2))"),
    ("routes", "--theory", "ring3", "--route", "(1,2)"),
    ("routes", "--theory", "ring3", "--route", "((1,2),4)"),
])
def test_indices_outside_the_series_are_a_usage_error(argv, capsys):
    code, out = run(*argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


MISTYPED_GSETS = {
    "src-mapping": {"n": 1, "cells": [["x", "y"], ["f"]], "src": {"f": "x"}, "tgt": [{"f": "y"}]},
    "src-nested-list": {"n": 1, "cells": [["x", "y"], ["f"]], "src": [["f"]], "tgt": [{"f": "y"}]},
    "list-cell-name": {"n": 1, "cells": [["x", "y"], [["f"]]], "src": [{"f": "x"}],
                       "tgt": [{"f": "y"}]},
    "list-src-value": {"n": 1, "cells": [["x", "y"], ["f"]], "src": [{"f": ["x"]}],
                       "tgt": [{"f": "y"}]},
    "null-cells": {"n": 1, "cells": None, "src": [{}], "tgt": [{}]},
    "string-cells": {"n": 1, "cells": "ab", "src": [{"b": "a"}], "tgt": [{"b": "a"}]},
    "integer-names": {"n": 0, "cells": [[1, 2]], "src": [], "tgt": []},
    "boolean-n": {"n": True, "cells": [["x"], []], "src": [{}], "tgt": [{}]},
}


@pytest.mark.parametrize("name", sorted(MISTYPED_GSETS))
def test_mistyped_gset_fields_are_a_format_error(name, tmp_path, capsys):
    text = json.dumps(MISTYPED_GSETS[name])
    with pytest.raises(FileFormatError):
        load_gset(text)
    path = tmp_path / "mistyped.gset"
    path.write_text(text, encoding="utf-8")
    code, out = run("ncat", "--input", str(path))
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: field ") and err.count("\n") == 1


@pytest.mark.parametrize("content, message", [
    (b"[" * 200000, "error: not valid structured text: maximum recursion depth"),
    (b"\xff" + json.dumps(MISTYPED_GSETS["boolean-n"]).encode(), "error: cannot read "),
], ids=["nested-too-deeply", "not-utf-8"])
def test_undecodable_gset_files_are_a_usage_error(content, message, tmp_path, capsys):
    path = tmp_path / "undecodable.gset"
    path.write_bytes(content)
    code, out = run("ncat", "--input", str(path))
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_readme_commands_succeed(monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        block = re.search(r"## Command line\n\n```sh\n(.*?)```", f.read(), re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 10
    monkeypatch.chdir(ROOT)
    normal_forms = []
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "distlaw"
        code, out = run(*argv)
        assert code == 0, argv
        if argv[0] == "normalize":
            assert out == comment.strip() + "\n"
            normal_forms.append(out)
        if argv[:5] == ["routes", "--theory", "rig", "--bound", "2"]:
            assert out.endswith("PASS: 5 routes agree\n")
    assert normal_forms == ["a*c + a*d + b*c + b*d\n", "-a*b\n"]


def test_ncat_counts_and_oracle():
    path = os.path.join(DATA, "two_cell.gset")
    code, out = run("oracle-compare", "--input", path, "--bound", "2")
    assert code == 0
    assert out == "dim 0: 2 cells\ndim 1: 4 cells\ndim 2: 5 cells\nORACLE MATCH\n"


def test_ncat_has_no_oracle_flag():
    path = os.path.join(DATA, "two_cell.gset")
    assert run("ncat", "--input", path, "--compare-oracle")[0] == 2
    assert run("ncat", "--input", path)[1] == "dim 0: 2 cells\ndim 1: 4 cells\ndim 2: 5 cells\n"


def test_oracle_compare_subcommand():
    path = os.path.join(DATA, "two_cell.gset")
    code, out = run("oracle-compare", "--input", path, "--bound", "2")
    assert code == 0
    assert out.endswith("ORACLE MATCH\n")


def test_oracle_compare_compares_cell_sets(monkeypatch):
    """A closure with the same counts but one cell swapped for another is a mismatch."""
    import distlaw.cli
    real = distlaw.cli.oracle_cells

    def swapped(gset, bound):
        cells = real(gset, bound)
        cells[2].pop()
        cells[2].add("a cell the free 2-category does not hold")
        return cells

    monkeypatch.setattr(distlaw.cli, "oracle_cells", swapped)
    code, out = run("oracle-compare", "--input", os.path.join(DATA, "two_cell.gset"), "--bound", "2")
    assert code == 1
    assert out.endswith("ORACLE MISMATCH: [2, 4, 5], cells differ in dimensions [2]\n")


def test_ncat_missing_file_is_usage_error():
    code, _ = run("ncat", "--input", os.path.join(DATA, "missing.gset"))
    assert code == 2


def test_ncat_malformed_file_names_the_witness(capsys):
    path = os.path.join(DATA, "broken.gset")
    code, _ = run("ncat", "--input", path)
    assert code == 2
    assert "al" in capsys.readouterr().err


PARSED_DEFAULTS = {
    "laws": ([], {"bound": 3, "generators": 2, "names": None, "monad": "all"}),
    "distlaw": ([], {"bound": 3, "generators": 2, "names": None, "law": "all"}),
    "yang-baxter": (["--theory", "rig"], {"bound": 3, "generators": 1, "triple": None}),
    "series": (["--theory", "rig"], {"bound": 3, "generators": 1}),
    "routes": (["--theory", "rig"], {"bound": 2, "generators": 1, "route": None}),
    "normalize": (["--theory", "rig", "a"], {"names": None}),
    "ncat": (["--input", "x.gset"], {"bound": 2}),
    "oracle-compare": (["--input", "x.gset"], {"bound": 2}),
}


@pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
def test_each_command_row_sets_its_defaults(command):
    required, defaults = PARSED_DEFAULTS[command]
    args = build_parser().parse_args([command, *required])
    assert args.command == command
    assert args.run is COMMANDS[command][0]
    assert {key: getattr(args, key) for key in defaults} == defaults


def test_every_command_has_help():
    assert sorted(COMMANDS) == sorted(PARSED_DEFAULTS)
    for command in COMMANDS:
        out = io.StringIO()
        assert main([command, "--help"], out=out) == 0
        assert f"distlaw {command}" in out.getvalue()


@pytest.mark.parametrize("argv, code, message", [
    (["frobnicate"], 2, "invalid choice: 'frobnicate'"),
    (["series"], 2, "the following arguments are required: --theory"),
    (["routes", "--theory", "nope"], 2, "error: unknown theory 'nope'"),
    (["normalize", "--theory", "rig", "a - b"], 1, "error: "),
])
def test_usage_errors_and_error_lines_go_to_err(argv, code, message, capsys):
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out=out, err=err) == code
    assert message in err.getvalue() and out.getvalue() == ""
    assert capsys.readouterr() == ("", "")


def test_unknown_subcommand_is_a_usage_error():
    assert run("frobnicate")[0] == 2


def test_missing_required_argument_is_a_usage_error():
    assert run("series")[0] == 2


BOUNDS = st.integers(-2, 2).map(str)
CARRIER_OPTIONS = {"--generators": st.integers(-1, 2).map(str),
                   "--names": st.sampled_from(["a", "a,b", ",", "a,a"]),
                   "--bound": BOUNDS}
THEORY_NAMES = st.sampled_from(sorted(set(SERIES) | set(THEORIES)) + ["nope"])
INPUTS = st.sampled_from([os.path.join(DATA, "two_cell.gset"),
                          os.path.join(DATA, "broken.gset"),
                          os.path.join(DATA, "mistyped.gset"),
                          os.path.join(DATA, "missing.gset")])
TRIPLES = st.lists(st.integers(-1, 5).map(str), min_size=3, max_size=3)
ROUTES = st.sampled_from(["(0,(1,2))", "(1,2)", "((1,2),3)", "(1,(2,(3,4)))"])
REQUIRED = ("--theory", "--input")
OPTIONS = {
    "laws": CARRIER_OPTIONS,
    "distlaw": CARRIER_OPTIONS,
    "yang-baxter": {"--theory": THEORY_NAMES, "--triple": TRIPLES, **CARRIER_OPTIONS},
    "series": {"--theory": THEORY_NAMES, **CARRIER_OPTIONS},
    "routes": {"--theory": THEORY_NAMES, "--route": ROUTES, **CARRIER_OPTIONS},
    "normalize": {"--theory": THEORY_NAMES,
                  "--names": CARRIER_OPTIONS["--names"]},
    "ncat": {"--input": INPUTS, "--bound": BOUNDS},
    "oracle-compare": {"--input": INPUTS, "--bound": BOUNDS},
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_argv_gets_an_exit_code(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, values in OPTIONS[command].items():
        if flag in REQUIRED or data.draw(st.booleans()):
            value = data.draw(values)
            argv += [flag, *value] if isinstance(value, list) else [flag, value]
    if command == "normalize":
        argv.append(data.draw(st.sampled_from(["(a+b)*(a-b)", "a*2 + 1", "b", "a +",
                                               "²", "a+²"])))
    assert main(argv, out=io.StringIO()) in (0, 1, 2)
