import json
import random

import pytest

from gfoperad.cli import main
from gfoperad.poisson import poisson_dumps
from gfoperad.solver import heisenberg_structure
from gfoperad.symbols import FormalSeries, random_graded_series, series_dumps, series_loads
from sample_series import constant_poisson_first_order, symmetric_band_first_order


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text if text.endswith("\n") else text + "\n")
    return str(path)


def test_trees_enum_rooted_counts(capsys):
    assert main(["trees", "enum", "--max-order", "2", "--rooted"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    fields = [line.split("\t") for line in lines]
    assert all(len(f) == 4 for f in fields)
    assert {f[0] for f in fields} == {"w1", "b1", "w2", "b2", "w1(b1)", "b1(w1)"}


def test_trees_enum_unrooted(capsys):
    assert main(["trees", "enum", "--max-order", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # 2 at weight 1, 3 at weight 2


@pytest.mark.parametrize("rooted", [[], ["--rooted"]], ids=["unrooted", "rooted"])
def test_trees_enum_above_the_weight_cap_is_a_usage_error(capsys, rooted):
    assert main(["trees", "enum", "--max-order", "11", *rooted]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds cap 10" in captured.err
    # the cap is a constant: no option raises it
    with pytest.raises(SystemExit) as exit_info:
        main(["trees", "enum", "--max-order", "11", "--max-tree-weight", "40", *rooted])
    assert exit_info.value.code == 2


def test_verify_sga_pass_and_fail(tmp_path, capsys):
    good = write(tmp_path, "good.json", series_dumps(constant_poisson_first_order()))
    assert main(["verify-sga", "--in", good, "--order", "4"]) == 0
    capsys.readouterr()
    # an associative but random series fails at order 1 already
    rng = random.Random(5)
    bad = write(tmp_path, "bad.json", series_dumps(random_graded_series(rng, 2, 1, [1])))
    assert main(["verify-sga", "--in", bad, "--order", "2"]) == 1
    out = capsys.readouterr().out
    assert "order" in out


def test_compose_round_trip_and_determinism(tmp_path, capsys):
    rng = random.Random(11)
    f = write(tmp_path, "f.json", series_dumps(random_graded_series(rng, 1, 1, [1, 2])))
    g = write(tmp_path, "g.json", series_dumps(random_graded_series(rng, 1, 1, [1])))
    out1 = tmp_path / "h1.json"
    out2 = tmp_path / "h2.json"
    assert main(["compose", "--outer", f, "--inner", g, "--order", "4", "--out", str(out1)]) == 0
    assert main(["compose", "--outer", f, "--inner", g, "--order", "4", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    series = series_loads(out1.read_text())
    assert series.blocks == 1
    # emitted series re-reads value-identically
    assert series_dumps(series) + "\n" == out1.read_text()


def test_solve_validate_poisson_round_trip(tmp_path, capsys):
    alpha_path = write(tmp_path, "alpha.json", poisson_dumps(heisenberg_structure()))
    assert main(["validate", "--poisson", alpha_path]) == 0
    capsys.readouterr()
    s_path = tmp_path / "s.json"
    assert main(["solve", "--poisson", alpha_path, "--order", "3", "--out", str(s_path)]) == 0
    back = tmp_path / "alpha_back.json"
    assert main(["poisson", "--in", str(s_path), "--out", str(back)]) == 0
    with open(alpha_path) as handle:
        assert json.loads(back.read_text()) == json.load(handle)


@pytest.mark.parametrize(
    "command", [["validate"], ["solve", "--order", "2"]], ids=["validate", "solve"]
)
def test_validate_rejects_bad_structure(tmp_path, capsys, command):
    bad = {
        "dim": 3,
        "entries": [
            {"i": 1, "j": 2, "terms": [{"coeff": "1", "p": [], "x": [[1, 1]]}]},
            {"i": 1, "j": 3, "terms": [{"coeff": "1", "p": [], "x": [[2, 1]]}]},
            {"i": 2, "j": 3, "terms": [{"coeff": "1", "p": [], "x": []}]},
        ],
    }
    path = write(tmp_path, "bad.json", json.dumps(bad))
    assert main([*command, "--poisson", path]) == 1
    assert "(1, 2, 3)" in capsys.readouterr().out


def test_cobound_and_bracket(tmp_path):
    rng = random.Random(13)
    f = write(tmp_path, "f.json", series_dumps(random_graded_series(rng, 1, 1, [1, 2])))
    zero2 = write(tmp_path, "z2.json", series_dumps(random_graded_series(rng, 2, 1, [])))
    df = tmp_path / "df.json"
    br = tmp_path / "br.json"
    assert main(["cobound", "--in", f, "--out", str(df)]) == 0
    assert main(["bracket", "--a", zero2, "--b", f, "--order", "3", "--out", str(br)]) == 0
    assert series_loads(df.read_text()) == series_loads(br.read_text())


def test_invert_and_transform(tmp_path):
    rng = random.Random(17)
    morph = random_graded_series(rng, 1, 2, [2], max_x_degree=1)
    m_path = write(tmp_path, "m.json", series_dumps(morph))
    s_path = write(tmp_path, "s.json", series_dumps(constant_poisson_first_order()))
    inv_path = tmp_path / "minv.json"
    assert main(["invert", "--in", m_path, "--order", "3", "--out", str(inv_path)]) == 0
    t_path = tmp_path / "t.json"
    assert main(["transform", "--in", s_path, "--morphism", m_path, "--order", "3", "--out", str(t_path)]) == 0
    assert main(["verify-sga", "--in", str(t_path), "--order", "3"]) == 0


def test_maps_output(tmp_path, capsys):
    s_path = write(tmp_path, "s.json", series_dumps(constant_poisson_first_order()))
    assert main(["maps", "--in", s_path, "--order", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dim"] == 2
    assert len(obj["source"]) == 2 and len(obj["target"]) == 2


def test_maps_rejects_sgs_violation(tmp_path, capsys):
    s_path = write(tmp_path, "s.json", series_dumps(symmetric_band_first_order()))
    assert main(["maps", "--in", s_path, "--order", "2"]) == 1


def test_numeric_check(tmp_path, capsys):
    rng = random.Random(19)
    f = write(tmp_path, "f.json", series_dumps(random_graded_series(rng, 1, 1, [1])))
    g = write(tmp_path, "g.json", series_dumps(random_graded_series(rng, 1, 1, [1])))
    pt = write(tmp_path, "pt.json", json.dumps({"p": [[0.5]], "x": [0.25]}))
    code = main(
        ["numeric-check", "--outer", f, "--inner", g, "--point", pt, "--eps", "1e-2", "--order", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "numeric" in out and "series" in out and "abs diff" in out


def test_usage_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["cobound", "--in", missing]) == 2


SERIES_TERM = {"coeff": "1", "p": [[1, 1, 1], [2, 1, 1]], "x": []}


def series_with_term(term):
    return {"arity": 2, "dim": 1, "graded": True, "orders": [{"order": 1, "terms": [term]}]}


@pytest.mark.parametrize(
    "command, obj",
    [
        # a JSON float is binary, never the exact decimal it shows
        ("cobound", series_with_term({**SERIES_TERM, "coeff": 0.1})),
        # Fraction would read these strings, but no writer emits them
        ("cobound", series_with_term({**SERIES_TERM, "coeff": "1e3"})),
        ("cobound", series_with_term({**SERIES_TERM, "coeff": "0.5"})),
        ("cobound", series_with_term({**SERIES_TERM, "coeff": "1_000"})),
        ("cobound", series_with_term({**SERIES_TERM, "p": 5})),
        ("cobound", [series_with_term(SERIES_TERM)]),
        # a string is not a bool, however it reads
        ("cobound", {**series_with_term(SERIES_TERM), "graded": "false"}),
        # a shape no series can have
        ("cobound", {"arity": -1, "dim": 0, "orders": []}),
        # two arity-0 operands would bracket to arity -1
        ("bracket", {"arity": 0, "dim": 2, "graded": True, "orders": []}),
        (
            "validate",
            {"dim": 3, "entries": [{"i": 1, "j": 2, "terms": [{"coeff": 0.5, "x": [[3, 1]]}]}]},
        ),
        ("validate", {"dim": 3, "entries": [{"i": 1, "j": 2, "terms": [{"coeff": "1", "x": 5}]}]}),
        ("validate", [{"dim": 3, "entries": []}]),
        # numeric-check points for one arity-1 inner in dim 1
        ("numeric-check", {"p": 5, "x": [0.1]}),
        ("numeric-check", [{"p": [[0.5]], "x": [0.25]}]),
        ("numeric-check", {"p": [[0.5, 0.1]], "x": [0.25]}),
        # json reads NaN and Infinity, but no point has them
        ("numeric-check", {"p": [[float("nan")]], "x": [0.25]}),
        ("numeric-check", {"p": [[0.5]], "x": [float("inf")]}),
    ],
    ids=[
        "series-float-coeff",
        "series-exponent-coeff",
        "series-decimal-coeff",
        "series-underscore-coeff",
        "series-scalar-p",
        "series-list-top-level",
        "series-string-graded",
        "series-negative-shape",
        "bracket-two-arity-0",
        "poisson-float-coeff",
        "poisson-scalar-x",
        "poisson-list-top-level",
        "point-scalar-p",
        "point-list-top-level",
        "point-wrong-block-length",
        "point-nan-p",
        "point-infinity-x",
    ],
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, command, obj):
    path = write(tmp_path, "bad.json", json.dumps(obj))
    if command == "numeric-check":
        unit = write(tmp_path, "unit.json", series_dumps(FormalSeries.zero(1, 1)))
        argv = ["--outer", unit, "--inner", unit, "--point", path, "--eps", "0.01", "--order", "2"]
    elif command == "bracket":
        argv = ["--a", path, "--b", path, "--order", "9"]
    else:
        argv = ["--in" if command == "cobound" else "--poisson", path]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_repeated_order_entries_add(tmp_path, capsys):
    # two entries for order 1 act as one entry carrying the sum of their terms;
    # d(c p^2) = -2c p_1 p_2, so coefficients 1 and 5 give -12
    def square(coeff):
        return {"order": 1, "terms": [{"coeff": coeff, "p": [[1, 1, 2]], "x": []}]}

    twice = {"arity": 1, "dim": 1, "graded": True, "orders": [square("1"), square("5")]}
    once = {**twice, "orders": [square("6")]}
    outputs = []
    for name, obj in (("twice.json", twice), ("once.json", once)):
        assert main(["cobound", "--in", write(tmp_path, name, json.dumps(obj))]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"coeff": "-12"' in outputs[0]


def test_repeated_poisson_entries_add(tmp_path, capsys):
    # two entries for (1, 2) act as one entry carrying the sum of their terms
    def entry(*comps):
        terms = [{"coeff": "1", "p": [], "x": [[comp, 1]]} for comp in comps]
        return {"i": 1, "j": 2, "terms": terms}

    twice = {"dim": 2, "entries": [entry(1), entry(2)]}
    once = {"dim": 2, "entries": [entry(1, 2)]}
    outputs = []
    for name, obj in (("twice.json", twice), ("once.json", once)):
        path = write(tmp_path, name, json.dumps(obj))
        assert main(["solve", "--poisson", path, "--order", "1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # (1/2)(x1 + x2)(p1_1 p2_2 - p1_2 p2_1): both x-monomials survive
    assert len(series_loads(outputs[0]).order(1).terms) == 4


def test_nonconvergence_exit_code(tmp_path, capsys):
    from fractions import Fraction

    from gfoperad.symbols import FormalSeries, PolySymbol, p_key, x_key

    steep_f = FormalSeries(1, 1, {1: PolySymbol(1, 1, {((p_key(1, 1), 2),): Fraction(50)})})
    steep_g = FormalSeries(1, 1, {1: PolySymbol(1, 1, {((x_key(1), 2),): Fraction(50)})})
    f = write(tmp_path, "f.json", series_dumps(steep_f))
    g = write(tmp_path, "g.json", series_dumps(steep_g))
    pt = write(tmp_path, "pt.json", json.dumps({"p": [[4.0]], "x": [4.0]}))
    code = main(
        ["numeric-check", "--outer", f, "--inner", g, "--point", pt, "--eps", "0.1", "--order", "3"]
    )
    assert code == 3


def test_overflow_exit_code(tmp_path, capsys):
    argv = order_argvs(tmp_path)["numeric-check"]
    big = write(tmp_path, "big.json", json.dumps({"p": [[1e200]], "x": [0.5]}))
    assert main([*argv, "--order", "3", "--point", big]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical overflow") and err.count("\n") == 1


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def order_argvs(tmp_path):
    """Every command that takes --order, on valid inputs, without the order."""
    rng = random.Random(23)
    f = write(tmp_path, "f.json", series_dumps(random_graded_series(rng, 1, 1, [1])))
    g = write(tmp_path, "g.json", series_dumps(random_graded_series(rng, 1, 1, [1])))
    pt = write(tmp_path, "pt.json", json.dumps({"p": [[0.5]], "x": [0.25]}))
    s = write(tmp_path, "s.json", series_dumps(constant_poisson_first_order()))
    m = write(tmp_path, "m.json", series_dumps(random_graded_series(rng, 1, 2, [2], max_x_degree=1)))
    alpha = write(tmp_path, "alpha.json", poisson_dumps(heisenberg_structure()))
    return {
        "compose": ["compose", "--outer", f, "--inner", g],
        "numeric-check": ["numeric-check", "--outer", f, "--inner", g, "--point", pt, "--eps", "1e-2"],
        "bracket": ["bracket", "--a", f, "--b", g],
        "verify-sga": ["verify-sga", "--in", s],
        "solve": ["solve", "--poisson", alpha],
        "transform": ["transform", "--in", s, "--morphism", m],
        "invert": ["invert", "--in", m],
    }


@pytest.mark.parametrize(
    "command",
    ["compose", "numeric-check", "bracket", "verify-sga", "solve", "transform", "invert"],
)
def test_order_above_the_cap_is_a_usage_error(tmp_path, capsys, command):
    argv = order_argvs(tmp_path)[command]
    assert main([*argv, "--order", "2"]) == 0
    capsys.readouterr()
    assert main([*argv, "--order", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds cap 8" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["numeric-check", "--eps", "nan"],
        ["numeric-check", "--tol", "nan"],
        ["numeric-check", "--tol", "inf"],
        ["numeric-check", "--tol", "0"],
        ["trees", "enum", "--max-order", "2", "--root-color", "b"],
    ],
    ids=["eps-nan", "tol-nan", "tol-inf", "tol-zero", "root-color-unrooted"],
)
def test_bad_option_value_is_a_usage_error(tmp_path, capsys, argv):
    if argv[0] == "numeric-check":
        # argparse keeps the last value of a repeated option
        argv = [*order_argvs(tmp_path)["numeric-check"], "--order", "2", *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
