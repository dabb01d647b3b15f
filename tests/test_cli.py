import json
import time

import pytest

from simplcs import groups
from simplcs.cli import _SCENARIO_FNS, main
from simplcs.linsys import (k33_system, make_system, parse_lcs,
                            two_vertex_system, write_lcs)


@pytest.fixture
def k33_file(tmp_path):
    path = tmp_path / "k33.lcs"
    path.write_text(write_lcs(k33_system([1, 0, 0, 0, 0, 0])))
    return str(path)


@pytest.fixture
def k33_even_file(tmp_path):
    path = tmp_path / "k33e.lcs"
    path.write_text(write_lcs(k33_system([0, 1, 1, 0, 0, 0])))
    return str(path)


def test_solve_k33_in_d8d8(k33_file, capsys):
    code = main(["solve", k33_file,
                 "--group", "central_product(dihedral:8,dihedral:8)", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["solution_count"] > 0


def test_solve_k33_odd_in_z2_empty(k33_file, capsys):
    code = main(["solve", k33_file, "--group", "cyclic:2", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["solution_count"] == 0


def test_solve_zero_system_contains_trivial(tmp_path, capsys):
    path = tmp_path / "zero.lcs"
    path.write_text("3 1 2\n1 1\n0\n")
    code = main(["solve", str(path), "--group", "cyclic:3", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [0, 0] in report["results"]["witnesses"]


@pytest.mark.parametrize("system", [
    k33_system([1, 0, 0, 0, 0, 0]), two_vertex_system((1, 0), d=3),
    make_system([], [], 2, col_labels=["a", "b"]),
    make_system([], [], 5),
    make_system([[]], [1], 2), make_system([[], [], []], [0, 2, 1], 3),
])
def test_lcs_round_trip(system):
    text = write_lcs(system)
    back = parse_lcs(text)
    assert back.matrix == system.matrix and back.rhs == system.rhs
    assert write_lcs(back) == text


def test_solve_zero_row_system(tmp_path, capsys):
    # no rows: every assignment of the two columns in Z_2 is a solution
    path = tmp_path / "no_rows.lcs"
    path.write_text(write_lcs(make_system([], [], 2, col_labels=["a", "b"])))
    assert main(["solve", str(path), "--group", "cyclic:2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["solution_count"] == 4


@pytest.mark.parametrize("rhs, count", [([0, 0], 1), ([0, 1], 0)])
def test_solve_zero_column_system(tmp_path, capsys, rhs, count):
    # no columns: the empty assignment solves exactly the all-zero b
    path = tmp_path / "no_cols.lcs"
    path.write_text(write_lcs(make_system([[], []], rhs, 2)))
    assert main(["solve", str(path), "--group", "cyclic:2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["solution_count"] == count


def test_solve_group_modulus_mismatch(k33_file, capsys):
    assert main(["solve", k33_file, "--group", "cyclic:3"]) == 3


@pytest.mark.parametrize("spec", ["cyclic:0", "cayley:{tmp}/missing.cayley"])
def test_solve_unbuildable_group_spec(k33_file, tmp_path, capsys, spec):
    spec = spec.format(tmp=tmp_path)
    assert main(["solve", k33_file, "--group", spec]) == 3
    assert spec in capsys.readouterr().err


def test_solve_rejects_nonassociative_cayley_table(k33_file, tmp_path,
                                                  capsys):
    # order 576, above the size where associativity used to be sampled
    g = groups.direct_product(
        groups.build_group("central_product(dihedral:8,dihedral:8)"),
        groups.cyclic(18))
    rows = [list(r) for r in g.table]
    rows[5][7], rows[5][11] = rows[5][11], rows[5][7]
    path = tmp_path / "bad.cayley"
    lines = [f"{g.n} {g.d} {g.identity} {g.j}"]
    lines += [" ".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", k33_file, "--group", f"cayley:{path}"]) == 3
    assert "associativity fails" in capsys.readouterr().err


Z2_CAYLEY = "# Z_2\n2 2 0 1\n0 1\n1 0  # J row\n"


@pytest.mark.parametrize("text, message", [
    (Z2_CAYLEY + "0 1\n",
     "line 5: expected 2 table rows after the header, found 3"),
    ("2 2 0\n0 1\n1 0\n", "line 1: expected `n d identity J`, got 3 fields"),
    ("", "cayley file has no header line"),
    ("# only a comment\n\n", "cayley file has no header line"),
    ("2 2 0 2\n0 1\n1 0\n", "line 1: J 2 is not in range(2)"),
    ("2 2 -1 1\n0 1\n1 0\n", "line 1: identity -1 is not in range(2)"),
    ("0 2 0 0\n", "line 1: order 0 is not in 1..4096"),
    ("2 2 0 1\n0 1\n", "line 2: expected 2 table rows after the header, "
                         "found 1"),
    ("2 2 0 1\n", "line 1: expected 2 table rows after the header, found 0"),
    ("2 2 0 1\n0 1\n\n1\n", "line 4: expected 2 entries, got 1"),
    ("2 2 0 1\n0 x\n1 0\n", "line 2: expected integers, got '0 x'"),
    ("2 two 0 1\n0 1\n1 0\n", "line 1: expected integers, got '2 two 0 1'"),
    ("2 2 0 1\n0 1\n1 5\n", "line 3: entry 5 is not in range(2)"),
])
def test_malformed_cayley_file_names_the_line(k33_file, tmp_path, capsys,
                                              text, message):
    path = tmp_path / "bad.cayley"
    path.write_text(text)
    assert main(["solve", k33_file, "--group", f"cayley:{path}"]) == 3
    err = capsys.readouterr().err
    assert f"cayley:{path}" in err and err.rstrip().endswith(message)


def test_cayley_file_with_comments_loads(k33_file, tmp_path, capsys):
    path = tmp_path / "z2.cayley"
    path.write_text(Z2_CAYLEY)
    assert main(["solve", k33_file, "--group", f"cayley:{path}",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["group"] \
        == f"cayley:{path}"


def test_parse_error_has_line_number(tmp_path, capsys):
    path = tmp_path / "bad.lcs"
    path.write_text("2 2 2\n1 1\n1 x\n0 0\n")
    code = main(["solve", str(path), "--group", "cyclic:2"])
    assert code == 3
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("2 1 1\n1\nx\n", "line 3: non-integer b entry"),
    ("2 2 2\n1 1\n1 0\n0 1.5\n", "line 4: non-integer b entry"),
    ("2 -1 1\n0\n", "line 1: r and c must be nonnegative, got r = -1, c = 1"),
    ("2 1 -1\n0\n0\n",
     "line 1: r and c must be nonnegative, got r = 1, c = -1"),
    ("1 1 1\n1\n0\n", "line 1: modulus must be >= 2, got 1"),
    ("# comment\n\n0 0 1\n\n", "line 3: modulus must be >= 2, got 0"),
])
def test_lcs_errors_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.lcs"
    path.write_text(text)
    assert main(["solve", str(path), "--group", "cyclic:2"]) == 3
    assert capsys.readouterr().err == f"input error: {path}: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ("wreath:1", "wreath:p: p must be an integer >= 2, got '1'"),
    ("heisenberg:1", "heisenberg:p: p must be an integer >= 2, got '1'"),
    ("extraspecial:1:1:+",
     "extraspecial:p:n:kind: p must be an integer >= 2, got '1'"),
    ("cyclic:0", "cyclic:n[:jorder]: n must be an integer >= 1, got '0'"),
    ("cyclic:17", "order 17 is above MAX_ORDER = 16"),
    ("product(cyclic:4,cyclic:5)", "order 20 is above MAX_ORDER = 16"),
])
def test_solve_group_spec_errors_name_the_bound(k33_file, monkeypatch, capsys,
                                                spec, message):
    # MAX_ORDER lowered to 16, and no Cayley table may be built: a spec
    # above the bound exits 3 from its parameters alone
    def forbidden(table):
        raise RuntimeError("a Cayley table was built")

    monkeypatch.setattr(groups, "MAX_ORDER", 16)
    monkeypatch.setattr(groups, "_table_array", forbidden)
    assert main(["solve", k33_file, "--group", spec]) == 3
    assert capsys.readouterr().err == \
        f"input error: cannot build group {spec!r}: {message}\n"


def test_solgroup_k33_both_parities(k33_file, k33_even_file, capsys):
    code = main(["solgroup", k33_file, "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["todd_coxeter"]["order"] == 32
    assert rep["results"]["todd_coxeter"]["abelian"] is False
    code = main(["solgroup", k33_even_file, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["todd_coxeter"]["order"] == 32
    assert rep["results"]["todd_coxeter"]["abelian"] is True


def test_solgroup_trivial_system(tmp_path, capsys):
    path = tmp_path / "triv.lcs"
    path.write_text("4 1 1\n1\n1\n")
    code = main(["solgroup", str(path), "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["todd_coxeter"]["order"] == 4  # e = J, <J> = Z_4


def test_solgroup_inconclusive_exit_code(tmp_path, capsys):
    path = tmp_path / "k33.lcs"
    path.write_text(write_lcs(k33_system([1, 0, 0, 0, 0, 0])))
    code = main(["solgroup", str(path), "--todd-coxeter-cap", "3", "--json"])
    assert code == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["todd_coxeter"] == "inconclusive"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_solgroup_cap_below_one_is_input_error(k33_file, capsys, cap):
    # exit 2 means only "inconclusive": a cap no table fits in is bad input
    assert main(["solgroup", k33_file, "--todd-coxeter-cap", cap]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--todd-coxeter-cap must be at least 1, got {cap}" in captured.err


def test_solve_negative_max_witnesses_is_input_error(tmp_path, capsys):
    path = tmp_path / "tv.lcs"
    path.write_text("2 2 2\n1 1\n1 0\n1 0\n")
    # the two-vertex system has one solution in D_8, and 0 witnesses is a
    # valid request for none of it
    assert main(["solve", str(path), "--group", "dihedral:8",
                 "--max-witnesses", "0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["results"]
    assert report == {"solution_count": 1, "witnesses": []}
    # -1 used to slice off the last witness and exit 0
    assert main(["solve", str(path), "--group", "dihedral:8",
                 "--max-witnesses", "-1", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-witnesses must be at least 0, got -1" in captured.err


def test_solgroup_zero_column_is_finite(tmp_path, capsys):
    # J is central, so a column in no row gives a Z_2 factor, not Z_2 * Z_2
    path = tmp_path / "zero_col.lcs"
    path.write_text("2 1 1\n0\n0\n")
    assert main(["solgroup", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["abelianization"] == {"torsion": [2, 2],
                                                "free_rank": 0}
    assert rep["results"]["todd_coxeter"]["order"] == 4


def test_solgroup_above_max_order_is_inconclusive(tmp_path, capsys):
    # Z_65 x Z_65 has 4225 > groups.MAX_ORDER elements: not an input error
    path = tmp_path / "z65.lcs"
    path.write_text("65 1 2\n1 1\n0\n")
    assert main(["solgroup", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert rep["results"]["todd_coxeter"] == "inconclusive"
    assert rep["results"]["abelianization"]["torsion"] == [65, 65]


def test_solgroup_relator_longer_than_the_cap_is_inconclusive(tmp_path,
                                                               capsys):
    # e0^(10^12) and J^(10^12) are longer than any coset cap: inconclusive
    # at once, not a MemoryError
    path = tmp_path / "huge.lcs"
    path.write_text("1000000000000 1 1\n1\n0\n")
    assert main(["solgroup", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert rep["results"]["todd_coxeter"] == "inconclusive"
    assert rep["results"]["abelianization"]["torsion"] == [10 ** 12]


def test_realize_example_215(capsys):
    code = main(["realize", "--builtin", "two-vertex", "--b", "1", "0"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "2 10 2"
    # b column: four zeros and six (b1+b2) entries
    bcol = lines[-1].split()
    assert bcol.count("1") == 6 and bcol.count("0") == 4


def test_realize_k33_fixture(capsys):
    code = main(["realize", "--builtin", "k33", "--b", "1", "0", "0", "0", "0", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "2 6 9"


def test_realize_zero_cochain_zero_b(capsys):
    code = main(["realize", "--builtin", "k33", "--b", "0", "0", "0", "0", "0", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert set(lines[-1].split()) == {"0"}


@pytest.mark.parametrize("builtin, b, want", [
    ("two-vertex", ["1", "0", "1", "1", "1"], 2),
    ("k33", ["1", "0"], 6),
])
def test_realize_builtin_b_length(capsys, builtin, b, want):
    assert main(["realize", "--builtin", builtin, "--b", *b]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"takes {want} --b values, got {len(b)}" in captured.err


@pytest.mark.parametrize("builtin, d", [
    ("two-vertex", "0"), ("two-vertex", "1"), ("k33", "0"),
])
def test_realize_modulus_below_two(capsys, builtin, d):
    assert main(["realize", "--builtin", builtin, "--d", d]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--d must be at least 2, got {d}" in captured.err


def test_realize_from_files(tmp_path, capsys):
    from simplcs.simplicial import cells_sset, dump_sset
    x = cells_sset(2, {0: {"v": ()}, 1: {"e": ("v", "v")},
                       2: {"t": ("e", "e", ((0,), "v"))}})
    sset_path = tmp_path / "x.json"
    sset_path.write_text(dump_sset(x))
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_text(f"{(((), 't'))!r} 1\n")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("2 ")


# one vertex "a" and its degenerate edge "s"
ONE_LOOP = {"cap": 1, "simplices": {"0": ["a"], "1": ["s"]},
            "faces": {"1,0": {"s": "a"}, "1,1": {"s": "a"}},
            "degeneracies": {"0,0": {"a": "s"}}}


@pytest.mark.parametrize("blob, message", [
    ({"cap": 1, "simplices": [["a"]]},
     "'simplices' must be a JSON object, got an array"),
    ([{"cap": 1, "simplices": {}}],
     "the top level must be a JSON object, got an array"),
    ({"simplices": {}}, "the top level has no 'cap' key"),
    ({"cap": 1}, "the top level has no 'simplices' key"),
    ({"cap": -1, "simplices": {}}, "'cap' must be at least 0, got -1"),
    ({**ONE_LOOP, "simplices": {"x": ["a"]}},
     "'simplices' key 'x' is not of the form n"),
    ({**ONE_LOOP, "faces": {"1": {"s": "a"}}},
     "'faces' key '1' is not of the form n,i"),
    ({**ONE_LOOP, "degeneracies": {"0,0,0": {"a": "s"}}},
     "'degeneracies' key '0,0,0' is not of the form n,i"),
    ({**ONE_LOOP, "faces": {"1,0": {"s": "a"}}}, "missing face map (1,1)"),
    ({**ONE_LOOP, "degeneracies": {}}, "missing degeneracy map (0,0)"),
    ({**ONE_LOOP, "faces": {"1,0": {"s": "b"}, "1,1": {"s": "a"}}},
     "face (1,0) incomplete at 's'"),
    ({**ONE_LOOP, "degeneracies": {"0,0": {}}},
     "degeneracy (0,0) incomplete at 'a'"),
    ("[" * 200_000 + "]" * 200_000, "JSON nested too deeply to decode"),
    # simplex ids are JSON strings, as the keys of the tables they index
    ({"cap": 1, "simplices": {"0": [0], "1": [1]},
      "faces": {"1,0": {"1": 0}, "1,1": {"1": 0}},
      "degeneracies": {"0,0": {"0": 1}}},
     "an entry of 'simplices'['0'] must be a JSON string, got an integer"),
])
def test_realize_rejects_malformed_sset(tmp_path, capsys, blob, message):
    sset_path = tmp_path / "x.json"
    sset_path.write_text(blob if isinstance(blob, str) else json.dumps(blob))
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_text("")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {sset_path}: {message}\n" == captured.err
    assert "Traceback" not in captured.err


def test_realize_huge_sset_cap_fails_at_once(tmp_path, capsys):
    # the face tables are looked for before any degree is built
    sset_path = tmp_path / "x.json"
    sset_path.write_text(json.dumps({"cap": 10 ** 9, "simplices": {}}))
    start = time.perf_counter()
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(sset_path), "--d", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err \
        == f"input error: {sset_path}: missing face map (1,0)\n"


def test_realize_non_utf8_sset_is_input_error(tmp_path, capsys):
    sset_path = tmp_path / "x.json"
    sset_path.write_bytes(b"\xff\xfe{}")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(sset_path), "--d", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"cannot read {sset_path}: 'utf-8' codec can't decode"
            in captured.err)
    assert "Traceback" not in captured.err


NOT_UTF8 = b"\xff\xfe2 1 1\n1\n0\n"


@pytest.mark.parametrize("command", [
    ["solve", "--group", "cyclic:2"], ["solgroup"],
])
def test_non_utf8_system_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "x.lcs"
    path.write_bytes(NOT_UTF8)
    assert main([command[0], str(path), *command[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot read {path}: 'utf-8' codec can't decode" in captured.err
    assert "Traceback" not in captured.err


def test_realize_non_utf8_cochain_is_input_error(tmp_path, capsys):
    sset_path = tmp_path / "x.json"
    sset_path.write_text(json.dumps(ONE_LOOP))
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_bytes(NOT_UTF8)
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"cannot read {cochain_path}: 'utf-8' codec can't decode"
            in captured.err)
    assert "Traceback" not in captured.err


def test_realize_cochain_above_the_cap(tmp_path, capsys):
    # one vertex and one edge, cap 1: a degree-2 cochain has no simplices
    sset_path = tmp_path / "x.json"
    sset_path.write_text(json.dumps(ONE_LOOP))
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_text("s 1\n")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{cochain_path}: a degree-2 cochain needs simplices of "
            "degree 2, above the host's cap 1") in captured.err
    assert "Traceback" not in captured.err


def test_realize_repeated_cochain_line_is_input_error(tmp_path, capsys):
    from simplcs.simplicial import cells_sset, dump_sset
    x = cells_sset(2, {0: {"v": ()}, 1: {"e": ("v", "v")},
                       2: {"t": ("e", "e", ((0,), "v"))}})
    sset_path = tmp_path / "x.json"
    sset_path.write_text(dump_sset(x))
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_text("((), 't') 1\n((), 't') 0\n")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # a loaded set's simplex ids are strings
    assert captured.err == (f"input error: {cochain_path}: line 2: simplex "
                            "\"((), 't')\" already has a value, on line 1\n")


def test_realize_duplicate_sset_key_is_input_error(tmp_path, capsys):
    sset_path = tmp_path / "x.json"
    sset_path.write_text('{"cap": 0, "simplices": {"0": ["a"]}, '
                         '"simplices": {"0": ["b"]}}')
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_text("")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"input error: {sset_path}: a JSON object has the key "
        "'simplices' twice\n")


def test_reproduce_unknown_scenario(capsys):
    assert main(["reproduce", "not-a-scenario"]) == 3
    assert "invalid choice: 'not-a-scenario'" in capsys.readouterr().err


def test_missing_argument_is_input_error(capsys):
    assert main(["solve"]) == 3
    assert "required: system, --group" in capsys.readouterr().err


def test_reproduce_two_vertex(capsys):
    code = main(["reproduce", "two-vertex", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert all(v == "pass" for v in rep["results"].values())


def test_reproduce_monomial_split(capsys):
    code = main(["reproduce", "monomial-split", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["phi_splits_inclusion"] == "pass"


@pytest.mark.parametrize("scenario", sorted(_SCENARIO_FNS))
def test_reproduce_every_scenario(scenario, capsys):
    code = main(["reproduce", scenario, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["results"] and set(rep["results"].values()) == {"pass"}


def test_reports_are_deterministic(k33_file, capsys):
    main(["solgroup", k33_file, "--json"])
    first = capsys.readouterr().out
    main(["solgroup", k33_file, "--json"])
    second = capsys.readouterr().out
    assert first == second
    main(["reproduce", "monomial-split", "--json", "--seed", "7"])
    first = capsys.readouterr().out
    main(["reproduce", "monomial-split", "--json", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second
