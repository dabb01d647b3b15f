import json

import pytest

from simplcs import groups
from simplcs.cli import main
from simplcs.linsys import k33_system, write_lcs


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


def test_parse_error_has_line_number(tmp_path, capsys):
    path = tmp_path / "bad.lcs"
    path.write_text("2 2 2\n1 1\n1 x\n0 0\n")
    code = main(["solve", str(path), "--group", "cyclic:2"])
    assert code == 3
    assert "line 3" in capsys.readouterr().err


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


@pytest.mark.parametrize("blob, message", [
    ({"cap": 1, "simplices": [["a"]]},
     "'simplices' must be a JSON object, got an array"),
    ([{"cap": 1, "simplices": {}}],
     "the top level must be a JSON object, got an array"),
])
def test_realize_rejects_malformed_sset(tmp_path, capsys, blob, message):
    sset_path = tmp_path / "x.json"
    sset_path.write_text(json.dumps(blob))
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_text("")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad simplicial-set file: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_realize_cochain_above_the_cap(tmp_path, capsys):
    # one vertex and one edge, cap 1: a degree-2 cochain has no simplices
    sset_path = tmp_path / "x.json"
    sset_path.write_text(json.dumps({
        "cap": 1, "simplices": {"0": ["a"], "1": ["s"]},
        "faces": {"1,0": {"s": "a"}, "1,1": {"s": "a"}},
        "degeneracies": {"0,0": {"a": "s"}}}))
    cochain_path = tmp_path / "g.cochain"
    cochain_path.write_text("s 1\n")
    code = main(["realize", "--sset", str(sset_path),
                 "--cochain", str(cochain_path), "--d", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("bad cochain file: a degree-2 cochain needs simplices of "
            "degree 2, above the host's cap 1") in captured.err
    assert "Traceback" not in captured.err


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
