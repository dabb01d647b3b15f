"""Fuzz the command line's input files: mutated valid `.lcs`, cochain,
simplicial-set and `cayley:` files go through `cli.main`, which must end
in exit 0 (the mutant still parses and means something) or exit 3 (an
input error), never in a traceback. The examples are derandomized, so a
run is repeatable."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simplcs.cli import main
from simplcs.simplicial import cells_sset, dump_sset

LCS = b"# the two-vertex system\n2 2 2\n1 1  # first row\n\n1 0\n1 0\n"
SSET = dump_sset(cells_sset(2, {0: {"v": ()}, 1: {"e": ("v", "v")},
                                2: {"t": ("e", "e", ((0,), "v"))}})).encode()
COCHAIN = b"# gamma\n((), 't') 1\n\n"
# Z_4 with J = 2, of order d = 2
CAYLEY = b"4 2 0 2  # n d identity J\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"

# bytes that make or break each format, and one that is not UTF-8
ALPHABET = list(b"0123456789 -+,:#\n\"'()[]{}tve") + [0xFF]
EDITS = st.lists(st.tuples(st.sampled_from(("delete", "insert", "replace",
                                            "repeat line")),
                           st.integers(0, 10 ** 4), st.sampled_from(ALPHABET)),
                 min_size=1, max_size=4)
FUZZ = settings(derandomize=True, database=None, max_examples=120,
                deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(data: bytes, edits) -> bytes:
    for op, at, byte in edits:
        at %= len(data) + 1
        if op == "insert":
            data = data[:at] + bytes([byte]) + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + 1:]
        elif op == "replace":
            data = data[:at] + bytes([byte]) + data[at + 1:]
        else:
            lines = data.splitlines(keepends=True)
            if lines:
                k = at % len(lines)
                data = b"".join(lines[:k + 1] + lines[k:])
    return data


def exit_code(argv) -> int:
    """main(argv)'s exit code, with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ
@given(edits=EDITS)
def test_mutated_lcs(tmp_path, edits):
    path = tmp_path / "x.lcs"
    path.write_bytes(mutate(LCS, edits))
    assert exit_code(["solve", str(path), "--group", "dihedral:8"]) in (0, 3)


@FUZZ
@given(edits=EDITS)
def test_mutated_cochain(tmp_path, edits):
    sset, cochain = tmp_path / "x.json", tmp_path / "g.cochain"
    sset.write_bytes(SSET)
    cochain.write_bytes(mutate(COCHAIN, edits))
    assert exit_code(["realize", "--sset", str(sset),
                      "--cochain", str(cochain), "--d", "3"]) in (0, 3)


@FUZZ
@given(edits=EDITS)
def test_mutated_sset(tmp_path, edits):
    sset, cochain = tmp_path / "x.json", tmp_path / "g.cochain"
    sset.write_bytes(mutate(SSET, edits))
    cochain.write_bytes(COCHAIN)
    assert exit_code(["realize", "--sset", str(sset),
                      "--cochain", str(cochain), "--d", "2"]) in (0, 3)


@FUZZ
@given(edits=EDITS)
def test_mutated_cayley(tmp_path, edits):
    lcs, cayley = tmp_path / "x.lcs", tmp_path / "g.cayley"
    lcs.write_bytes(LCS)
    cayley.write_bytes(mutate(CAYLEY, edits))
    assert exit_code(["solve", str(lcs), "--group",
                      f"cayley:{cayley}"]) in (0, 3)


def test_the_unmutated_files_pass(tmp_path):
    for name, data in {"x.lcs": LCS, "x.json": SSET, "g.cochain": COCHAIN,
                       "g.cayley": CAYLEY}.items():
        (tmp_path / name).write_bytes(data)
    assert exit_code(["solve", str(tmp_path / "x.lcs"),
                      "--group", f"cayley:{tmp_path / 'g.cayley'}"]) == 0
    assert exit_code(["realize", "--sset", str(tmp_path / "x.json"),
                      "--cochain", str(tmp_path / "g.cochain")]) == 0
