"""Command-line front end: solving, solution groups, realization of cochain
data as linear systems, and the built-in reproduction scenarios.

Reports are printed to stdout as deterministic JSON (sorted keys, fixed
layout); wall-clock timings go to stderr so that stdout stays byte-identical
across runs for fixed inputs and seeds. Exit codes: 0 pass, 1 fail,
2 inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction

from . import cohomology, contextuality, groups, linsys, presentations
from . import simplicial
from .groups import GroupValidationError, build_group
from .linsys import RowConditionError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 3) instead of exiting 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=1))
        return
    def render(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    render(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(value, list):
            for v in value:
                render(v, indent)
        else:
            print(f"{pad}{value}")
    render(report)


def _load_system(path: str) -> linsys.LinearSystem:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        sys_ = linsys.parse_lcs(text)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return sys_


# ------------------------------------------------------------------ commands

def cmd_solve(args) -> int:
    sys_ = _load_system(args.system)
    try:
        g = build_group(args.group)
    except GroupValidationError as exc:
        raise InputError(str(exc)) from exc
    if g.d != sys_.modulus:
        raise InputError(
            f"group J-order {g.d} does not match system modulus {sys_.modulus}")
    sols = presentations.solutions(sys_, g)
    report = {
        "command": "solve",
        "inputs": {"system": _digest(linsys.write_lcs(sys_)),
                   "group": g.name, "d": sys_.modulus},
        "results": {
            "solution_count": len(sols),
            "witnesses": [list(t) for t in sols[:args.max_witnesses]],
        },
    }
    _emit(report, args.json)
    return EXIT_PASS


def cmd_solgroup(args) -> int:
    sys_ = _load_system(args.system)
    pres = presentations.solution_group(sys_)
    torsion, rank = presentations.abelianization(pres)
    table = presentations.todd_coxeter(pres, max_cosets=args.todd_coxeter_cap)
    results = {
        "generators": list(pres.gens),
        "relator_count": len(pres.relators),
        "abelianization": {"torsion": torsion, "free_rank": rank},
    }
    if table is None:
        results["todd_coxeter"] = "inconclusive"
    else:
        results["todd_coxeter"] = {
            "order": table.order,
            "abelian": table.group.is_abelian(),
            "j_order": table.group.order(table.j_image),
        }
    report = {
        "command": "solgroup",
        "inputs": {"system": _digest(linsys.write_lcs(sys_)),
                   "d": sys_.modulus},
        "results": results,
    }
    _emit(report, args.json)
    return EXIT_INCONCLUSIVE if table is None else EXIT_PASS


def cmd_realize(args) -> int:
    d = args.d
    if d < 2:
        raise InputError(f"--d must be at least 2, got {d}")
    cap = max(args.cap, 2)
    if args.builtin:
        want = {"two-vertex": 2, "k33": len(simplicial.K33_TRIANGLES)}
        if args.b and len(args.b) != want[args.builtin]:
            raise InputError(f"--builtin {args.builtin} takes "
                             f"{want[args.builtin]} --b values, "
                             f"got {len(args.b)}")
        if args.builtin == "two-vertex":
            b = args.b if args.b else [1, 0]
            gam, host = cohomology.gamma_b(
                linsys.two_vertex_system(b, d), cap=cap)
            extracted = cohomology.extract_linear_system(host, gam)
        else:
            fx = simplicial.k33_torus_fixture(cap=cap)
            b = args.b if args.b else [0, 0, 0, 0, 0, 1]
            values = {fx.triangles[lbl]: v
                      for lbl, v in zip(simplicial.K33_TRIANGLES, b)}
            gam = cohomology.cochain(fx.space, 2, d, values=values)
            extracted = cohomology.extract_linear_system(
                fx.space, gam, nondegenerate_only=True)
    else:
        if not (args.sset and args.cochain):
            raise InputError("realize needs --builtin or --sset with --cochain")
        try:
            with open(args.sset) as fh:
                host = simplicial.load_sset(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            raise InputError(f"bad simplicial-set file: {exc}") from exc
        try:
            with open(args.cochain) as fh:
                gam = cohomology.parse_cochain(host, 2, d, fh.read())
        except (OSError, cohomology.CochainError) as exc:
            raise InputError(f"bad cochain file: {exc}") from exc
        extracted = cohomology.extract_linear_system(host, gam)
    sys.stdout.write(linsys.write_lcs(extracted))
    return EXIT_PASS


# ----------------------------------------------------------------- scenarios

def _scenario_k33(rng) -> dict:
    checks = {}
    # solvability over Z_2 for all 64 parity vectors, 16 solutions when even
    ok = True
    from .zmod import solve
    for bits in range(64):
        b = [(bits >> k) & 1 for k in range(6)]
        sys_ = linsys.k33_system(b)
        lin = solve(sys_.matrix, sys_.rhs)
        solvable = lin is not None
        if solvable != (sum(b) % 2 == 0):
            ok = False
        if solvable and lin.count() != 16:
            ok = False
    checks["solvable_iff_even_parity_with_16_solutions"] = ok

    odd = presentations.todd_coxeter(
        presentations.solution_group(linsys.k33_system([0, 0, 0, 0, 0, 1])))
    d8d8 = build_group("central_product(dihedral:8,dihedral:8)")
    checks["odd_parity_order_32_nonabelian"] = (
        odd is not None and odd.order == 32 and not odd.group.is_abelian())
    checks["odd_parity_iso_d8_central_d8"] = (
        odd is not None
        and groups.find_isomorphism(odd.group, d8d8) is not None)
    even = presentations.todd_coxeter(
        presentations.solution_group(linsys.k33_system([0] * 6)))
    checks["even_parity_z2_5"] = (
        even is not None and even.order == 32 and even.group.is_abelian()
        and presentations.abelianization(
            presentations.solution_group(linsys.k33_system([0] * 6)))
        == ([2, 2, 2, 2, 2], 0))

    # contextuality certificates for the quantum and uniform distributions
    sys_ = linsys.k33_system([0, 0, 0, 0, 0, 1])
    host = simplicial.nzd_sigma(simplicial.complex_of_system(sys_), 2, cap=2)
    dets = contextuality.enumerate_deterministic(host, 2)
    q = contextuality.quantum_distribution(
        sys_, contextuality.mermin_peres_solution(),
        contextuality.maximally_mixed(4), host=host)
    verdict = contextuality.is_contextual(q, dets)
    checks["quantum_distribution_contextual_with_farkas"] = (
        verdict.contextual and bool(verdict.farkas))
    host0 = simplicial.nzd_sigma(
        simplicial.complex_of_system(linsys.k33_system([0] * 6)), 2, cap=2)
    dets0 = contextuality.enumerate_deterministic(host0, 2)
    uniform = contextuality.theta(
        {f: Fraction(1, len(dets0)) for f in dets0})
    verdict0 = contextuality.is_contextual(uniform, dets0)
    checks["uniform_classical_noncontextual"] = not verdict0.contextual
    return checks


def _scenario_two_vertex(rng) -> dict:
    checks = {}
    test_groups = [build_group(s) for s in
                   ("cyclic:2", "cyclic:4:2", "dihedral:8", "quaternion",
                    "central_product(dihedral:8,dihedral:8)")]
    for b in itertools.product(range(2), repeat=2):
        sys_ = linsys.two_vertex_system(list(b))
        maps = presentations.reduction_maps(sys_)
        for g in test_groups:
            n1, n2 = presentations.check_reduction_bijection(sys_, g, maps)
            checks[f"b={b[0]}{b[1]}_{g.name}"] = (n1 == n2)
    return checks


def _scenario_extraspecial_2(rng) -> dict:
    checks = {}
    e2 = build_group("extraspecial:2:2:+")
    x = simplicial.comm_nerve(e2, cap=2)
    pres, _ = presentations.pi1(x)
    table = presentations.todd_coxeter(
        presentations.tietze_simplify(pres), max_cosets=300000)
    checks["gamma_z2_e2_order_32"] = table is not None and table.order == 32
    checks["gamma_iso_e2"] = (
        table is not None
        and groups.find_isomorphism(table.group, e2) is not None)
    kdata = presentations.k_group(e2)
    ktable = presentations.todd_coxeter(
        presentations.tietze_simplify(kdata.presentation), max_cosets=300000)
    checks["k_group_trivial"] = ktable is not None and ktable.order == 1
    return checks


def _scenario_odd_p(rng) -> dict:
    checks = {}
    sys3 = linsys.k33_system([1, 1, 1, 0, 0, 0], d=3)
    pres = presentations.solution_group(sys3)
    table = presentations.todd_coxeter(pres)
    ab = presentations.abelian_order(pres)
    checks["k33_d3_abelian_tc_matches_abelianization"] = (
        table is not None and table.group.is_abelian() and ab == table.order)
    checks["k33_d3_solvable_over_z3"] = bool(
        presentations.solutions(sys3, groups.cyclic(3)))
    report = presentations.opposite_word_check(
        table, table.gen_images[:9], table.j_image, 3, 4)
    checks["opposite_word_no_violations_len4"] = not report["violations"]

    for spec in ("heisenberg:3", "e1:3:2", "wreath:3"):
        g = build_group(spec)
        checks[f"torsion_pair_{spec}"] = (
            groups.find_torsion_pair(g, 3) is not None)

    heis = build_group("heisenberg:3")
    z3 = groups.cyclic(3)
    agree = True
    produced = 0
    while produced < 200:
        r = rng.randrange(1, 4)
        c = rng.randrange(1, 5)
        rows = [[rng.randrange(3) for _ in range(c)] for _ in range(r)]
        b = [rng.randrange(3) for _ in range(r)]
        sys_ = linsys.make_system(rows, b, 3)
        produced += 1
        if presentations.solutions(sys_, heis):
            if not presentations.solutions(sys_, z3):
                agree = False
    checks["random_z3_systems_heisenberg_implies_z3"] = agree
    return checks


def _scenario_monomial_split(rng) -> dict:
    checks = {}
    big = groups.build_e1(3, 2)
    one = groups.MonomialElement.one(3, 2)
    tor = [el for el in big.elements if el.pow(3) == one]
    morphism = True
    for a in tor:
        fa = groups.monomial_split(a)
        for b in tor:
            if a.mul(b) == b.mul(a):
                if groups.monomial_split(a.mul(b)) != fa.mul(groups.monomial_split(b)):
                    morphism = False
    checks["phi_multiplicative_on_commuting_3_torsion"] = morphism
    small = groups.build_e1(3, 1)
    checks["phi_splits_inclusion"] = all(
        groups.monomial_split(groups.embed_e1(el)) == el for el in small.elements)
    return checks


def _scenario_power_maps(rng) -> dict:
    checks = {}
    for spec, d in (("dihedral:8", 2), ("cyclic:4", 4), ("cyclic:6", 6)):
        g = build_group(spec)
        ok = True
        for m1, m2 in itertools.product((-1, 1, 2, 3), repeat=2):
            w1 = simplicial.power_map_s(g, d, m1, cap=2)
            w2 = simplicial.power_map_s(g, d, m2, cap=2)
            w12 = simplicial.power_map_s(g, d, m1 * m2, cap=2)
            for n in range(3):
                for tok in w12.source.simplices[n]:
                    if w1(n, w2(n, tok)) != w12(n, tok):
                        ok = False
        checks[f"omega_composition_{spec}"] = ok

    from .cohomology import cohomologous, gamma_phi_d, pullback
    for spec in ("dihedral:8", "quaternion"):
        g = build_group(spec)
        ext = groups.quotient_by_j(g)
        gam, host, _ = gamma_phi_d(ext, cap=3)
        q = ext.quotient
        ok = True
        for m in (-1, 3):
            mapping = {n: {tok: tuple(q.power(x, m) for x in tok)
                           for tok in host.simplices[n]}
                       for n in range(host.cap + 1)}
            omega_bar = simplicial.SMap(host, host, mapping)
            pulled = pullback(gam, omega_bar)
            if cohomologous(gam.scale(m), pulled) is None:
                ok = False
        checks[f"pullback_witness_{spec}"] = ok

    # mod-prime-power reduction is injective on a d=6 corpus
    z6 = groups.cyclic(6)
    injective = True
    for _ in range(20):
        r, c = rng.randrange(1, 3), rng.randrange(1, 4)
        rows = [[rng.randrange(6) for _ in range(c)] for _ in range(r)]
        b = [rng.randrange(6) for _ in range(r)]
        sys_ = linsys.make_system(rows, b, 6)
        sols = presentations.solutions(sys_, z6)
        seen = set()
        for t in sols:
            image = (tuple(z6.power(x, 3) for x in t),
                     tuple(z6.power(x, 4) for x in t))
            if image in seen:
                injective = False
            seen.add(image)
    checks["mod_prime_power_reduction_injective_d6"] = injective
    return checks


_SCENARIO_FNS = {
    "k33": _scenario_k33,
    "two-vertex": _scenario_two_vertex,
    "extraspecial-2": _scenario_extraspecial_2,
    "odd-p": _scenario_odd_p,
    "monomial-split": _scenario_monomial_split,
    "power-maps": _scenario_power_maps,
}


def cmd_reproduce(args) -> int:
    rng = random.Random(args.seed)
    t0 = time.time()
    checks = _SCENARIO_FNS[args.scenario](rng)
    elapsed = time.time() - t0
    report = {
        "command": "reproduce",
        "inputs": {"scenario": args.scenario, "seed": args.seed},
        "results": {name: ("pass" if ok else "FAIL")
                    for name, ok in checks.items()},
    }
    _emit(report, args.json)
    print(f"[{args.scenario}] {sum(checks.values())}/{len(checks)} checks "
          f"in {elapsed:.1f}s", file=sys.stderr)
    return EXIT_PASS if all(checks.values()) else EXIT_FAIL


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplcs",
        description="Linear constraint systems over Z_d: solutions in groups, "
                    "solution groups, simplicial realizations, contextuality.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a .lcs system in a group")
    p_solve.add_argument("system", help=".lcs file")
    p_solve.add_argument("--group", required=True,
                         help="group spec, e.g. central_product(dihedral:8,dihedral:8)")
    p_solve.add_argument("--max-witnesses", type=int, default=4)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    p_sg = sub.add_parser("solgroup", help="analyze the solution group")
    p_sg.add_argument("system", help=".lcs file")
    p_sg.add_argument("--todd-coxeter-cap", type=int, default=10 ** 6)
    p_sg.add_argument("--json", action="store_true")
    p_sg.set_defaults(fn=cmd_solgroup)

    p_re = sub.add_parser("realize",
                          help="extract the linear system of (X, gamma)")
    p_re.add_argument("--sset", help="simplicial-set JSON file")
    p_re.add_argument("--cochain", help="cochain file (simplex-id value lines)")
    p_re.add_argument("--builtin", choices=("k33", "two-vertex"))
    p_re.add_argument("--b", type=int, nargs="*", default=None,
                      help="b values for the builtin cochain")
    p_re.add_argument("--d", type=int, default=2)
    p_re.add_argument("--cap", type=int, default=2,
                      help="simplicial truncation cap for the realization")
    p_re.set_defaults(fn=cmd_realize)

    p_rp = sub.add_parser("reproduce", help="run a reproduction scenario")
    p_rp.add_argument("scenario", choices=_SCENARIO_FNS)
    p_rp.add_argument("--seed", type=int, default=0)
    p_rp.add_argument("--json", action="store_true")
    p_rp.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (InputError, RowConditionError, GroupValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
