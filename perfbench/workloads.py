"""The three seeded workloads: sweep, deep and certify.

Each workload has a `setup(lib, seed)` that builds the shared groups, hosts
and deterministic lists and generates the seeded corpus, and a
`run(lib, shared, spec, ck)` that takes one instance to a checked answer.
`run` returns `(answer, inconclusive)`; the answer is a JSON value that goes
into the run's answer digest, and every check goes through `ck`. Work done
only to check an answer is passed to `ck.expect` as a callable, so it runs
off the instance clock.

The library only ever sees inputs generated here from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

from checks import bad_isomorphism, bad_solutions
from simplcs.contextuality import RationalDist, SimplicialDistribution
from simplcs.groups import FinGroupJ

D8D8 = "central_product(dihedral:8,dihedral:8)"
TC_CAP = 100_000          # sweep's Todd-Coxeter coset cap
TC_CAP_DEEP = 300_000     # deep's cap, as for the extraspecial suite
REALIZE_MAX = 81          # sweep realizes a system only when d^c <= this


# -------------------------------------------------------------------- sweep

SWEEP_PANEL = {
    2: ("cyclic:2", "cyclic:4:2", "dihedral:8", "quaternion", D8D8),
    3: ("cyclic:3", "heisenberg:3", "e1:3:1", "wreath:3"),
    6: ("cyclic:6",),
}
# panel positions of the hom targets; the panel has no noncommutative group
# with J of order 6, so d = 6 systems map into cyclic:6
SWEEP_HOM_TARGETS = {2: (2, 3, 4), 3: (1, 2, 3), 6: (0,)}
SWEEP_SLOTS = 24          # support patterns in one cycle, 8 per modulus
SWEEP_CORPUS = 2000


def sweep_slots() -> list[tuple[int, tuple, bool]]:
    """The fixed cycle of (d, support, solvable) slots that every seed runs.

    A support is an r x c pattern, r <= 3 and c <= 4, with no empty row and
    every column in some row, so every variable occurs in an equation and
    no solution set grows as |G|^(free columns). Its entries name a class
    of Z_d values: 0, a unit, or for d = 6 a multiple of 2 or of 3, which
    vanish modulo 2 or 3 and so change the system's shape there. `solvable`
    is whether the drawn system has a classical solution over Z_d, which
    decides whether J survives in the solution group and so how large the
    group is. The slots come from a constant, so every seed runs the same
    mix of shapes and classes; the seed draws the entries, b, the row and
    column order and the hom target.
    """
    rng = random.Random("simplcs sweep supports")
    slots = []
    while len(slots) < SWEEP_SLOTS:
        d = (2, 3, 6)[len(slots) % 3]
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        classes = (1, 1, 2, 3) if d == 6 else (1,)
        supp = tuple(tuple(rng.randrange(2) and rng.choice(classes)
                           for _ in range(c)) for _ in range(r))
        if not (all(map(any, supp)) and all(map(any, zip(*supp)))):
            continue
        want = len(slots) % 2 == 0
        # keep the slot only if its class turns up in draws of entries and b
        if any(classically_solvable(*_draw(rng, d, supp), d) == want
               for _ in range(50)):
            slots.append((d, supp, want))
    return slots


def _draw(rng, d, supp):
    """Seeded entries on the support (rows and columns shuffled) and b."""
    values = {0: (0,), 1: tuple(u for u in range(1, d) if gcd(u, d) == 1),
              2: (2, 4), 3: (3,)}
    rows = [[rng.choice(values[x]) for x in row] for row in supp]
    cols = list(range(len(supp[0])))
    rng.shuffle(cols)
    rng.shuffle(rows)
    rows = [[row[k] for k in cols] for row in rows]
    return rows, [rng.randrange(d) for _ in rows]


def classically_solvable(rows, rhs, d: int) -> bool:
    """Ax = b over Z_d, by elimination over each prime field Z_p, p | d
    (d is squarefree here, so Z_d is the product of those fields)."""
    for p in (q for q in (2, 3, 5, 7) if d % q == 0):
        aug = [[x % p for x in row] + [b % p] for row, b in zip(rows, rhs)]
        rank = 0
        for col in range(len(rows[0])):
            piv = next((i for i in range(rank, len(aug)) if aug[i][col]),
                       None)
            if piv is None:
                continue
            aug[rank], aug[piv] = aug[piv], aug[rank]
            inv = pow(aug[rank][col], -1, p)
            aug[rank] = [x * inv % p for x in aug[rank]]
            for i in range(len(aug)):
                if i != rank and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [(x - f * y) % p for x, y in zip(aug[i],
                                                              aug[rank])]
            rank += 1
        if any(row[-1] for row in aug[rank:]):
            return False
    return True


def setup_sweep(lib, seed: int) -> dict:
    panel = {d: [lib.build_group(s) for s in specs]
             for d, specs in SWEEP_PANEL.items()}
    slots = sweep_slots()
    rng = random.Random(seed)
    corpus = []
    for i in range(SWEEP_CORPUS):
        d, supp, solvable = slots[i % len(slots)]
        rows, rhs = _draw(rng, d, supp)
        while classically_solvable(rows, rhs, d) != solvable:
            rows, rhs = _draw(rng, d, supp)
        corpus.append((d, rows, rhs, solvable,
                       rng.choice(SWEEP_HOM_TARGETS[d])))
    return {"panel": panel, "corpus": corpus}


def run_sweep(lib, shared, spec, ck):
    d, rows, rhs, solvable, hom_pos = spec
    text = lib.write_lcs(lib.make_system(rows, rhs, d))
    system = lib.parse_lcs(text)
    ck.expect("lcs_round_trip", (system.matrix.rows, system.rhs),
              (tuple(tuple(r) for r in rows), tuple(rhs)))
    lin = lib.solve(system.matrix, system.rhs)
    ck.expect("zmod_solvable_matches_elimination", lin is not None, solvable)

    panel = shared["panel"][d]
    counts, sols_at = [], {}
    for pos, g in enumerate(panel):
        sols = lib.solutions(system, g)
        ck.expect("solutions_satisfy_rows",
                  lambda: bad_solutions(g, system, sols), 0)
        counts.append(len(sols))
        sols_at[pos] = sols
    ck.expect("cyclic_solutions_match_zmod", sols_at[0],
              lambda: sorted(lin.enumerate()) if lin is not None else [])

    pres = lib.solution_group(system)
    g = panel[hom_pos]
    homs = lib.enumerate_homs(pres, g, pin_j=True)
    # Sol -> Hom_J is e_v -> T(v), J -> J_G (hom_of_solution's images)
    ck.expect("sol_equals_hom", lambda: {h.images for h in homs},
              lambda: {tuple(t) + (g.j,) for t in sols_at[hom_pos]})

    torsion, rank = lib.abelianization(pres)
    table = lib.todd_coxeter(pres, max_cosets=TC_CAP)
    tc_order = None if table is None else table.order
    if table is not None and table.group.is_abelian():
        ck.expect("tc_order_matches_abelianization", table.order,
                  prod(torsion) if rank == 0 else None)

    extracted = None
    if d ** system.num_cols <= REALIZE_MAX and realizable(system):
        gam, host = lib.gamma_b(system, cap=2)
        ext = lib.extract_linear_system(host, gam)
        ext_sols = lib.solutions(ext, panel[0])
        # every column lies in some row's support (sweep_slots), so the
        # realization sees all of them and the counts must agree
        ck.expect("extracted_count_matches", len(ext_sols), counts[0])
        extracted = [ext.num_rows, ext.num_cols, len(ext_sols)]

    answer = [d, lin.count() if lin is not None else 0, counts, len(homs),
              torsion, rank, tc_order, extracted]
    return answer, table is None


def realizable(system) -> bool:
    """The row conditions hold and gamma_b is well defined.

    gamma_b collapses every row circle {a A_i}; that is well defined when
    b agrees wherever two row spans meet: a A_i = a' A_j != 0 must imply
    a b_i = a' b_j. For prime d distinct spans meet only in 0, for d = 6
    they can share a vector.
    """
    if system.row_condition_violations():
        return False
    d, rows = system.modulus, system.matrix.rows
    seen: dict = {}
    for row, b in zip(rows, system.rhs):
        for a in range(1, d):
            vec = tuple(a * x % d for x in row)
            if any(vec) and seen.setdefault(vec, a * b % d) != a * b % d:
                return False
    return True


# --------------------------------------------------------------------- deep

# One cycle of slots. Each slot is a short list of tasks that together take
# about as long as any other slot (1.1 to 1.3 s each on a 2-core x86 machine,
# checks excluded), so the median and the tail do not hinge on which task
# kinds a run happens to end on. The seed draws the contents
# within each task's class, so every seed runs the same mix of gauge classes:
#   ("z2", parity, homs)           K33 over Z_2 in D8 o D8, with Hom_J if homs
#   ("z3", group, solvable)        K33 over Z_3 in heisenberg:3 / e1:3:1
#   ("structure", torus class, parity of the Z_2 TC system)
#   ("reduction", parity)          the reduction bijection for K33 and the
#                                  two-vertex system
DEEP_CYCLE = (
    (("z2", 1, True),),
    (("z3", 0, True), ("z2", 0, False), ("structure", 0, 1)),
    (("z3", 1, False), ("structure", 1, 0), ("reduction", 1),
     ("reduction", 0)),
)
DEEP_CORPUS = 200
REDUCTION_PANEL = ("cyclic:2", "cyclic:4:2", "dihedral:8", "quaternion")
ODD_K33_D8D8 = 1152       # |Sol| for odd K33 in D8 o D8 (criterion 5)


def _bits(rng, n, d):
    return [rng.randrange(d) for _ in range(n)]


def _k33_b(rng, d, cls):
    """A random K33 parity vector b whose gauge class is cls."""
    b = _bits(rng, 6, d)
    b[5] = (sum(b[:3]) - sum(b[3:5]) - cls) % d
    return b


def setup_deep(lib, seed: int) -> dict:
    shared = {
        "d8d8": lib.build_group(D8D8),
        "z3_groups": [lib.build_group(s) for s in ("heisenberg:3", "e1:3:1")],
        "e2": lib.build_group("extraspecial:2:2:+"),
        "reduction": [lib.build_group(s) for s in REDUCTION_PANEL],
        "torus": lib.k33_torus_fixture(),
        "z2_counts": {1: ODD_K33_D8D8},   # gauge class -> |Sol|
        "z3_counts": {},                  # (group, class) -> |Sol|
    }
    rng = random.Random(seed)
    shared["corpus"] = [
        [_deep_task(rng, shared, task)
         for task in DEEP_CYCLE[i % len(DEEP_CYCLE)]]
        for i in range(DEEP_CORPUS)]
    return shared


def _deep_task(rng, shared, task):
    kind, *cls = task
    if kind == "z2":
        return (kind, _k33_b(rng, 2, cls[0]), cls[1])
    if kind == "z3":
        group, solvable = cls
        return (kind, _k33_b(rng, 3, 0 if solvable else rng.randrange(1, 3)),
                group)
    if kind == "structure":
        vals = _bits(rng, 6, 2)
        vals[5] = (cls[0] - sum(vals[:5])) % 2
        perm = list(range(shared["e2"].n))
        rng.shuffle(perm)
        return (kind, vals, _bits(rng, 6, 3), _k33_b(rng, 2, cls[1]), perm)
    return (kind, _k33_b(rng, 2, cls[0]), _bits(rng, 2, 2))


def _k33_class(b, d):
    """Gauge class of b: the K33 rows satisfy r1+r2+r3 = r4+r5+r6."""
    return (sum(b[:3]) - sum(b[3:])) % d


def _deep_z2(lib, shared, b, with_homs, ck):
    g = shared["d8d8"]
    system = lib.k33_system(b)
    sols = lib.solutions(system, g)
    ck.expect("solutions_satisfy_rows",
              lambda: bad_solutions(g, system, sols), 0)
    ck.expect("gauge_class_count", len(sols),
              shared["z2_counts"].setdefault(_k33_class(b, 2), len(sols)))
    if not with_homs:
        return [len(sols)], False
    homs = lib.enumerate_homs(lib.solution_group(system), g, pin_j=True)
    ck.expect("sol_equals_hom", lambda: {h.images for h in homs},
              lambda: {tuple(t) + (g.j,) for t in sols})
    return [len(sols), len(homs)], False


def _deep_z3(lib, shared, b, which, ck):
    g = shared["z3_groups"][which]
    system = lib.k33_system(b, d=3)
    sols = lib.solutions(system, g)
    ck.expect("solutions_satisfy_rows",
              lambda: bad_solutions(g, system, sols), 0)
    if lib.solve(system.matrix, system.rhs) is None:
        # Gamma(K33) is abelian for odd d: no classical solution, no Sol
        ck.expect("gauge_class_count", len(sols), 0)
    else:
        key = (which, _k33_class(b, 3))
        ck.expect("gauge_class_count", len(sols),
                  shared["z3_counts"].setdefault(key, len(sols)))
    return [which, len(sols)], False


def _abelian_tc(lib, pres, ck):
    """TC order of an abelian solution group, checked against its
    abelianization; an abelian group is isomorphic to its abelianization,
    so the invariant factors are the isomorphism type."""
    table = lib.todd_coxeter(pres, max_cosets=TC_CAP_DEEP)
    torsion, rank = lib.abelianization(pres)
    ck.expect("tc_order_matches_abelianization",
              None if table is None else (table.order,
                                          table.group.is_abelian()),
              (prod(torsion), True) if rank == 0 else None)
    return None if table is None else table.order


def _iso_tc(lib, pres, target, ck):
    """TC order, with an isomorphism onto target that the bench verifies."""
    table = lib.todd_coxeter(pres, max_cosets=TC_CAP_DEEP)
    iso = None if table is None else lib.find_isomorphism(table.group,
                                                          target)
    ck.expect("tc_isomorphism_witness",
              lambda: None if table is None else bad_isomorphism(
                  table.group, target, iso), 0)
    return None if table is None else table.order


def _deep_structure(lib, shared, torus_vals, b3, b2, perm, ck):
    """Theorem check on the torus, TC of Gamma(K33) over Z_3 and Z_2, and
    pi_1 and the K-group presentation of a relabelled extraspecial group."""
    fx = shared["torus"]
    gam = lib.cochain(fx.space, 2, 2,
                      values={fx.triangles[f"sigma{k + 1}"]: v
                              for k, v in enumerate(torus_vals)})
    test_groups = [shared["reduction"][0], shared["reduction"][2]]
    rep = lib.theorem_iso_check(fx.space, gam, 2, test_groups)
    ck.expect("iso_check_passes", rep.passed, True)
    hom_counts = [list(rep.hom_counts[g.name]) for g in test_groups]
    ck.expect("iso_check_hom_counts_match", [a for a, _ in hom_counts],
              [b for _, b in hom_counts])

    orders = [_abelian_tc(lib, lib.solution_group(lib.k33_system(b3, d=3)),
                          ck)]
    pres2 = lib.solution_group(lib.k33_system(b2))
    # odd parity: D8 o D8 (criterion 2); even parity: abelian, Z_2^5
    orders.append(_iso_tc(lib, pres2, shared["d8d8"], ck) if sum(b2) % 2
                  else _abelian_tc(lib, pres2, ck))

    e = _relabel(shared["e2"], perm)
    pres, _ = lib.pi1(lib.comm_nerve(e, cap=2))
    orders.append(_iso_tc(lib, lib.tietze_simplify(pres), e, ck))
    kgens = len(lib.k_group(e).presentation.gens)
    ck.expect("k_group_generators", kgens, lambda: _k_group_pairs(e))
    return [hom_counts, orders, kgens], None in orders


def _k_group_pairs(e) -> int:
    """Pairs a != b, both not 1, with a^-1 b a nontrivial d-torsion element:
    the generators of the K-group presentation."""
    table, one = e.table, e.identity
    inv = {x: table[x].index(one) for x in range(e.n)}

    def torsion(x):
        acc = one
        for _ in range(e.d):
            acc = table[acc][x]
        return acc == one

    tor = {x for x in range(e.n) if x != one and torsion(x)}
    return sum(1 for a in range(e.n) for b in range(e.n)
               if a != b and one not in (a, b) and table[inv[a]][b] in tor)


def _relabel(g: FinGroupJ, perm) -> FinGroupJ:
    """An isomorphic copy of g with element k renamed perm[k]."""
    table = [[0] * g.n for _ in range(g.n)]
    for a in range(g.n):
        for b in range(g.n):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return FinGroupJ(table, perm[g.identity], perm[g.j], g.d,
                     name=f"{g.name}~relabelled")


def _deep_reduction(lib, shared, b_k33, b_tv, ck):
    out = []
    k33 = lib.k33_system(b_k33)
    odd = sum(b_k33) % 2
    for g in shared["reduction"]:
        n1, n2 = lib.check_reduction_bijection(k33, g)
        ck.expect("reduction_counts_agree", n1, n2)
        if odd:
            # odd parity admits no solution in these groups (criterion 5)
            ck.expect("odd_k33_unsolvable", n1, 0)
        out.append(n1)
    tv = lib.two_vertex_system(b_tv)
    for g in shared["reduction"] + [shared["d8d8"]]:
        n1, n2 = lib.check_reduction_bijection(tv, g)
        ck.expect("reduction_counts_agree", n1, n2)
        out.append(n1)
    return out, False


DEEP_RUNNERS = {"z2": _deep_z2, "z3": _deep_z3,
                "structure": _deep_structure, "reduction": _deep_reduction}


def run_deep(lib, shared, spec, ck):
    answers, inconclusive = [], False
    for kind, *args in spec:
        answer, inc = DEEP_RUNNERS[kind](lib, shared, *args, ck)
        answers.append([kind, answer])
        inconclusive = inconclusive or inc
    return answers, inconclusive


# ------------------------------------------------------------------ certify

# One cycle of slots, each a list of verdicts. A phase state's class is the
# parity of the number of its amplitudes that are real multiples of the
# first one: odd states give six distinct outcome probabilities instead of
# three and a slower LP. Two thirds of the slots are Mermin-Peres verdicts,
# half of each class, so the median falls inside their cost range rather
# than on the gap below it (Theta-mixtures, the cheapest) or above it
# (rational mixtures, the dearest); one slot is one verdict, so a run holds
# enough instances for the tail even on a slow machine.
_MP0, _MP1 = (("mermin_peres", 0),), (("mermin_peres", 1),)
_THETA = (("theta_mixture", None),)
CERTIFY_CYCLE = (
    _MP0, _MP1, _THETA, _MP0, _MP1, (("rational_mixture", 0),),
    _MP0, _MP1, _THETA, _MP0, _MP1, (("rational_mixture", 1),),
)
CERTIFY_CORPUS = 300
THETA_SUPPORT = 3                # deterministic distributions per mixture
MP_PARITY = (0, 0, 0, 0, 0, 1)   # the K33 system the Pauli square solves


def state_class(rho) -> int:
    """Parity of the count of amplitudes real relative to the first one."""
    return sum(abs(rho[0][k].imag) < 1e-9 for k in range(len(rho))) % 2


def setup_certify(lib, seed: int) -> dict:
    system = lib.k33_system(MP_PARITY)
    host = lib.nzd_sigma(lib.complex_of_system(system), 2, cap=2)
    dets = lib.enumerate_deterministic(host, 2)
    shared = {"system": system, "host": host, "dets": dets,
              "operators": lib.mermin_peres_solution()}
    rng = random.Random(seed)
    corpus = []
    for i in range(CERTIFY_CORPUS):
        slot = []
        for kind, cls in CERTIFY_CYCLE[i % len(CERTIFY_CYCLE)]:
            state_seed = rng.randrange(2 ** 32)
            while cls is not None and state_class(lib.random_phase_state(
                    4, random.Random(state_seed))) != cls:
                state_seed = rng.randrange(2 ** 32)
            subset = rng.sample(range(len(dets)), THETA_SUPPORT)
            weights = [rng.randrange(1, 10) for _ in subset]
            t = Fraction(rng.randrange(1, 8), 8)
            slot.append((kind, state_seed, subset, weights, t))
        corpus.append(slot)
    shared["corpus"] = corpus
    return shared


def _mix(t: Fraction, p, q) -> SimplicialDistribution:
    """t p + (1 - t) q, simplex by simplex."""
    dists = {}
    for key, a in p.dists.items():
        acc: dict = {}
        for outcome, v in a.weights:
            acc[outcome] = acc.get(outcome, 0) + t * v
        for outcome, v in q.dists[key].weights:
            acc[outcome] = acc.get(outcome, 0) + (1 - t) * v
        dists[key] = RationalDist.from_dict(acc)
    return SimplicialDistribution(p.host, p.d, dists)


def _verifies(lib, p, verdict, dets) -> bool:
    try:
        lib.verify_verdict(p, verdict, dets)
    except AssertionError:
        return False
    return True


def run_certify(lib, shared, spec, ck):
    answers = [_certify_one(lib, shared, task, ck) for task in spec]
    return answers, False


def _certify_one(lib, shared, task, ck):
    kind, state_seed, subset, weights, t = task
    dets = shared["dets"]

    def quantum():
        rho = lib.random_phase_state(4, random.Random(state_seed))
        return lib.quantum_distribution(shared["system"], shared["operators"],
                                        rho, host=shared["host"])

    def classical():
        total = sum(weights)
        return lib.theta({dets[k]: Fraction(w, total)
                          for k, w in zip(subset, weights)})

    if kind == "mermin_peres":
        p = quantum()
    elif kind == "theta_mixture":
        p = classical()
    else:
        p = _mix(t, quantum(), classical())
    verdict = lib.is_contextual(p, dets)
    ck.expect("certificate_verifies",
              lambda: _verifies(lib, p, verdict, dets), True)
    if kind == "mermin_peres":
        ck.expect("mermin_peres_contextual", verdict.contextual, True)
    elif kind == "theta_mixture":
        ck.expect("theta_mixture_noncontextual", verdict.contextual, False)
    if not verdict.contextual:
        # the convex witness must reproduce p exactly through Theta
        ck.expect("witness_reproduces_distribution",
                  lambda: lib.theta(verdict.weights).dists == p.dists, True)
    return [kind, verdict.contextual]


WORKLOADS = {
    "sweep": (setup_sweep, run_sweep),
    "deep": (setup_deep, run_deep),
    "certify": (setup_certify, run_certify),
}
