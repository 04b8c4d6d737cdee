"""Set-up step: generate the inputs of one workload from its seed.

    python3 perfbench/gen.py <workload> <seed> <out.jsonl>

Runs in a process of its own, so that nothing it computes warms a cache
of the process that is measured (``dim7._make_cache``, ``gf2k.field``,
``gf2k._extension_root``).  Every input is text: an algebra file, a lie2
file or presentation source.  The output file holds one JSON object per
line: a header, then the distinct inputs.  The header's ``order`` lists
the input index of every operation of one pass.

Prints one JSON line: ``setup_s`` (import of dalg plus generation, timed
inside this process) and the sha256 of the file written.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from math import ceil, comb

from worker import import_library

# dalg is imported inside the functions below, so that main() times the
# first import as part of the set-up.

# Operations in one pass of each workload: about three quarters of a 20 s
# run on the machine described in README.md when it runs fast, and at least
# 110 so that p90 has 10 samples beyond it.  The first pass always
# completes (its counts must repeat exactly), and further passes over the
# same inputs fill the run up to its seconds, so a run lasts about its
# seconds however fast the machine or the library is.  The inputs depend
# on the seed only, never on the run length.
PASS_OPS = {"classify": 135, "decompose": 110, "envelope": 113, "cli_quotient": 240}

# Share of classify inputs whose quadratic needs the field doubling.  Not
# one half: with two latency clusters of equal weight the median falls in
# the gap between them and jumps from run to run.  Not 3/8 either: the
# median then sits at the 80th percentile of the faster cluster, where its
# tail steepens; at 2/8 it sits at the 67th, where the cluster is dense.
DOUBLING_EIGHTHS = 2


# -- structure constants -----------------------------------------------------


def rebase(ctx, tensor, dcols, basis):
    """Structure constants on a new basis (vectors in old coordinates).

    Works for any bilinear product, associative or Lie; the products are
    expanded over the nonzero coordinates only, so sparse bases stay cheap.
    """
    from dalg import Matrix

    n = len(basis)
    mul = ctx.mul
    pinv = Matrix.from_cols(ctx, basis).inverse()
    pcols = [[(i, x) for i, x in enumerate(pinv.col(j)) if x] for j in range(n)]

    def coords(v):
        out = [0] * n
        for j, vj in enumerate(v):
            if vj:
                for i, x in pcols[j]:
                    out[i] ^= mul(vj, x)
        return out

    terms = [[[(m, x) for m, x in enumerate(vec) if x] for vec in row] for row in tensor]
    support = [[(a, x) for a, x in enumerate(b) if x] for b in basis]
    new_t = []
    for si in support:
        row = []
        for sj in support:
            out = [0] * n
            for a, xa in si:
                ta = terms[a]
                for c, xc in sj:
                    if ta[c]:
                        f = mul(xa, xc)
                        for m, x in ta[c]:
                            out[m] ^= mul(f, x)
            row.append(coords(out))
        new_t.append(row)
    new_d = []
    for sb in support:
        out = [0] * n
        for j, xj in sb:
            for m, x in enumerate(dcols[j]):
                if x:
                    out[m] ^= mul(xj, x)
        new_d.append(coords(out))
    return new_t, new_d


def random_basis(ctx, n, rng):
    """A random basis whose vector 0 stays e_0, the unit."""
    from dalg import Matrix

    while True:
        rows = [[1] + [0] * (n - 1)] + [[ctx.rand(rng) for _ in range(n)] for _ in range(n - 1)]
        if Matrix(ctx, rows, n).rank() == n:
            return rows


def scaled_permutation(ctx, n, rng):
    """b_i = s_i e_pi(i): keeps the structure constants sparse."""
    perm = list(range(n))
    rng.shuffle(perm)
    basis = []
    for i in range(n):
        v = [0] * n
        v[perm[i]] = ctx.rand_nonzero(rng)
        basis.append(v)
    return basis


def serialize(kind, ctx, tensor, dcols):
    """Format text; a d-algebra's unit is basis vector 0."""
    from dalg import DAlgebra, LieAlgebra2, Matrix, dumps

    dmat = Matrix.from_cols(ctx, dcols, nrows=len(tensor))
    if kind == "lie2":
        return dumps(LieAlgebra2(ctx, tensor, dmat))
    return dumps(DAlgebra(ctx, tensor, dmat, 0))


class DFamily:
    """D(h, k, p) over any field, as T0 + h Th + k Tk + p Tp.

    On the basis 1, xi1, xi2, x1, x2, xi1 xi2, xi1 x2 the structure
    constants of the family are affine in (h, k, p) with 0/1 coefficients,
    and d does not depend on them, so four quotients over GF(2) give every
    member over every field.
    """

    def __init__(self):
        from dalg import field
        from dalg.dim7 import make_D

        gf2 = field(1)
        base = make_D(gf2, 0, 0, 0)
        self.t0 = base.tensor
        self.dcols = [base.dmat.col(j) for j in range(base.n)]
        self.parts = []
        for triple in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            t = make_D(gf2, *triple).tensor
            self.parts.append(
                [
                    (i, j, m)
                    for i, row in enumerate(t)
                    for j, vec in enumerate(row)
                    for m, x in enumerate(vec)
                    if x != self.t0[i][j][m]
                ]
            )

    def tensor(self, h, k, p):
        t = [[list(v) for v in row] for row in self.t0]
        for c, part in zip((h, k, p), self.parts):
            for i, j, m in part:
                t[i][j][m] ^= c
        return t


def truncated_poly(m):
    """F[t]/(t^m) with d = 0."""
    tensor = [
        [[1 if s == i + j else 0 for s in range(m)] for j in range(m)]
        for i in range(m)
    ]
    return tensor, [[0] * m for _ in range(m)]


def tiny():
    """Basis 1, w, x with d(x) = w and all products of w, x zero."""
    tensor = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        tensor[0][i][i] = 1
        tensor[i][0][i] = 1
    return tensor, [[0, 0, 0], [0, 0, 0], [0, 1, 0]]


def product(ctx, factors):
    """Block product rebased so that 1 (the sum of the units) is vector 0."""
    n = sum(len(t) for t, _ in factors)
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    dcols = [[0] * n for _ in range(n)]
    unit = [0] * n
    off = 0
    for t, d in factors:
        m = len(t)
        for i in range(m):
            for j in range(m):
                tensor[off + i][off + j][off : off + m] = t[i][j]
            dcols[off + i][off : off + m] = d[i]
        unit[off] = 1
        off += m
    basis = [unit] + [[1 if i == j else 0 for i in range(n)] for j in range(1, n)]
    return rebase(ctx, tensor, dcols, basis)


def trace_gf2(ctx, c):
    acc, x = 0, c
    for _ in range(ctx.k):
        acc ^= x
        x = ctx.sq(x)
    return acc


# -- workloads ----------------------------------------------------------------


def gen_classify(rng):
    """D(h,k,p) over GF(2^8) in a random basis; exactly 2 in 8 need doubling.

    normalize7 doubles the field exactly when the Arf invariant Tr(h k) of
    the family's quadratic form is 1; it does not depend on the basis.
    """
    from dalg import field

    ctx = field(8)
    fam = DFamily()
    n_ops = 8 * ceil(PASS_OPS["classify"] / 8)
    flags = [i % 8 < DOUBLING_EIGHTHS for i in range(n_ops)]
    rng.shuffle(flags)
    inputs = []
    for doubling in flags:
        while True:
            h, k, p = ctx.rand(rng), ctx.rand(rng), ctx.rand(rng)
            if trace_gf2(ctx, ctx.mul(h, k)) == int(doubling):
                break
        basis = random_basis(ctx, 7, rng)
        t, d = rebase(ctx, fam.tensor(h, k, p), fam.dcols, basis)
        inputs.append({
            "text": serialize("dalgebra", ctx, t, d),
            "expect": {"extended": doubling},
            "meta": "doubling" if doubling else "no-doubling",
        })
    header = {
        "reference": {"tensor": fam.tensor(0, 0, 0), "dmat_rows": [list(r) for r in zip(*fam.dcols)]},
        "order": list(range(n_ops)),
    }
    return header, inputs


# (field degree, basis, factors); D is a random family member, "t<m>" is
# F[t]/(t^m).  Fixed shares keep the latency quantiles inside one kind of
# operation: the median among the 120-160 ms slots, and p90 inside the
# three dense GF(2^16) slots, the slowest fifth.
DECOMPOSE_SLOTS = [
    (1, "sparse", ("D", "tiny")),
    (1, "sparse", ("D", "t2", "t4")),
    (1, "dense", ("tiny", "t3", "t4")),
    (8, "sparse", ("D", "tiny", "t2")),
    (8, "sparse", ("tiny", "t3", "t4")),
    (1, "sparse", ("D", "D", "D")),
    (8, "dense", ("D", "tiny")),
    (8, "dense", ("D", "t3")),
    (1, "dense", ("D", "D")),
    (8, "sparse", ("D", "D", "D")),
    (16, "sparse", ("D", "tiny")),
    (16, "dense", ("D", "tiny")),
    (16, "dense", ("D", "tiny")),
    (16, "dense", ("D", "tiny")),
]


def _factor(name, ctx, fam, rng):
    if name == "D":
        t = fam.tensor(ctx.rand(rng), ctx.rand(rng), ctx.rand(rng))
        return t, fam.dcols, 1
    if name == "tiny":
        t, d = tiny()
        return t, d, 1
    m = int(name[1:])
    t, d = truncated_poly(m)
    return t, d, m


def gen_decompose(rng):
    from dalg import field

    fam = DFamily()
    reps = ceil(PASS_OPS["decompose"] / len(DECOMPOSE_SLOTS))
    slots = DECOMPOSE_SLOTS * reps
    rng.shuffle(slots)
    inputs = []
    for k, basis_kind, names in slots:
        ctx = field(k)
        parts = [_factor(name, ctx, fam, rng) for name in names]
        t, d = product(ctx, [(pt, pd) for pt, pd, _ in parts])
        n = len(t)
        if basis_kind == "dense":
            t, d = rebase(ctx, t, d, random_basis(ctx, n, rng))
        expect = {
            "dims": sorted(len(pt) for pt, _, _ in parts),
            "defects": sorted(df for _, _, df in parts),
        }
        inputs.append(
            {
                "text": serialize("dalgebra", ctx, t, d),
                "expect": expect,
                "meta": f"k{k}-{basis_kind}",
            }
        )
    return {"order": list(range(len(inputs)))}, inputs


def _standard_words_of_degree(n, kk, deg):
    free = n - kk
    total = 0
    for s in range(min(kk, deg) + 1):
        rest = deg - s
        if free == 0:
            total += comb(kk, s) if rest == 0 else 0
        else:
            total += comb(kk, s) * comb(rest + free - 1, free - 1)
    return total


def sandwiched_relations(n, kk, bound):
    """How many relations verify_pbw straightens: n^2 per pair (u, w) of
    standard words with |u| + |w| <= bound - 2."""
    top = max(bound - 2, 0)
    c = [_standard_words_of_degree(n, kk, d) for d in range(top + 1)]
    return n * n * sum(c[a] * c[b] for a in range(top + 1) for b in range(top + 1 - a))


# (algebra, field degree, operation); pbw bounds follow the algebra size.
# The two gl(3) pbw slots, the slowest fifth, are alike so that p90 falls
# inside one kind of operation.
ENVELOPE_SLOTS = [
    ("gl2", 1, "pbw"),
    ("gl2", 8, "pbw"),
    ("ab4", 1, "pbw"),
    ("ab4", 8, "pbw"),
    ("gl3", 1, "pbw"),
    ("gl3", 1, "pbw"),
    ("gl3", 1, "confluence"),
    ("gl3", 8, "confluence"),
    ("gl2", 8, "confluence"),
    ("ab4", 1, "confluence"),
]
PBW_BOUND = {"gl2": 6, "ab4": 6, "gl3": 4}
CONFLUENCE_TRIALS = 60
CONFLUENCE_MAX_LEN = 8


def _lie_source(name, ctx):
    """gl(2) with the Jordan d, gl(3) with d = [E01, -], abelian 4 with rank-1 d."""
    from dalg import Matrix
    from dalg.lie import commutator_lie, gl_object

    if name == "ab4":
        n = 4
        tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
        dcols = [[0] * n for _ in range(n)]
        dcols[1][0] = 1
        return tensor, dcols
    size = int(name[2:])
    dv = [[0] * size for _ in range(size)]
    dv[0][1] = 1
    lie = commutator_lie(gl_object(size, Matrix(ctx, dv, size)))
    return lie.tensor, [lie.dmat.col(j) for j in range(lie.n)]


def gen_envelope(rng):
    from dalg import Matrix, field

    reps = ceil(PASS_OPS["envelope"] / len(ENVELOPE_SLOTS))
    slots = ENVELOPE_SLOTS * reps
    rng.shuffle(slots)
    sources = {}
    inputs = []
    for name, k, op in slots:
        ctx = field(k)
        if (name, k) not in sources:
            sources[name, k] = _lie_source(name, ctx)
        tensor, dcols = sources[name, k]
        n = len(tensor)
        t, d = rebase(ctx, tensor, dcols, scaled_permutation(ctx, n, rng))
        kk = Matrix.from_cols(ctx, d).rank()
        item = {"text": serialize("lie2", ctx, t, d), "op": op, "meta": f"{name}-k{k}-{op}"}
        if op == "pbw":
            bound = PBW_BOUND[name]
            item["bound"] = bound
            item["expect"] = {"relations": sandwiched_relations(n, kk, bound)}
        else:
            item["trials"] = CONFLUENCE_TRIALS
            item["max_len"] = CONFLUENCE_MAX_LEN
            item["seed"] = rng.randrange(1 << 30)
            item["expect"] = {"words": CONFLUENCE_TRIALS}
        inputs.append(item)
    return {"order": list(range(len(inputs)))}, inputs


D_RELATIONS = [
    "x1^2 + {h} xi1 xi2", "x2^2 + {k} xi1 xi2", "x1 x2 + {p} xi1 xi2",
    "xi1 x1", "xi2 x2", "xi1 x2 + xi2 x1",
]
Y_RELATIONS = ["y1^2", "y1 x1", "y1 x2", "y1 xi1", "y1 xi2"]
RANK3_RELATIONS = [
    "x1^2", "x2^2", "x3^2", "x1 x2", "x1 x3", "x2 x3", "xi1 x1", "xi2 x2", "xi3 x3",
    "xi1 x2 + xi2 x1", "xi1 x3 + xi3 x1", "xi2 x3 + xi3 x2",
]

# Invariants each source must report, whatever its coefficients.  D(h,k,p)
# is the canonical source's family; the rank-3 analogue and the y extension
# were recorded once and agree with defect = dim Ker d - dim Im d and with
# n = 2 dim Im d + 1 for the defect-1 cases.
INVARIANTS = {
    "D": {"n": "7", "dim ker d": "4", "dim im d": "3", "dim center": "5",
          "defect": "1", "commutative": "no", "local": "yes"},
    "rank3": {"n": "13", "dim ker d": "7", "dim im d": "6", "dim center": "10",
              "defect": "1", "commutative": "no", "local": "yes"},
    "P21": {"n": "8", "dim ker d": "5", "dim im d": "3", "dim center": "6",
            "defect": "2", "commutative": "no", "local": "yes"},
}

# (command, source, field degree, copies per block).  The copies set the
# shares so that the median falls inside the P(2,1) operations and the
# 90th percentile inside the rank-3 degree-5 ones.  A block holds every
# distinct input once; a pass repeats the block in shuffled orders.
CLI_SLOTS = [
    ("invariants", "D", 1, 3),
    ("invariants", "D", 8, 3),
    ("invariants", "P21", 8, 3),
    ("invariants", "rank3-4", 1, 4),
    ("present", ("D", "t2"), 1, 2),
    ("present", ("D", "tiny"), 8, 1),
    ("present", ("D", "D"), 8, 1),
    ("invariants", "rank3-5", 1, 3),
]


def _hex(c):
    return format(c, "#x")


def _cli_input(command, source, ctx, fam, rng):
    k = ctx.k
    if command == "present":
        t, d = product(ctx, [_factor(name, ctx, fam, rng)[:2] for name in source])
        return {"argv": ["present", "-"], "text": serialize("dalgebra", ctx, t, d),
                "expect": {"n": len(t), "field": k}}
    if source.startswith("rank3"):
        head, rels, bound, expect = "P(3,0)", RANK3_RELATIONS, source[-1], INVARIANTS["rank3"]
    else:
        h, kk, p = (_hex(ctx.rand(rng)) for _ in range(3))
        rels = [r.format(h=h, k=kk, p=p) for r in D_RELATIONS]
        head, bound, expect = "P(2,0)", 4, INVARIANTS[source]
        if source == "P21":
            head, rels = "P(2,1)", rels + Y_RELATIONS
    return {"argv": ["invariants", "-", "--field", str(k)],
            "text": f"{head} / [{', '.join(rels)}] @ deg {bound}",
            "relations": len(rels), "expect": {"invariants": expect}}


def gen_cli_quotient(rng):
    from dalg import field

    fam = DFamily()
    inputs = []
    for command, source, k, copies in CLI_SLOTS:
        for _ in range(copies):
            item = _cli_input(command, source, field(k), fam, rng)
            item["meta"] = f"{command}-{'x'.join(source) if command == 'present' else source}-k{k}"
            inputs.append(item)
    block = list(range(len(inputs)))
    order = []
    for _ in range(ceil(PASS_OPS["cli_quotient"] / len(block))):
        rng.shuffle(block)
        order += block
    return {"order": order}, inputs


GENERATORS = {
    "classify": gen_classify,
    "decompose": gen_decompose,
    "envelope": gen_envelope,
    "cli_quotient": gen_cli_quotient,
}


def main(argv):
    workload, seed, out = argv[1], int(argv[2]), argv[3]
    t0 = time.perf_counter()
    import_library()  # the import is part of the set-up cost

    rng = random.Random(f"{workload}:{seed}")
    header, inputs = GENERATORS[workload](rng)
    header.update(workload=workload, seed=seed)
    lines = [json.dumps(header)] + [json.dumps(item) for item in inputs]
    data = ("\n".join(lines) + "\n").encode()
    with open(out, "wb") as fh:
        fh.write(data)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "sha256": hashlib.sha256(data).hexdigest()}))


if __name__ == "__main__":
    main(sys.argv)
