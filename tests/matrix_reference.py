"""Sparse Fraction matrix algebra for so(2l+1), the reference that the
closed forms of ``blvoa.liealg`` are tested against: the matrix of each
basis element, matrix products and brackets, the expansion of a matrix of
the algebra over the fixed basis, and the invariant form (x, y) = tr(xy)/2.

Matrices are {(row, col): entry} dicts, 0-based, holding only the nonzero
entries, so == compares matrices and an empty dict is the zero matrix.
"""

from fractions import Fraction

from blvoa.liealg import add_into

# tr(e_theta f_theta) = 2 for the closed forms, so (e_theta, f_theta) = 1
FORM_SCALE = Fraction(1, 2)


def basis_matrix(lie, b) -> dict:
    """The matrix of the basis element b: c (E_ab - E_b'a') (1-based,
    x' = 2l + 2 - x) for e/f with the unit (a, b, 2c), and
    diag(v, 0, -v reversed) for h_i with v the simple coroot alpha_i^vee."""
    p = lie.n + 1
    if b.kind == "h":
        out = {}
        for k, c in enumerate(lie.simple_coroots[b.label - 1]):
            if c:
                out[k, k], out[p - k - 2, p - k - 2] = Fraction(c), Fraction(-c)
        return out
    row, col, u = b.unit
    c = Fraction(u, 2)
    return {(row - 1, col - 1): c, (p - col - 1, p - row - 1): -c}


def mat_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, y in b.items():
        add_into(out, key, -y)
    return out


def mat_scale(c: Fraction, a: dict) -> dict:
    return {key: c * x for key, x in a.items()} if c else {}


def mat_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (jj, k), y in b.items():
            if j == jj:
                add_into(out, (i, k), x * y)
    return out


def mat_bracket(a: dict, b: dict) -> dict:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace_prod(a: dict, b: dict) -> Fraction:
    """tr(a b) without forming the product."""
    return sum(
        (x * b[j, i] for (i, j), x in a.items() if (j, i) in b), Fraction(0)
    )


def trace_form(a: dict, b: dict) -> Fraction:
    """The invariant form tr(ab)/2 on matrices of the algebra."""
    return FORM_SCALE * trace_prod(a, b)


def expand(lie, m: dict) -> dict[int, Fraction]:
    """Expand a matrix of the algebra over lie's fixed basis."""
    out: dict[int, Fraction] = {}
    work = m
    # Cartan part from the diagonal: a_j = sum of h-coefficients.
    a = [work.get((i, i), Fraction(0)) for i in range(lie.rank)]
    c = [Fraction(0)] * lie.rank
    run = Fraction(0)
    for j in range(lie.rank - 1):
        run += a[j]
        c[j] = run
    c[lie.rank - 1] = (a[lie.rank - 1] + (run if lie.rank > 1 else 0)) / 2
    for j, cj in enumerate(c):
        if cj:
            out[lie.h_start + j] = cj
            hb = basis_matrix(lie, lie.basis[lie.h_start + j])
            work = mat_sub(work, mat_scale(cj, hb))
    # Root-vector part: each root owns disjoint matrix cells, so any
    # cell of a root vector marks its coefficient.
    for b in lie.basis:
        if not work:
            break
        if b.kind == "h":
            continue
        bm = basis_matrix(lie, b)
        cell = next(iter(bm))
        if cell in work:
            coeff = work[cell] / bm[cell]
            out[b.index] = coeff
            work = mat_sub(work, mat_scale(coeff, bm))
    if work:
        raise ArithmeticError("matrix does not lie in the algebra span")
    return out
