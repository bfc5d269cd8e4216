"""Exact Haar integration over the unitary group, and Monte Carlo backup.

The integral of a balanced monomial in matrix entries over U(n) is a sum of
Weingarten values Wg(tau sigma^-1) over the pairs of permutations matching
the rows and the columns of the plain factors to those of the conjugate
ones.  The products tau sigma^-1 fill one double coset of two Young
subgroups, evenly, so the sum is taken over that double coset, counted by
cycle type with a walk over the classes of equal conjugate factors.  The
Weingarten function is a class function on the symmetric group, computed
exactly from the characters of S_p by the Collins-Sniady formula (Collins,
IMRN 2003; Collins & Sniady, CMP 264, 2006): a sum over the partitions of p
with at most n rows.  It is the inverse of the Gram matrix
G[s, t] = n^(number of cycles of s t^-1) when n >= p; below that G is
singular, the row bound drops the vanishing terms, and the same sum is the
Moore-Penrose pseudo-inverse, which gives the correct integrals.

The induced state on the crossed product integrates the even component; the
odd component has weight zero.  So for x = f0 + f1 s the cross terms of x* x
drop out and h(x* x) = h(f0* f0) + h(f1* f1), the latter because s g s =
bar(g) and Haar measure is invariant under complex conjugation.  Products of
monomials of different torus weights integrate to zero too, so the norm is
summed over weight blocks, forming only the products inside each block.
Since the state is faithful on polynomial functions, a vanishing norm
decides equality exactly.  ``norm_equal`` first evaluates the difference,
exactly, at one fixed point (g, g^-T) for an invertible integer matrix g: on
U(n) the conjugate of u_ij is (u^-1)_ji, and U(n) is Zariski-dense in its
complexification GL_n(C), so a function that vanishes on U(n) vanishes at
(g, g^-T) too.  A non-zero value proves inequality with no integration, and
only the pairs it cannot refute are integrated.  g is diagonally dominant
with |det g| >= 2, so the point is not in SL_n and refutes identities that
hold only on SU(n), such as u11 = conj(u22) at n = 2.  A difference is
evaluated on integers alone: g, and g^-1 times its least common
denominator D, each term scaled by the power of D its barred factors miss.

Each Weingarten table keeps a memo from the monomials integrated with it
to their integrals, so a monomial met again is read, not counted; it holds
at most ``MONOMIAL_MEMO_CAP`` monomials and is cleared with its table.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .crossed import CrossedElement, FunElement, crossed_mul, crossed_star
from .errors import DegreeCapError, DimensionMismatchError, check_count
from .groups import GroupModel, check_draw_size, evaluate_fun_batch, sample_batch
from .scalars import ZERO, GaussianRational, _reduced, reduce_terms

PMAX_DEFAULT = 5
MONOMIAL_MEMO_CAP = 4096  # monomials one Weingarten table memoises; misses past it are not stored
_ZERO, _ONE = Fraction(0), Fraction(1)


def _compose(s, t):
    # (s o t)(a) = s[t[a]]
    return tuple(s[t[a]] for a in range(len(s)))


def _inverse(s):
    out = [0] * len(s)
    for a, b in enumerate(s):
        out[b] = a
    return tuple(out)


@functools.cache
def _cycle_type(s):
    """Cycle lengths of the permutation s, non-increasing; memoised for verify's
    ``class_convolution`` oracle, which evaluates class functions at every
    permutation of S_p (integrals read ``WeingartenTable.numerators`` instead)."""
    seen = [False] * len(s)
    lengths = []
    for a in range(len(s)):
        length, b = 0, a
        while not seen[b]:
            seen[b] = True
            b = s[b]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _type_code(lengths, p):
    """A cycle type of S_p as one int, sum of (p + 1)^length over its cycles:
    the base-(p + 1) digit at position k counts the cycles of length k, and
    no count reaches p + 1, so distinct types get distinct codes."""
    return sum((p + 1) ** length for length in lengths)


@functools.cache
def _permutations(p):
    """All of S_p as tuples, in lexicographic order."""
    return tuple(itertools.permutations(range(p)))


def _partitions(total, parts, largest=None):
    """Partitions of ``total`` into at most ``parts`` parts, none larger than
    ``largest`` (by default ``total``), as non-increasing tuples."""
    if total == 0:
        yield ()
    elif parts:
        # a first part below total / parts leaves more than the other parts can hold
        for first in range(min(total, largest or total), (total - 1) // parts, -1):
            for rest in _partitions(total - first, parts - 1, first):
                yield (first,) + rest


@functools.lru_cache(maxsize=65_536)
def _character(beta, mu):
    """chi^lam at cycle type mu by Murnaghan-Nakayama, for lam given by its
    beta-set {lam_i + len(lam) - 1 - i}: removing a rim hook of length k moves
    a bead from b to a free b - k, with sign (-1)^(beads strictly between).
    Memoised: the recursion meets one (beta-set, remaining cycles) pair from
    many rim-hook orders, and tables of one degree over different n share
    them; a cold ``weingarten_table(14, 14, 14)`` makes 33,131 of them."""
    if not mu:
        return 1
    k = mu[0]
    return sum(
        (-1) ** sum(b - k < c < b for c in beta) * _character(beta - {b} | {b - k}, mu[1:])
        for b in beta
        if b >= k and b - k not in beta
    )


def _hook_content_product(lam, n):
    """Product over the boxes of lam of hook length times (n + content)."""
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    out = 1
    for i, row in enumerate(lam):
        for j in range(row):
            out *= (row - j + cols[j] - i - 1) * (n + j - i)
    return out


@dataclass
class WeingartenTable:
    """Wg(sigma) for degree p over U(n), keyed by the cycle type of sigma;
    ``pseudo`` marks n < p, where the Gram matrix is singular.  The same
    values as integer ``numerators`` over one common ``denominator`` let an
    integral sum them as ints; they are keyed by ``_type_code``, as the
    coset walk counts cycle types.  ``monomials`` maps a monomial met
    before to its integral; it holds at most ``MONOMIAL_MEMO_CAP`` of them,
    fills idempotently with exact values, and is dropped with the table."""

    p: int
    n: int
    values: dict
    pseudo: bool
    denominator: int = field(init=False)
    numerators: dict = field(init=False)
    # a dict per table, not a functools memo on _integral, so that it is
    # dropped with its table and every integral still calls weingarten_table
    monomials: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.denominator = math.lcm(*(v.denominator for v in self.values.values()))
        self.numerators = {
            _type_code(mu, self.p): v.numerator * (self.denominator // v.denominator) for mu, v in self.values.items()
        }

    def wg(self, perm) -> Fraction:
        return self.values[_cycle_type(perm)]


# not a functools memo: perfbench's _reset_tables clears it, and p, n and p_max
# are checked before every lookup; idempotent fills, so a torn value is impossible in CPython
_TABLE_CACHE: dict = {}


def weingarten_table(p: int, n: int, p_max: int = PMAX_DEFAULT) -> WeingartenTable:
    """Weingarten values for degree p over U(n), all exact rationals.

    Collins-Sniady: Wg(sigma) = (1/p!^2) sum over lam |- p with len(lam) <= n
    of dim(lam)^2 chi^lam(sigma) / s_lam(1^n).  By the hook formula
    dim(lam) = p! / prod(hooks) and the hook-content formula
    s_lam(1^n) = prod(n + content) / prod(hooks), each term is
    chi^lam(sigma) / (prod(hooks) prod(n + content)).  For n < p the length
    bound drops the partitions whose content product vanishes, and the values
    are the pseudo-inverse of the singular Gram matrix; the integration
    formula is unchanged.
    """
    check_count(p, "degree")
    check_count(n)
    if p > check_count(p_max, "degree cap", least=0):
        raise DegreeCapError(f"degree {p} exceeds p_max={p_max}")
    key = (p, n)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached

    types = list(_partitions(p, p))
    terms = [
        (frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam)), _hook_content_product(lam, n))
        for lam in types
        if len(lam) <= n
    ]
    values = {mu: sum(Fraction(_character(beta, mu), weight) for beta, weight in terms) for mu in types}
    table = WeingartenTable(p, n, values, n < p)
    _TABLE_CACHE[key] = table
    return table


def _margins(counts):
    """Row and column sums of a table {(row, col): count}."""
    rows, cols = Counter(), Counter()
    for (i, j), c in counts.items():
        rows[i] += c
        cols[j] += c
    return rows, cols


def _coset_cycle_types(classes, table, p) -> dict:
    """Cycle-type counts over the permutations d of the p conjugate positions
    with #{m : row(m) = x, col(d(m)) = y} = table[x, y], keyed by
    ``_type_code``.

    ``classes`` maps each conjugate symbol (row, col) to its multiplicity.
    Positions of one class are interchangeable, so the walk follows each
    cycle from class to class instead of from position to position: a cycle
    starts in the first class with positions left, a step into a class may
    land on any of its remaining positions (the step's multiplicity), and a
    step from class a to class b uses up one table[row(a), col(b)].  The
    counts left, per class and per table entry, are the bit fields of one int
    ``state``.  An open cycle's states do not depend on how long it already
    is: ``follow`` keys its completions by the steps still to take (``tail``,
    above ``big``) and the code of the cycles after it, and ``cycles`` adds
    the closed cycle's length.  The memos live as long as this call.
    """
    labels = list(classes)
    counts = [*classes.values(), *table.values()]
    fields, shift = [], 0
    for c in counts:
        fields.append((shift, (1 << c.bit_length()) - 1))
        shift += c.bit_length()
    slot = {key: len(labels) + k for k, key in enumerate(table)}
    steps = [[slot.get((a[0], b[1])) for b in labels] for a in labels]
    # per class: the steps into each class (that class's field, the field of
    # the table entry the step uses, the sum of their units, the class), and
    # the table field that a step back to the cycle's first class uses
    moves = [[(fields[b], fields[k], (1 << fields[b][0]) + (1 << fields[k][0]), b)
              for b, k in enumerate(row) if k is not None] for row in steps]
    closes = [[None if k is None else fields[k] for k in row] for row in steps]
    big = (p + 1) ** (p + 1)
    powers = [(p + 1) ** length for length in range(p + 1)]
    owner = [a for a, c in enumerate(classes.values()) for _ in range(c.bit_length())]
    cycles_memo, follow_memo = {}, {}

    def cycles(state):
        if not state:
            return {0: 1}
        out = cycles_memo.get(state)
        if out is None:
            # the class fields are the lowest, so the lowest set bit is in the first class left
            first = owner[(state & -state).bit_length() - 1]
            out = {}
            for key, w in follow(state - (1 << fields[first][0]), first, first).items():
                tail, code = divmod(key, big)
                code += powers[tail + 1]
                out[code] = out.get(code, 0) + w
            cycles_memo[state] = out
        return out

    def follow(state, first, at):
        memo_key = (state, first, at)
        out = follow_memo.get(memo_key)
        if out is None:
            out = {}
            close = closes[at][first]
            if close is not None and (state >> close[0]) & close[1]:
                out.update(cycles(state - (1 << close[0])))
            for (sb, mb), (sk, mk), dec, b in moves[at]:
                c = (state >> sb) & mb
                if c and (state >> sk) & mk:
                    for key, w in follow(state - dec, first, b).items():
                        key += big
                        out[key] = out.get(key, 0) + c * w
            follow_memo[memo_key] = out
        return out

    try:
        return cycles(sum(c << s for c, (s, _m) in zip(counts, fields)))
    finally:
        # cycles and follow refer to each other; empty their memos now rather
        # than when the cycle collector finds them
        cycles_memo.clear()
        follow_memo.clear()


def _integral(mono, n, p_max):
    """The integral of a monomial over U(n), a Fraction.

    One pass over the sorted exponents reads the plain degree p and the
    conjugate degree q: an unbalanced monomial integrates to 0, and the
    constant to 1.  Otherwise the ``monomials`` memo of the degree-p table,
    got through ``weingarten_table`` so that its degree cap holds on a hit
    as on a miss, answers a monomial met before.  A miss splits the
    exponents into plain and conjugate tables and counts the coset with
    ``_coset_integral``; past ``MONOMIAL_MEMO_CAP`` entries it is answered
    but not stored.
    """
    p = q = 0
    for (_i, _j, b), e in mono:
        if b:
            q += e
        else:
            p += e
    if p != q:
        return _ZERO
    if p == 0:
        return _ONE
    table = weingarten_table(p, n, p_max)
    memo = table.monomials
    value = memo.get(mono)
    if value is None:
        plain, conj = {}, {}
        for (i, j, b), e in mono:
            (conj if b else plain)[i, j] = e
        value = _coset_integral(plain, conj, table)
        if len(memo) < MONOMIAL_MEMO_CAP:
            memo[mono] = value
    return value


def _coset_integral(plain, conj, table) -> Fraction:
    """Sum of Wg(tau sigma^-1) over the pairs (sigma, tau) matching the rows
    and the columns of the plain factors to those of the conjugate ones, for
    exponent tables {(row, col): e} of one degree p.

    The matching sigma form a coset of the Young subgroup H_r fixing the
    conjugate row labels, the matching tau one of H_c, so tau sigma^-1 runs
    over the double coset D = H_c pi0 H_r, hitting each element
    |H_r| |H_c| / |D| times; D is the set of permutations sharing pi0's
    table of (row, col) label pairs, which is the exponent table of the plain
    factors.  Wg is a class function, so D is counted by cycle type.
    """
    rows, cols = _margins(conj)
    if _margins(plain) != (rows, cols):
        return Fraction(0)
    types = _coset_cycle_types(conj, plain, table.p)
    stabilisers = math.prod(math.factorial(c) for c in (*rows.values(), *cols.values()))
    total = sum(count * table.numerators[code] for code, count in types.items())
    return Fraction(total * stabilisers, table.denominator * sum(types.values()))


def haar_integral(f: FunElement, p_max: int = PMAX_DEFAULT) -> GaussianRational:
    """Exact Haar integral of a coordinate polynomial over U(n), n = f.n: the
    sum over its terms of the coefficient times the monomial's integral."""
    check_count(p_max, "degree cap", least=0)
    total = ZERO
    for mono, coeff in f.terms.items():
        val = _integral(mono, f.n, p_max)
        if val:
            num = val.numerator
            total = total + _reduced(coeff.a * num, coeff.b * num, coeff.d * val.denominator)
    return total


def haar_state(x: CrossedElement, p_max: int = PMAX_DEFAULT) -> GaussianRational:
    """The state on the crossed product: integrate the even component.

    The odd component has weight zero because the group-algebra side of the
    state is the indicator of the identity.
    """
    return haar_integral(x.f0, p_max=p_max)


def _torus_weight(mono, n):
    """Row and column weights of a monomial: per index, the number of plain
    factors minus the number of conjugate ones."""
    rows, cols = [0] * (n + 1), [0] * (n + 1)
    for (i, j, b), e in mono:
        if b:
            e = -e
        rows[i] += e
        cols[j] += e
    return tuple(rows), tuple(cols)


def _orthogonal_pieces(x: CrossedElement):
    """x as a sum of pieces pairwise orthogonal for the Haar state: its even
    and its odd part, each split by torus weight; a part of one torus weight
    is yielded as it is.

    An odd product integrates to zero, and Haar measure is invariant under
    the diagonal torus acting on either side, so bar(m) m' integrates to zero
    unless the monomials m and m' have equal torus weights.
    """
    for part, wrap in ((x.f0, CrossedElement.even), (x.f1, CrossedElement.odd)):
        if not part.terms:
            continue
        weights = [_torus_weight(mono, x.n) for mono in part.terms]
        if weights.count(weights[0]) == len(weights):
            yield wrap(part)
            continue
        blocks = defaultdict(dict)
        for (mono, coeff), weight in zip(part.terms.items(), weights):
            blocks[weight][mono] = coeff
        for terms in blocks.values():
            yield wrap(part._like(terms))


def norm_squared(x: CrossedElement, p_max: int = PMAX_DEFAULT) -> Fraction:
    """h(x* x), a nonnegative rational; zero exactly when x vanishes on U(n).

    The sum of h(b* b) over the orthogonal pieces b of x, so that only the
    products of monomials inside one piece are formed; equal products of
    different pieces are merged before they are integrated, and a lone
    piece's square is integrated as it is.
    """
    squares = [crossed_mul(crossed_star(piece), piece).f0 for piece in _orthogonal_pieces(x)]
    if len(squares) == 1:
        (even,) = squares
    else:
        even = x.f0._like(reduce_terms(itertools.chain.from_iterable(f.terms.items() for f in squares)))
    val = haar_integral(even, p_max=p_max)
    if val.b or val.a < 0:
        raise ArithmeticError(f"norm came out as {val}; this is a bug")
    return val.re


@functools.cache
def _witness(n):
    """The witness point over n, as (values, D): ``values`` maps each
    coordinate symbol (i, j, bar) to an integer, g_ij, or D (g^-1)_ji when
    bar is set, for a fixed invertible integer matrix g and D the least
    common denominator of g^-1.

    Off the diagonal, g holds the first n (n - 1) primes, row by row; g_ii
    is their sum plus i + 2.  So the n^2 entries are pairwise distinct, and g
    is strictly diagonally dominant: its leading principal minors are not
    zero, and |det g| >= 3^n.  Fraction-free Gauss-Jordan elimination
    (Bareiss, on every row) takes [g | I] to [det I | adj g], each step
    dividing exactly by the previous pivot.  Built once per n (memoised: the
    callers share ``values``), and checked: g adj g = det I and |det| >= 2.
    """
    primes = (k for k in itertools.count(2) if all(k % q for q in range(2, math.isqrt(k) + 1)))
    g = [[0 if i == j else next(primes) for j in range(n)] for i in range(n)]
    off = sum(map(sum, g))
    for i in range(n):
        g[i][i] = off + (i + 1) + 2
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    prev = 1
    for col in range(n):
        pivot = rows[col][col]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [(pivot * v - factor * w) // prev for v, w in zip(rows[r], rows[col])]
        prev = pivot
    det, adj = prev, [row[n:] for row in rows]
    if abs(det) < 2 or any(
        sum(g[i][k] * adj[k][j] for k in range(n)) != det * (i == j) for i in range(n) for j in range(n)
    ):
        raise ArithmeticError(f"witness point over n={n} is not invertible with |det| >= 2; this is a bug")
    den = abs(det) // math.gcd(det, *(v for row in adj for v in row))
    values = {(i + 1, j + 1, bar): adj[j][i] * den // det if bar else g[i][j]
              for i in range(n) for j in range(n) for bar in (False, True)}
    return values, den


def _vanishes_at(f: FunElement, values: dict, den: int) -> bool:
    """Whether f is zero at the point that ``_witness`` gives.

    A term c m with c = (a + b i) / d and q barred factors is worth
    (a + b i) V / (d D^q), where V is the integer product of the values of
    its factors; scaled by L D^Q, for L the least common multiple of the d
    and Q the largest q, every term is a Gaussian integer, and f vanishes
    exactly when their sum does.
    """
    terms, top = [], 0
    for mono, c in f.terms.items():
        v, q = 1, 0
        for sym, e in mono:
            v *= values[sym] ** e
            q += e if sym[2] else 0
        terms.append((v, c, q))
        top = max(top, q)
    scale = math.lcm(*(c.d for _v, c, _q in terms))
    powers = [den**k for k in range(top + 1)]
    total_re = total_im = 0
    for v, c, q in terms:
        k = v * (scale // c.d) * powers[top - q]
        total_re += c.a * k
        total_im += c.b * k
    return not (total_re or total_im)


def witness_refutes(x: CrossedElement) -> bool:
    """True when a component of x is non-zero at the witness point (g, g^-T)
    over x.n (``_witness``).

    That value is exact, and a function that vanishes on U(n) vanishes at
    the point, so a non-zero value proves that x does not vanish on U(n);
    False proves nothing.  The value is decided on integers, over the
    point's one denominator (``_vanishes_at``).
    """
    values, den = _witness(x.n)
    return not (_vanishes_at(x.f0, values, den) and _vanishes_at(x.f1, values, den))


def norm_equal(x: CrossedElement, y: CrossedElement, p_max: int = PMAX_DEFAULT) -> bool:
    """Exact equality of crossed elements as functions on the unitary group.

    Decides equality in the half-commutative algebra attached to U(n), in two
    exact stages.  A difference that is non-zero at the witness point is
    unequal, with no integration (``witness_refutes``).  Otherwise the
    answer is a vanishing Haar norm (``norm_squared``), which decides
    equality since the Haar state is faithful on polynomial functions.  So a
    pair beyond ``p_max`` answers False when the witness refutes it, since
    the cap bounds the integration it skips, and raises ``DegreeCapError``
    otherwise.
    """
    check_count(p_max, "degree cap", least=0)
    d = x - y
    return not witness_refutes(d) and norm_squared(d, p_max=p_max) == 0


@dataclass
class MCEstimate:
    mean: complex
    stderr: float
    samples: int
    seed: int


MC_CHUNK = 4096  # matrices drawn and evaluated at a time


def mc_integrals(xs, model: GroupModel, samples: int, seed: int) -> list[MCEstimate]:
    """Monte Carlo estimates of the Haar integrals of several elements over
    any shipped model, one per element, from one seeded draw.

    Each chunk of samples is drawn once and every element is evaluated on it,
    so the estimates are correlated with each other, and each one equals the
    estimate of its element alone.  For a crossed element only the even
    component contributes (matching ``haar_state``).  Deterministic given the
    seed; chunk sums are accumulated separately from the running totals so
    the reduction order is fixed.
    """
    check_count(samples, "samples", least=2)
    check_count(seed, "seed", least=0)
    fs = [x.f0 if isinstance(x, CrossedElement) else x for x in xs]
    for f in fs:
        if f.n != model.ambient_dim:
            raise DimensionMismatchError(
                f"element over n={f.n} cannot be integrated over {model} (ambient {model.ambient_dim})"
            )
    chunk = min(MC_CHUNK, samples)
    d = model.ambient_dim
    check_draw_size(chunk * d * d, f"a Monte Carlo chunk of {chunk} samples over {model}")
    rng = np.random.default_rng(seed)
    totals = [0j] * len(fs)
    totals_sq = [0.0] * len(fs)
    done = 0
    while done < samples:
        count = min(MC_CHUNK, samples - done)
        gs = sample_batch(model, rng, count)
        for k, f in enumerate(fs):
            vals = evaluate_fun_batch(f, gs)
            totals[k] += complex(vals.sum())
            totals_sq[k] += float(np.sum(np.abs(vals) ** 2))
        done += count
    out = []
    for total, total_sq in zip(totals, totals_sq):
        var = max(0.0, (total_sq - abs(total) ** 2 / samples) / (samples - 1))
        out.append(MCEstimate(mean=total / samples, stderr=math.sqrt(var / samples), samples=samples, seed=seed))
    return out


def mc_integral(x, model: GroupModel, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of the Haar integral of one element; see
    ``mc_integrals``."""
    return mc_integrals([x], model, samples, seed)[0]
