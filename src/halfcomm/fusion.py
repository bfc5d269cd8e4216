"""Fusion semirings: tensor decomposition data and the parity-graded rules.

Abstract fusion data for a compact group consists of labels with exact
dimensions, a tensor oracle, duality, the twist sigma induced by entrywise
conjugation, and an integer grading with grade(fundamental) = 1.  Shipped
instances: the unitary group (Littlewood-Richardson on weakly decreasing
integer weights), SU(2) (spins), and tori (characters).

On top of that sit the crossed-product rules for labels carrying an extra
flag, with the twist applied when an odd factor passes a tensorand:

    V (x) Ws = (V (x) W)s,   Vs (x) W = (V (x) W^sigma)s,
    Vs (x) Ws = V (x) W^sigma

and their restriction to flag = grade mod 2, which describes the simple
comodules of the half-commutative algebra attached to the group.
"""

from __future__ import annotations

import abc
import itertools
import math
import operator
import re
import threading
from fractions import Fraction

from .crossed import CrossedElement
from .errors import DegreeCapError, ParseError, check_count
from .groups import parse_model
from .haar import PMAX_DEFAULT, _partitions, haar_state
from .scalars import GaussianRational


class FusionData(abc.ABC):
    """Fusion datum: labels, unit and fundamental, dimensions, tensor oracle,
    dual, sigma, grading.  Labels are integer vectors of length n, written
    ``[2,0,-1]`` (entries ``-?[0-9]+``) and graded by their sum, unless a
    subclass says otherwise; sigma is the dual unless a subclass overrides
    it, and none of the shipped ones does."""

    prefix = "["
    label_hint = "weight labels look like [2,0,-1]"
    integer_graded = True  # the grade is additive in tensor products

    def __init__(self, n: int):
        self.n = check_count(n)

    # built when read, so that a datum over a large n allocates nothing of
    # size n before its labels are checked or counted
    @property
    def unit(self):
        return (0,) * self.n

    @property
    def fundamental(self):
        return (1,) + (0,) * (self.n - 1)

    def parse_label(self, text: str):
        text = text.strip()
        framed = text.startswith(self.prefix) and text.endswith("]")
        entries = text[len(self.prefix):-1].split(",")
        if not (framed and all(re.fullmatch("-?[0-9]+", e) for e in entries)):
            raise ParseError(f"{self.label_hint}, got {text!r}")
        return tuple(map(int, entries))

    def format_label(self, label) -> str:
        return self.prefix + ",".join(str(x) for x in label) + "]"

    def parse_flagged_label(self, text: str):
        """A label with its flag, written ``(label,s)`` or ``(label,e)``; a
        bare label has flag e (0)."""
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            body, _, flag = text[1:-1].rpartition(",")
            flag = flag.strip()
            if flag not in ("s", "e"):
                raise ParseError(f"flag must be s or e, got {flag!r}")
            return (self.parse_label(body), 1 if flag == "s" else 0)
        return (self.parse_label(text), 0)

    def format_flagged_label(self, flagged) -> str:
        label, flag = flagged
        return f"({self.format_label(label)},{'s' if flag else 'e'})"

    def labels(self, grade_cap: int) -> list:
        """The labels whose entries have absolute sum at most ``grade_cap``."""
        return _l1_ball(self.n, check_count(grade_cap, "grade cap", least=0))

    def random_label(self, rng):
        """A label for the fusion suite's random checks: entries in [-3, 3]."""
        return tuple(rng.randint(-3, 3) for _ in range(self.n))

    def _labels_by_size(self):
        """How many labels each step of the grade cap adds: the counts of the
        labels whose entries have absolute sum g = 0, 1, 2, ..., counted,
        not listed.  A vector of absolute sum g > 0 with k nonzero entries
        picks their places, their signs and a composition of g into k parts."""
        yield 1
        for g in itertools.count(1):
            yield sum(2**k * math.comb(self.n, k) * math.comb(g - 1, k - 1) for k in range(1, min(self.n, g) + 1))

    @abc.abstractmethod
    def validate_label(self, a):
        ...

    @abc.abstractmethod
    def dim(self, a) -> int:
        ...

    def tensor(self, a, b) -> dict:
        """The decomposition of a (x) b, as {label: multiplicity}."""
        self.validate_label(a)
        self.validate_label(b)
        return dict(self._tensor(a, b))

    @abc.abstractmethod
    def _tensor(self, a, b) -> dict:
        """``tensor`` on labels that are already valid; callers must not
        change the dict it returns."""

    @abc.abstractmethod
    def dual(self, a):
        ...

    def sigma(self, a):
        """The twist induced by entrywise conjugation; for every shipped
        group it is the dual."""
        return self.dual(a)

    def grade(self, a) -> int:
        return sum(a)

    @property
    def label_size(self) -> int:
        """Entries in one label: n integers."""
        return self.n


def _l1_ball(n, cap):
    """Integer vectors of length n whose entries have absolute sum <= cap, in
    lexicographic order, grown one entry at a time."""
    partial = [((), cap)]  # (entries so far, absolute sum left)
    for _ in range(n):
        partial = [(vec + (v,), left - abs(v)) for vec, left in partial for v in range(-left, left + 1)]
    return [vec for vec, _left in partial]


def _validate_weight(lam, n):
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError(f"weight {lam} should have length {n}")
    _check_ints(lam, "weight")
    if any(map(operator.lt, lam, lam[1:])):
        raise ValueError(f"weight {lam} is not weakly decreasing")
    return lam


def _check_ints(label, what):
    # every entry an int, as FunMonomial asks of its exponents: not a float,
    # a bool or a string that int() would turn into one
    if {*map(type, label)} - {int}:
        bad = next(x for x in label if type(x) is not int)
        raise ValueError(f"{what} {label} has the entry {bad!r}, which is not an int")


def un_dim(lam, n: int) -> int:
    """Dimension of the irreducible with highest weight lam, by the Weyl
    product formula prod_(i<j) (lam_i - lam_j + j - i) / (j - i).

    The factors go into one integer numerator and one integer denominator,
    divided once at the end.  A pair with lam_i = lam_j gives the factor 1,
    and lam is weakly decreasing, so only the pairs that span two runs of
    equal entries are multiplied: none for the weight 0 over any n.
    """
    lam = _validate_weight(lam, n)
    ends = [n] * n  # ends[i]: the index past the run of entries equal to lam[i]
    for i in range(n - 2, -1, -1):
        ends[i] = ends[i + 1] if lam[i] == lam[i + 1] else i + 1
    num = den = 1
    for i in range(n):
        for j in range(ends[i], n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    out, rest = divmod(num, den)
    assert rest == 0 and out > 0
    return out


def _lattice_strips(shape, size, prev):
    """Horizontal strips of ``size`` cells on the partition ``shape``, as
    per-row cell counts in increasing lexicographic order, under the lattice
    bound set by ``prev``.

    A strip adds at most ``shape[r-1] - shape[r]`` cells to row r (row 0 is
    unbounded), so no two of its cells share a column.  When ``prev`` counts
    the cells of the previous layer per row, the cells in rows <= r may not
    outnumber its cells in rows < r; ``prev`` None puts no bound.  So the
    cells left after row r are at most ``shape[r] - shape[-1]``, the room in
    the rows below it, and at least ``size`` less prev's cells in rows < r:
    rows 0 to last-1 walk those bounds, and the last row takes the rest,
    which always fits, under a lattice bound that no choice above moves.
    """
    last = len(shape) - 1
    if prev is not None and sum(prev[:last]) < size:
        return []
    if size == 1:  # a row with room, below the previous layer's first cell
        # (which the test above puts in a row < last)
        first = 0 if prev is None else 1 + next(r for r, c in enumerate(prev) if c)
        rows = [r for r in range(last, first - 1, -1) if not r or shape[r - 1] > shape[r]]
        return [(0,) * r + (1,) + (0,) * (last - r) for r in rows]
    partial = [((), size)]  # (counts so far, cells left)
    least = 0 if prev is None else size  # size less prev's cells in rows < r
    for r in range(last):
        cap = shape[r - 1] - shape[r] if r else size
        most = shape[r] - shape[last]
        partial = [(counts + (left - rest,), rest) for counts, left in partial
                   for rest in range(min(left, most), max(left - cap, least, 0) - 1, -1)]
        if prev is not None:
            least -= prev[r]
    return [counts + (left,) for counts, left in partial]


def lr_tensor(lam, mu, n: int) -> dict:
    """Decomposition of the tensor product of two highest weights over U(n).

    Weights may have negative entries.  Each is shifted once by a multiple
    of (1,...,1) to end in 0, so that full columns of height n factor out of
    every constituent, and the total shift is added back at the end.  The
    Littlewood-Richardson tableaux are grown layer by layer: on lam, mu_1
    ones, then mu_2 twos, and so on, each layer a horizontal strip under the
    lattice bound (``_lattice_strips``); since the multiplicities are
    symmetric in lam and mu, the partition with fewer cells plays mu.
    Tableaux that agree on their shape and on the rows of their last layer
    have the same futures, so they are counted together; each nu comes out
    once, with its multiplicity, in decreasing order.  Dualising every
    weight keeps the multiplicities, c^nu_(lam mu) = c^(nu*)_(lam* mu*), so
    the tableaux are counted on the dual pair when it places fewer cells:
    lam shifted has sum(lam) - n lam[-1] cells and its dual n lam[0] -
    sum(lam), so the route is chosen before either pair is built.  Products
    are read from the process-wide memo ``_LR_PRODUCTS``; the dict returned
    is a new one.
    """
    return dict(_lr_product(_validate_weight(lam, n), _validate_weight(mu, n)))


def _lr_tensor(lam, mu) -> dict:
    """``lr_tensor`` on weights that are already valid, computed afresh (the
    memo ``_LR_PRODUCTS`` stores what it returns): only the pair or the dual
    pair, whichever places fewer cells, is built, and the constituents of the
    dual pair are dualised back."""
    n, sl, sm = len(lam), sum(lam), sum(mu)
    cells, dual_cells = (sl - n * lam[-1], sm - n * mu[-1]), (n * lam[0] - sl, n * mu[0] - sm)
    if min(dual_cells) < min(cells):  # lam* shifted to end in 0 is lam[0] - lam[n-1-i]
        pair = tuple([lam[0] - x for x in reversed(lam)]), tuple([mu[0] - x for x in reversed(mu)])
        dshift = lam[0] + mu[0]
        out = {tuple([dshift - x for x in reversed(nu)]): m for nu, m in _lr_count(pair, dual_cells).items()}
    else:
        out = _shifted(_lr_count((_ending_in_0(lam), _ending_in_0(mu)), cells), lam[-1] + mu[-1])
    return dict(sorted(out.items(), reverse=True))


def _ending_in_0(a):
    """The weight a shifted by a multiple of (1,...,1) to end in 0."""
    return tuple([x - a[-1] for x in a]) if a[-1] else tuple(a)


def _shifted(out, shift):
    """``out`` with each constituent shifted by shift * (1,...,1), in order."""
    return {tuple([x + shift for x in nu]): m for nu, m in out.items()} if shift else out


# most constituents ``_LR_PRODUCTS`` holds over all its products.  Full of
# products over U(3) or U(4) of 22 or 40 constituents each, it holds about
# 7.8 MB (tracemalloc, Python 3.11)
LR_MEMO_CAP = 65_536


class LRMemo(dict):
    """``(lam, mu)`` -> ``_lr_tensor(lam, mu)``, for weights ending in 0 with
    ``lam >= mu``, computed the first time a pair is asked for.

    Littlewood-Richardson is symmetric in its two weights, and shifting one
    by (1,...,1) shifts every constituent alike, so ``_lr_product`` keys any
    pair by the two weights shifted to end in 0, larger first, and adds the
    total shift back on the way out.  The memo is bounded by the
    constituents it holds, not by its entries: past ``LR_MEMO_CAP``
    constituents in all, a new pair is answered but not stored.  A store
    and its count are made under a lock, and a pair stored meanwhile by
    another thread is kept, so the memo is filled idempotently and ``held``
    counts exactly what it holds.  ``clear`` empties it and its count.

    One memo serves the process (``_LR_PRODUCTS``), since a product depends
    on its pair of weights alone and callers make a fresh datum per task.
    On the benchmark's ``symbolic`` fusion operations (``lr-tensor``,
    ``astar-tensor`` and ``fusion-table``) with a new seed every round,
    rounds 20-40 of 40 took 0.54 times as long as with a memo per datum and
    none in ``lr_tensor`` (170 against 312 ms, medians of 6 alternated
    processes, 2-vCPU VM), and the memo then held 264 products of 1,359
    constituents; a cold first round took 11.9 against 16.5 ms.
    """

    __slots__ = ("held", "_lock")

    def __init__(self):
        super().__init__()
        self.held = 0  # the constituents held over all entries
        self._lock = threading.Lock()

    def __missing__(self, key):
        out = _lr_tensor(*key)
        with self._lock:
            if key not in self and self.held + len(out) <= LR_MEMO_CAP:
                self[key] = out
                self.held += len(out)
        return out

    def clear(self):
        with self._lock:
            super().clear()
            self.held = 0


# the products of every U(n) datum and of ``lr_tensor``
_LR_PRODUCTS = LRMemo()


def _lr_product(a, b) -> dict:
    """``lr_tensor`` on weights that are already valid, read from
    ``_LR_PRODUCTS``; callers must not change the dict it returns."""
    lam, mu = _ending_in_0(a), _ending_in_0(b)
    hit = _LR_PRODUCTS[(lam, mu) if lam >= mu else (mu, lam)]
    return _shifted(hit, a[-1] + b[-1])


def _lr_count(pair, cells) -> dict:
    """The Littlewood-Richardson multiplicities of a pair of partitions with
    ``cells`` cells each, as {nu: multiplicity}, by growing the tableaux on
    the larger one layer by layer."""
    lp, mp = pair if cells[0] >= cells[1] else pair[::-1]
    states = {(lp, None): 1}  # (shape, last layer's rows) -> tableaux
    for size in mp:
        if size == 0:
            break
        grown = {}
        for (shape, prev), mult in states.items():
            for strip in _lattice_strips(shape, size, prev):
                key = (tuple(map(operator.add, shape, strip)), strip)
                grown[key] = grown.get(key, 0) + mult
        states = grown
    out = {}
    for (shape, _strip), mult in states.items():
        out[shape] = out.get(shape, 0) + mult
    return out


def _dominant_parts(n, g):
    """The dominant weights of length n and absolute sum g, as pairs
    (plus, minus): a partition of s for the positive entries, and one of
    g - s for the absolute values of the negative ones, in at most n parts
    together.  A pair is small whatever n, so counting the weights, unlike
    listing them, allocates nothing of size n."""
    for s in range(g + 1):
        for plus in _partitions(s, n):
            for minus in _partitions(g - s, n - len(plus)):
                yield plus, minus


class UnFusion(FusionData):
    """Irreducibles of the unitary group, labeled by weakly decreasing
    integer weights of length n."""

    def validate_label(self, a):
        _validate_weight(a, self.n)

    def labels(self, grade_cap):
        n = self.n
        check_count(grade_cap, "grade cap", least=0)
        return sorted(
            plus + (0,) * (n - len(plus) - len(minus)) + tuple(-x for x in reversed(minus))
            for g in range(grade_cap + 1)
            for plus, minus in _dominant_parts(n, g)
        )

    def _labels_by_size(self):
        for g in itertools.count():
            yield sum(1 for _ in _dominant_parts(self.n, g))

    def random_label(self, rng):
        # entries in [-2, 2], weakly decreasing
        return tuple(sorted((rng.randint(-2, 2) for _ in range(self.n)), reverse=True))

    def dim(self, a):
        return un_dim(a, self.n)

    def _tensor(self, a, b):
        return _lr_product(a, b)

    def dual(self, a):
        return tuple([-x for x in reversed(a)])

    def __str__(self):
        return f"un:{self.n}"


class SU2Fusion(FusionData):
    """Spins j in (1/2) N with the Clebsch-Gordan ladder."""

    unit = Fraction(0)
    fundamental = Fraction(1, 2)
    label_size = 1  # a spin is one number
    label_hint = "spin labels look like j=3/2"
    integer_graded = False  # the grade is 2j mod 2

    def __init__(self):
        # spins carry no dimension n
        pass

    def validate_label(self, a):
        # an int or a Fraction: not a float, a bool or a string
        if type(a) not in (int, Fraction) or a < 0 or (2 * a).denominator != 1:
            raise ValueError(f"spin {a} is not a nonnegative half-integer")

    def parse_label(self, text):
        text = text.strip()
        if not re.fullmatch("j=-?[0-9]+(/[0-9]+)?", text):
            raise ParseError(f"{self.label_hint}, got {text!r}")
        try:
            return Fraction(text[2:])
        except ZeroDivisionError as exc:
            raise ParseError(f"spin label {text!r} divides by zero") from exc

    def format_label(self, label):
        return f"j={label}"

    def labels(self, grade_cap):
        return [Fraction(k, 2) for k in range(2 * check_count(grade_cap, "grade cap", least=0) + 1)]

    def _labels_by_size(self):
        yield 1
        yield from itertools.repeat(2)

    def random_label(self, rng):
        return Fraction(rng.randint(0, 6), 2)

    def dim(self, a):
        self.validate_label(a)
        return int(2 * a) + 1

    def _tensor(self, a, b):
        a, b = Fraction(a), Fraction(b)
        lo, hi = abs(a - b), a + b
        out = {}
        j = lo
        while j <= hi:
            out[j] = 1
            j += 1
        return out

    def dual(self, a):
        self.validate_label(a)
        return Fraction(a)

    def grade(self, a):
        self.validate_label(a)
        return int(2 * a) % 2

    def __str__(self):
        return "su2"


class TorusFusion(FusionData):
    """Characters of the n-torus: integer vectors under addition."""

    prefix = "t["
    label_hint = "torus labels look like t[1,-1]"

    def validate_label(self, a):
        a = tuple(a)
        if len(a) != self.n:
            raise ValueError(f"character {a} should have length {self.n}")
        _check_ints(a, "character")

    def dim(self, a):
        self.validate_label(a)
        return 1

    def _tensor(self, a, b):
        return {tuple(x + y for x, y in zip(a, b)): 1}

    def dual(self, a):
        return tuple(-x for x in a)

    def __str__(self):
        return f"torus:{self.n}"


def fusion_instance(name: str) -> FusionData:
    """The fusion datum named ``un:N``, ``torus:N`` or ``su2``: the group
    model's (``GroupModel.fusion_data``), SU(2)'s also named ``sun:2``."""
    try:
        data = parse_model("sun:2" if name == "su2" else name).fusion_data()
    except ValueError:
        data = None
    if data is None:
        raise ValueError(f"no fusion data for {name!r} (available: un:N, su2, torus:N)")
    return data


def crossed_tensor(data: FusionData, x, y) -> dict:
    """Tensor product of flagged labels in the full crossed product.

    No parity constraint on the flags; the result flag is the XOR and the
    twist hits the right factor whenever the left flag is odd.
    """
    (va, fa), (vb, fb) = x, y
    if fa not in (0, 1) or fb not in (0, 1):
        raise ValueError("flags must be 0 or 1")
    data.validate_label(va)
    data.validate_label(vb)
    return _crossed_tensor(data, x, y)


def _crossed_tensor(data: FusionData, x, y) -> dict:
    """``crossed_tensor`` on flagged labels that are already valid."""
    (va, fa), (vb, fb) = x, y
    right = data.sigma(vb) if fa == 1 else vb
    flag = (fa + fb) % 2
    return {(lbl, flag): mult for lbl, mult in data._tensor(va, right).items()}


def _check_astar_label(data: FusionData, x):
    label, flag = x
    data.validate_label(label)
    if flag not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    _check_parity(data, x)


def _check_parity(data: FusionData, x):
    label, flag = x
    if data.grade(label) % 2 != flag:
        raise ValueError(f"label {x} violates the parity invariant grade = flag (mod 2)")


def astar_tensor(data: FusionData, x, y) -> dict:
    """Tensor product of graded labels; inputs and outputs must satisfy
    grade = parity (mod 2).  The inputs are validated here; the outputs are
    labels of the datum's own making, so only their parity is checked.  A
    datum whose ``grade`` checks its label, as SU(2)'s does, checks inputs
    and outputs again there, and ``dual`` checks the right input once more
    when the left one is odd."""
    _check_astar_label(data, x)
    _check_astar_label(data, y)
    out = _crossed_tensor(data, x, y)
    grade = data.grade
    for lbl in out:
        if grade(lbl[0]) % 2 != lbl[1]:
            _check_parity(data, lbl)  # raises, naming the label
    return out


def astar_dual(data: FusionData, x):
    """Conjugate of a graded label; odd labels pick up the sigma twist."""
    _check_astar_label(data, x)
    label, flag = x
    if flag == 0:
        return (data.dual(label), 0)
    return (data.sigma(data.dual(label)), 1)


def moment_crosscheck(n: int, k: int, p_max: int = PMAX_DEFAULT):
    """Multiplicity of the unit in the 2k-th power of the fundamental, twice.

    Once through the graded fusion rules, once as the exact Haar state of the
    2k-th power of the character of the fundamental.  The two engines are
    independent and must agree.
    """
    check_count(k, "k")
    if 2 * k > 2 * check_count(p_max, "degree cap", least=0):
        raise DegreeCapError(f"k={k} exceeds the degree cap p_max={p_max}")
    data = UnFusion(n)
    fund = (data.fundamental, 1)

    acc = {fund: 1}
    for _ in range(2 * k - 1):
        nxt: dict = {}
        for lbl, mult in acc.items():
            for lbl2, m2 in astar_tensor(data, lbl, fund).items():
                nxt[lbl2] = nxt.get(lbl2, 0) + mult * m2
        acc = nxt
    fusion_count = acc.get((data.unit, 0), 0)

    char = CrossedElement.zero(n)
    for i in range(1, n + 1):
        char = char + CrossedElement.generator(n, i, i)
    power = CrossedElement.one(n)
    for _ in range(2 * k):
        power = power * char
    haar_value: GaussianRational = haar_state(power, p_max=p_max)
    return fusion_count, haar_value
