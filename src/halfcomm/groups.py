"""Concrete compact matrix groups: Haar samplers, membership, predicates.

Shipped models: the full unitary and orthogonal groups, the special unitary
group, the diagonal torus, the group of unitary monomial matrices (one
non-zero entry per row and column), and the group of 2n x 2n unitaries with
block pattern [[A, B], [-B, A]].  The last one is sampled through its
isomorphism with U(n) x U(n): P = A + iB and Q = A - iB are independent Haar
unitaries, so drawing (P, Q) and assembling A = (P+Q)/2, B = (P-Q)/(2i)
pushes Haar x Haar forward to Haar on the block group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .crossed import CrossedElement, FunElement
from .errors import DimensionMismatchError, check_count

KIND_UN = "un"
KIND_ON = "on"
KIND_SUN = "sun"
KIND_TORUS = "torus"
KIND_KN = "kn"
KIND_U2N = "u2n"

ALL_KINDS = (KIND_UN, KIND_ON, KIND_SUN, KIND_TORUS, KIND_KN, KIND_U2N)

DEFAULT_TOL = 1e-8  # membership: unitarity and shape pattern
WITNESS_TOL = 1e-6  # smallest imaginary part a non-reality witness shows

PREDICATES = ("self_transpose", "non_real", "doubly_non_real")

# complex entries one draw may hold: a chunk of sampled matrices, or the
# entry products a predicate forms from one sample; 2^24 of them take 256 MiB
MAX_DRAW_ENTRIES = 1 << 24


def check_draw_size(entries: int, what: str) -> None:
    """Raise ``ValueError``, naming the count, when a draw of ``entries``
    complex entries is over ``MAX_DRAW_ENTRIES``; called before anything of
    that size is allocated."""
    if entries > MAX_DRAW_ENTRIES:
        raise ValueError(f"{what} holds {entries} complex entries; the cap is {MAX_DRAW_ENTRIES}")


@dataclass(frozen=True)
class GroupModel:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        check_count(self.n)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n if self.kind == KIND_U2N else self.n

    @property
    def real_entries(self) -> bool:
        """Every element has real entries: the orthogonal group."""
        return self.kind == KIND_ON

    @property
    def exact(self) -> bool:
        """The Haar state integrates exactly (Weingarten calculus): U(n)."""
        return self.kind == KIND_UN

    def fusion_data(self):
        """The fusion datum of U(n), a torus or SU(2); None for the others."""
        from . import fusion  # fusion -> haar -> groups: imported when asked
        if self.kind == KIND_SUN and self.n == 2:
            return fusion.SU2Fusion()
        data = {KIND_UN: fusion.UnFusion, KIND_TORUS: fusion.TorusFusion}.get(self.kind)
        return None if data is None else data(self.n)

    def __str__(self):
        return f"{self.kind}:{self.n}"


def parse_model(text: str) -> GroupModel:
    try:
        kind, n = text.split(":")
        if not re.fullmatch("[0-9]+", n):
            raise ValueError(n)
        return GroupModel(kind, int(n))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad group model {text!r}; expected e.g. un:2, kn:3") from exc


def _haar_unitary(rng, count, n):
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _haar_orthogonal(rng, count, n):
    z = rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return (q * np.sign(d)[:, None, :]).astype(complex)


def check_draw(model: GroupModel, count: int) -> None:
    """``check_draw_size`` of a draw of ``count`` samples over ``model``."""
    d = model.ambient_dim
    check_draw_size(count * d * d, f"a draw of {count} samples over {model}")


def sample_batch(model: GroupModel, rng, count: int) -> np.ndarray:
    """Stack of ``count`` Haar samples, shape (count, d, d) complex, drawn
    once ``check_draw`` has passed the draw."""
    check_draw(model, count)
    n = model.n
    if model.kind == KIND_UN:
        return _haar_unitary(rng, count, n)
    if model.kind == KIND_ON:
        return _haar_orthogonal(rng, count, n)
    if model.kind == KIND_SUN:
        g = _haar_unitary(rng, count, n)
        det = np.linalg.det(g)
        root = np.exp(np.log(det) / n)  # principal branch
        return g / root[:, None, None]
    if model.kind == KIND_TORUS:
        phases = np.exp(2j * np.pi * rng.random((count, n)))
        out = np.zeros((count, n, n), dtype=complex)
        idx = np.arange(n)
        out[:, idx, idx] = phases
        return out
    if model.kind == KIND_KN:
        perms = np.argsort(rng.random((count, n)), axis=1)
        phases = np.exp(2j * np.pi * rng.random((count, n)))
        out = np.zeros((count, n, n), dtype=complex)
        out[np.arange(count)[:, None], perms, np.arange(n)[None, :]] = phases
        return out
    if model.kind == KIND_U2N:
        p = _haar_unitary(rng, count, n)
        q = _haar_unitary(rng, count, n)
        a = (p + q) / 2
        b = (p - q) / 2j
        top = np.concatenate([a, b], axis=2)
        bottom = np.concatenate([-b, a], axis=2)
        return np.concatenate([top, bottom], axis=1)
    raise AssertionError(model.kind)


def contains(model: GroupModel, g: np.ndarray) -> bool | np.ndarray:
    """Membership within ``DEFAULT_TOL``: unitarity plus the shape pattern.

    ``g`` is one d x d matrix, answered by one bool, or a stack of shape
    (..., d, d), answered by a bool array of the stack's leading shape.
    """
    d = model.ambient_dim
    g = np.asarray(g, dtype=complex)
    if g.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"expected a {d}x{d} matrix or a stack of them, got {g.shape}")

    def small(a):
        return np.max(np.abs(a), axis=(-2, -1), initial=0.0) < DEFAULT_TOL

    eye = np.eye(d)
    ok = small(g @ np.swapaxes(g.conj(), -2, -1) - eye)
    if model.kind == KIND_ON:
        ok &= small(g.imag)
    elif model.kind == KIND_SUN:
        with np.errstate(invalid="ignore"):  # a non-finite matrix just fails
            ok &= np.abs(np.linalg.det(g) - 1.0) < DEFAULT_TOL
    elif model.kind == KIND_TORUS:
        ok &= small(np.where(eye == 1, 0, g))
    elif model.kind == KIND_KN:
        mask = np.abs(g) > 0.5
        ok &= np.all(mask.sum(axis=-2) == 1, axis=-1) & np.all(mask.sum(axis=-1) == 1, axis=-1)
        ok &= small(np.where(mask, np.abs(g) - 1.0, 0)) & small(np.where(mask, 0, g))
    elif model.kind == KIND_U2N:
        n = model.n
        a, b = g[..., :n, :n], g[..., :n, n:]
        c, dd = g[..., n:, :n], g[..., n:, n:]
        ok &= small(a - dd) & small(b + c)
    elif model.kind != KIND_UN:
        raise AssertionError(model.kind)
    return bool(ok) if g.ndim == 2 else ok


@dataclass
class PredicateResult:
    value: bool
    witness: dict | None

    def __bool__(self):
        return self.value


def check_predicate(model: GroupModel, which: str, trials: int = 100) -> None:
    """Raise ``ValueError`` for an unknown predicate, a trial count that is
    not a positive int (``check_count``), or a trial whose draw is over
    ``MAX_DRAW_ENTRIES``, drawing nothing: a trial holds one d x d sample,
    and doubly_non_real also the d^2 x d^2 products of its entries.  The
    orthogonal group's non-reality predicates draw nothing."""
    if which not in PREDICATES:
        raise ValueError(f"unknown predicate {which!r}; choose from {PREDICATES}")
    check_count(trials, "trials")
    if model.real_entries and which in ("non_real", "doubly_non_real"):
        return
    d = model.ambient_dim
    check_draw_size(d**4 if which == "doubly_non_real" else d * d, f"predicate {which} over {model}")


def predicate(
    model: GroupModel,
    which: str,
    trials: int = 100,
    rng_seed: int = 0,
) -> PredicateResult:
    """Sampling-based tests of the transpose/reality structure of the model.

    ``self_transpose`` holds structurally for every shipped model; sampling is
    a soundness check and a counterexample would be returned as witness.  The
    two non-reality predicates are existential and one-sided: a True answer
    carries a concrete witness, a False answer only means no witness was found
    in ``trials`` samples (except for the orthogonal group, whose entries are
    real by construction).
    """
    check_predicate(model, which, trials)
    check_count(rng_seed, "seed", least=0)
    if model.real_entries and which in ("non_real", "doubly_non_real"):
        return PredicateResult(False, None)

    rng = np.random.default_rng(rng_seed)
    d = model.ambient_dim
    for t in range(trials):
        g = sample_batch(model, rng, 1)[0]
        if which == "self_transpose":
            if not contains(model, g.T):
                return PredicateResult(False, {"sample_index": t, "matrix": g})
        elif which == "non_real":
            im = np.abs(g.imag)
            if im.max() > WITNESS_TOL:
                i, j = np.unravel_index(int(np.argmax(im)), im.shape)
                return PredicateResult(
                    True,
                    {
                        "sample_index": t,
                        "indices": (int(i) + 1, int(j) + 1),
                        "value": complex(g[i, j]),
                        "matrix": g,
                    },
                )
        else:  # doubly_non_real
            flat = g.reshape(d * d)
            prods = flat[:, None] * flat.conj()[None, :]
            im = np.abs(prods.imag)
            if im.max() > WITNESS_TOL:
                a, b = np.unravel_index(int(np.argmax(im)), im.shape)
                i, j = divmod(int(a), d)
                k, l = divmod(int(b), d)
                return PredicateResult(
                    True,
                    {
                        "sample_index": t,
                        "indices": (i + 1, j + 1, k + 1, l + 1),
                        "value": complex(prods[a, b]),
                        "matrix": g,
                    },
                )
    return PredicateResult(which == "self_transpose", None)


def evaluate_fun_batch(f: FunElement, gs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a stack of matrices, shape (count, n, n)."""
    gs = np.asarray(gs, dtype=complex)
    if gs.shape[1:] != (f.n, f.n):
        raise DimensionMismatchError(f"batch {gs.shape} does not match symbols over n={f.n}")
    total = np.zeros(gs.shape[0], dtype=complex)
    for mono, coeff in f.terms.items():
        vals = np.full(gs.shape[0], coeff.to_complex())
        for (i, j, bar), e in mono:
            entry = gs[:, i - 1, j - 1]
            if bar:
                entry = entry.conj()
            vals = vals * entry**e
        total += vals
    return total


def matrix_model_eval(x: CrossedElement, g: np.ndarray) -> np.ndarray:
    """Evaluate through the faithful two-dimensional matrix model.

    The even part goes to diag(f(g), f(conj g)) and the odd part to the
    off-diagonal pair, making the map a pointwise *-homomorphism.  ``g`` is
    one n x n matrix, giving one 2 x 2 matrix, or a stack of shape
    (..., n, n), giving a stack of shape (..., 2, 2).
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[-2:] != (x.n, x.n):
        raise DimensionMismatchError(f"matrix {g.shape} does not match element over n={x.n}")
    pair = np.stack([g, g.conj()]).reshape(-1, x.n, x.n)
    even, odd = (evaluate_fun_batch(f, pair).reshape(2, *g.shape[:-2]) for f in (x.f0, x.f1))
    return np.stack([np.stack([even[0], odd[0]], -1), np.stack([odd[1], even[1]], -1)], -2)
