"""Multilinear and alternating tensors over dual n-space.

A general k-tensor is a dual-linear combination of elementary products
``e^{i1} x ... x e^{ik}`` indexed by arbitrary index tuples; an
alternating k-tensor is a combination of determinant functionals
``eps^I`` indexed by strictly ascending tuples ``I``.  Evaluation,
antisymmetrization, and the wedge product all reduce to permutation
bookkeeping, which stays exact because every sign is computed as an
integer.

Tensors and differential forms share one container, :class:`Graded`:
it checks the index tuples and supplies ``scale``, ``+``, ``-`` and
negation, and :func:`wedge` multiplies two alternating tensors or two
forms with the same loop.  The kinds differ only in their coefficients,
dual numbers here and expressions in :mod:`.forms`.

The permutation expansions are factorial in k, so degrees above
``MAX_PERMUTATION_DEGREE`` are rejected outright.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb, factorial

from .dual import Dual, DualVec, ONE, Record, ZERO, as_dual

MAX_PERMUTATION_DEGREE = 8


def lambda_dim(n: int, k: int) -> int:
    """Dimension of the alternating k-tensors on n-space (0 when k > n)."""
    if n < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    return comb(n, k)


def ascending_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly ascending k-tuples drawn from 0..n-1."""
    return tuple(itertools.combinations(range(n), k))


def perm_sign(perm) -> int:
    """Sign of a permutation given as a rearrangement of 0..k-1."""
    perm = tuple(perm)
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


@cache
def signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Every permutation of 0..k-1, in lexicographic order, with its sign.

    Raises ValueError for a degree above ``MAX_PERMUTATION_DEGREE``, so
    the table is also the one place that enforces the cap.
    """
    if k > MAX_PERMUTATION_DEGREE:
        raise ValueError(
            f"degree {k} exceeds the permutation-expansion cap "
            f"{MAX_PERMUTATION_DEGREE}")
    return tuple((perm, float(perm_sign(perm)))
                 for perm in itertools.permutations(range(k)))


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign that sorts the concatenation of two ascending tuples.

    Returns 0 when the tuples share an index (the wedge term dies).
    """
    if set(left) & set(right):
        return 0
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def add_term(coeffs: dict, index, value) -> None:
    """Add ``value`` to the coefficient at ``index``, or set it if absent."""
    coeffs[index] = coeffs[index] + value if index in coeffs else value


def _coerce_vectors(n: int, k: int, vectors) -> tuple[DualVec, ...]:
    vecs = tuple(v if isinstance(v, DualVec) else DualVec(v) for v in vectors)
    if len(vecs) != k:
        raise ValueError(f"expected {k} vectors, got {len(vecs)}")
    if any(len(v) != n for v in vecs):
        raise ValueError(f"all vectors must have {n} components")
    return vecs


class Graded(Record):
    """Degree-k coefficients on n-space, keyed by index tuples.

    Every index has length k and entries in 0..n-1, strictly ascending
    unless the class sets ``alternating = False``.  Each coefficient goes
    through the ``_clean`` hook, which returns the value to store or None
    to drop it.  ``+`` and ``-`` need two operands of the same class,
    dimension and degree.  Immutable.
    """

    __slots__ = _fields = ("n", "k", "coeffs")
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity

    alternating = True

    def __init__(self, n: int, k: int, coeffs=()):
        if n < 0 or k < 0:
            raise ValueError("dimensions must be nonnegative")
        self.n, self.k = n, k
        cleaned = {}
        for index, raw in dict(coeffs).items():
            index = tuple(index)
            if len(index) != k:
                raise ValueError(f"index {index} does not have length {k}")
            if any(not (0 <= i < n) for i in index):
                raise ValueError(f"index {index} out of range for n={n}")
            if self.alternating and any(
                    a >= b for a, b in zip(index, index[1:])):
                raise ValueError(f"index {index} is not strictly ascending")
            value = self._clean(index, raw)
            if value is not None:
                cleaned[index] = value
        self.coeffs = cleaned

    def _clean(self, index, raw):
        """Dual coefficients; exact zeros are dropped."""
        value = as_dual(raw)
        return None if value.is_zero() else value

    def scale(self, scalar):
        return type(self)(self.n, self.k,
                          {i: scalar * c for i, c in self.coeffs.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("operands must share dimension and degree")
        merged = dict(self.coeffs)
        for index, coeff in other.coeffs.items():
            add_term(merged, index, coeff)
        return type(self)(self.n, self.k, merged)

    def __neg__(self):
        return type(self)(self.n, self.k,
                          {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)


class GenTensor(Graded):
    """General k-linear tensor: coefficients over full index tuples."""

    __slots__ = ()
    alternating = False

    @staticmethod
    def basis(n: int, index) -> "GenTensor":
        index = tuple(index)
        return GenTensor(n, len(index), {index: ONE})

    def evaluate(self, vectors) -> Dual:
        vecs = _coerce_vectors(self.n, self.k, vectors)
        total = ZERO
        for index, coeff in self.coeffs.items():
            term = coeff
            for slot, i in enumerate(index):
                term = term * vecs[slot][i]
            total = total + term
        return total


def tensor_product(left: GenTensor, right: GenTensor) -> GenTensor:
    """Concatenate index tuples; degrees add."""
    if left.n != right.n:
        raise ValueError("tensors must live over the same space")
    coeffs = {}
    for li, lc in left.coeffs.items():
        for ri, rc in right.coeffs.items():
            add_term(coeffs, li + ri, lc * rc)
    return GenTensor(left.n, left.k + right.k, coeffs)


class AltTensor(Graded):
    """Alternating k-tensor: coefficients over strictly ascending tuples."""

    __slots__ = ()

    @staticmethod
    def basis(n: int, index) -> "AltTensor":
        index = tuple(index)
        return AltTensor(n, len(index), {index: ONE})

    def evaluate(self, vectors) -> Dual:
        """Sum of coefficient times determinant of the selected components."""
        perms = signed_permutations(self.k)
        vecs = _coerce_vectors(self.n, self.k, vectors)
        total = ZERO
        for index, coeff in self.coeffs.items():
            det = ZERO
            for perm, sign in perms:
                term = ONE
                for slot in range(self.k):
                    term = term * vecs[slot][index[perm[slot]]]
                det = det + term * sign
            total = total + coeff * det
        return total

    def as_general(self) -> GenTensor:
        """Expand each determinant functional into signed elementary products."""
        perms = signed_permutations(self.k)
        coeffs = {}
        for index, coeff in self.coeffs.items():
            for perm, sign in perms:
                add_term(coeffs, tuple(index[p] for p in perm), coeff * sign)
        return GenTensor(self.n, self.k, coeffs)


def _alt_coeffs(t: GenTensor) -> dict:
    """Ascending-index evaluations of the unnormalized antisymmetrization."""
    perms = signed_permutations(t.k)
    out = {}
    for index in ascending_tuples(t.n, t.k):
        acc = ZERO
        for perm, sign in perms:
            coeff = t.coeffs.get(tuple(index[p] for p in perm))
            if coeff is not None:
                acc = acc + coeff * sign
        if not acc.is_zero():
            out[index] = acc
    return out


def alt_sum(t: GenTensor) -> AltTensor:
    """Signed sum over all argument permutations (k! times the projection)."""
    return AltTensor(t.n, t.k, _alt_coeffs(t))


def alt(t: GenTensor) -> AltTensor:
    """Projection onto alternating tensors (signed average over permutations)."""
    fact = factorial(t.k)
    # divide componentwise: exact whenever the sum is a multiple of k!
    return AltTensor(t.n, t.k,
                     {i: Dual(c.re / fact, c.ze / fact)
                      for i, c in _alt_coeffs(t).items()})


def wedge(left, right):
    """Wedge product of two alternating tensors or of two forms.

    Determinant convention: basis tuples merge with their sort sign.
    """
    if type(left) is not type(right) or not (
            isinstance(left, Graded) and left.alternating):
        raise TypeError("wedge needs two alternating tensors or two forms")
    if left.n != right.n:
        raise ValueError("operands must live over the same space")
    coeffs = {}
    for li, lc in left.coeffs.items():
        for ri, rc in right.coeffs.items():
            sign = merge_sign(li, ri)
            if sign:
                term = lc * rc
                add_term(coeffs, tuple(sorted(li + ri)),
                         term if sign > 0 else -term)
    return type(left)(left.n, left.k + right.k, coeffs)


def tensors_equal(left, right, tol: float = 1e-9) -> bool:
    """Coefficientwise comparison for two tensors of the same kind.

    A NaN coefficient agrees with nothing, and at a finite `tol` neither
    does an infinite one.
    """
    if type(left) is not type(right):
        return False
    if (left.n, left.k) != (right.n, right.k):
        return False
    for index in left.coeffs.keys() | right.coeffs.keys():
        a = left.coeffs.get(index, ZERO)
        b = right.coeffs.get(index, ZERO)
        if not (abs(a.re - b.re) <= tol and abs(a.ze - b.ze) <= tol):
            return False
    return True
