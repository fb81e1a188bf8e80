"""Parametric discrete-time LTI families ``delta -> (A(delta), B(delta))``.

Three kinds are supported:

* :class:`AffineFamily` -- matrices affine in the parameter vector.
* :class:`NetworkFamily` -- the affine family of weighted-consensus
  dynamics on an undirected graph whose edge weights are the uncertain
  parameter: with incidence blocks ``D_F`` (floating nodes) and ``D_I``
  (input nodes), ``A(w) = I - D_F diag(w) D_F.T`` and
  ``B(w) = -D_F diag(w) D_I.T``.
* :class:`TableFamily` -- an explicit list of measured ``(A, B)``
  snapshots, addressed by index (parameter dimension 1).

All families are immutable; ``instantiate`` (one draw) and
``instantiate_batch`` (a (K, ell) stack of draws) are pure.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArguments, InvarcertError, NumericalBreakdown


class GraphError(InvarcertError, ValueError):
    pass


class NonFiniteParameter(InvalidArguments):
    """Draw ``row`` of a stack, ``value``, is not finite, or ``what`` it
    gives is not (its plant, say)."""

    def __init__(self, row: int, value: list, what: str = "is not finite"):
        super().__init__(f"row {row}: parameter {value} {what}")
        self.row, self.value, self.what = row, value, what


class UnknownSample(InvalidArguments):
    """Draw ``row`` of a stack, ``value``, is not one of the ``count`` table
    indices."""

    def __init__(self, row: int, value: float, count: int):
        super().__init__(f"row {row}: {value!r} is not a table index in 0..{count - 1}")
        self.row, self.value, self.count = row, value, count


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with a floating / input node split.

    Nodes are ``0 .. n-1``; every node must appear in exactly one of
    ``floating`` or ``inputs``.  Edges are stored with the deterministic
    orientation (smaller node -> larger node); the consensus matrices are
    orientation-invariant anyway.
    """

    edges: tuple
    floating: tuple
    inputs: tuple
    nominal_weights: np.ndarray

    def __init__(self, edges, floating, inputs, nominal_weights):
        edges = tuple(
            (min(int(i), int(j)), max(int(i), int(j))) for i, j in edges
        )
        floating = tuple(sorted(int(i) for i in floating))
        inputs = tuple(sorted(int(i) for i in inputs))
        w = np.array(nominal_weights, dtype=float).ravel()
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "floating", floating)
        object.__setattr__(self, "inputs", inputs)
        w.setflags(write=False)
        object.__setattr__(self, "nominal_weights", w)
        self._validate()

    def _validate(self):
        if not self.floating:
            raise GraphError("graph needs at least one floating node")
        if not self.inputs:
            raise GraphError("graph needs at least one input node")
        nodes = set(self.floating) | set(self.inputs)
        if set(self.floating) & set(self.inputs):
            raise GraphError("floating and input node sets overlap")
        n = len(nodes)
        if nodes != set(range(n)):
            raise GraphError("nodes must be exactly 0..n-1 across the two sets")
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop on node {i}")
            if i not in nodes or j not in nodes:
                raise GraphError(f"edge ({i},{j}) references unknown node")
        if self.nominal_weights.size != len(self.edges):
            raise DimensionMismatch(
                f"{len(self.edges)} edges but {self.nominal_weights.size} nominal weights"
            )
        finite = np.isfinite(self.nominal_weights)
        if not finite.all():
            raise GraphError(f"nominal weight {int(finite.argmin())} is not finite")
        # connectivity by traversal
        adjacency = {v: set() for v in nodes}
        for i, j in self.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != nodes:
            raise GraphError("graph is not connected")

    @property
    def node_count(self) -> int:
        return len(self.floating) + len(self.inputs)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_incidence(g: Graph):
    """Signed incidence blocks ``(D_F, D_I)``: +1 at the smaller endpoint,
    -1 at the larger, one column per edge; rows ordered by ascending node
    id within each block."""
    n = g.node_count
    D = np.zeros((n, g.edge_count))
    for e, (i, j) in enumerate(g.edges):
        D[i, e] = 1.0
        D[j, e] = -1.0
    return D[list(g.floating), :], D[list(g.inputs), :]


@dataclass(frozen=True)
class AffineFamily:
    """``A(delta) = A0 + sum_k delta_k A_k`` and likewise for ``B``."""

    A0: np.ndarray
    B0: np.ndarray
    A_terms: tuple = ()
    B_terms: tuple = ()

    def __init__(self, A0, B0, A_terms=(), B_terms=()):
        A0 = np.array(A0, dtype=float)
        B0 = np.array(B0, dtype=float)
        if B0.ndim == 1:
            B0 = B0[:, None]
        if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise DimensionMismatch("A0 must be square")
        if B0.shape[0] != A0.shape[0]:
            raise DimensionMismatch("B0 row count must match A0")
        A_terms = tuple(np.array(t, dtype=float) for t in A_terms)
        B_terms = tuple(np.array(t, dtype=float) for t in B_terms)
        B_terms = tuple(t[:, None] if t.ndim == 1 else t for t in B_terms)
        for name, terms, base in (("A", A_terms, A0), ("B", B_terms, B0)):
            if not np.isfinite(base).all():
                raise InvalidArguments(f"{name}0 is not finite")
            for k, t in enumerate(terms):
                if t.shape != base.shape:
                    raise DimensionMismatch(
                        f"{name}k[{k}] has shape {t.shape}, expected {base.shape} as {name}0"
                    )
                if not np.isfinite(t).all():
                    raise InvalidArguments(f"{name}k[{k}] is not finite")
        if A_terms and B_terms and len(A_terms) != len(B_terms):
            raise DimensionMismatch("A and B term counts differ")
        for a in (A0, B0) + A_terms + B_terms:
            a.setflags(write=False)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "B0", B0)
        object.__setattr__(self, "A_terms", A_terms)
        object.__setattr__(self, "B_terms", B_terms)
        object.__setattr__(self, "_plan", _nonzero_plan((A0, B0), (A_terms, B_terms)))

    @property
    def n(self) -> int:
        return self.A0.shape[0]

    @property
    def m(self) -> int:
        return self.B0.shape[1]

    @property
    def ell(self) -> int:
        return max(len(self.A_terms), len(self.B_terms))

    @property
    def nominal_delta(self) -> np.ndarray:
        return np.zeros(self.ell)

    def instantiate(self, delta):
        A, B = self.instantiate_batch(np.reshape(delta, (1, -1)))
        return A[0], B[0]

    def instantiate_batch(self, deltas):
        """Stacked ``(A, B)`` for the rows of ``deltas``: (K, n, n), (K, n, m).

        Each entry of a draw is its ``A0`` (``B0``) entry plus ``delta_k
        A_k`` for each term k that is nonzero there, added in increasing k;
        where the base entry is ``-0.0`` every term is added.  For a finite
        parameter a skipped product is ``+-0.0``, which leaves any other
        running sum as it is, so every entry has the bits of the sum over
        all the terms, and a draw's slice does not depend on the other rows
        of the stack.  A row that is not finite, or whose ``A(delta)`` or
        ``B(delta)`` overflows, raises :class:`NonFiniteParameter` naming
        the row: with finite terms and a finite row an entry can only turn
        non-finite by an overflow, which the one stacked pass traps.
        """
        d = np.asarray(deltas, dtype=float)
        if d.ndim != 2 or d.shape[1] != self.ell:
            raise DimensionMismatch(
                f"expected a (K, {self.ell}) parameter stack, got shape {d.shape}"
            )
        if not np.isfinite(d).all():
            row = int(np.isfinite(d).all(axis=1).argmin())
            raise NonFiniteParameter(row, d[row].tolist())
        base, ranks, positions = self._plan
        columns = np.ascontiguousarray(d.T)
        try:
            with np.errstate(over="raise"):
                stack = _affine_stack(base, ranks, columns)
        except FloatingPointError:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(_affine_stack(base, ranks, columns)).all(axis=0)
            row = int(finite.argmin())
            raise NonFiniteParameter(row, d[row].tolist(), "gives a non-finite plant") from None
        K = d.shape[0]
        A, B = (stack.take(rows, axis=0) for rows in positions)
        return (
            np.ascontiguousarray(A.T).reshape((K,) + self.A0.shape),
            np.ascontiguousarray(B.T).reshape((K,) + self.B0.shape),
        )


def _nonzero_plan(bases, term_lists):
    """The products that ``instantiate_batch`` adds, fixed once per family:
    ``(base, ranks, positions)``.

    The entries of all the bases (``A0`` then ``B0``, flattened) are put in
    order of how many terms each keeps, most first, so the entries that
    keep an r-th term are a prefix of that order; ``base`` (entries, 1)
    holds them in that order and ``positions`` gives, per base, the rows
    of its entries.  Rank r is one gather-multiply-add over its prefix,
    ``(count, terms, values)``: ``values`` (count, 1) are the r-th kept term
    entries and ``terms`` their term indices.  A term entry is kept when it
    is nonzero, or when its base entry is ``-0.0``: the one running sum
    that a ``+0.0`` product changes.
    """
    base = np.concatenate([b.ravel() for b in bases])
    values = np.zeros((max(map(len, term_lists)), base.size))
    keep = np.zeros(values.shape, dtype=bool)
    edges = np.cumsum([0] + [b.size for b in bases])
    for lo, hi, terms in zip(edges[:-1], edges[1:], term_lists):
        values[: len(terms), lo:hi] = np.reshape(terms, (len(terms), hi - lo))
        keep[: len(terms), lo:hi] = True
    keep &= (values != 0.0) | ((base == 0.0) & np.signbit(base))
    kept = keep.sum(axis=0)
    order = np.argsort(-kept, kind="stable")
    ranks = []
    for r in range(kept.max(initial=0)):
        rows = order[kept[order] > r]
        terms = np.array([np.flatnonzero(keep[:, e])[r] for e in rows])
        ranks.append((len(rows), terms, values[terms, rows][:, None]))
    rank_of = np.argsort(order)
    positions = tuple(rank_of[lo:hi] for lo, hi in zip(edges[:-1], edges[1:]))
    return base[order, None], tuple(ranks), positions


def _affine_stack(base, ranks, columns):
    """``base`` plus its kept products for the parameter columns (ell, K)
    of K draws, as a stack (entries, K) in the entry order of
    :func:`_nonzero_plan`.

    Rank by rank, each prefix of entries adds its r-th kept term entry
    times that term's parameter column, so each entry takes the multiplies
    and adds of one draw alone, in increasing term order, and the stack
    holds one rank's (count, K) product at a time.  The product is scaled
    in place in its gathered columns, which costs less than forming the
    outer product of ``values`` and the columns anew.
    """
    stack = np.empty((len(base), columns.shape[1]))
    stack[:] = base
    for count, terms, values in ranks:
        product = columns.take(terms, axis=0)
        product *= values
        stack[:count] += product
    return stack


@dataclass(frozen=True, init=False)
class NetworkFamily(AffineFamily):
    """Consensus family on a graph; the parameter is the edge-weight vector.

    Affine in the weights: with ``f_k`` and ``i_k`` the floating and input
    incidence columns of edge k, ``A0 = I``, ``B0 = 0``,
    ``A_k = -f_k f_k^T`` and ``B_k = -f_k i_k^T``.
    """

    graph: Graph

    def __init__(self, graph: Graph):
        d_f, d_i = build_incidence(graph)
        super().__init__(
            A0=np.eye(d_f.shape[0]),
            B0=np.zeros((d_f.shape[0], d_i.shape[0])),
            A_terms=[-np.outer(f, f) for f in d_f.T],
            B_terms=[-np.outer(f, i) for f, i in zip(d_f.T, d_i.T)],
        )
        object.__setattr__(self, "graph", graph)

    @property
    def nominal_delta(self) -> np.ndarray:
        return self.graph.nominal_weights


@dataclass(frozen=True)
class TableFamily:
    """Measured (A, B) snapshots addressed by integer index.

    The scenario machinery treats the index as a parameter of dimension 1,
    so affine policies over a table reduce to per-snapshot interpolation.
    The snapshots are kept as two read-only stacks, ``A`` (count, n, n)
    and ``B`` (count, n, m).
    """

    A: np.ndarray
    B: np.ndarray

    def __init__(self, pairs):
        As, Bs = [], []
        for A, B in pairs:
            A = np.array(A, dtype=float)
            B = np.array(B, dtype=float)
            if B.ndim == 1:
                B = B[:, None]
            if As and (A.shape, B.shape) != (As[0].shape, Bs[0].shape):
                raise DimensionMismatch("all table entries must share shapes")
            if not (np.isfinite(A).all() and np.isfinite(B).all()):
                raise InvalidArguments(f"table pair {len(As)} is not finite")
            As.append(A)
            Bs.append(B)
        if not As:
            raise InvalidArguments("table must contain at least one (A, B) pair")
        A, B = np.stack(As), np.stack(Bs)
        if A.shape[1] != A.shape[2]:
            raise DimensionMismatch("A must be square")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[2]

    @property
    def ell(self) -> int:
        return 1

    @property
    def nominal_delta(self) -> np.ndarray:
        return np.zeros(1)

    instantiate = AffineFamily.instantiate  # one draw is a stack of one

    def instantiate_batch(self, deltas):
        """Stacked ``(A, B)`` for a (K, 1) column of table indices."""
        d = np.asarray(deltas, dtype=float)
        if d.ndim != 2 or d.shape[1] != 1:
            raise DimensionMismatch("table families take a single index parameter")
        count = len(self.A)
        k = np.rint(d[:, 0])
        bad = np.flatnonzero(~(np.abs(d[:, 0] - k) <= 1e-9) | (k < 0) | (k >= count))
        if bad.size:
            raise UnknownSample(int(bad[0]), float(d[bad[0], 0]), count)
        k = k.astype(int)
        return self.A[k], self.B[k]


def spectral_radius_estimate(A) -> float:
    """Largest eigenvalue modulus of a square matrix (diagnostic only).

    Backed by LAPACK's Hessenberg-QR eigensolver; a
    :class:`NumericalBreakdown` is raised if the QR iteration does not
    converge.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("A must be square")
    if A.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(str(exc)) from exc
    return float(np.abs(eigs).max())
