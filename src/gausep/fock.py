"""Truncated number-basis oracle for the covariance-level machinery.

Everything else in this package works with first and second moments; this
module rebuilds the same dynamics as operators on a truncated Fock space so
results can be cross-checked against an implementation that shares no code
path with the Gaussian one.  The space (:class:`FockSpace`) is the product
grid of a model's own :class:`ModeLayout` at one cutoff, side A's modes
first, at most ``MAX_DIM`` states; every function below takes any layout.

* :func:`build_fock_generator` turns the quadratic Hamiltonian and noise
  forms into the sparse parity blocks of the master equation: the
  non-Hermitian part ``-iH - (1/2) sum_k q_k L_k^2`` and the quadrature
  Lindblads ``L_k``, each stored only as its nonzero blocks;
* :func:`lindblad_integrate` propagates a dense density matrix by a Taylor
  series of the master equation that is exact to double precision (no fixed
  step), guarding the truncation by the population of the highest level.
  A rigorous norm bound fixes the largest degree and the substeps before any
  work, and a call needing more than ``MAX_TAYLOR_PRODUCTS`` terms is
  refused; each substep stops at the first term after which a rigorous
  tail bound is below ``TAYLOR_TOL`` times the trace of the state, so the
  work follows the occupied levels rather than the cutoff.
  The Hamiltonian is quadratic and every Lindblad operator linear in the
  quadratures, so the generator keeps the grade ``(parity(m) + parity(n))
  mod 2`` of every entry ``rho_mn`` (parities of the total number): the
  state is evolved as its even-even and odd-odd blocks (grade 0) and its
  even-odd and odd-even blocks (grade 1), and a grade that is zero on entry,
  as grade 1 is from the vacuum, is never touched.  Each Taylor term is
  evolved on its occupied shells of total number only.
  The right-hand side, :func:`lindblad_rhs`, uses that every Taylor term of
  a Hermitian state is Hermitian, so it needs one sparse product with the
  non-Hermitian part of the generator and two per Lindblad, block by block;
  the products accumulate into buffers allocated once per integration;
* :func:`kraus_average_step` applies one measurement and feed-forward channel
  as an explicit record average, done in the eigenbasis of the measured and
  fed quadratures where every Kraus factor is diagonal, so the average is an
  elementwise multiplier on the density matrix, exact in closed form (each
  entry of the record integral is a Gaussian integral of a phase): one real
  exponential, at most 1, times unit phases, applied to the state in place.
  Basis changes act side by side, each on its side's own grid, on the
  complex entries as float pairs where both side factors are real (a
  position quadrature's eigenbasis is).  :func:`protocol_kraus_step` fuses
  each with the next, one per distinct pair of bases plus one for the local
  unitary (from the eigendecompositions of the side Hamiltonians); channels in equal
  bases share one multiplier, so a rank-1 step is a real basis change, one
  real exponential, the feedback phase on rows and columns and a complex
  basis change;
* :func:`log_negativity_dense` evaluates entanglement from the partial
  transpose of the dense state, which keeps the grade of every entry, so
  for a grade-0 state it diagonalizes the even and odd blocks apart,
  gathered from the state and cut to their leading (lowest) shells; a value
  within ``NEGATIVITY_ROUNDOFF_ULPS d eps`` of zero is roundoff of a PPT
  state and is returned as exactly 0.

The truncation is the only systematic error source, so cutoffs should be
chosen with the leakage report rather than by eye.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .generators import SystemModel, hamiltonian_form, noise_form
from .locc import LoccProtocol, Rank1Channel, _check_dt
from .symplectic import CovarianceMatrix, ModeLayout

LEAKAGE_LIMIT = 1e-6
TAYLOR_TOL = 2.0**-54
# about ten seconds of right-hand sides at cutoff 12, minutes at cutoff 24
MAX_TAYLOR_PRODUCTS = 10_000
# a density matrix of dimension 1024 (cutoff 32 on two modes) is 1024^2 complex
# entries (16 MB); the cap refuses a space before any operator is allocated
MAX_DIM = 1024
# |log2 ||rho^T||_1| up to this many d eps (d the space dimension) is the
# roundoff of eigvalsh on a PPT state, and the log-negativity is reported as 0
NEGATIVITY_ROUNDOFF_ULPS = 4


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Truncated oscillator space: the product grid of a layout's modes at a
    common cutoff, side A's modes first, each mode's levels in Fock order."""

    cutoff: int
    layout: ModeLayout = ModeLayout(1, 1)

    def __post_init__(self):
        n = self.layout.n_modes
        largest = round(MAX_DIM ** (1 / n))
        largest -= largest**n > MAX_DIM  # the root was rounded up
        if not 2 <= self.cutoff <= largest:
            raise ValueError(f"cutoff must be from 2 to {largest} on {n} modes, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return self.cutoff**self.layout.n_modes

    @property
    def sides(self) -> tuple[int, int]:  # the sizes (D_A, D_B) of the sides' grids
        return self.cutoff**self.layout.n_a, self.cutoff**self.layout.n_b

    def _check_state(self, rho) -> None:
        if np.shape(rho) != (self.dim, self.dim):
            raise ValueError(f"state of shape {np.shape(rho)} is not {self.dim} x {self.dim}")

    def destroy(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1, self.cutoff)), 1)

    def position(self) -> np.ndarray:
        a = self.destroy()
        return (a + a.T) / np.sqrt(2.0)

    def momentum(self) -> np.ndarray:
        a = self.destroy()
        return 1j * (a.T - a) / np.sqrt(2.0)

    @functools.cached_property
    def _quadratures(self) -> tuple[sp.csr_array, ...]:
        """Sparse ``(x_1, p_1, ..., x_n, p_n)``, each ``I (x) q (x) I`` on its mode."""
        c, n = self.cutoff, self.layout.n_modes
        ops = sp.csr_array(self.position().astype(complex)), sp.csr_array(self.momentum())
        eyes = [sp.identity(c**k, complex, "csr") for k in range(n)]
        return tuple(
            sp.kron(sp.kron(eyes[m], op), eyes[n - 1 - m], format="csr")
            for m in range(n) for op in ops
        )

    @functools.cached_property
    def _linear(self) -> "_SharedPattern":
        """The quadratures ``q_j`` on one pattern."""
        return _SharedPattern.of(self, self._quadratures)

    @functools.cached_property
    def _quadratic(self) -> "_SharedPattern":
        """Every ``(q_j q_k + q_k q_j) / 2``, row-major in ``(j, k)``, on one pattern."""
        quads = self._quadratures
        return _SharedPattern.of(
            self, [0.5 * (qj @ qk + qk @ qj) for qj in quads for qk in quads]
        )

    @property
    def top(self) -> int:
        """The largest total number, the top shell."""
        return self.layout.n_modes * (self.cutoff - 1)

    @functools.cached_property
    def _totals(self) -> np.ndarray:
        return np.indices((self.cutoff,) * self.layout.n_modes).sum(axis=0).ravel()

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the basis states of even and of odd total number,
        shell by shell (Fock order within one), so the states of total at
        most ``R`` lead each sector."""
        shells = [np.flatnonzero(self._totals == n) for n in range(self.top + 1)]
        return np.concatenate(shells[0::2]), np.concatenate(shells[1::2])

    @functools.cached_property
    def _windows(self) -> tuple[list[int], list[int]]:
        """``_windows[j][R]``: the states of sector ``j`` of total at most
        ``R``, for ``R`` up to ``top + 2``."""
        shells = np.arange(self.top + 3)
        return tuple(
            np.searchsorted(self._totals[idx], shells, side="right").tolist()
            for idx in self.sectors
        )

    @functools.cached_property
    def _block_indices(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Flat ``d x d`` indices of the blocks of :func:`_split_sectors`."""
        idx = self.sectors
        return {
            g: tuple(idx[j][:, None] * self.dim + idx[j ^ g] for j in (0, 1))
            for g in (0, 1)
        }

    @functools.cached_property
    def _pt_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices into ``rho`` of its partial transpose's sector blocks;
        state ``a w + b`` is ``a`` on side A's grid, ``b < w = cutoff^n_b`` on B's."""
        w, d = self.sides[1], self.dim
        # row (a, b') and column (a', b) of the transpose read rho_{(a,b),(a',b')}
        pairs = (np.divmod(idx, w) for idx in self.sectors)
        return tuple((a[:, None] * w + b) * d + a * w + b[:, None] for a, b in pairs)

    def vacuum(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho


@dataclass(frozen=True, eq=False)
class FockGenerator:
    """Sparse master-equation pieces.

    ``half`` is the non-Hermitian combination
    ``-iH - (1/2) sum_k q_k L_k^2``.  As ``||A X||_s <= ||A||_1 ||X||_s`` and
    ``||X A||_s <= ||A||_inf ||X||_s`` in the entrywise 1-norm ``||.||_s``,
    ``norm_bound = 2 ||half||_1 + sum_k q_k ||L_k||_1 ||L_k||_inf`` bounds
    the right-hand side in that norm.

    The quadratic ``half`` keeps the parity of the total number and each
    linear ``L_k`` flips it, so :func:`lindblad_rhs` works with blocks over
    the even (0) and odd (1) states of :attr:`FockSpace.sectors`:
    ``half_blocks`` holds ``half``'s diagonal blocks ``(half_0, half_1)``, and
    ``split_lindblads`` holds, for each ``S_k = sqrt(q_k/2) L_k``, the factor
    :func:`lindblad_rhs` applies twice, its off-diagonal blocks
    ``(S_01, S_10)``, real when ``L_k`` is; every other block is empty.
    """

    space: FockSpace
    norm_bound: float
    half_blocks: tuple[sp.csr_array, sp.csr_array]
    split_lindblads: tuple[tuple[sp.csr_array, sp.csr_array], ...]


@dataclass(frozen=True, eq=False)
class _SharedPattern:
    """Fixed operators ``B_i`` stored on one sparsity pattern.

    ``data[i]`` holds ``B_i`` at the stored entries ``(rows, cols)``, sorted
    row-major, so the stored entries of any combination ``sum_i c_i B_i`` are
    the one product ``c @ data``.  ``blocks[(r, c)]`` maps the entries to the
    block of rows of total parity ``r`` and columns of parity ``c``, in the
    order of :attr:`FockSpace.sectors`: the entries it takes, in the block's
    own row-major order, their rows and columns in the block, and its shape.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray, tuple]]

    @classmethod
    def of(cls, space: "FockSpace", ops) -> "_SharedPattern":
        dim = space.dim
        coos = [sp.coo_array(op) for op in ops]
        keys = [coo.row.astype(np.int64) * dim + coo.col for coo in coos]
        union = np.unique(np.concatenate(keys))
        data = np.zeros((len(coos), union.size), dtype=complex)
        for row, coo, key in zip(data, coos, keys):
            np.add.at(row, np.searchsorted(union, key), coo.data)
        rows, cols = np.divmod(union, dim)
        parity = np.empty(dim, dtype=np.int64)
        rank = np.empty(dim, dtype=np.int64)
        for j, idx in enumerate(space.sectors):
            parity[idx] = j
            rank[idx] = np.arange(idx.size)
        blocks = {}
        for r in (0, 1):
            for c in (0, 1):
                take = np.flatnonzero((parity[rows] == r) & (parity[cols] == c))
                shape = (space.sectors[r].size, space.sectors[c].size)
                local = rank[rows[take]] * shape[1] + rank[cols[take]]
                order = np.argsort(local)
                blocks[r, c] = (take[order], *np.divmod(local[order], shape[1]), shape)
        return cls(dim, rows, cols, data, blocks)

    def combine(self, coeffs) -> np.ndarray:
        """Stored entries of ``sum_i c_i B_i``, one row per coefficient set.

        ``coeffs`` is one set or a sequence of sets, each flattened to the
        length of ``data`` (an ``n x n`` form for the products ``(j, k)``).
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        return coeffs.reshape(-1, len(self.data)) @ self.data

    def dense(self, coeffs) -> np.ndarray:  # sum_i c_i B_i of one set, as one array
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[self.rows, self.cols] = self.combine(coeffs)[0]
        return out

    def block(self, values: np.ndarray, r: int, c: int) -> sp.csr_array:
        """Block ``(r, c)`` of the matrix with these stored entries, as CSR
        with exact zeros dropped."""
        take, rows, cols, shape = self.blocks[r, c]
        values = values[take]
        keep = values != 0
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=shape[0]), out=indptr[1:])
        return sp.csr_array((values[keep], cols[keep], indptr), shape=shape)

    def norm(self, values: np.ndarray, axis: int) -> float:
        """Largest column (``axis`` 0: the 1-norm) or row (1: the inf-norm) sum."""
        lines = self.cols if axis == 0 else self.rows
        return float(np.bincount(lines, weights=np.abs(values), minlength=self.dim).max())


def build_fock_generator(
    space: FockSpace, g_form: np.ndarray, q_form: np.ndarray
) -> FockGenerator:
    """Sparse generator from the quadratic forms ``G`` and ``Q``.

    The Hamiltonian is ``(1/2) xi^T G xi`` evaluated on the quadrature
    operators; the noise form is diagonalized and each eigenvector becomes a
    Hermitian quadrature Lindblad operator at the eigenvalue rate.  Rates at
    or below ``n eps`` times the largest (``n`` quadratures) are dropped.
    The operators are combinations of the quadratures and their symmetrized
    products, which the space keeps on shared patterns: ``half`` is one
    product with the ``n^2`` products, the Lindblads one with the ``n``
    quadratures, and every sector block a gather from those entries.
    """
    n = space.layout.dim
    if g_form.shape != (n, n) or q_form.shape != (n, n):
        raise ValueError("form dimensions do not match the space")
    rates, vecs = np.linalg.eigh(q_form)
    if rates[0] < -1e-10 * np.abs(rates).max():
        raise ValueError("noise form is not positive semidefinite")
    # rates at or below eigh's resolution are roundoff of zero, not noise
    cut = max(rates[-1], 0.0) * n * np.finfo(float).eps
    kept = rates > cut
    rates, vecs = rates[kept], vecs[:, kept]
    quadratic, linear = space._quadratic, space._linear
    # -iH - (1/2) sum_k q_k L_k^2, as L_k^2 = sum_jk v_j v_k q_j q_k
    squares = (vecs * rates) @ vecs.T
    (half,) = quadratic.combine(-0.5j * g_form - 0.5 * squares)
    ops = linear.combine(vecs.T)
    rates = rates.tolist()
    splits = []
    for r, op in zip(rates, ops):
        split = math.sqrt(0.5 * r) * op
        # a position-only direction is real: keep it real for the real kernel
        if not split.imag.any():
            split = split.real
        splits.append(tuple(linear.block(split, j, 1 - j) for j in (0, 1)))
    return FockGenerator(
        space=space,
        norm_bound=2.0 * quadratic.norm(half, 0)
        + sum(r * linear.norm(op, 0) * linear.norm(op, 1) for r, op in zip(rates, ops)),
        half_blocks=tuple(quadratic.block(half, j, j) for j in (0, 1)),
        split_lindblads=tuple(splits),
    )


@functools.lru_cache(maxsize=8)
def _shared_space(cutoff: int, layout: ModeLayout) -> FockSpace:
    """One space per shape, so its quadratures and sector indices are built once."""
    return FockSpace(cutoff, layout)


def fock_generator_from_model(model: SystemModel, cutoff: int) -> FockGenerator:
    space = _shared_space(cutoff, model.layout)
    return build_fock_generator(space, hamiltonian_form(model), noise_form(model))


def _matmul_add(
    a: sp.csr_array, x: np.ndarray, out: np.ndarray, rows: int | None = None
) -> None:
    """``out += a[:rows] @ x`` in place, for C-contiguous complex ``x`` and ``out``.

    This is the kernel behind ``csr_array @ ndarray`` without the freshly
    zeroed output array that operator allocates on every call.  A real
    ``a`` takes the complex entries as float pairs: the same sums at half
    the arithmetic.  For a prefix of the rows, ``x`` must cover every
    column they store; the caller guarantees that.
    """
    if not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("operands must be C-contiguous")
    real = a.dtype == np.float64
    if not (x.dtype == out.dtype == np.complex128 and (real or a.dtype == np.complex128)):
        raise ValueError("operands must be complex128, the matrix real or complex128")
    n_rows, cols = a.shape
    rows = n_rows if rows is None else rows
    if (
        x.ndim != 2
        or not 0 <= rows <= n_rows
        or x.shape[0] > cols
        or (rows == n_rows and x.shape[0] != cols)
        or out.shape != (rows, x.shape[1])
    ):
        raise ValueError("operand shapes do not match")
    if real:
        x, out = x.view(np.float64), out.view(np.float64)
    _sparsetools.csr_matvecs(
        rows, cols, x.shape[1], a.indptr, a.indices, a.data, x.ravel(), out.ravel()
    )


Sectors = dict[int, tuple[np.ndarray, np.ndarray]]


def _split_sectors(space: FockSpace, rho: np.ndarray) -> Sectors:
    """The blocks ``{grade: (block_0, block_1)}`` of a Fock-order ``d x d`` matrix.

    Block ``j`` of grade ``g`` holds the rows of total parity ``j`` and the
    columns of parity ``j ^ g``: grade 0 is ``(rho_ee, rho_oo)`` and grade 1
    ``(rho_eo, rho_oe)``.  Each block is a new C-contiguous complex array.
    """
    space._check_state(rho)
    return {
        g: tuple(np.asarray(np.take(rho, i), dtype=complex) for i in pair)
        for g, pair in space._block_indices.items()
    }


def _join_sectors(space: FockSpace, blocks: Sectors) -> np.ndarray:
    """The Fock-order ``d x d`` matrix of the blocks; an absent grade is zero."""
    rho = np.zeros(space.dim**2, dtype=complex)
    for g, pair in blocks.items():
        for i, block in zip(space._block_indices[g], pair):
            rho[i] = block
    return rho.reshape(space.dim, space.dim)


def _window_shape(space: FockSpace, grade: int, j: int, reach: int) -> tuple[int, int]:
    """The shape of block ``j`` of ``grade`` up to total number ``reach``."""
    windows = space._windows
    return windows[j][reach], windows[j ^ grade][reach]


def _sector_views(space: FockSpace, flat: np.ndarray, grades, reach: int) -> Sectors:
    """The blocks of ``grades`` up to ``reach``, packed from the start of ``flat``."""
    views, start = {}, 0
    for g in grades:
        pair = []
        for j in (0, 1):
            rows, cols = _window_shape(space, g, j, reach)
            pair.append(flat[start : start + rows * cols].reshape(rows, cols))
            start += rows * cols
        views[g] = tuple(pair)
    return views


def _occupied_reach(space: FockSpace, blocks: Sectors) -> int:
    """Largest total number of a nonzero row (of a Hermitian matrix), or 0."""
    reach = 0
    for pair in blocks.values():
        for j, block in enumerate(pair):
            rows = np.flatnonzero(block.any(axis=1))
            if rows.size:
                reach = max(reach, int(space._totals[space.sectors[j][rows[-1]]]))
    return reach


def _rhs_work(space: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat scratch of :func:`lindblad_rhs`: ``inputs`` takes a grade's two
    padded term blocks, then its two adjoints; ``product`` and ``swap`` one
    block each."""
    n = [len(i) for i in space.sectors]
    inputs = np.empty(n[0] ** 2 + n[1] ** 2, dtype=complex)
    product, swap = np.empty((2, max(n) ** 2), dtype=complex)
    return inputs, product, swap


def lindblad_rhs(
    gen: FockGenerator,
    term: Sectors,
    out: Sectors | None = None,
    work: tuple | None = None,
    reach: int | None = None,
) -> Sectors:
    """Master-equation right-hand side on the parity blocks of a Hermitian matrix.

    For Hermitian ``rho`` and Hermitian Lindblads ``L_k``,
    ``L(rho) = X + X^dagger`` with
    ``X = half rho + sum_k S_k (S_k rho)^dagger``, ``S_k = sqrt(q_k/2) L_k``,
    so one product with ``half`` and two per Lindblad, all sparse times
    dense, give the exactly Hermitian result.  The domain is Hermitian
    matrices only: for any other ``rho`` the result is not ``L(rho)``.

    ``term`` maps a grade to its pair of blocks, laid out as by
    :func:`_split_sectors`; a grade left out is zero.  ``half`` is
    block-diagonal and each ``S_k`` off-diagonal over the even and odd
    states, so with ``r`` and ``c`` the row and column parities of a block and
    a bar their flip,
    ``X_rc = half_r rho_rc + sum_k S_{r rbar} (S_{c cbar} rho_{cbar rbar})^dagger``
    and ``L(rho)_rc = X_rc + X_cr^dagger``: each grade maps to itself, and
    every block is one product with ``half``'s block and two per Lindblad
    of a quarter of the ``d x d`` work.

    ``half`` moves the total number by 0 or 2 and ``S_k`` by 1, so for a
    ``rho`` within total ``reach`` (default the top), ``L(rho)`` is within
    ``reach + 2``: ``term``'s blocks are their windows up to ``reach``
    (:func:`_window_shape`), the result's those up to ``reach + 2``, and
    only the operator rows up to there are multiplied, each input padded
    with zero rows to those they read.  The skipped entries are exact zeros,
    and the accumulation order is the whole blocks', so the result is too.

    ``out`` (blocks shaped as the result) and ``work`` (from
    :func:`_rhs_work`) are optional preallocated buffers; ``out`` is
    overwritten and returned, and neither may overlap ``term``.
    """
    space = gen.space
    reach = space.top if reach is None else min(reach, space.top)
    shell = min(reach + 2, space.top)
    windows = space._windows
    for grade, pair in term.items():
        for j in (0, 1):
            if pair[j].shape != _window_shape(space, grade, j, reach):
                raise ValueError("term blocks do not match their reach")
    if out is None:
        out = {
            g: tuple(np.empty(_window_shape(space, g, j, shell), complex) for j in (0, 1))
            for g in term
        }
    inputs, product, swap = _rhs_work(space) if work is None else work
    for grade, pair in term.items():
        x = out[grade]
        padded = pair
        if reach < space.top:
            # half_r's rows up to the shell read rows up to shell + 2
            padded, start = [], 0
            for j, block in enumerate(pair):
                size = windows[j][shell + 2] * block.shape[1]
                view = inputs[start : start + size]
                view[: block.size] = block.ravel()
                view[block.size :] = 0.0
                padded.append(view.reshape(windows[j][shell + 2], block.shape[1]))
                start += size
        for j in (0, 1):
            c = j ^ grade  # block j holds rows of parity j, columns of parity c
            rows, cols = x[j].shape
            width = pair[j].shape[1]
            if width == cols:
                x[j].fill(0.0)
                _matmul_add(gen.half_blocks[j], padded[j], x[j], rows)
            else:
                # half keeps the term's columns: sum into a narrow block first
                narrow = product[: rows * width].reshape(rows, width)
                narrow.fill(0.0)
                _matmul_add(gen.half_blocks[j], padded[j], narrow, rows)
                x[j][:, :width] = narrow
                x[j][:, width:] = 0.0
            inner = pair[1 - c].shape[1]  # the term's columns of parity rbar
            held = windows[1 - j][shell + 1]  # rows of it S_{r rbar} reads
            for split in gen.split_lindblads:
                products = product[: cols * inner].reshape(cols, inner)
                products.fill(0.0)
                _matmul_add(split[c], padded[1 - c], products, cols)
                swaps = swap[: held * cols].reshape(held, cols)
                np.conj(products.T, out=swaps[:inner])
                swaps[inner:] = 0.0
                _matmul_add(split[j], swaps, x[j], rows)
        # the padded inputs are spent: their buffer takes the adjoints
        adjoints, start = [], 0
        for j in (0, 1):
            source = x[j ^ grade]
            view = inputs[start : start + source.size].reshape(source.shape[::-1])
            adjoints.append(np.conj(source.T, out=view))
            start += source.size
        for block, adjoint in zip(x, adjoints):
            block += adjoint
    return out


def leakage(space: FockSpace, rho: np.ndarray) -> float:
    """Worst per-mode population of the highest retained Fock level."""
    grid = np.real(np.diag(rho)).reshape((space.cutoff,) * space.layout.n_modes)
    return float(max(np.take(grid, -1, axis=ax).sum() for ax in range(grid.ndim)))


def _taylor_schedule(gen: FockGenerator, t: float) -> tuple[int, int]:
    """A-priori ``(degree, substeps)`` of :func:`lindblad_integrate` to time ``t``.

    ``s`` substeps of degree ``m``, with the fewest products ``s m`` such that
    the first neglected term ``(x/s)^(m+1) / (m+1)!``, ``x = t norm_bound``,
    is at most ``TAYLOR_TOL`` (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    488 (2011), with this bound for their norm estimate); the whole tail is
    under 1.25 times that term up to degree 55.  A time needing more than
    ``MAX_TAYLOR_PRODUCTS`` products is refused before any work.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")

    def substeps(m: int) -> int:
        theta = math.exp((math.lgamma(m + 2) + math.log(TAYLOR_TOL)) / (m + 1))
        return max(1, math.ceil(t * gen.norm_bound / theta))

    try:
        degree = min(range(1, 56), key=lambda m: m * substeps(m))
        steps = substeps(degree)
    except OverflowError:  # the substep count is not even a finite float
        degree = steps = None
    if steps is None or degree * steps > MAX_TAYLOR_PRODUCTS:
        raise ValueError(
            f"t = {t} needs more Taylor products (degree x substeps) than the "
            f"cap of {MAX_TAYLOR_PRODUCTS} at this cutoff"
        )
    return degree, steps


def lindblad_integrate(
    gen: FockGenerator, rho0: np.ndarray, t: float, leakage_limit: float = LEAKAGE_LIMIT
) -> np.ndarray:
    """Apply ``exp(t L)`` to ``rho0`` as a Taylor series, exact to double precision.

    The a-priori schedule of :func:`_taylor_schedule` (``s`` substeps of
    degree ``m``, at most ``MAX_TAYLOR_PRODUCTS`` products) caps the work.
    Each substep stops early once a rigorous bound shows the rest of its
    series is negligible: as ``||L(T)||_s <= norm_bound ||T||_s``, once the
    scaled term ``T_k`` is computed and ``k + 1 > x``, ``x = t norm_bound /
    s``, everything after it is at most ``||T_k||_s x / (k + 1 - x)``, and the
    substep stops when that is at most ``TAYLOR_TOL`` times the reference
    ``tr rho``.  Every term after the first is traceless, so the trace is a
    lower bound of ``||rho||_s`` for the whole substep; with a nonpositive
    trace only an exactly zero term, after which all are zero, stops early.

    The state is split once into the parity blocks of :func:`lindblad_rhs`
    and joined once at the end.  The generator never mixes the two grades,
    so a grade that is exactly zero on entry stays zero and is skipped: from
    the vacuum only the even-even and odd-odd blocks, half of the ``d x d``
    entries, are ever read or written.  If the state's nonzero rows reach
    total ``R``, term ``k`` lies within ``R + 2k`` (capped at the top) and
    is carried as the windows of its blocks up to there: from the vacuum,
    only the states of total at most ``2k``.  ``||.||_s`` is summed over
    those windows, outside which the term is exactly zero.
    The state is hermitized once on entry, after which every Taylor term,
    and so the result, is exactly Hermitian; the final truncation leakage
    must stay below the limit.  The blocks of the state
    and of two Taylor terms, the right-hand side's work space and one real
    buffer for ``|T_k|`` are allocated once per call.
    """
    space = gen.space
    entry = _split_sectors(space, rho0)  # which refuses another shape, also at t = 0
    degree, steps = _taylor_schedule(gen, t)
    if t == 0:
        return rho0.copy()
    x = t * gen.norm_bound / steps
    live = [g for g, pair in entry.items() if any(block.any() for block in pair)]
    # one set of buffers for the whole integration, reused by every term
    size = sum(
        math.prod(_window_shape(space, g, j, space.top)) for g in live for j in (0, 1)
    )
    state, term, following = np.empty((3, size), dtype=complex)
    state_blocks = _sector_views(space, state, live, space.top)
    work = _rhs_work(space)
    magnitude = np.empty(size)
    for g in live:
        for j in (0, 1):
            np.add(entry[g][j], np.conj(entry[g][j ^ g].T), out=state_blocks[g][j])
    state *= 0.5
    reach = _occupied_reach(space, state_blocks)
    for _ in range(steps):
        trace = sum(np.trace(b) for b in state_blocks.get(0, ()))
        floor = TAYLOR_TOL * float(trace.real)
        term_blocks = _sector_views(space, term, live, reach)
        for g, pair in term_blocks.items():
            for j, block in enumerate(pair):
                block[...] = state_blocks[g][j][: block.shape[0], : block.shape[1]]
        for k in range(1, degree + 1):
            shell = min(reach + 2, space.top)
            following_blocks = _sector_views(space, following, live, shell)
            lindblad_rhs(gen, term_blocks, out=following_blocks, work=work, reach=reach)
            used = sum(block.size for pair in following_blocks.values() for block in pair)
            active = following[:used]
            active *= t / (steps * k)
            for g, pair in following_blocks.items():
                for j, block in enumerate(pair):
                    state_blocks[g][j][: block.shape[0], : block.shape[1]] += block
            term, following = following, term
            term_blocks, reach = following_blocks, shell
            # the bound holds only for k + 1 > x; before that, skip the norm pass
            if k + 1 > x:
                if np.abs(active, out=magnitude[:used]).sum() * x <= floor * (k + 1 - x):
                    break
    out = _join_sectors(space, state_blocks)
    leak = leakage(space, out)
    if leak > leakage_limit:
        raise RuntimeError(
            f"truncation leakage {leak:.3e} exceeds {leakage_limit:.1e}; "
            "raise the cutoff"
        )
    return out


def extract_covariance(space: FockSpace, rho: np.ndarray) -> CovarianceMatrix:
    """Symmetrized second moments (mean-subtracted) of a dense state.

    Every moment is ``Re tr(op rho)``, the sum of ``op_ij rho_ji`` over the
    stored entries, so the means and the products ``(q_j q_k + q_k q_j) / 2``
    each take one product with ``rho`` gathered at their shared pattern.
    """
    space._check_state(rho)
    means, products = (
        (pattern.data @ rho[pattern.cols, pattern.rows]).real
        for pattern in (space._linear, space._quadratic)
    )
    v = products.reshape(means.size, means.size) - np.outer(means, means)
    return CovarianceMatrix(v, space.layout)


def squeezed_vacuum(space: FockSpace, r: float) -> np.ndarray:
    """Single-mode squeezed vacuum: position variance ``e^{-2r}/2``, momentum ``e^{2r}/2``."""
    if space.layout != ModeLayout(1, 0):
        raise ValueError("squeezed vacuum builder is single mode")
    a = space.destroy()
    # exp(-i H) with the Hermitian H = i r (a^2 - a^dag^2) / 2, from its eigenbasis
    energies, vecs = np.linalg.eigh(0.5j * r * (a @ a - a.T @ a.T))
    psi = vecs @ (np.exp(-1j * energies) * vecs[0].conj())
    return np.outer(psi, psi.conj())


# -- record-averaged channel step ---------------------------------------------


@functools.lru_cache(maxsize=32)
def _eigenbasis(cutoff: int, n_side: int, vec: tuple[float, ...] | None):
    """Eigen-decomposition of ``vec . R`` on a side of ``n_side`` modes, of 0 for None.

    A position direction (no momentum component) is a real operator, and its
    eigenbasis is taken real, so the basis changes into it can be real.
    Cached per side and direction, read-only: one ``eigh`` per direction.
    """
    if vec is None:
        pair = np.zeros(cutoff**n_side), np.eye(cutoff**n_side)
    else:
        op = _shared_space(cutoff, ModeLayout(n_side, 0))._linear.dense(vec)
        pair = np.linalg.eigh(op if any(vec[1::2]) else op.real)
    for array in pair:
        array.flags.writeable = False
    return pair


def _side_eigenbases(space: FockSpace, channel: Rank1Channel):
    """A channel's eigen-decompositions ``(values, basis)`` on side A and side B."""
    vecs = (channel.vec, channel.feed_vec)[:: 1 if channel.side == "A" else -1]
    return tuple(
        _eigenbasis(space.cutoff, n, None if v is None else tuple(v.tolist()))
        for n, v in zip((space.layout.n_a, space.layout.n_b), vecs)
    )


def _conjugate(
    rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray, spare: np.ndarray
) -> np.ndarray:
    """``M rho^dagger M^dagger`` with ``M = u_a (x) u_b``: for Hermitian ``rho``,
    ``M rho M^dagger``.

    ``M X`` is two side-wise contractions, one on each row axis of the
    ``(D_A, D_B, D)`` view of ``X``, ``O(D^2 (D_A + D_B))`` work in place of
    the ``O(D^3)`` of the ``D x D`` product, and the result is ``M (M
    rho)^dagger``: the same two again on one adjoint.  When both factors are
    real they act on the complex entries as float pairs, the same sums at
    half the arithmetic.  ``rho`` and ``spare`` are distinct C-contiguous
    complex ``D x D`` arrays; the result is written to ``spare`` and
    returned, and ``rho`` is overwritten.
    """
    d_a, d_b = len(u_a), len(u_b)
    real = not (np.iscomplexobj(u_a) or np.iscomplexobj(u_b))

    def rows(x: np.ndarray, mid: np.ndarray) -> None:
        # x = M x in place, through mid
        if real:
            x, mid = x.view(np.float64), mid.view(np.float64)
        np.matmul(u_a, x.reshape(d_a, -1), out=mid.reshape(d_a, -1))
        np.matmul(u_b, mid.reshape(d_a, d_b, -1), out=x.reshape(d_a, d_b, -1))

    rows(rho, spare)
    np.conj(rho.T, out=spare)
    rows(spare, rho)
    return spare


def _check_step(space: FockSpace, rho: np.ndarray, protocol: LoccProtocol, dt: float) -> None:
    space._check_state(rho)
    if space.layout != protocol.layout:
        raise ValueError("the protocol's layout does not match the space's")
    _check_dt(dt)


def _on_axes(pairs: np.ndarray, row: int, col: int) -> np.ndarray:
    """A 2-d array over two axes of ``(a, b, a', b')``, its first on ``row``."""
    if row > col:
        pairs, row, col = pairs.T, col, row
    shape = [1, 1, 1, 1]
    shape[row], shape[col] = pairs.shape
    return pairs.reshape(shape)


def _group_factors(space: FockSpace, channels, dt: float, scratch: np.ndarray):
    """Record-averaged multiplier of channels sharing their side eigenbases.

    Each channel's multiplier (:func:`kraus_average_step`) is diagonal in
    the shared joint eigenbasis, so the group's is their product
    ``W = exp(R) e^{i Phi}``, returned as factors on the ``(a, b, a', b')``
    view of the state in that basis (``a`` on side A's grid, ``b`` on B's),
    each shaped to broadcast over the axes it does not depend on.  With
    ``m``, ``f`` a channel's measured and fed eigenvalues of a row, ``m'``,
    ``f'`` those of a column and ``phi = kappa (m - m') + lam (f - f')``,
    ``R`` sums ``-dt (gamma (m - m')^2 / 2 + phi^2 / (8 gamma))`` over the
    channels.  That is minus a sum of squares, so the one exponential over
    the state's entries is real, at most 1 and cannot overflow; it is the
    first factor, written to ``scratch[0]``, and ``scratch[1]`` is work
    space (two real arrays of the state's size).

    ``Phi`` sums ``-dt (m + m') phi / 2 = theta(a, b) - theta(a', b') +
    chi``, with ``theta = -dt (kappa m^2 + lam m f) / 2`` and the cross term
    ``chi = -dt lam (m' f - m f') / 2``.  So ``e^{i Phi} = u(a, b) u(a',
    b')^* e^{i chi}`` with ``u = exp(i sum theta)``, a ``D_A D_B`` phase on
    the rows and its conjugate on the columns, and ``e^{i chi} = w(a', b)^*
    w(a, b')`` with ``w = exp(i dt cross / 2)`` over the summed cross terms.
    Where those cancel exactly, as for the mirrored pair of
    ``build_rank1_protocol`` (equal ``lam``), the ``w`` factors are left out.
    """
    real, work = scratch
    decay = [np.zeros((d, d)) for d in space.sides]  # dt gamma (m - m')^2 / 2
    angle = np.zeros(space.sides)  # sum theta over (a, b)
    # sum of +-lam x (x) y, + for side A: chi = -dt (cross(a', b) - cross(a, b')) / 2
    cross = np.zeros(space.sides)
    for i, channel in enumerate(channels):
        (x, _), (y, _) = _side_eigenbases(space, channel)
        measured, fed = (0, 1) if channel.side == "A" else (1, 0)
        m, f = (x, y) if measured == 0 else (y, x)
        delta = np.subtract.outer(m, m)
        scale = math.sqrt(dt / (8.0 * channel.gamma))
        spread = scale * channel.lam * np.subtract.outer(f, f)
        square = real if i == 0 else work  # phi^2 dt / (8 gamma)
        np.add(
            _on_axes(scale * channel.kappa * delta, measured, measured + 2),
            _on_axes(spread, fed, fed + 2),
            out=square,
        )
        np.square(square, out=square)
        if i:
            real += work
        decay[measured] += 0.5 * dt * channel.gamma * np.square(delta)
        # the same x (x) y on both sides, so a mirrored pair cancels exactly
        product = channel.lam * np.multiply.outer(x, y)
        angle -= 0.5 * dt * product
        angle -= 0.5 * dt * channel.kappa * np.expand_dims(np.square(m), 1 - measured)
        cross += product if measured == 0 else -product
    np.add(_on_axes(-decay[0], 0, 2), _on_axes(-decay[1], 1, 3), out=work)
    np.subtract(work, real, out=real)
    np.exp(real, out=real)
    u = np.exp(1j * angle)
    factors = real, u[:, :, None, None], u.conj()[None, None]
    if not cross.any():
        return factors
    w = np.exp(0.5j * dt * cross)
    return (*factors, _on_axes(w.conj(), 2, 1), _on_axes(w, 0, 3))


def _channel_chain(space: FockSpace, rho: np.ndarray, channels, dt: float, u_a, u_b):
    """The channels in turn, then ``u_a (x) u_b``: ``(state, trace_defect)``.

    Consecutive channels whose side eigenbases are exactly equal form a
    group: their multipliers are diagonal in one joint basis, so they
    commute and make one multiplier (:func:`_group_factors`).  The state is
    carried in its current side bases ``C``: the change into the next
    group's eigenbasis ``E`` is one conjugation by ``E^dagger C``, and the
    last, by ``u C``, lands in the Fock basis, so :func:`_conjugate` runs
    once per group plus once, on float pairs where both of its factors are
    real.  Each multiplier's factors are applied to the state in place.
    The state and one spare buffer are allocated once and swapped by every
    basis change; in between, the spare holds the multiplier's real factor.
    After the last, the spare takes the state's adjoint and then the result,
    hermitized and, if there are channels, renormalized in place.
    """
    groups = []  # (bases on sides A and B, channels)
    for channel in channels:
        bases = tuple(basis for _, basis in _side_eigenbases(space, channel))
        if groups and all(map(np.array_equal, groups[-1][0], bases)):
            groups[-1][1].append(channel)
        else:
            groups.append((bases, [channel]))
    out = np.array(rho, dtype=complex, order="C")  # a copy: the input is kept
    spare = np.empty_like(out)
    current = tuple(map(np.eye, space.sides))
    for bases, members in groups:
        change = (e.conj().T @ u for e, u in zip(bases, current))
        out, spare = _conjugate(out, *change, spare), out
        view = out.reshape(space.sides * 2)
        scratch = spare.view(np.float64).reshape((2, *space.sides * 2))
        for factor in _group_factors(space, members, dt, scratch):
            view *= factor
        current = bases
    out, spare = _conjugate(out, u_a @ current[0], u_b @ current[1], spare), out
    # the trace of the Hermitian part is the real part of the trace
    trace = float(np.real(np.trace(out))) if channels else 1.0
    np.conj(out.T, out=spare)
    spare += out
    spare *= 0.5 / trace
    return spare, abs(trace - 1.0)


def kraus_average_step(
    space: FockSpace, rho: np.ndarray, channel: Rank1Channel, dt: float
):
    """One finite-time channel applied as an explicit record average.

    Every Kraus operator ``K(y)`` is a function of the measured and fed
    quadratures alone, so in their joint eigenbasis the averaged map is an
    elementwise multiplier ``W``.  With the record phase
    ``phi = kappa Delta(measured) + lam Delta(fed)`` of an entry, the record
    integral ``int e^{-y^2} e^{-iky} dy / sqrt(pi) = e^{-k^2/4}``,
    ``k = sqrt(dt / (2 gamma)) phi``, gives ``W`` in closed form:
    ``exp(-gamma dt Delta(measured)^2 / 2 - dt phi^2 / (8 gamma)
    - i dt mean(measured) phi)``.  Its diagonal is 1: there its exponent is
    zero, and the factors of :func:`_group_factors` multiply to 1 up to
    roundoff (unit phases times their conjugates), so the trace drifts by
    roundoff only; that is renormalized away and reported.  The channel's
    directions must match the space's layout, as in a :class:`LoccProtocol`.

    Returns the new state together with its trace defect.
    """
    protocol = LoccProtocol(space.layout, (channel,), np.zeros((space.layout.dim,) * 2))
    _check_step(space, rho, protocol, dt)
    return _channel_chain(space, rho, protocol.channels, dt, *map(np.eye, space.sides))


def protocol_kraus_step(
    space: FockSpace, rho: np.ndarray, protocol: LoccProtocol, dt: float
):
    """One discrete protocol step on the dense state: channels, then unitary.

    The local Hamiltonian does not couple the sides, so its unitary is
    ``U_A (x) U_B``, each ``exp(-i dt H)`` from the eigendecomposition of a
    side's Hamiltonian ``H`` on that side's own grid, applied with the
    channels as one chain of fused basis changes (:func:`_channel_chain`).
    A rank-1 protocol's two channels share their eigenbases ``E``, so its
    step is two: into ``E``, where both make one multiplier, ``exp(R_A +
    R_B) u(a, b) u(a', b')^*`` with the feedback phase ``u = exp(-i dt
    (kappa_A alpha^2 / 2 + kappa_B beta^2 / 2 + lam alpha beta))``, and out
    by ``(U_A (x) U_B) E``.

    Returns the new state together with its trace defect.
    """
    _check_step(space, rho, protocol, dt)
    lo, h = space.layout, protocol.local_hamiltonian
    unitaries = []
    for n, block in ((lo.n_a, slice(None, lo.dim_a)), (lo.n_b, slice(lo.dim_a, None))):
        quadratic = _shared_space(space.cutoff, ModeLayout(n, 0))._quadratic
        energies, vecs = np.linalg.eigh(quadratic.dense(0.5 * h[block, block]))
        unitaries.append((vecs * np.exp(-1j * dt * energies)) @ vecs.conj().T)
    return _channel_chain(space, rho, protocol.channels, dt, *unitaries)


def log_negativity_dense(space: FockSpace, rho: np.ndarray) -> float:
    """Logarithmic negativity (base 2) from the dense partial transpose.

    The partial transpose moves ``rho_{(a,b),(a',b')}`` to ``(a,b'),(a',b)``
    (``a`` on side A's grid, ``b`` on B's), which keeps the total number of
    ``a, b, a', b'`` and so the grade of every entry.  When
    no entry of ``rho`` across the even and odd states is nonzero (exactly),
    the spectrum is that of the transpose's sector blocks ``M``, gathered
    from ``rho``, each cut to its leading (lowest-shell) ``n x n`` part, ``n``
    the least size where twice the row sums of ``|M|`` from row ``n`` on (a
    bound on the cut-off entrywise mass, ``M`` being Hermitian) are at most
    ``eps |tr rho| / 2``.  The trace norm is at most the entrywise 1-norm, so
    the sum of ``|lambda|`` moves by at most ``eps |tr rho|``: roundoff.
    """
    space._check_state(rho)
    if any(np.take(rho, i).any() for i in space._block_indices[1]):
        parts = [rho.reshape(space.sides * 2).transpose(0, 3, 2, 1).reshape(rho.shape)]
    else:
        budget = 0.5 * np.finfo(float).eps * abs(np.trace(rho))
        parts = []
        for indices in space._pt_blocks:
            block = np.take(rho, indices)
            tail = 2.0 * np.cumsum(np.abs(block).sum(axis=1)[::-1])[::-1]
            n = np.count_nonzero(~(tail <= budget))  # a NaN keeps its rows
            parts.append(block[:n, :n])
    value = float(np.log2(sum(np.abs(np.linalg.eigvalsh(p)).sum() for p in parts)))
    band = NEGATIVITY_ROUNDOFF_ULPS * space.dim * np.finfo(float).eps
    return 0.0 if abs(value) <= band else value
