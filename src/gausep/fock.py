"""Truncated number-basis oracle for the covariance-level machinery.

Everything else in this package works with first and second moments; this
module rebuilds the same dynamics as operators on a truncated Fock space so
results can be cross-checked against an implementation that shares no code
path with the Gaussian one.

* :func:`build_fock_generator` turns the quadratic Hamiltonian and noise
  forms into sparse Hermitian matrices: Hamiltonian and quadrature Lindblads;
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
  as grade 1 is from the vacuum, is never touched.
  The right-hand side, :func:`lindblad_rhs`, uses that every Taylor term of
  a Hermitian state is Hermitian, so it needs one sparse product with the
  non-Hermitian part of the generator and two per Lindblad, block by block;
  the products accumulate into buffers allocated once per integration;
* :func:`kraus_average_step` applies one measurement and feed-forward channel
  as an explicit record average, done in the eigenbasis of the measured and
  fed quadratures where every Kraus factor is diagonal, so the average is an
  elementwise multiplier on the density matrix, exact in closed form (each
  entry of the record integral is a Gaussian integral of a phase).  Basis
  changes act mode by mode, and :func:`protocol_kraus_step` fuses each with
  the next: one per channel plus one for the local unitary;
* :func:`log_negativity_dense` evaluates entanglement from the partial
  transpose of the dense state, which keeps the grade of every entry, so
  for a grade-0 state it diagonalizes the even and odd blocks apart; a
  value within ``NEGATIVITY_ROUNDOFF_ULPS d eps`` of zero is roundoff of a
  PPT state and is returned as exactly 0.

The truncation is the only systematic error source, so cutoffs should be
chosen with the leakage report rather than by eye.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse import _sparsetools

from .generators import SystemModel, hamiltonian_form, noise_form
from .locc import LoccProtocol, Rank1Channel, _check_dt
from .symplectic import CovarianceMatrix, ModeLayout

LEAKAGE_LIMIT = 1e-6
TAYLOR_TOL = 2.0**-54
# about ten seconds of right-hand sides at cutoff 12, minutes at cutoff 24
MAX_TAYLOR_PRODUCTS = 10_000
# |log2 ||rho^T||_1| up to this many d eps (d the space dimension) is the
# roundoff of eigvalsh on a PPT state, and the log-negativity is reported as 0
NEGATIVITY_ROUNDOFF_ULPS = 4


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Truncated oscillator space: one or two modes at a common cutoff."""

    cutoff: int
    modes: int = 2

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.modes not in (1, 2):
            raise ValueError("only one- and two-mode spaces are supported")

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes

    def destroy(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1, self.cutoff)), 1)

    def position(self) -> np.ndarray:
        a = self.destroy()
        return (a + a.T) / np.sqrt(2.0)

    def momentum(self) -> np.ndarray:
        a = self.destroy()
        return 1j * (a.T - a) / np.sqrt(2.0)

    def quadratures(self) -> tuple[sp.csr_array, ...]:
        """Sparse (x_a, p_a[, x_b, p_b]) in the interleaved ordering, built once."""
        return self._quadratures

    @functools.cached_property
    def _quadratures(self) -> tuple[sp.csr_array, ...]:
        x = sp.csr_array(self.position().astype(complex))
        p = sp.csr_array(self.momentum())
        if self.modes == 1:
            return x, p
        eye = sp.csr_array(np.eye(self.cutoff, dtype=complex))
        pairs = ((x, eye), (p, eye), (eye, x), (eye, p))
        return tuple(sp.kron(left, right, format="csr") for left, right in pairs)

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

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the basis states of even and of odd total number."""
        total = np.indices((self.cutoff,) * self.modes).sum(axis=0).ravel()
        return np.flatnonzero(total % 2 == 0), np.flatnonzero(total % 2 == 1)

    @functools.cached_property
    def _block_indices(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Flat ``d x d`` indices of the blocks of :func:`_split_sectors`."""
        idx = self.sectors
        return {
            g: tuple(idx[j][:, None] * self.dim + idx[j ^ g] for j in (0, 1))
            for g in (0, 1)
        }

    def vacuum(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho


@dataclass(frozen=True, eq=False)
class FockGenerator:
    """Sparse master-equation pieces.

    ``half_generator`` is the precomputed non-Hermitian combination
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
    ``(S_01, S_10)``; every other block is empty.
    """

    space: FockSpace
    hamiltonian: sp.csr_array
    lindblads: tuple[tuple[float, sp.csr_array], ...]
    half_generator: sp.csr_array
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

    def matrix(self, values: np.ndarray) -> sp.csr_array:
        """The matrix with these stored entries, exact zeros dropped."""
        return _csr(values, self.rows, self.cols, (self.dim, self.dim))

    def block(self, values: np.ndarray, r: int, c: int) -> sp.csr_array:
        """Block ``(r, c)`` of :meth:`matrix`, exact zeros dropped."""
        take, rows, cols, shape = self.blocks[r, c]
        return _csr(values[take], rows, cols, shape)

    def norm(self, values: np.ndarray, axis: int) -> float:
        """Largest column (``axis`` 0: the 1-norm) or row (1: the inf-norm) sum."""
        lines = self.cols if axis == 0 else self.rows
        return float(np.bincount(lines, weights=np.abs(values), minlength=self.dim).max())


def _csr(values: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_array:
    """CSR matrix of the nonzero ``values`` at row-major sorted ``(rows, cols)``."""
    keep = values != 0
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=shape[0]), out=indptr[1:])
    return sp.csr_array((values[keep], cols[keep], indptr), shape=shape)


def build_fock_generator(
    space: FockSpace, g_form: np.ndarray, q_form: np.ndarray
) -> FockGenerator:
    """Sparse generator from the quadratic forms ``G`` and ``Q``.

    The Hamiltonian is ``(1/2) xi^T G xi`` evaluated on the quadrature
    operators; the noise form is diagonalized and each eigenvector becomes a
    Hermitian quadrature Lindblad operator at the eigenvalue rate.  Rates at
    or below ``n eps`` times the largest (``n`` quadratures) are dropped.
    The operators are combinations of the quadratures and their symmetrized
    products, which the space keeps on shared patterns: ``H`` and ``half``
    are one product with the ``n^2`` products, the Lindblads one with the
    ``n`` quadratures, and every sector block a gather from those entries.
    """
    n = len(space.quadratures())
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
    h, half = quadratic.combine([0.5 * g_form, -0.5j * g_form - 0.5 * squares])
    ops = linear.combine(vecs.T)
    rates = rates.tolist()
    return FockGenerator(
        space=space,
        hamiltonian=quadratic.matrix(h),
        lindblads=tuple((r, linear.matrix(op)) for r, op in zip(rates, ops)),
        half_generator=quadratic.matrix(half),
        norm_bound=2.0 * quadratic.norm(half, 0)
        + sum(r * linear.norm(op, 0) * linear.norm(op, 1) for r, op in zip(rates, ops)),
        half_blocks=tuple(quadratic.block(half, j, j) for j in (0, 1)),
        split_lindblads=tuple(
            tuple(linear.block(math.sqrt(0.5 * r) * op, j, 1 - j) for j in (0, 1))
            for r, op in zip(rates, ops)
        ),
    )


@functools.lru_cache(maxsize=8)
def _shared_space(cutoff: int, modes: int) -> FockSpace:
    """One space per shape, so its quadratures and sector indices are built once."""
    return FockSpace(cutoff, modes)


def fock_generator_from_model(model: SystemModel, cutoff: int) -> FockGenerator:
    if model.layout != ModeLayout(1, 1):
        raise ValueError("the dense oracle supports one mode per side")
    space = _shared_space(cutoff, 2)
    return build_fock_generator(space, hamiltonian_form(model), noise_form(model))


def _matmul_add(a: sp.csr_array, x: np.ndarray, out: np.ndarray) -> None:
    """``out += a @ x`` in place, for C-contiguous complex ``x`` and ``out``.

    This is the kernel behind ``csr_array @ ndarray`` without the freshly
    zeroed output array that operator allocates on every call.
    """
    if not (x.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("operands must be C-contiguous")
    if not (a.dtype == x.dtype == out.dtype == np.complex128):
        raise ValueError("operands must be complex128")
    rows, cols = a.shape
    if x.ndim != 2 or x.shape[0] != cols or out.shape != (rows, x.shape[1]):
        raise ValueError("operand shapes do not match")
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
    if np.shape(rho) != (space.dim, space.dim):
        raise ValueError("matrix shape does not match the space")
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


def _sector_buffer(space: FockSpace, grades) -> tuple[np.ndarray, Sectors]:
    """One flat complex array and the blocks of ``grades`` as views into it."""
    n = [len(i) for i in space.sectors]
    shapes = [(n[j], n[j ^ g]) for g in grades for j in (0, 1)]
    sizes = [rows * cols for rows, cols in shapes]
    flat = np.empty(sum(sizes), dtype=complex)
    views = [v.reshape(s) for v, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    return flat, {g: tuple(views[2 * i : 2 * i + 2]) for i, g in enumerate(grades)}


def _rhs_work(space: FockSpace) -> dict[int, tuple]:
    """Scratch of :func:`lindblad_rhs`: ``(products, swaps, adjoints)`` by grade.

    Products and swaps live for one Lindblad term, so every block and grade
    shares one pair of flat arrays; the two adjoints of a grade are live
    together and share a third.
    """
    n = [len(i) for i in space.sectors]
    product, swap = np.empty((2, max(n) ** 2), dtype=complex)
    adjoint = np.empty(n[0] ** 2 + n[1] ** 2, dtype=complex)

    def view(buf: np.ndarray, rows: int, cols: int, start: int = 0) -> np.ndarray:
        return buf[start : start + rows * cols].reshape(rows, cols)

    work = {}
    for g in (0, 1):
        products = tuple(view(product, n[j ^ g], n[1 - j]) for j in (0, 1))
        swaps = tuple(view(swap, n[1 - j], n[j ^ g]) for j in (0, 1))
        adjoints = (
            view(adjoint, n[0], n[g]),
            view(adjoint, n[1], n[1 - g], n[0] * n[g]),
        )
        work[g] = (products, swaps, adjoints)
    return work


def lindblad_rhs(
    gen: FockGenerator,
    term: Sectors,
    out: Sectors | None = None,
    work: dict | None = None,
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

    ``out`` (blocks shaped as ``term``) and ``work`` (from
    :func:`_rhs_work`) are optional preallocated buffers; ``out`` is
    overwritten and returned, and neither may overlap ``term``.
    """
    if out is None:
        out = {g: tuple(np.empty_like(b) for b in pair) for g, pair in term.items()}
    if work is None:
        work = _rhs_work(gen.space)
    for grade, pair in term.items():
        x = out[grade]
        products, swaps, adjoints = work[grade]
        for j in (0, 1):
            c = j ^ grade  # block j holds rows of parity j, columns of parity c
            x[j].fill(0.0)
            _matmul_add(gen.half_blocks[j], pair[j], x[j])
            for split in gen.split_lindblads:
                products[j].fill(0.0)
                _matmul_add(split[c], pair[1 - c], products[j])
                _matmul_add(split[j], np.conj(products[j].T, out=swaps[j]), x[j])
        for j in (0, 1):
            np.conj(x[j ^ grade].T, out=adjoints[j])
        for block, adjoint in zip(x, adjoints):
            block += adjoint
    return out


def leakage(space: FockSpace, rho: np.ndarray) -> float:
    """Worst per-mode population of the highest retained Fock level."""
    grid = np.real(np.diag(rho)).reshape((space.cutoff,) * space.modes)
    return float(max(np.take(grid, -1, axis=ax).sum() for ax in range(space.modes)))


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
    entries, are ever read or written.  ``||.||_s`` is summed over the
    evolved blocks.  The state is hermitized once on entry, after which
    every Taylor term, and so the result, is exactly Hermitian; the final
    truncation leakage must stay below the limit.  The blocks of the state
    and of two Taylor terms, the right-hand side's work space and one real
    buffer for ``|T_k|`` are allocated once per call.
    """
    degree, steps = _taylor_schedule(gen, t)
    if t == 0:
        return rho0.copy()
    x = t * gen.norm_bound / steps
    space = gen.space
    entry = _split_sectors(space, rho0)
    live = [g for g, pair in entry.items() if any(block.any() for block in pair)]
    # one set of buffers for the whole integration, reused by every term
    (state, state_blocks), (term, term_blocks), (following, following_blocks) = (
        _sector_buffer(space, live) for _ in range(3)
    )
    work = _rhs_work(space)
    magnitude = np.empty(state.shape)
    for g in live:
        for j in (0, 1):
            np.add(entry[g][j], np.conj(entry[g][j ^ g].T), out=state_blocks[g][j])
    state *= 0.5
    for _ in range(steps):
        trace = sum(np.trace(b) for b in state_blocks.get(0, ()))
        floor = TAYLOR_TOL * float(trace.real)
        term[...] = state
        for k in range(1, degree + 1):
            lindblad_rhs(gen, term_blocks, out=following_blocks, work=work)
            following *= t / (steps * k)
            state += following
            term, following = following, term
            term_blocks, following_blocks = following_blocks, term_blocks
            # the bound holds only for k + 1 > x; before that, skip the norm pass
            if k + 1 > x:
                if np.abs(term, out=magnitude).sum() * x <= floor * (k + 1 - x):
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
    means, products = (
        (pattern.data @ rho[pattern.cols, pattern.rows]).real
        for pattern in (space._linear, space._quadratic)
    )
    v = products.reshape(means.size, means.size) - np.outer(means, means)
    layout = ModeLayout(1, 1) if space.modes == 2 else ModeLayout(1, 0)
    return CovarianceMatrix(v, layout)


def squeezed_vacuum(space: FockSpace, r: float) -> np.ndarray:
    """Single-mode squeezed vacuum: position variance ``e^{-2r}/2``, momentum ``e^{2r}/2``."""
    if space.modes != 1:
        raise ValueError("squeezed vacuum builder is single mode")
    a = space.destroy().astype(complex)
    gen = 0.5 * r * (a @ a - a.T @ a.T)
    u = expm(gen)
    psi = u[:, 0]
    return np.outer(psi, psi.conj())


def product_state(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    return np.kron(rho_a, rho_b)


# -- record-averaged channel step ---------------------------------------------


def _quadrature_eigenbasis(space_1: FockSpace, vec: np.ndarray | None):
    """Eigen-decomposition of ``vec . (x, p)`` on a single mode, of 0 for None."""
    if vec is None:
        return np.zeros(space_1.cutoff), np.eye(space_1.cutoff, dtype=complex)
    op = vec[0] * space_1.position().astype(complex) + vec[1] * space_1.momentum()
    return np.linalg.eigh(op)


def _conjugate(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """``(u_a (x) u_b) rho (u_a (x) u_b)^dagger`` as four mode-wise contractions.

    Each one-mode ``c x c`` factor acts on one axis of the ``(c, c, c, c)``
    view of ``rho``, ``O(c^5)`` work in place of the ``O(c^6)`` of the
    ``c^2 x c^2`` products.
    """
    c = u_a.shape[0]
    r = (u_a @ rho.reshape(c, c**3)).reshape(c, c, c * c)
    r = (u_b @ r).reshape(c**3, c)
    r = (r @ u_b.conj().T).reshape(c * c, c, c)
    return (u_a.conj() @ r).reshape(c * c, c * c)


def _check_step(space: FockSpace, dt: float) -> None:
    if space.modes != 2:
        raise ValueError("channel averaging needs the two-mode space")
    _check_dt(dt)


def _channel_factors(one: FockSpace, channel: Rank1Channel, dt: float):
    """A channel's one-mode eigenbases ``(A, B)`` and record-averaged multiplier.

    The multiplier is on the ``(a, b, a', b')`` view of the state in the
    joint eigenbasis, flattened to ``(c^2, c^2)``.  With ``x``, ``y`` the
    measured and fed eigenvalue differences, the exponent of
    :func:`kraus_average_step` is ``p + (z + q) y``, ``p`` and ``z`` on the
    measured mode and ``q`` on the fed one: a sum, a product and a sum
    before one ``c^4`` exponential.
    """
    c = one.cutoff
    m_vals, m_basis = _quadrature_eigenbasis(one, channel.vec)
    f_vals, f_basis = _quadrature_eigenbasis(one, channel.feed_vec)
    measured, fed = (0, 1) if channel.side == "A" else (1, 0)
    bases = (m_basis, f_basis) if measured == 0 else (f_basis, m_basis)

    def on_mode(pairs: np.ndarray, mode: int) -> np.ndarray:
        # a (c, c) array over one mode's level pairs on its axes of (a, b, a', b')
        return pairs.reshape((c, 1, c, 1) if mode == 0 else (1, c, 1, c))

    x, y = (v[:, None] - v[None, :] for v in (m_vals, f_vals))
    mean = 0.5 * (m_vals[:, None] + m_vals[None, :])
    gamma, kappa, lam = channel.gamma, channel.kappa, channel.lam
    p = -dt * ((0.5 * gamma + kappa**2 / (8.0 * gamma)) * x + 1j * kappa * mean) * x
    z = -dt * kappa * lam / (4.0 * gamma) * x - 1j * dt * lam * mean
    q = -dt * lam**2 / (8.0 * gamma) * y
    exponent = (on_mode(z, measured) + on_mode(q, fed)) * on_mode(y, fed)
    exponent += on_mode(p, measured)
    return bases, np.exp(exponent, out=exponent).reshape(c * c, c * c)


def _channel_chain(space: FockSpace, rho: np.ndarray, channels, dt: float, u_a, u_b):
    """The channels in turn, then ``u_a (x) u_b``: ``(state, trace_defect)``.

    The state is carried in its current one-mode bases ``C``: the change
    into the next channel's eigenbasis ``E`` is one conjugation by
    ``E^dagger C``, and the last, by ``u C``, lands in the Fock basis, so
    :func:`_conjugate` runs ``len(channels) + 1`` times.  The result is
    hermitized, and renormalized if there are channels, once.
    """
    c = space.cutoff
    current = (np.eye(c, dtype=complex),) * 2
    out = rho
    for channel in channels:
        bases, multiplier = _channel_factors(_shared_space(c, 1), channel, dt)
        out = _conjugate(out, *(e.conj().T @ u for e, u in zip(bases, current)))
        out *= multiplier
        current = bases
    out = _conjugate(out, u_a @ current[0], u_b @ current[1])
    out = 0.5 * (out + out.conj().T)
    if not channels:
        return out, 0.0
    trace = float(np.real(np.trace(out)))
    return out / trace, abs(trace - 1.0)


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
    - i dt mean(measured) phi)``.  Its diagonal is exactly 1, so the trace
    drifts by roundoff only; that is renormalized away and reported.

    Returns the new state together with its trace defect.
    """
    _check_step(space, dt)
    eye = np.eye(space.cutoff, dtype=complex)
    return _channel_chain(space, rho, (channel,), dt, eye, eye)


def protocol_kraus_step(
    space: FockSpace, rho: np.ndarray, protocol: LoccProtocol, dt: float
):
    """One discrete protocol step on the dense state: channels, then unitary.

    The local Hamiltonian does not couple the sides, so its unitary is
    ``U_A (x) U_B`` from two one-mode exponentials, applied with the channels
    as one chain of fused basis changes (:func:`_channel_chain`).

    Returns the new state together with its trace defect.
    """
    _check_step(space, dt)
    quadratic = _shared_space(space.cutoff, 1)._quadratic
    h = protocol.local_hamiltonian
    d = protocol.layout.dim_a
    u_a, u_b = (
        expm(-1j * dt * quadratic.matrix(local).toarray())
        for local in quadratic.combine([0.5 * h[:d, :d], 0.5 * h[d:, d:]])
    )
    return _channel_chain(space, rho, protocol.channels, dt, u_a, u_b)


def log_negativity_dense(space: FockSpace, rho: np.ndarray) -> float:
    """Logarithmic negativity (base 2) from the dense partial transpose.

    The partial transpose moves ``rho_{(a,b),(a',b')}`` to ``(a,b'),(a',b)``,
    which keeps ``a + b + a' + b'`` and so the grade of every entry.  When
    no entry across the even and odd states is nonzero (exactly), the
    transpose is block-diagonal on them too and its spectrum is that of the
    two blocks, a quarter of the work of one ``d x d`` ``eigvalsh``.
    """
    if space.modes != 2:
        raise ValueError("negativity needs the two-mode space")
    c = space.cutoff
    pt = rho.reshape(c, c, c, c).transpose(0, 3, 2, 1).reshape(c * c, c * c)
    blocks = _split_sectors(space, pt)
    if any(block.any() for block in blocks[1]):
        parts = [pt]
    else:
        parts = blocks[0]
    value = float(np.log2(sum(np.abs(np.linalg.eigvalsh(p)).sum() for p in parts)))
    band = NEGATIVITY_ROUNDOFF_ULPS * space.dim * np.finfo(float).eps
    return 0.0 if abs(value) <= band else value
